"""FastestNode — serialize everything on the fastest compute node.

A simple baseline (Section IV-A): all tasks execute back-to-back on the
node with the highest speed, so there is never any communication and the
makespan is exactly ``sum(c(t)) / max(s(v))``.  The paper repeatedly uses
FastestNode to expose over-parallelization: PISA finds instances where
HEFT is 4.34x worse than this trivial algorithm (Section VI-A).
"""

from __future__ import annotations

from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder
from repro.schedulers.common import topological_order

__all__ = ["FastestNodeScheduler"]


@register_scheduler
class FastestNodeScheduler(Scheduler):
    """All tasks in series on the fastest node."""

    name = "FastestNode"
    info = SchedulerInfo(
        name="FastestNode",
        full_name="Fastest Node",
        reference="baseline (this paper)",
        complexity="O(|T| + |V|)",
        machine_model="related",
        notes="Makespan is exactly total cost / max speed.",
    )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        builder = ScheduleBuilder(instance, insertion=False)
        node = instance.network.fastest_node
        for task in topological_order(instance):
            builder.commit(task, node)
        return builder.schedule()
