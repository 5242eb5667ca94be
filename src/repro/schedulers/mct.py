"""MCT — Minimum Completion Time (Armstrong, Hensgen & Kidd 1998).

MCT assigns tasks in arbitrary order to the node with the smallest
completion time given previously scheduled tasks — "basically HEFT without
insertion or its priority function" (Section IV-A).  Scheduling complexity
O(|T|^2 |V|) in the precedence-aware setting (completion times depend on
data arrival from scheduled parents).

Our "arbitrary" order is the deterministic lexicographic topological order.
"""

from __future__ import annotations

from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder
from repro.schedulers.common import topological_order

__all__ = ["MCTScheduler"]


@register_scheduler
class MCTScheduler(Scheduler):
    """Assign each task (topological order) to its minimum-completion-time node."""

    name = "MCT"
    info = SchedulerInfo(
        name="MCT",
        full_name="Minimum Completion Time",
        reference="Armstrong, Hensgen & Kidd, HCW 1998",
        complexity="O(|T|^2 |V|)",
        machine_model="unrelated",
        notes="HEFT without insertion or its priority function.",
    )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        builder = ScheduleBuilder(instance, insertion=False)
        for task in topological_order(instance):
            node = builder.best_node_by_eft(task)
            builder.commit(task, node)
        return builder.schedule()
