"""OLB — Opportunistic Load Balancing (Armstrong, Hensgen & Kidd 1998).

OLB assigns tasks, in arbitrary order, to the node that becomes *available*
earliest, without considering the task's execution time there at all
(Section IV-A: "probably useful only as a baseline").  Runtime O(|T||V|)
in this precedence-aware adaptation (O(|T|) amortized with a heap in the
original independent-task setting).

Our "arbitrary" order is the deterministic lexicographic topological order,
and availability is the finish time of the node's last committed task.
"""

from __future__ import annotations

from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder
from repro.schedulers.common import topological_order

__all__ = ["OLBScheduler"]


@register_scheduler
class OLBScheduler(Scheduler):
    """Assign each task to the earliest-available node."""

    name = "OLB"
    info = SchedulerInfo(
        name="OLB",
        full_name="Opportunistic Load Balancing",
        reference="Armstrong, Hensgen & Kidd, HCW 1998",
        complexity="O(|T| |V|)",
        machine_model="unrelated",
        notes="Ignores execution times entirely.",
    )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        builder = ScheduleBuilder(instance, insertion=False)
        nodes = instance.network.nodes
        for task in topological_order(instance):
            node = min(nodes, key=lambda v: (builder.node_available(v), str(v)))
            builder.commit(task, node)
        return builder.schedule()
