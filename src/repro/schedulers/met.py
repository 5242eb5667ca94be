"""MET — Minimum Execution Time (Armstrong, Hensgen & Kidd 1998).

MET schedules each task on the node with the smallest *execution* time,
regardless of when the task could actually start there (Section IV-A).
Scheduling complexity O(|T||V|).

Under the related-machines model the minimum-execution-time node is always
the fastest node, so MET degenerates to FastestNode's placement — but it
reaches it through the unrelated-machines decision rule, which is exactly
why the original authors describe MET as prone to severe load imbalance.
"""

from __future__ import annotations

from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder, exec_time
from repro.schedulers.common import topological_order

__all__ = ["METScheduler"]


@register_scheduler
class METScheduler(Scheduler):
    """Assign each task to its minimum-execution-time node."""

    name = "MET"
    info = SchedulerInfo(
        name="MET",
        full_name="Minimum Execution Time",
        reference="Armstrong, Hensgen & Kidd, HCW 1998",
        complexity="O(|T| |V|)",
        machine_model="unrelated",
        notes="Ignores node availability; degenerate under related machines.",
    )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        builder = ScheduleBuilder(instance, insertion=False)
        nodes = instance.network.nodes
        for task in topological_order(instance):
            node = min(nodes, key=lambda v: (exec_time(instance, task, v), str(v)))
            builder.commit(task, node)
        return builder.schedule()
