"""MinMin (Braun et al. 2001), adapted to precedence-constrained task graphs.

Reference: "A comparison of eleven static heuristics for mapping a class of
independent tasks onto heterogeneous distributed computing systems",
JPDC 2001.  The original operates on independent tasks; following SAGA, we
apply it to the *ready set* of a task graph:

repeat until all tasks are scheduled:
    for every ready task, find its minimum completion time (MCT) over all
    nodes given previously committed decisions;
    commit the task whose MCT is **smallest** to its MCT node.

Intuition: lock in the placements that finish soonest, keeping machines
busy with quick wins.  Scheduling complexity O(|T|^2 |V|).
"""

from __future__ import annotations

from repro.core.compiled import argmin_ranked
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder

__all__ = ["MinMinScheduler", "minmax_completion_pass"]


def minmax_completion_pass(builder: ScheduleBuilder, take_max: bool) -> None:
    """Shared MinMin/MaxMin loop: repeatedly commit the extreme-MCT ready task.

    ``take_max=False`` gives MinMin, ``take_max=True`` gives MaxMin.  Ties
    are broken deterministically by task name.  The whole ready set is
    scored in one batched EFT sweep (:meth:`ScheduleBuilder.eft_all_many`)
    whose row minima are the tasks' MCTs; only the chosen task's node is
    then looked up, with :func:`~repro.core.compiled.argmin_ranked` over
    ``node_str_order`` reproducing the ``(eft, str(node))`` tie-break of
    the scalar ``min()`` this replaced.
    """
    nodes = builder.instance.network.nodes
    order = builder.node_str_order
    # Infinite completion times sort last for MinMin and first for MaxMin.
    sign = -1.0 if take_max else 1.0
    while True:
        ready = builder.ready_tasks()
        if not ready:
            break
        rows = builder.eft_all_many(ready)
        mcts = (rows.min(axis=1) * sign).tolist()
        # min() over (signed MCT, task name, position) tuples: the
        # (mct, str(task)) key with the first task winning exact ties.
        _, _, i = min(zip(mcts, map(str, ready), range(len(ready))))
        builder.commit(ready[i], nodes[argmin_ranked(rows[i], order)])


@register_scheduler
class MinMinScheduler(Scheduler):
    """Iteratively commit the ready task with the smallest minimum completion time."""

    name = "MinMin"
    info = SchedulerInfo(
        name="MinMin",
        full_name="MinMin",
        reference="Braun et al., JPDC 2001",
        complexity="O(|T|^2 |V|)",
        machine_model="unrelated",
        notes="Ready-set adaptation of the independent-task heuristic.",
    )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        builder = ScheduleBuilder(instance, insertion=False)
        minmax_completion_pass(builder, take_max=False)
        return builder.schedule()
