"""BruteForce — exhaustive optimal scheduling for tiny instances.

Enumerates every (linear extension, task-to-node assignment) pair,
simulates each with earliest-start (append) semantics, and keeps the best
schedule.  This is exact: for any fixed assignment, ordering tasks by the
start times of an optimal schedule yields a linear extension under which
greedy earliest-start scheduling starts every task no later than the
optimum (a straightforward induction over the order), so the optimal
schedule is always contained in the enumerated space.

The complexity is O(#extensions * |V|^|T|) simulations; the scheduler
refuses instances whose search space exceeds ``max_evaluations`` rather
than silently running forever.  The paper excludes BruteForce (and SMT)
from the benchmarking and adversarial experiments for exactly this reason
(Section IV-A); we use it in tests as an optimality oracle.
"""

from __future__ import annotations

import itertools
import math

from repro.core.exceptions import SchedulingError
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder
from repro.utils.topo import all_linear_extensions

__all__ = ["BruteForceScheduler"]


@register_scheduler
class BruteForceScheduler(Scheduler):
    """Optimal makespan by exhaustive search (tiny instances only).

    Parameters
    ----------
    max_evaluations:
        Upper bound on simulated (extension, assignment) pairs; exceeded
        search spaces raise :class:`SchedulingError` up front.
    """

    name = "BruteForce"
    info = SchedulerInfo(
        name="BruteForce",
        full_name="Brute Force",
        reference="exhaustive baseline (this paper)",
        complexity="exponential",
        machine_model="unrelated",
        exponential=True,
        notes="Optimality oracle; excluded from experiments.",
    )

    def __init__(self, max_evaluations: int = 2_000_000) -> None:
        self.max_evaluations = max_evaluations

    def schedule(self, instance: ProblemInstance) -> Schedule:
        tasks = instance.task_graph.tasks
        nodes = instance.network.nodes
        num_assignments = len(nodes) ** len(tasks)
        # #extensions <= |T|!; cheap upper bound for the guard.
        bound = num_assignments * math.factorial(len(tasks))
        if bound > self.max_evaluations:
            raise SchedulingError(
                f"search space too large for BruteForce: <= {bound} evaluations "
                f"(limit {self.max_evaluations}); use a heuristic or SMT instead"
            )

        best_schedule: Schedule | None = None
        best_makespan = math.inf
        for extension in all_linear_extensions(instance.task_graph.successor_map):
            for assignment in itertools.product(nodes, repeat=len(extension)):
                builder = ScheduleBuilder(instance, insertion=False)
                for task, node in zip(extension, assignment):
                    builder.commit(task, node)
                    if builder.makespan() >= best_makespan:  # prune dominated prefixes
                        break
                else:
                    makespan = builder.makespan()
                    if makespan < best_makespan:
                        best_makespan = makespan
                        best_schedule = builder.schedule()
        if best_schedule is None:
            # Only possible for an empty task graph; return the empty schedule.
            builder = ScheduleBuilder(instance, insertion=False)
            return builder.schedule()
        return best_schedule
