"""WBA — Workflow-Based Application scheduler (Blythe et al. 2005).

Reference: "Task scheduling strategies for workflow-based applications in
grids", CCGrid 2005.  Scheduling complexity at most O(|T| |D| |V|)
(Section IV-A).

WBA is a greedy randomized (GRASP-style) algorithm: in each iteration it
evaluates, for every ready task, the increase in the current schedule's
makespan caused by placing the task on its best node, and then picks
randomly among the placements whose increase is within
``alpha * (max_increase - min_increase)`` of the minimum — "guided by a
distribution that favors choices that least increase the schedule
makespan" (Section IV-A).

With ``alpha = 0`` WBA degenerates to a deterministic min-increase greedy;
``alpha = 0.5`` (default) matches the exploration/exploitation middle
ground of the original paper.  The RNG seed makes runs reproducible.
"""

from __future__ import annotations

import math

from repro.core.compiled import argmin_ranked
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder
from repro.utils.rng import as_generator

__all__ = ["WBAScheduler"]


@register_scheduler
class WBAScheduler(Scheduler):
    """Greedy randomized makespan-increase minimization.

    Parameters
    ----------
    alpha:
        Restricted-candidate-list width in [0, 1]; 0 = fully greedy,
        1 = uniform over all ready placements.
    seed:
        RNG seed (default 0 so that the scheduler is deterministic unless
        the caller opts into randomness).
    """

    name = "WBA"
    info = SchedulerInfo(
        name="WBA",
        full_name="Workflow-Based Application",
        reference="Blythe et al., CCGrid 2005",
        complexity="O(|T| |D| |V|)",
        machine_model="unrelated",
        notes="Greedy randomized; favors least makespan increase.",
    )

    def __init__(self, alpha: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.seed = seed

    def schedule(self, instance: ProblemInstance) -> Schedule:
        rng = as_generator(self.seed)
        builder = ScheduleBuilder(instance, insertion=False)
        nodes = instance.network.nodes
        order = builder.node_str_order
        while True:
            ready = builder.ready_tasks()
            if not ready:
                break
            current = builder.makespan()
            # One batched EFT sweep over the whole ready set; a row's
            # minimum is the task's best finish time.
            rows = builder.eft_all_many(ready)
            # An unreachable placement (dead links) costs inf, never the
            # NaN of inf - inf, which would leave no candidate to pick.
            increases = [
                math.inf if math.isinf(finish) else max(finish - current, 0.0)
                for finish in rows.min(axis=1).tolist()
            ]
            pool = [i for i, inc in enumerate(increases) if not math.isinf(inc)]
            if not pool:
                pool = list(range(len(ready)))
            lo = min(increases[i] for i in pool)
            hi = max(increases[i] for i in pool)
            # hi == lo also covers an all-inf pool, whose width is NaN.
            threshold = lo if hi == lo else lo + self.alpha * (hi - lo)
            # Scale-relative tolerance: membership in the candidate list
            # must be invariant under rescaling the instance's weights.
            tol = 1e-12 * hi if math.isfinite(hi) else 0.0
            candidates = [i for i in pool if increases[i] <= threshold + tol]
            i = candidates[int(rng.integers(len(candidates)))]
            # The task's best node under the (eft, str(node)) tie-break of
            # the scalar min() this replaced.
            builder.commit(ready[i], nodes[argmin_ranked(rows[i], order)])
        return builder.schedule()
