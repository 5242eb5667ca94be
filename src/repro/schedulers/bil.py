"""BIL — Best Imaginary Level scheduling (Oh & Ha 1996).

Reference: "A static scheduling heuristic for heterogeneous processors",
Euro-Par 1996.  Scheduling complexity O(|T|^2 |V| log |V|); proven optimal
for linear task graphs (Section IV-A).

The *best imaginary level* of task ``t`` on node ``v`` is the length of the
longest path from ``t`` to a sink assuming ideally pipelined execution:

    BIL(t, v) = w(t, v) + max over successors s of
                min( BIL(s, v),                                # stay on v
                     min over v' != v ( BIL(s, v') + c(t,s)/s(v,v') ) )

computed bottom-up once.  At runtime the *BIL-star* of a ready task folds
in the node's actual availability:

    BIL*(t, v) = max(DA(t, v), TF(v)) + BIL(t, v)

Task selection follows Oh & Ha's rule: with ``k`` ready tasks and ``m``
nodes, a task's priority is its ``min(k, m)``-th smallest BIL* (when more
tasks than nodes compete, looking deeper into each task's preference list
anticipates contention); the task with the **largest** priority is
scheduled on the node minimizing its adjusted BIL**, where

    BIL**(t, v) = BIL*(t, v) + w(t, v) * max(k/m - 1, 0)

penalizes slow nodes when tasks outnumber processors.

BIL assumes a homogeneous interconnect when reasoning about levels, so
PISA freezes link strengths at 1 when BIL participates (Section VI).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.compiled import argmin_ranked, compile_instance
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder

__all__ = ["BILScheduler"]


@register_scheduler
class BILScheduler(Scheduler):
    """Best Imaginary Level list scheduling."""

    name = "BIL"
    info = SchedulerInfo(
        name="BIL",
        full_name="Best Imaginary Level",
        reference="Oh & Ha, Euro-Par 1996",
        complexity="O(|T|^2 |V| log |V|)",
        machine_model="unrelated",
        notes="Optimal for linear task graphs.",
    )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        builder = ScheduleBuilder(instance, insertion=False)
        compiled = compile_instance(instance)
        nodes = list(instance.network.nodes)
        ranks = builder.node_str_order
        bil = self._static_bil(instance)
        m = len(nodes)
        while True:
            ready = builder.ready_tasks()
            if not ready:
                break
            k = len(ready)
            # BIL*(t, v) = max(data-ready, available) + BIL(t, v): the max
            # is exactly the non-insertion EST, one batched sweep per task.
            bil_star = {task: builder.est_all(task) + bil[task] for task in ready}
            # Priority: the min(k, m)-th smallest BIL* of each task.
            idx = min(k, m) - 1
            priority = {
                task: float(np.sort(bil_star[task])[idx]) for task in ready
            }
            chosen = max(ready, key=lambda t: (priority[t], str(t)))
            # Node choice: minimize BIL** (== BIL* while tasks <= nodes).
            # The scalar rule short-circuits an infinite BIL* to key inf
            # before touching the penalty term; mask the same way so an
            # infinite execution time (inf * penalty=0 is NaN) cannot
            # leak into the comparison.  An infinite cost on any finite-
            # speed node gives one, so the errstate block stays.
            penalty = max(k / m - 1.0, 0.0)
            star_row = bil_star[chosen]
            with np.errstate(invalid="ignore"):
                key_row = star_row + compiled.exec_tbl[compiled.task_id[chosen]] * penalty
            key_row[np.isinf(star_row)] = np.inf
            builder.commit(chosen, nodes[argmin_ranked(key_row, ranks)])
        return builder.schedule()

    @staticmethod
    def _static_bil(instance: ProblemInstance) -> dict:
        """Bottom-up BIL(t, v) table, one row (all nodes) per task.

        The per-successor inner minimum over "move" targets is one matrix
        sweep: ``(bil_row + data / strength).min(axis=1)``.  The infinite
        diagonal of the strength matrix makes the stay-on-v term its own
        zero-cost move candidate, so the explicit ``min(stay, move)`` of
        the scalar formulation is subsumed (and kept for exactness).
        """
        tg = instance.task_graph
        compiled = compile_instance(instance)
        strength = compiled.strength
        bil: dict[object, np.ndarray] = {}
        for task in reversed(compiled.topological_order()):
            tid = compiled.task_id[task]
            acc = None
            for s in tg.successors(task):
                stay_row = bil[s]
                data = compiled.data[(tid, compiled.task_id[s])]
                if data == 0.0:
                    # Zero data moves for free: move = min(bil) everywhere.
                    term = np.minimum(stay_row, stay_row.min())
                else:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        comm = data / strength
                    if math.isinf(data):
                        # inf/inf is NaN; infinite links transfer for free.
                        comm[np.isinf(strength)] = 0.0
                    term = np.minimum(stay_row, (stay_row[None, :] + comm).min(axis=1))
                acc = term if acc is None else np.maximum(acc, term)
            exec_row = compiled.exec_tbl[tid]
            bil[task] = exec_row + acc if acc is not None else exec_row.copy()
        return bil
