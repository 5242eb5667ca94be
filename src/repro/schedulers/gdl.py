"""GDL — Generalized Dynamic Level scheduling (Sih & Lee 1993), a.k.a. DLS.

Reference: "A compile-time scheduling heuristic for interconnection-
constrained heterogeneous processor architectures", IEEE TPDS 4(2).
Scheduling complexity O(|V|^3 |T|) — a factor |V| above HEFT/CPoP because
task priorities are re-evaluated every time a task is committed
(Section IV-A).

The *dynamic level* of a ready task ``t`` on node ``v`` is

    DL(t, v) = SL(t) - max(DA(t, v), TF(v)) + Δ(t, v)

where ``SL`` is the static level (longest chain of average execution
times), ``DA`` is the data-ready time of ``t`` at ``v``, ``TF`` is the time
``v`` finishes its last committed task, and ``Δ(t, v) = w̄(t) - w(t, v)``
rewards nodes that run ``t`` faster than average.  Each round commits the
(ready task, node) pair with the **maximum** dynamic level.

GDL targets the general unrelated-machines model; under PISA its
communication strengths are frozen at 1 (Section VI) because the original
formulation assumes a homogeneous interconnect when computing levels.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiled import argmin_ranked, compile_instance
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder
from repro.schedulers.common import static_level

__all__ = ["GDLScheduler"]


@register_scheduler
class GDLScheduler(Scheduler):
    """Dynamic-level scheduling: maximize SL - start + Δ each round."""

    name = "GDL"
    info = SchedulerInfo(
        name="GDL",
        full_name="Generalized Dynamic Level",
        reference="Sih & Lee, IEEE TPDS 1993",
        complexity="O(|V|^3 |T|)",
        machine_model="unrelated",
        notes="Also known as DLS; priorities recomputed each round.",
    )

    def schedule(self, instance: ProblemInstance) -> Schedule:
        builder = ScheduleBuilder(instance, insertion=False)
        compiled = compile_instance(instance)
        levels = static_level(instance)
        mean_w = {t: compiled.mean_exec(t) for t in instance.task_graph.tasks}
        nodes = instance.network.nodes
        ranks = builder.node_str_order
        # An infinite cost alone meets itself as inf - inf in a level (its
        # mean against its execution time, or an infinite static level
        # against an infinite start): a NaN, as in scalar arithmetic,
        # without numpy's warning.  validate() refuses only inf/inf
        # execution times, so this block stays.  Entered once per
        # schedule; once per ready task it would cost more than the level.
        with np.errstate(invalid="ignore"):
            while True:
                ready = builder.ready_tasks()
                if not ready:
                    break
                best: tuple[float, str, str, object, object] | None = None
                for task in ready:
                    # Non-insertion EST is exactly max(data-ready, available);
                    # one batched sweep replaces the per-node scalar loop.  An
                    # infinite start drives the level to -inf, as before.
                    start_row = builder.est_all(task)
                    delta_row = mean_w[task] - compiled.exec_tbl[compiled.task_id[task]]
                    neg_level = -((levels[task] - start_row) + delta_row)
                    # maximize level; break ties deterministically
                    vid = argmin_ranked(neg_level, ranks)
                    node = nodes[vid]
                    key = (float(neg_level[vid]), str(task), str(node), task, node)
                    if best is None or key[:3] < best[:3]:
                        best = key
                assert best is not None
                builder.commit(best[3], best[4])
        return builder.schedule()
