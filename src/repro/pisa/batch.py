"""Batched energy evaluation of a population.

The adversarial finders all maximize the same energy — the makespan
ratio of a target scheduler over a baseline on one candidate instance.
:func:`batch_energy` scores a whole population at once (the genetic
finder's shape): structure-identical, batchable members are stacked and
swept through one lockstep pass of :mod:`repro.core.batched`; everything
else takes the serial compiled path.  Either way element ``i`` is
bit-identical to ``PISA(target, baseline).energy(instances[i])``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.benchmarking.metrics import makespan_ratio
from repro.core.batched import ParentContext, SiblingTables, evaluate_batch, pair_supported
from repro.core.compiled import CompiledInstance, compile_instance
from repro.core.instance import ProblemInstance
from repro.core.scheduler import Scheduler, get_scheduler

__all__ = ["batch_energy"]


def _structure_signature(compiled: CompiledInstance) -> tuple:
    """Hashable key equal iff two compilations share every structure
    artifact the lockstep kernels read (task/node tuples fix the id maps
    and tie-break orders; predecessor ids fix the edge set and topology)."""
    return (compiled.tasks, compiled.nodes, compiled.pred_ids)


def batch_energy(
    target: Scheduler | str,
    baseline: Scheduler | str,
    instances: Sequence[ProblemInstance],
) -> np.ndarray:
    """Makespan ratios of ``target`` over ``baseline`` on every instance.

    Returns a float64 array aligned with ``instances``; element ``i`` is
    bit-identical to ``PISA(target, baseline).energy(instances[i])``.

    When both schedulers have lockstep kernels, instances are grouped by
    structure signature and every batchable group of two or more is
    stacked and evaluated in one numpy pass; singletons, non-batchable
    members (non-finite weights), and unsupported pairs take the serial
    compile-once-schedule-twice path.
    """
    target = get_scheduler(target) if isinstance(target, str) else target
    baseline = get_scheduler(baseline) if isinstance(baseline, str) else baseline
    out = np.empty(len(instances))
    lockstep = pair_supported(target.name, baseline.name)

    groups: dict[tuple, list[int]] = {}
    contexts: list[ParentContext | None] = []
    serial: list[int] = []
    for i, instance in enumerate(instances):
        compiled = compile_instance(instance)  # shared by both schedules
        if not lockstep:
            contexts.append(None)
            serial.append(i)
            continue
        ctx = ParentContext(compiled)
        contexts.append(ctx)
        if ctx.batchable:
            groups.setdefault(_structure_signature(compiled), []).append(i)
        else:
            serial.append(i)

    for idxs in groups.values():
        if len(idxs) < 2:  # stacking overhead beats nothing at K=1
            serial.extend(idxs)
            continue
        ctxs = [contexts[i] for i in idxs]
        ev = evaluate_batch(ctxs[0], SiblingTables(ctxs), target.name, baseline.name)
        for j, i in enumerate(idxs):
            out[i] = makespan_ratio(
                float(ev.target.makespans[j]), float(ev.baseline.makespans[j])
            )

    for i in serial:
        instance = instances[i]
        out[i] = makespan_ratio(
            target.schedule(instance).makespan,
            baseline.schedule(instance).makespan,
        )
    return out
