"""Lockstep batched evaluation of K structure-identical candidates.

The genetic finder scores whole populations whose members share one task
graph shape and differ only in weights (:func:`repro.pisa.batch.batch_energy`).
This module evaluates all K schedules *in lockstep*: the compiled tables
of the members are stacked into 3-D arrays (``exec[k, t, v]``,
``strength[k, u, v]``, ``data[k, t, s]``) and the scheduling loop runs
once, performing each round's selection / insertion-scan / commit for
every member with a handful of vectorized operations instead of ``K``
Python passes.

Two properties make this exact, not approximate:

* **Bit-identical arithmetic.**  Every float the lockstep loop produces
  is the same IEEE-754 operation, applied to the same operands, as the
  serial :class:`~repro.core.simulator.ScheduleBuilder` path: elementwise
  ``numpy`` arithmetic is the scalar op, and the only reductions involved
  (max-folds over predecessor arrivals, schedule ends, rank chains) are
  order-independent once NaN is excluded — which the batchability guard
  ensures.  ``tests/test_batched_annealing.py`` pins lockstep energies
  against the serial schedulers bit-for-bit.
* **Push-based data-ready times.**  Instead of folding a task's
  predecessor arrivals when the task is scored (the serial builder's
  pull), each commit *pushes* ``end + data/strength[v, :]`` into its
  successors' data-ready rows.  Pushes always use the committing
  member's own tables, so per-member state never goes stale, and the
  max-fold's order-independence makes commit-order folding equal to the
  serial predecessor-order fold.

Only schedulers with a lockstep kernel (HEFT, MinMin, MaxMin; see
:func:`pair_supported`) batch; ``batch_energy`` scores every other pair,
and every member failing the finiteness guard, serially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.compiled import CompiledInstance

__all__ = [
    "pair_supported",
    "ParentContext",
    "SiblingTables",
    "SchedRecord",
    "BatchEval",
    "evaluate_batch",
]


# --------------------------------------------------------------------- #
# Structure artifacts (shared by every member of one shape)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Structure:
    """Shape-only arrays of one task graph, cached in ``_batch_cache``."""

    pred_count: np.ndarray  # (T,) intp
    succ_pad: np.ndarray  # (T, S) intp, padded successor ids
    succ_mask: np.ndarray  # (T, S) bool
    succ_count: np.ndarray  # (T,) intp
    task_str_order: np.ndarray  # (T,) intp, task ids sorted by str(task)
    topo: tuple[int, ...]  # a valid topological order (Kahn)
    topo_index: np.ndarray  # (T,) intp, position in the lexicographic order


def _structure(compiled: CompiledInstance) -> _Structure:
    cache = compiled._batch_cache
    art = cache.get("lockstep")
    if art is not None:
        return art
    n_tasks = len(compiled.tasks)
    pred_count = np.array([len(p) for p in compiled.pred_ids], dtype=np.intp)
    width = max((len(s) for s in compiled.succ_ids), default=0) or 1
    succ_pad = np.zeros((n_tasks, width), dtype=np.intp)
    succ_mask = np.zeros((n_tasks, width), dtype=bool)
    for tid, succs in enumerate(compiled.succ_ids):
        for j, sid in enumerate(succs):
            succ_pad[tid, j] = sid
            succ_mask[tid, j] = True
    succ_count = np.array([len(s) for s in compiled.succ_ids], dtype=np.intp)
    task_str_order = np.array(
        sorted(range(n_tasks), key=lambda i: str(compiled.tasks[i])), dtype=np.intp
    )
    remaining = pred_count.tolist()
    frontier = [t for t in range(n_tasks) if remaining[t] == 0]
    topo: list[int] = []
    while frontier:
        tid = frontier.pop()
        topo.append(tid)
        for sid in compiled.succ_ids[tid]:
            remaining[sid] -= 1
            if remaining[sid] == 0:
                frontier.append(sid)
    topo_index = np.empty(n_tasks, dtype=np.intp)
    for i, task in enumerate(compiled.topological_order()):
        topo_index[compiled.task_id[task]] = i
    art = _Structure(
        pred_count=pred_count,
        succ_pad=succ_pad,
        succ_mask=succ_mask,
        succ_count=succ_count,
        task_str_order=task_str_order,
        topo=tuple(topo),
        topo_index=topo_index,
    )
    cache["lockstep"] = art
    return art


class ParentContext:
    """Per-compilation context for lockstep evaluation.

    Holds the value-dependent artifacts the shared ``_batch_cache``
    cannot (delta clones share that cache but differ in weights): the
    dense ``(T, T)`` data matrix and the finiteness verdict gating
    batchability.  Built once per population member.
    """

    __slots__ = ("compiled", "structure", "data_mat", "batchable")

    def __init__(self, compiled: CompiledInstance) -> None:
        self.compiled = compiled
        self.structure = _structure(compiled)
        n_tasks = len(compiled.tasks)
        mat = np.zeros((n_tasks, n_tasks))
        for (sid, did), weight in compiled.data.items():
            mat[sid, did] = weight
        self.data_mat = mat
        # The lockstep loop's max-folds are order-independent only
        # without NaN.  Finite costs and data rule NaN out of the timing
        # tables (speeds/strengths are validated non-NaN at compile
        # time); finite inverse-speed/strength aggregates rule 0 * inf
        # out of the rank arithmetic.
        self.batchable = bool(
            np.isfinite(compiled.cost).all()
            and np.isfinite(mat).all()
            and math.isfinite(compiled._mean_inv_speed)
            and math.isfinite(compiled._inv_strength_sum)
        )


# --------------------------------------------------------------------- #
# Stacked member tables
# --------------------------------------------------------------------- #
class SiblingTables:
    """The compiled tables of K structure-identical members, stacked
    along a batch axis."""

    __slots__ = (
        "size",
        "exec_tbl",
        "strength",
        "data",
        "cost",
        "mean_inv_speed",
        "inv_strength_sum",
        "links_have_zero",
    )

    def __init__(self, contexts: list[ParentContext]) -> None:
        members = [ctx.compiled for ctx in contexts]
        self.size = len(members)
        self.exec_tbl = np.stack([c.exec_tbl for c in members])
        self.strength = np.stack([c.strength for c in members])
        self.data = np.stack([ctx.data_mat for ctx in contexts])
        self.cost = np.stack([c.cost for c in members])
        self.mean_inv_speed = np.array([c._mean_inv_speed for c in members])
        self.inv_strength_sum = np.array([c._inv_strength_sum for c in members])
        self.links_have_zero = np.array([c._links_have_zero for c in members], dtype=bool)


@dataclass
class SchedRecord:
    """Lockstep output of one scheduler over a batch."""

    makespans: np.ndarray  # (K,)


@dataclass
class BatchEval:
    """Both schedulers' lockstep records over one batch."""

    target: SchedRecord
    baseline: SchedRecord


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #
def _push_vector(drt, data_mat, strength, st: _Structure, ar, t_k, v_k, end) -> list:
    """Push per-member commits ``(t_k[k] -> v_k[k], end[k])``.

    ``end + data/strength[v, :]`` per successor — elementwise, the exact
    IEEE ops of the serial ``_drt_row`` fold; zero data short-circuits to
    ``end`` exactly as the serial ``np.maximum(row, end)`` branch.
    Returns ``(kv, sv)`` fancy-index arrays of the pushed (member,
    successor) pairs per pad slot, for callers that also maintain
    ready-set bookkeeping.
    """
    srow = strength[ar, v_k, :]  # (K, V)
    pushed = []
    width = int(st.succ_count[t_k].max()) if len(t_k) else 0
    for j in range(width):
        valid = st.succ_mask[t_k, j]
        sid = st.succ_pad[t_k, j]
        data = data_mat[ar, t_k, sid]  # (K,)
        with np.errstate(divide="ignore", invalid="ignore"):
            comm = data[:, None] / srow
        comm = np.where(data[:, None] == 0.0, 0.0, comm)
        contrib = end[:, None] + comm  # (K, V)
        kv = ar[valid]
        sv = sid[valid]
        drt[kv, sv] = np.maximum(drt[kv, sv], contrib[valid])
        pushed.append((kv, sv))
    return pushed


# --------------------------------------------------------------------- #
# MinMin / MaxMin lockstep
# --------------------------------------------------------------------- #
def _minmax_lockstep(ctx: ParentContext, tables: SiblingTables, take_max: bool) -> SchedRecord:
    parent = ctx.compiled
    st = ctx.structure
    n_tasks = len(parent.tasks)
    n_nodes = len(parent.nodes)
    batch = tables.size
    if n_tasks == 0:
        return SchedRecord(makespans=np.zeros(batch))

    exec_tbl = tables.exec_tbl  # (K, T, V)
    strength = tables.strength  # (K, V, V)
    data_mat = tables.data  # (K, T, T)
    node_order = parent.node_str_order
    torder = st.task_str_order
    ar = np.arange(batch)
    sign = -1.0 if take_max else 1.0

    drt = np.zeros((batch, n_tasks, n_nodes))
    remaining = np.repeat(st.pred_count[None], batch, axis=0)
    ready = remaining == 0
    avail = np.zeros((batch, n_nodes))
    end_t = np.zeros((batch, n_tasks))

    for _ in range(n_tasks):
        # est/eft for every (member, task, node); non-ready tasks are
        # scored on garbage-but-finite partial DRT rows and masked below.
        est = np.maximum(drt, avail[:, None, :])
        eft = est + exec_tbl
        # Node pick: gather columns in str(node) order, then first-min —
        # the (eft, str(node)) tie-break of the serial min().
        rows = eft[:, :, node_order]
        pos = rows.argmin(axis=2)
        mct = np.take_along_axis(rows, pos[:, :, None], axis=2)[:, :, 0]
        # Task pick: gather in str(task) order, mask non-ready with +inf,
        # first-min — the (sign * mct, str(task)) tie-break of min().
        ordered = (sign * mct)[:, torder]
        ready_ord = ready[:, torder]
        masked = np.where(ready_ord, ordered, np.inf)
        cpos = masked.argmin(axis=1)
        picked_ready = np.take_along_axis(ready_ord, cpos[:, None], axis=1)[:, 0]
        if not picked_ready.all():
            # Every ready MCT is +inf (MinMin only): the masked argmin
            # landed on a non-ready task; take the first ready instead.
            cpos = np.where(picked_ready, cpos, ready_ord.argmax(axis=1))
        t_k = torder[cpos]
        v_k = node_order[pos[ar, t_k]]
        end = mct[ar, t_k]  # == est + exec at the chosen cell

        end_t[ar, t_k] = end
        avail[ar, v_k] = end
        ready[ar, t_k] = False
        pushed = _push_vector(drt, data_mat, strength, st, ar, t_k, v_k, end)
        for kv, sv in pushed:
            remaining[kv, sv] -= 1
            newly = remaining[kv, sv] == 0
            ready[kv[newly], sv[newly]] = True

    return SchedRecord(makespans=end_t.max(axis=1))


# --------------------------------------------------------------------- #
# HEFT lockstep
# --------------------------------------------------------------------- #
def _heft_ranks(ctx: ParentContext, tables: SiblingTables) -> np.ndarray:
    """Upward ranks for every member, (K, T).

    The reverse-topological DP over per-member mean execution /
    communication times; rank values are independent of which valid
    topological order drives the DP, and the successor max-fold is
    order-independent without NaN, so every entry is bit-identical to
    the serial :func:`repro.schedulers.common.upward_rank`.
    """
    parent = ctx.compiled
    st = ctx.structure
    batch = tables.size
    n_tasks = len(parent.tasks)
    num_links = parent._num_links
    inv = tables.inv_strength_sum  # (K,)
    lhz = tables.links_have_zero  # (K,)
    mean_exec = tables.cost * tables.mean_inv_speed[:, None]  # (K, T)
    ranks = np.empty((batch, n_tasks))
    for tid in reversed(st.topo):
        part = None
        for sid in parent.succ_ids[tid]:
            if num_links == 0:
                mc = np.zeros(batch)
            else:
                data = tables.data[:, tid, sid]
                mc = np.where(
                    data == 0.0, 0.0, np.where(lhz, np.inf, data * inv / num_links)
                )
            val = mc + ranks[:, sid]
            part = val if part is None else np.maximum(part, val)
        if part is None:
            part = np.zeros(batch)
        ranks[:, tid] = mean_exec[:, tid] + part
    return ranks


def _heft_lockstep(ctx: ParentContext, tables: SiblingTables) -> SchedRecord:
    parent = ctx.compiled
    st = ctx.structure
    n_tasks = len(parent.tasks)
    batch = tables.size
    if n_tasks == 0:
        return SchedRecord(makespans=np.zeros(batch))

    exec_tbl = tables.exec_tbl
    strength = tables.strength
    data_mat = tables.data
    ar = np.arange(batch)
    slot_idx = np.arange(n_tasks)

    ranks = _heft_ranks(ctx, tables)
    # Per-member priority order: sorted by (-rank, topo index) — the
    # stable lexsort with exact float keys matches Python's sorted().
    order = np.empty((batch, n_tasks), dtype=np.intp)
    neg = -ranks
    for k in range(batch):
        order[k] = np.lexsort((st.topo_index, neg[k]))

    drt = np.zeros((batch, n_tasks, len(parent.nodes)))
    starts = np.zeros((batch, len(parent.nodes), n_tasks))
    ends = np.zeros((batch, len(parent.nodes), n_tasks))
    count = np.zeros((batch, len(parent.nodes)), dtype=np.intp)
    node_max_end = np.zeros((batch, len(parent.nodes)))
    end_t = np.empty((batch, n_tasks))

    for step in range(n_tasks):
        lim = max(step, 1)  # committed entries per node <= step
        t_k = order[:, step]  # (K,)
        ready_k = drt[ar, t_k, :]  # (K, V)
        dur_k = exec_tbl[ar, t_k, :]  # (K, V)
        # Insertion scan over all nodes at once: prefix-max of committed
        # ends (in start order) gives each gap's start; first feasible
        # gap or append — the serial _earliest_slot, vectorized.
        ends_s = ends[:, :, :lim]
        pm = np.maximum.accumulate(ends_s, axis=2)
        gap_start = np.concatenate([np.zeros((batch, ends_s.shape[1], 1)), pm[:, :, :-1]], axis=2)
        cand = np.maximum(gap_start, ready_k[:, :, None])
        feas = (cand + dur_k[:, :, None] <= starts[:, :, :lim]) & (
            slot_idx[None, None, :lim] < count[:, :, None]
        )
        anyf = feas.any(axis=2)
        first_slot = feas.argmax(axis=2)
        est_slot = np.take_along_axis(cand, first_slot[:, :, None], axis=2)[:, :, 0]
        est = np.where(anyf, est_slot, np.maximum(node_max_end, ready_k))  # (K, V)
        eft = est + dur_k
        v_k = eft.argmin(axis=1)  # first-min == serial argmin
        start = est[ar, v_k]
        end = eft[ar, v_k]
        ins = np.where(anyf[ar, v_k], first_slot[ar, v_k], count[ar, v_k])[:, None]
        srow = starts[ar, v_k, :]  # gather copies
        erow = ends[ar, v_k, :]
        s_prev = np.concatenate([np.zeros((batch, 1)), srow[:, :-1]], axis=1)
        e_prev = np.concatenate([np.zeros((batch, 1)), erow[:, :-1]], axis=1)
        idx = slot_idx[None, :]
        starts[ar, v_k, :] = np.where(
            idx < ins, srow, np.where(idx == ins, start[:, None], s_prev)
        )
        ends[ar, v_k, :] = np.where(idx < ins, erow, np.where(idx == ins, end[:, None], e_prev))
        count[ar, v_k] += 1
        node_max_end[ar, v_k] = np.maximum(node_max_end[ar, v_k], end)
        end_t[ar, t_k] = end
        _push_vector(drt, data_mat, strength, st, ar, t_k, v_k, end)

    return SchedRecord(makespans=end_t.max(axis=1))


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
_KERNELS = {
    "HEFT": _heft_lockstep,
    "MinMin": lambda ctx, tables: _minmax_lockstep(ctx, tables, take_max=False),
    "MaxMin": lambda ctx, tables: _minmax_lockstep(ctx, tables, take_max=True),
}


def pair_supported(target_name: str, baseline_name: str) -> bool:
    """Can a (target, baseline) pair evaluate through the lockstep kernels?"""
    return target_name in _KERNELS and baseline_name in _KERNELS


def evaluate_batch(
    ctx: ParentContext, tables: SiblingTables, target_name: str, baseline_name: str
) -> BatchEval:
    """Run both schedulers' lockstep kernels over one stacked batch."""
    return BatchEval(
        target=_KERNELS[target_name](ctx, tables),
        baseline=_KERNELS[baseline_name](ctx, tables),
    )
