"""The array-compiled instance kernel under the scheduling hot path.

PISA spends essentially all of its time evaluating ``energy()``: hundreds
of annealing iterations, each scheduling a candidate instance twice (the
target and the baseline scheduler).  Before this module existed, every
one of those schedules re-validated the instance, re-walked the task
graph and network to snapshot weights, and answered every ``est``/``eft``/
``data_ready_time`` query one ``(task, node)`` dict lookup at a time.

:class:`CompiledInstance` is the fix: a dense, integer-indexed view of a
:class:`~repro.core.instance.ProblemInstance` built **once per candidate**
and shared by every :class:`~repro.core.simulator.ScheduleBuilder` over
that candidate — compile once, schedule twice (or, for the genetic
finder, once per population member per generation).  It precomputes:

* ``exec_tbl[t, v] = c(t) / s(v)`` — the related-machines timing table;
* ``strength[u, v]`` — the full node-to-node strength matrix with the
  conventions of :func:`repro.core.simulator.comm_time` baked into IEEE
  arithmetic (``inf`` on the diagonal so ``data / inf == 0``, raw zeros
  off it so ``data / 0 == inf`` for positive data);
* per-task predecessor/successor id lists plus per-edge data sizes, in
  graph insertion order;
* the average-time quantities (``mean_exec``, ``mean_comm``) used by the
  list schedulers' rank functions, evaluated through the *reference*
  implementations so they are bit-identical by construction.

Bit-identical guarantee
-----------------------
Every scalar the kernel hands back is produced by the same IEEE-754
operation, applied in the same order, as the scalar code it replaced:
element-wise ``numpy`` division/addition/``maximum`` on float64 arrays is
the same hardware op as Python float arithmetic, and reductions that
depend on evaluation order (Python ``sum`` loops, sequential ``max``
folds) are replicated loop-for-loop at compile time.  The equivalence
suite (``tests/test_compiled.py``) pins this against the frozen pre-
compilation builder and a committed golden file.

Cache invalidation
------------------
``compile_instance`` memoizes the compiled kernel on the instance object,
keyed by the mutation counters :attr:`TaskGraph.version` /
:attr:`Network.version` — PISA's perturbations mutate *copies*, so in the
steady state every candidate compiles exactly once; direct mutation of a
compiled instance simply triggers a recompile on next use.  A weight
move off a compiled parent skips even that: the copy is bound to
:meth:`CompiledInstance.apply_delta` of the parent's compilation.
"""

from __future__ import annotations

import math
from collections.abc import Hashable

import numpy as np

from repro.core.exceptions import InvalidInstanceError
from repro.core.instance import ProblemInstance

__all__ = [
    "CompiledInstance",
    "compile_instance",
    "current_compilation",
    "argmin_ranked",
    "compile_stats",
    "reset_compile_stats",
]

Task = Hashable
Node = Hashable

#: Kernel construction counters, for benchmarks reporting reuse rates:
#: ``full`` counts from-scratch table builds, ``delta`` copy-on-write
#: derivations (:meth:`CompiledInstance.apply_delta`), ``cache_hits``
#: :func:`compile_instance` calls answered by the per-instance cache.
_STATS = {"full": 0, "delta": 0, "cache_hits": 0}


def compile_stats() -> dict[str, int]:
    """A snapshot of the kernel-construction counters (see :data:`_STATS`)."""
    return dict(_STATS)


def reset_compile_stats() -> None:
    """Zero the kernel-construction counters."""
    for key in _STATS:
        _STATS[key] = 0


def _reject(instance: ProblemInstance) -> None:
    """An inline invariant check failed: raise the canonical error."""
    instance.validate()  # raises InvalidInstanceError with the exact message
    raise InvalidInstanceError(
        "instance failed compiled-kernel validation but passed validate(); "
        "this is a bug in repro.core.compiled"
    )  # pragma: no cover - the validators are strictly stronger


def argmin_ranked(values: np.ndarray, order: np.ndarray) -> int:
    """Index minimizing ``(values[i], rank-position-in-order)``.

    The vectorized form of ``min(items, key=lambda x: (score(x), str(x)))``
    when ``order`` lists the indices sorted by their tie-break key (e.g.
    :attr:`CompiledInstance.node_str_order`): gathering ``values`` in that
    order makes ``argmin``'s first-minimum rule pick the tie with the
    smallest key, exactly like tuple comparison falling back to the
    string.
    """
    return int(order[values[order].argmin()])


class CompiledInstance:
    """Integer-indexed timing tables for one problem instance.

    Build via :func:`compile_instance` (which caches) rather than
    directly.  All arrays are float64; task/node axes follow the graphs'
    insertion order, matching ``task_graph.tasks`` / ``network.nodes``.
    """

    __slots__ = (
        "instance",
        "tasks",
        "nodes",
        "task_id",
        "node_id",
        "cost",
        "speed",
        "exec_tbl",
        "exec_list",
        "exec_has_nan",
        "strength",
        "pred_ids",
        "succ_ids",
        "preds",
        "succs",
        "pred_edges",
        "data",
        "node_str_order",
        "strength_row_has_zero",
        "cost_list",
        "_topo_order",
        "_link_uv",
        "_batch_cache",
        "_mean_inv_speed",
        "_inv_strength_sum",
        "_num_links",
        "_links_have_zero",
        "_task_graph",
        "_network",
        "_tg_version",
        "_net_version",
    )

    def __init__(self, instance: ProblemInstance) -> None:
        task_graph = instance.task_graph
        network = instance.network
        self.instance = instance
        self._task_graph = task_graph
        self._network = network
        self._tg_version = task_graph.version
        self._net_version = network.version

        # Weights come straight off the graphs' dicts; the instance
        # invariants (non-negative weights, positive speeds, network
        # completeness, acyclicity) are checked inline as the tables are
        # built — the equivalent of ``instance.validate()``, run once per
        # candidate, at a fraction of its cost.  Any violation defers to
        # the canonical validators for their exact error.
        self._build(task_graph, network)

    def _build(self, task_graph, network) -> None:
        instance = self.instance
        # The kernel is built on the graphs' own containers (same package):
        # costs and speeds in insertion order, successor/predecessor dicts.
        costs, succ, pred = task_graph._cost, task_graph._succ, task_graph._pred
        speeds, adj = network._speed, network._adj
        self.tasks: tuple[Task, ...] = tuple(costs)
        self.nodes: tuple[Node, ...] = tuple(speeds)
        task_id: dict[Task, int] = {t: i for i, t in enumerate(self.tasks)}
        node_id: dict[Node, int] = {v: i for i, v in enumerate(self.nodes)}
        self.task_id = task_id
        self.node_id = node_id
        n_nodes = len(self.nodes)
        if n_nodes == 0:
            _reject(instance)  # "network has no nodes"

        cost_list = list(costs.values())
        speed_list = list(speeds.values())
        if any(not (c >= 0.0) for c in cost_list):  # NaN fails the >= too
            _reject(instance)
        if any(not (s > 0.0) for s in speed_list):
            _reject(instance)
        self.cost = np.array(cost_list, dtype=np.float64)
        self.speed = np.array(speed_list, dtype=np.float64)
        # exec_tbl[t, v] = c(t) / s(v): broadcast elementwise division is
        # the identical IEEE op as the scalar `cost / speed`.  An
        # infinite cost on an infinite-speed node (both validate()-legal)
        # divides to NaN exactly like the scalar quotient; silence numpy's
        # invalid-op warning, which the scalar path never emits.
        with np.errstate(invalid="ignore"):
            self.exec_tbl = self.cost[:, None] / self.speed[None, :]
        # Nested-list mirror for scalar queries: plain-list indexing beats
        # ndarray scalar indexing on the tiny instances PISA searches.
        self.exec_list: list[list[float]] = self.exec_tbl.tolist()
        # NaN execution times poison vectorized folds differently from
        # the scalar max/short-circuit semantics; the builder's batch
        # queries fall back to their scalar forms on such instances.
        self.exec_has_nan: bool = bool(np.isnan(self.exec_tbl).any())

        # strength[u, v]: inf on the diagonal (data already present) and
        # the raw link strength elsewhere, so `data / strength` lands on
        # exactly the comm_time conventions for positive data.
        strength = np.full((n_nodes, n_nodes), math.inf, dtype=np.float64)
        links: list[tuple[Node, Node, float]] = [
            (u, v, adj[u][v]) for u, v in network.links
        ]
        # A simple graph with exactly C(n, 2) self-loop-free edges is
        # complete; anything else defers to the canonical completeness
        # error.  Strengths must be non-negative (NaN fails that too).
        if len(links) != n_nodes * (n_nodes - 1) // 2 or any(
            u == v or not (s >= 0.0) for u, v, s in links
        ):
            _reject(instance)
        for u, v, s in links:
            strength[node_id[u], node_id[v]] = s
            strength[node_id[v], node_id[u]] = s
        self.strength = strength

        self.preds: tuple[tuple[Task, ...], ...] = tuple(
            tuple(pred[t]) for t in self.tasks
        )
        self.succs: tuple[tuple[Task, ...], ...] = tuple(
            tuple(succ[t]) for t in self.tasks
        )
        self.pred_ids: tuple[tuple[int, ...], ...] = tuple(
            tuple(task_id[p] for p in ps) for ps in self.preds
        )
        self.succ_ids: tuple[tuple[int, ...], ...] = tuple(
            tuple(task_id[s] for s in ss) for ss in self.succs
        )
        self.data: dict[tuple[int, int], float] = {
            (task_id[u], task_id[v]): size
            for u, v, size in task_graph.iter_dependencies()
        }
        if any(not (size >= 0.0) for size in self.data.values()):
            _reject(instance)
        # Acyclicity via Kahn's count over the already-extracted ids.
        remaining = [len(ps) for ps in self.pred_ids]
        frontier = [t for t, r in enumerate(remaining) if r == 0]
        seen = 0
        while frontier:
            tid = frontier.pop()
            seen += 1
            for sid in self.succ_ids[tid]:
                remaining[sid] -= 1
                if remaining[sid] == 0:
                    frontier.append(sid)
        if seen != len(self.tasks):
            _reject(instance)  # "task graph contains a cycle"
        # Per-task (pred_id, data_size) rows in predecessor order — the
        # iteration order of the scalar data-ready loop.
        self.pred_edges: tuple[tuple[tuple[int, float], ...], ...] = tuple(
            tuple((p, self.data[(p, t)]) for p in ps)
            for t, ps in enumerate(self.pred_ids)
        )

        # Node ids sorted by str(), for the schedulers that tie-break on
        # `str(node)` (MinMin, WBA, GDL, BIL, ...); see argmin_ranked.
        self.node_str_order = np.array(
            sorted(range(n_nodes), key=lambda i: str(self.nodes[i])), dtype=np.intp
        )
        # Rows with a dead link need the divide-warning guard; everything
        # else divides straight through (x / inf == 0 is silent).
        self.strength_row_has_zero = (strength == 0.0).any(axis=1)

        # Average-time aggregates, accumulated in exactly the reference
        # functions' iteration order so the floats match bit-for-bit.
        self.cost_list: list[float] = self.cost.tolist()
        self._mean_inv_speed = sum(1.0 / s for s in self.speed.tolist()) / n_nodes
        inv_sum = 0.0
        have_zero = False
        for _, _, s in links:
            if s == 0.0:
                have_zero = True
            elif not math.isinf(s):
                inv_sum += 1.0 / s
        self._inv_strength_sum = inv_sum
        self._num_links = len(links)
        self._links_have_zero = have_zero
        self._topo_order: list[Task] | None = None
        # Link ids in `Network.links` order — the iteration order of the
        # reference inverse-strength fold, kept so apply_delta can redo
        # the fold bit-identically after a strength change.
        self._link_uv: tuple[tuple[int, int], ...] = tuple(
            (node_id[u], node_id[v]) for u, v, _ in links
        )
        # Structure-only artifacts (padded predecessor/successor arrays,
        # tie-break orders) lazily built by the batched lockstep kernel;
        # shared across delta clones, which never change structure.
        self._batch_cache: dict = {}
        _STATS["full"] += 1

    # ------------------------------------------------------------------ #
    # Cache validity
    # ------------------------------------------------------------------ #
    def matches(self, instance: ProblemInstance) -> bool:
        """True while this compilation still reflects ``instance``."""
        return (
            self._task_graph is instance.task_graph
            and self._network is instance.network
            and self._tg_version == instance.task_graph.version
            and self._net_version == instance.network.version
        )

    # ------------------------------------------------------------------ #
    # Delta compilation (copy-on-write of one table cell)
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta, instance: ProblemInstance):
        """A sibling compilation differing from this one by one weight.

        ``delta`` is a :class:`repro.pisa.perturbations.Delta`; the clone
        shares every structure artifact (task/node tuples, id maps,
        predecessor lists, tie-break orders, the batch cache) and copies
        only the tables the changed cell touches, recomputing the
        affected rows/columns and scalar aggregates with exactly the
        reference arithmetic — so the result is bit-identical to a fresh
        :func:`compile_instance` of the perturbed instance (pinned by the
        hypothesis suite in ``tests/test_delta_compile.py``).

        ``instance`` must be the perturbed copy, already mutated; the
        clone binds to it and installs itself as its compile cache.

        Returns ``None`` when the delta cannot be applied — unknown kind
        or key, or a value the inline validators would reject — in which
        case the caller falls back to a full compile (which raises the
        canonical validation error if the value really is illegal).
        """
        kind = delta.kind
        value = delta.value
        clone = CompiledInstance.__new__(CompiledInstance)
        for name in CompiledInstance.__slots__:
            setattr(clone, name, getattr(self, name))

        if kind == "task_weight":
            tid = self.task_id.get(delta.key[0])
            if tid is None or not (value >= 0.0):
                return None
            cost = self.cost.copy()
            cost[tid] = value
            exec_tbl = self.exec_tbl.copy()
            with np.errstate(invalid="ignore"):
                exec_tbl[tid] = value / self.speed
            clone.cost = cost
            cost_list = list(self.cost_list)
            cost_list[tid] = float(cost[tid])
            clone.cost_list = cost_list
            clone.exec_tbl = exec_tbl
            exec_list = list(self.exec_list)
            exec_list[tid] = exec_tbl[tid].tolist()
            clone.exec_list = exec_list
            clone.exec_has_nan = bool(np.isnan(exec_tbl).any())
        elif kind == "dep_weight":
            sid = self.task_id.get(delta.key[0])
            did = self.task_id.get(delta.key[1])
            if sid is None or did is None or (sid, did) not in self.data:
                return None
            if not (value >= 0.0):
                return None
            data = dict(self.data)
            data[(sid, did)] = float(value)
            clone.data = data
            pred_edges = list(self.pred_edges)
            pred_edges[did] = tuple((p, data[(p, did)]) for p in self.pred_ids[did])
            clone.pred_edges = tuple(pred_edges)
        elif kind == "node_speed":
            vid = self.node_id.get(delta.key[0])
            if vid is None or not (value > 0.0):
                return None
            speed = self.speed.copy()
            speed[vid] = value
            exec_tbl = self.exec_tbl.copy()
            with np.errstate(invalid="ignore"):
                exec_tbl[:, vid] = self.cost / value
            clone.speed = speed
            clone.exec_tbl = exec_tbl
            clone.exec_list = exec_tbl.tolist()
            clone.exec_has_nan = bool(np.isnan(exec_tbl).any())
            # Reference fold order: sum of inverses over nodes in order.
            clone._mean_inv_speed = sum(1.0 / s for s in speed.tolist()) / len(self.nodes)
        elif kind == "link_strength":
            uid = self.node_id.get(delta.key[0])
            vid = self.node_id.get(delta.key[1])
            if uid is None or vid is None or uid == vid or not (value >= 0.0):
                return None
            strength = self.strength.copy()
            strength[uid, vid] = value
            strength[vid, uid] = value
            clone.strength = strength
            clone.strength_row_has_zero = (strength == 0.0).any(axis=1)
            # Redo the inverse-strength fold in `Network.links` order — a
            # sequential float sum cannot be patched incrementally.
            inv_sum = 0.0
            have_zero = False
            for a, b in self._link_uv:
                s = float(strength[a, b])
                if s == 0.0:
                    have_zero = True
                elif not math.isinf(s):
                    inv_sum += 1.0 / s
            clone._inv_strength_sum = inv_sum
            clone._links_have_zero = have_zero
        else:
            return None

        clone.instance = instance
        clone._task_graph = instance.task_graph
        clone._network = instance.network
        clone._tg_version = instance.task_graph.version
        clone._net_version = instance.network.version
        instance._compiled_cache = clone
        _STATS["delta"] += 1
        return clone

    # ------------------------------------------------------------------ #
    # Scalar conveniences (identical semantics to simulator.comm_time)
    # ------------------------------------------------------------------ #
    def exec_time(self, tid: int, vid: int) -> float:
        return self.exec_list[tid][vid]

    def comm(self, src_tid: int, dst_tid: int, src_vid: int, dst_vid: int) -> float:
        """Communication time of a dependency across a link, by ids."""
        if src_vid == dst_vid:
            return 0.0
        data = self.data[(src_tid, dst_tid)]
        if data == 0.0:
            return 0.0
        strength = float(self.strength[src_vid, dst_vid])
        if strength == 0.0:
            return math.inf
        if math.isinf(strength):
            return 0.0
        return data / strength

    def comm_row(self, data: float, src_vid: int) -> np.ndarray:
        """Per-destination communication times of one message (length |V|).

        ``data / strength[src, :]`` with the comm_time conventions:
        the infinite diagonal and infinite links divide to 0, dead links
        to inf, and zero data short-circuits to a zero row (0/0 would be
        NaN).  Each element is the same IEEE quotient the scalar path
        computes.  This is the single home of the vectorized comm
        arithmetic — the builder's data-ready rows go through here.
        """
        strength_row = self.strength[src_vid]
        if data == 0.0:
            return np.zeros(len(self.nodes))
        if math.isinf(data):
            # inf/inf is NaN where the scalar conventions say 0 (infinite
            # links — and the diagonal — transfer for free); validate()
            # accepts infinite data sizes, so honor them exactly.
            with np.errstate(divide="ignore", invalid="ignore"):
                out = data / strength_row
            out[np.isinf(strength_row)] = 0.0
            return out
        if self.strength_row_has_zero[src_vid]:
            # A dead link divides to inf; silence only that warning.
            with np.errstate(divide="ignore"):
                return data / strength_row
        return data / strength_row

    def topological_order(self) -> list[Task]:
        """Memoized :meth:`TaskGraph.topological_order` (lexicographic).

        MCT-style schedulers, HEFT's priority tie-break, the rank helpers
        and BIL all walk it: one sort per candidate instead of one per
        call.
        """
        order = self._topo_order
        if order is None:
            order = self._task_graph.topological_order()
            self._topo_order = order
        return order

    # ------------------------------------------------------------------ #
    # Average-time quantities (HEFT/CPoP/GDL rank functions)
    # ------------------------------------------------------------------ #
    def mean_exec(self, task: Task) -> float:
        """:func:`repro.core.simulator.mean_exec_time`, O(1) per query.

        ``cost * mean(1/speed)`` with the mean accumulated once at
        compile time in the reference function's summation order.
        """
        tid = self.task_id.get(task)
        if tid is None:
            from repro.core.simulator import mean_exec_time

            return mean_exec_time(self.instance, task)  # unknown task: error
        return self.cost_list[tid] * self._mean_inv_speed

    def mean_comm(self, src: Task, dst: Task) -> float:
        """:func:`repro.core.simulator.mean_comm_time`, O(1) per query.

        The inverse-strength sum over finite links is accumulated once at
        compile time in link order, so ``data * inv / len(links)`` is the
        identical float; the zero-strength-link early-inf and the
        no-links/zero-data short-circuits are preserved.
        """
        if self._num_links == 0:
            return 0.0
        data = self.data.get((self.task_id.get(src), self.task_id.get(dst)))
        if data is None:
            from repro.core.simulator import mean_comm_time

            return mean_comm_time(self.instance, src, dst)  # unknown edge: error
        if data == 0.0:
            return 0.0
        if self._links_have_zero:
            return math.inf
        return data * self._inv_strength_sum / self._num_links


def current_compilation(instance: ProblemInstance) -> CompiledInstance | None:
    """The compilation cached on ``instance`` if it is still current, else
    ``None`` — never compiles."""
    cached = getattr(instance, "_compiled_cache", None)
    return cached if cached is not None and cached.matches(instance) else None


def compile_instance(instance: ProblemInstance) -> CompiledInstance:
    """The (cached) compiled kernel of ``instance``.

    The compilation is stored on the instance object and keyed by the
    task-graph/network mutation counters: repeated schedules of the same
    candidate — PISA's target + baseline pair, a whole genetic
    population's elites — share one compilation, and any mutation through
    the public setters triggers a transparent recompile.
    """
    cached = current_compilation(instance)
    if cached is not None:
        _STATS["cache_hits"] += 1
        return cached
    compiled = CompiledInstance(instance)
    instance._compiled_cache = compiled
    return compiled
