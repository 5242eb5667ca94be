"""Machinery shared by the list-scheduling algorithms.

Most algorithms in Table I are list schedulers (Section III): they compute
a task priority, then greedily place tasks.  The priority functions here —
upward rank, downward rank, static level — are the standard definitions
from Topcuoglu et al. (HEFT/CPoP) and Sih & Lee (DLS/GDL), computed with
*average* execution and communication times over the network, which is the
convention the paper describes in Section VI-B.

Every helper takes its inputs — the topological order and the
``mean_exec``/``mean_comm`` functions — from one call of the
:func:`_rank_inputs` hook, which reads them off the instance's cached
:class:`~repro.core.compiled.CompiledInstance` (one compile-cache lookup
per helper call, not one per task and edge).
:func:`repro.core.reference.use_reference_builder` swaps that hook for
the uncompiled reference functions, so the same loops run on both.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable

from repro.core.compiled import compile_instance
from repro.core.instance import ProblemInstance

__all__ = [
    "upward_rank",
    "downward_rank",
    "static_level",
    "priority_order",
    "topological_order",
    "critical_path_tasks",
]

Task = Hashable


def _rank_inputs(
    instance: ProblemInstance,
) -> tuple[list[Task], Callable[[Task], float], Callable[[Task, Task], float]]:
    """``(topological order, mean_exec, mean_comm)`` of ``instance``.

    The compiled route: the memoized :meth:`TaskGraph.topological_order`
    and O(1) forms of :func:`repro.core.simulator.mean_exec_time` /
    :func:`~repro.core.simulator.mean_comm_time`, bit-identical to them.
    Each rank is a pure function of its successors' (or predecessors')
    ranks, so any valid topological order yields the same floats.  The
    reference context in :mod:`repro.core.reference` swaps this hook.
    """
    compiled = compile_instance(instance)
    return compiled.topological_order(), compiled.mean_exec, compiled.mean_comm


def topological_order(instance: ProblemInstance) -> list[Task]:
    """The lexicographic topological order, memoized per compiled instance.

    A shared list: callers iterate it and must not mutate it.
    """
    return _rank_inputs(instance)[0]


def upward_rank(instance: ProblemInstance) -> dict[Task, float]:
    """HEFT's upward rank ``rank_u``.

    ``rank_u(t) = w̄(t) + max over successors s of (c̄(t,s) + rank_u(s))``
    with ``rank_u`` of a sink equal to its average execution time.  The
    upward rank of a task is the length (in average time) of the longest
    chain from the task to the end of the graph.
    """
    order, mean_exec, mean_comm = _rank_inputs(instance)
    successors = instance.task_graph.successors
    ranks: dict[Task, float] = {}
    for task in reversed(order):
        succ_part = max(
            (mean_comm(task, s) + ranks[s] for s in successors(task)),
            default=0.0,
        )
        ranks[task] = mean_exec(task) + succ_part
    return ranks


def downward_rank(instance: ProblemInstance) -> dict[Task, float]:
    """CPoP's downward rank ``rank_d``: average distance from the start.

    ``rank_d(t) = max over predecessors p of (rank_d(p) + w̄(p) + c̄(p,t))``
    and 0 for entry tasks.  ``rank_u(t) + rank_d(t)`` is the length of the
    longest average-time path through ``t``.
    """
    order, mean_exec, mean_comm = _rank_inputs(instance)
    predecessors = instance.task_graph.predecessors
    ranks: dict[Task, float] = {}
    for task in order:
        ranks[task] = max(
            (ranks[p] + mean_exec(p) + mean_comm(p, task) for p in predecessors(task)),
            default=0.0,
        )
    return ranks


def static_level(instance: ProblemInstance) -> dict[Task, float]:
    """Sih & Lee's static level: longest chain of average execution times.

    Like the upward rank but ignoring communication — the SL term of GDL's
    dynamic level, also used as the tie-breaking priority in ETF.
    """
    order, mean_exec, _ = _rank_inputs(instance)
    successors = instance.task_graph.successors
    levels: dict[Task, float] = {}
    for task in reversed(order):
        succ_part = max((levels[s] for s in successors(task)), default=0.0)
        levels[task] = mean_exec(task) + succ_part
    return levels


def priority_order(instance: ProblemInstance, ranks: dict[Task, float]) -> list[Task]:
    """Tasks in decreasing rank, tie-broken by topological index.

    With strictly positive weights, decreasing upward rank is automatically
    a valid topological order; the tie-break keeps it valid when zero
    weights (allowed by the paper's clipped Gaussians) create rank ties
    between a task and its descendant.
    """
    topo_index = {t: i for i, t in enumerate(topological_order(instance))}
    return sorted(instance.task_graph.tasks, key=lambda t: (-ranks[t], topo_index[t]))


def critical_path_tasks(
    instance: ProblemInstance,
    rank_u: dict[Task, float],
    rank_d: dict[Task, float],
    rel_tol: float = 1e-9,
) -> set[Task]:
    """The critical-path set used by CPoP.

    Following Topcuoglu et al., the critical path is constructed by walking
    from an entry task with maximal ``rank_u + rank_d`` and repeatedly
    stepping to a successor with the same (maximal) priority, until a sink
    is reached.  Only tasks actually on the walked path are returned, which
    matters when several disjoint chains happen to have equal length.
    """
    priority = {t: rank_u[t] + rank_d[t] for t in instance.task_graph.tasks}
    if not priority:
        return set()
    cp_value = max(priority.values())
    tol = max(rel_tol * max(cp_value, 1.0), 1e-12)

    def on_cp(task: Task) -> bool:
        return abs(priority[task] - cp_value) <= tol

    entries = [t for t in instance.task_graph.source_tasks if on_cp(t)]
    if not entries:  # degenerate (shouldn't happen): fall back to the level set
        return {t for t in priority if on_cp(t)}
    current = min(entries, key=str)
    path = {current}
    while True:
        nxt = [s for s in instance.task_graph.successors(current) if on_cp(s)]
        if not nxt:
            break
        current = min(nxt, key=str)
        path.add(current)
    return path
