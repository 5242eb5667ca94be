"""Topological helpers over successor maps.

Every helper takes ``succ``: a mapping from each node, in node order, to
an iterable of its successors — a task graph's
:attr:`~repro.core.task_graph.TaskGraph.successor_map`, a plain
``{node: [successors]}`` dict, or a ``networkx.DiGraph`` itself (iterating
one yields its nodes, and ``graph[n]`` its successors).

These are used by the list schedulers (deterministic topological orders),
the PISA *Add Dependency* perturbation and ``TaskGraph.add_dependency``
(cycle check), and the BruteForce / SMT schedulers (enumeration of linear
extensions, critical paths).
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable, Iterable, Iterator, Mapping
from itertools import count

__all__ = [
    "topological_order",
    "is_dag_after_edge",
    "all_linear_extensions",
    "longest_path_length",
]

SuccessorMap = Mapping[Hashable, Iterable[Hashable]]


def _in_degrees(succ: SuccessorMap) -> dict[Hashable, int]:
    """``{node: number of predecessors}``, in node order."""
    degree = dict.fromkeys(succ, 0)
    for node in succ:
        for succ_node in succ[node]:
            degree[succ_node] += 1
    return degree


def topological_order(succ: SuccessorMap) -> list[Hashable]:
    """A deterministic topological order (lexicographic tie-breaking).

    Insertion-order topological sorts are not canonical; schedulers such
    as MCT/OLB process tasks "in arbitrary order", and for reproducibility
    our arbitrary order is the lexicographically smallest topological
    order.  (Kahn's algorithm over a ``(str(node), counter)`` heap seeded
    in node order: nodes sharing a ``str()`` key leave in heap-arrival
    order, and the nodes themselves are never compared.  The result equals
    ``networkx.lexicographical_topological_sort(graph, key=str)``; it sits
    on the compiled scheduling hot path.)

    Raises :class:`ValueError` if ``succ`` has a cycle.
    """
    remaining = _in_degrees(succ)
    arrival = count()
    heap = [(str(n), next(arrival), n) for n, d in remaining.items() if d == 0]
    heapq.heapify(heap)
    out: list[Hashable] = []
    while heap:
        _, _, node = heapq.heappop(heap)
        out.append(node)
        for succ_node in succ[node]:
            remaining[succ_node] -= 1
            if remaining[succ_node] == 0:
                heapq.heappush(heap, (str(succ_node), next(arrival), succ_node))
    if len(out) != len(remaining):
        raise ValueError("graph contains a cycle")
    return out


def is_dag_after_edge(succ: SuccessorMap, u: Hashable, v: Hashable) -> bool:
    """Would adding edge ``u -> v`` keep the graph acyclic?

    Equivalent to: there is no path from ``v`` to ``u`` (a depth-first
    search from ``v``).  Used by PISA's *Add Dependency* perturbation,
    which must only propose acyclic graphs, and by
    ``TaskGraph.add_dependency`` before it inserts an edge.
    """
    if u == v:
        return False
    if v in succ[u]:
        return True  # already present; re-adding cannot create a cycle
    seen = {v}
    stack = [v]
    while stack:
        for nxt in succ[stack.pop()]:
            if nxt == u:
                return False
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def all_linear_extensions(succ: SuccessorMap) -> Iterator[tuple[Hashable, ...]]:
    """Yield every linear extension (valid topological order) of ``succ``.

    Exponential; used only by the BruteForce scheduler on tiny instances.
    The enumeration is deterministic (candidates visited in sorted order).
    """
    in_deg = _in_degrees(succ)
    order: list[Hashable] = []

    def backtrack() -> Iterator[tuple[Hashable, ...]]:
        if len(order) == len(in_deg):
            yield tuple(order)
            return
        ready = sorted((n for n, d in in_deg.items() if d == 0), key=str)
        for node in ready:
            in_deg[node] = -1  # mark scheduled
            for succ_node in succ[node]:
                in_deg[succ_node] -= 1
            order.append(node)
            yield from backtrack()
            order.pop()
            for succ_node in succ[node]:
                in_deg[succ_node] += 1
            in_deg[node] = 0

    yield from backtrack()


def longest_path_length(
    succ: SuccessorMap,
    node_weight: dict[Hashable, float],
    edge_weight: dict[tuple[Hashable, Hashable], float] | None = None,
) -> float:
    """Length of the heaviest path: sum of node weights plus edge weights.

    This is the classic critical-path length used by CPoP's priority
    metric (with average execution/communication times as weights).
    Runs in O(V + E) over a topological order.
    """
    edge_weight = edge_weight or {}
    preds: dict[Hashable, list[Hashable]] = {n: [] for n in succ}
    for node in succ:
        for succ_node in succ[node]:
            preds[succ_node].append(node)
    best: dict[Hashable, float] = {}
    total = 0.0
    for node in topological_order(succ):
        incoming = [best[p] + edge_weight.get((p, node), 0.0) for p in preds[node]]
        best[node] = node_weight.get(node, 0.0) + (max(incoming) if incoming else 0.0)
        total = max(total, best[node])
    return total
