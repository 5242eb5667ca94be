"""The compute-node network ``N = (V, E)`` of Section II.

A network is a *complete* undirected graph.  Each node ``v`` has a compute
speed ``s(v) > 0`` and each (unordered) pair of distinct nodes has a
communication strength ``s(v, v')``; the strength of a node to itself is
infinite (data already present needs no transfer).  Strengths may be zero —
PISA's weight perturbations clip into ``[0, 1]`` and the paper's Fig. 6
network contains a zero-strength link — in which case communication of any
positive amount of data over that link takes infinite time.

Under the *related machines* model, executing task ``t`` on node ``v`` takes
``c(t) / s(v)`` and transferring the data of dependency ``(t, t')`` from
``v`` to ``v'`` takes ``c(t, t') / s(v, v')``.

Two insertion-ordered dicts hold the network, with no graph library: node
speeds ``{v: s(v)}`` and a symmetric adjacency ``{v: {v': s(v, v')}}``.
:attr:`Network.nodes` is insertion order (re-adding a node updates its
speed in place), and :attr:`Network.links` walks the nodes in that order,
listing each node's not-yet-visited neighbours in adjacency-insertion
order as ``(earlier, later)`` pairs, and :meth:`Network.copy` preserves
it.  PISA's edge-weight draws and the compiled kernel's inverse-strength
fold follow that order.  It equals ``networkx.Graph``'s edge order, which
``tests/test_network.py`` checks side by side; :meth:`Network.to_networkx`
exports to networkx on demand.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping

from repro.core.exceptions import InvalidInstanceError

__all__ = ["Network"]

Node = Hashable


class Network:
    """A complete undirected network of heterogeneous compute nodes.

    Examples
    --------
    >>> net = Network.from_speeds({"v1": 1.0, "v2": 1.2}, default_strength=0.5)
    >>> net.speed("v2")
    1.2
    >>> net.strength("v1", "v1")
    inf
    """

    def __init__(self) -> None:
        self._speed: dict[Node, float] = {}
        self._adj: dict[Node, dict[Node, float]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter; bumped by every structural or weight change.

        :func:`repro.core.compiled.compile_instance` keys its per-instance
        compilation cache on this, so stale timing tables are impossible.
        """
        return self._version

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: Node, speed: float) -> None:
        """Add a compute node with speed ``s(v) = speed`` (must be > 0)."""
        speed = float(speed)
        if math.isnan(speed) or speed <= 0:
            raise InvalidInstanceError(f"speed of node {node!r} must be positive, got {speed}")
        if node not in self._speed:
            self._adj[node] = {}
        self._speed[node] = speed
        self._version += 1

    def set_strength(self, u: Node, v: Node, strength: float) -> None:
        """Set the communication strength of link ``{u, v}`` (>= 0, may be inf)."""
        strength = float(strength)
        if math.isnan(strength) or strength < 0:
            raise InvalidInstanceError(
                f"strength of link {u!r}-{v!r} must be non-negative, got {strength}"
            )
        if u not in self._speed or v not in self._speed:
            raise InvalidInstanceError(f"both endpoints of link {u!r}-{v!r} must exist")
        if u == v:
            raise InvalidInstanceError("self-link strengths are fixed at infinity")
        self._adj[u][v] = strength
        self._adj[v][u] = strength
        self._version += 1

    @classmethod
    def from_speeds(
        cls,
        speeds: Mapping[Node, float],
        default_strength: float = float("inf"),
        strengths: Mapping[tuple[Node, Node], float] | None = None,
    ) -> "Network":
        """Build a complete network from node speeds.

        Every pair of distinct nodes gets ``default_strength`` unless
        overridden in ``strengths`` (which accepts either orientation of the
        unordered pair).
        """
        net = cls()
        for node, speed in speeds.items():
            net.add_node(node, speed)
        nodes = list(speeds)
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                net.set_strength(u, v, default_strength)
        if strengths:
            for (u, v), s in strengths.items():
                net.set_strength(u, v, s)
        return net

    @classmethod
    def homogeneous(
        cls, num_nodes: int, speed: float = 1.0, strength: float = 1.0, prefix: str = "v"
    ) -> "Network":
        """A complete network with identical speeds and link strengths."""
        if num_nodes < 1:
            raise InvalidInstanceError("network needs at least one node")
        return cls.from_speeds(
            {f"{prefix}{i + 1}": speed for i in range(num_nodes)},
            default_strength=strength,
        )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> tuple[Node, ...]:
        """All compute nodes, in insertion order."""
        return tuple(self._speed)

    def __len__(self) -> int:
        return len(self._speed)

    def __contains__(self, node: Node) -> bool:
        return node in self._speed

    @property
    def links(self) -> tuple[tuple[Node, Node], ...]:
        """All (unordered) links between distinct nodes, as ``(earlier,
        later)`` pairs in the order the module docstring specifies."""
        visited: set[Node] = set()
        out: list[tuple[Node, Node]] = []
        for node, nbrs in self._adj.items():
            out.extend((node, nbr) for nbr in nbrs if nbr not in visited)
            visited.add(node)
        return tuple(out)

    def speed(self, node: Node) -> float:
        """Compute speed ``s(v)``."""
        try:
            return self._speed[node]
        except KeyError:
            raise InvalidInstanceError(f"unknown node {node!r}") from None

    def strength(self, u: Node, v: Node) -> float:
        """Communication strength ``s(u, v)``; infinite when ``u == v``."""
        if u == v:
            if u not in self._speed:
                raise InvalidInstanceError(f"unknown node {u!r}")
            return float("inf")
        try:
            return self._adj[u][v]
        except KeyError:
            raise InvalidInstanceError(f"unknown link {u!r}-{v!r}") from None

    def set_speed(self, node: Node, speed: float) -> None:
        speed = float(speed)
        if math.isnan(speed) or speed <= 0:
            raise InvalidInstanceError(f"speed of node {node!r} must be positive, got {speed}")
        if node not in self._speed:
            raise InvalidInstanceError(f"unknown node {node!r}")
        self._speed[node] = speed
        self._version += 1

    @property
    def fastest_node(self) -> Node:
        """The node with maximum speed (first in insertion order on ties)."""
        if len(self) == 0:
            raise InvalidInstanceError("network has no nodes")
        return max(self._speed, key=self._speed.__getitem__)

    def nodes_by_speed(self) -> list[Node]:
        """Nodes sorted fastest-first (stable on ties)."""
        return sorted(self._speed, key=lambda n: -self._speed[n])

    def mean_speed(self) -> float:
        """Average node speed."""
        if len(self) == 0:
            return 0.0
        return float(sum(self._speed.values())) / len(self)

    def mean_strength(self, include_infinite: bool = True) -> float:
        """Average link strength over distinct pairs.

        With ``include_infinite=True`` (default) a single infinite link makes
        the mean infinite; pass ``False`` to average finite links only (used
        when computing CCRs for shared-filesystem networks).
        """
        strengths = [self.strength(u, v) for u, v in self.links]
        if not strengths:
            return float("inf")
        if not include_infinite:
            strengths = [s for s in strengths if not math.isinf(s)] or [float("inf")]
        return float(sum(strengths)) / len(strengths)

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def copy(self) -> "Network":
        clone = Network()
        clone._speed = dict(self._speed)
        clone._adj = {node: dict(nbrs) for node, nbrs in self._adj.items()}
        return clone

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` with ``weight`` attributes.

        Imports networkx on first use; nothing else in the package needs it.
        """
        import networkx as nx

        graph = nx.Graph()
        for node, speed in self._speed.items():
            graph.add_node(node, weight=speed)
        for u, v in self.links:
            graph.add_edge(u, v, weight=self._adj[u][v])
        return graph

    def validate(self) -> None:
        """Check completeness and weight invariants; raise on violation."""
        nodes = self.nodes
        if not nodes:
            raise InvalidInstanceError("network has no nodes")
        for node, speed in self._speed.items():
            if not (speed > 0):
                raise InvalidInstanceError(f"node {node!r} speed must be positive")
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                s = self._adj[u].get(v)
                if s is None:
                    raise InvalidInstanceError(
                        f"network is not complete: missing link {u!r}-{v!r}"
                    )
                if math.isnan(s) or s < 0:
                    raise InvalidInstanceError(
                        f"strength of link {u!r}-{v!r} must be non-negative"
                    )

    def to_dict(self) -> dict:
        """JSON-serializable representation (infinite strengths become "inf")."""

        def enc(x: float):
            return "inf" if math.isinf(x) else x

        return {
            "nodes": [{"name": n, "speed": self.speed(n)} for n in self.nodes],
            "links": [
                {"u": u, "v": v, "strength": enc(self.strength(u, v))}
                for u, v in self.links
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Network":
        net = cls()
        for entry in payload["nodes"]:
            net.add_node(entry["name"], entry["speed"])
        for entry in payload["links"]:
            s = entry["strength"]
            net.set_strength(entry["u"], entry["v"], float("inf") if s == "inf" else s)
        net.validate()
        return net

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        if set(self.nodes) != set(other.nodes):
            return False
        if any(not math.isclose(self.speed(n), other.speed(n)) for n in self.nodes):
            return False
        for u, v in self.links:
            a, b = self.strength(u, v), other.strength(u, v)
            if math.isinf(a) != math.isinf(b):
                return False
            if not math.isinf(a) and not math.isclose(a, b):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network(nodes={len(self)})"
