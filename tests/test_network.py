"""Unit tests for :class:`repro.core.Network`."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InvalidInstanceError, Network
from tests.strategies import networks


class TestConstruction:
    def test_add_node_and_speed(self):
        net = Network()
        net.add_node("v", 2.5)
        assert net.speed("v") == 2.5
        assert "v" in net
        assert len(net) == 1

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_bad_speed_rejected(self, bad):
        net = Network()
        with pytest.raises(InvalidInstanceError):
            net.add_node("v", bad)

    def test_zero_strength_allowed(self):
        # Fig. 6's network contains a 0.0-strength link.
        net = Network.from_speeds({"a": 1, "b": 1}, default_strength=0.0)
        assert net.strength("a", "b") == 0.0

    def test_negative_strength_rejected(self):
        net = Network.from_speeds({"a": 1, "b": 1})
        with pytest.raises(InvalidInstanceError):
            net.set_strength("a", "b", -0.5)

    def test_self_strength_is_infinite(self):
        net = Network.from_speeds({"a": 1, "b": 1}, default_strength=2.0)
        assert math.isinf(net.strength("a", "a"))

    def test_self_strength_not_settable(self):
        net = Network.from_speeds({"a": 1})
        with pytest.raises(InvalidInstanceError):
            net.set_strength("a", "a", 1.0)

    def test_strength_symmetric(self):
        net = Network.from_speeds({"a": 1, "b": 1}, strengths={("a", "b"): 0.7})
        assert net.strength("a", "b") == net.strength("b", "a") == 0.7

    def test_homogeneous_factory(self):
        net = Network.homogeneous(3, speed=2.0, strength=0.5)
        assert len(net) == 3
        assert all(net.speed(v) == 2.0 for v in net.nodes)
        assert all(net.strength(u, v) == 0.5 for u, v in net.links)

    def test_homogeneous_needs_a_node(self):
        with pytest.raises(InvalidInstanceError):
            Network.homogeneous(0)


class TestAccessors:
    @pytest.fixture
    def net(self) -> Network:
        return Network.from_speeds(
            {"slow": 1.0, "mid": 2.0, "fast": 4.0}, default_strength=1.0
        )

    def test_fastest_node(self, net):
        assert net.fastest_node == "fast"

    def test_nodes_by_speed(self, net):
        assert net.nodes_by_speed() == ["fast", "mid", "slow"]

    def test_mean_speed(self, net):
        assert net.mean_speed() == pytest.approx(7.0 / 3.0)

    def test_mean_strength(self, net):
        assert net.mean_strength() == 1.0

    def test_mean_strength_with_infinite_links(self):
        net = Network.from_speeds(
            {"a": 1, "b": 1, "c": 1},
            default_strength=float("inf"),
            strengths={("a", "b"): 2.0},
        )
        assert math.isinf(net.mean_strength())
        assert net.mean_strength(include_infinite=False) == 2.0

    def test_unknown_node_raises(self, net):
        with pytest.raises(InvalidInstanceError):
            net.speed("ghost")
        with pytest.raises(InvalidInstanceError):
            net.strength("slow", "ghost")

    def test_validate_detects_incomplete(self):
        net = Network()
        net.add_node("a", 1.0)
        net.add_node("b", 1.0)  # no link between them
        with pytest.raises(InvalidInstanceError):
            net.validate()

    def test_empty_network_invalid(self):
        with pytest.raises(InvalidInstanceError):
            Network().validate()


class TestSerialization:
    def test_roundtrip_with_infinity(self):
        net = Network.from_speeds(
            {"a": 1.0, "b": 2.0, "c": 3.0},
            default_strength=float("inf"),
            strengths={("a", "b"): 0.25},
        )
        again = Network.from_dict(net.to_dict())
        assert again == net
        assert math.isinf(again.strength("a", "c"))

    def test_links_follow_adjacency_insertion_order(self):
        net = Network()
        for node in ("a", "b", "c"):
            net.add_node(node, 1.0)
        net.set_strength("b", "c", 1.0)
        net.set_strength("a", "c", 1.0)
        net.set_strength("b", "a", 1.0)
        net.add_node("a", 2.0)  # re-adding keeps the position
        assert net.nodes == ("a", "b", "c")
        assert net.links == (("a", "c"), ("a", "b"), ("b", "c"))
        assert net.copy().links == net.links

    def test_copy_is_independent(self):
        net = Network.from_speeds({"a": 1, "b": 1}, default_strength=1.0)
        clone = net.copy()
        clone.set_speed("a", 9.0)
        clone.set_strength("a", "b", 0.1)
        assert net.speed("a") == 1.0
        assert net.strength("a", "b") == 1.0


@given(networks())
def test_property_generated_networks_validate(net: Network):
    net.validate()
    # Completeness: every distinct pair has a strength.
    for u in net.nodes:
        for v in net.nodes:
            assert net.strength(u, v) >= 0.0


@given(networks(min_nodes=2))
def test_property_roundtrip(net: Network):
    assert Network.from_dict(net.to_dict()) == net


@given(networks())
def test_property_fastest_node_is_max(net: Network):
    fastest = net.fastest_node
    assert all(net.speed(fastest) >= net.speed(v) for v in net.nodes)


# ---------------------------------------------------------------------- #
# Ordering parity with networkx, the oracle for every iteration order.
# ---------------------------------------------------------------------- #
_NAMES = ("a", "b", 1, "c", 2)
_speeds = st.floats(min_value=0.05, max_value=2.0, allow_nan=False)
_strengths = st.floats(min_value=0.0, max_value=2.0)
_index = st.integers(0, 40)  # taken modulo the current number of nodes
_network_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add_node"), _index, _speeds),
        st.tuples(st.just("set_strength"), _index, _index, _strengths),
        st.tuples(st.just("set_speed"), _index, _speeds),
        st.tuples(st.just("copy")),
    ),
    max_size=40,
)


def _apply_network_op(net: Network, graph: nx.Graph, op: tuple) -> tuple[Network, nx.Graph]:
    kind, args = op[0], op[1:]
    nodes = net.nodes
    if kind == "add_node":  # re-adds an existing node
        node = nodes[args[0] % len(nodes)]
        net.add_node(node, args[1])
        graph.add_node(node, weight=args[1])
    elif kind == "set_strength":  # new or existing link
        u, v = nodes[args[0] % len(nodes)], nodes[args[1] % len(nodes)]
        if u != v:
            net.set_strength(u, v, args[2])
            graph.add_edge(u, v, weight=args[2])
    elif kind == "set_speed":
        node = nodes[args[0] % len(nodes)]
        net.set_speed(node, args[1])
        graph.nodes[node]["weight"] = args[1]
    elif kind == "copy":
        return net.copy(), graph.copy()
    return net, graph


def _assert_same_orders(net: Network, graph: nx.Graph) -> None:
    assert net.nodes == tuple(graph.nodes)
    assert net.links == tuple(graph.edges)
    for node in net.nodes:
        assert net.speed(node) == graph.nodes[node]["weight"]
    for u, v in net.links:
        assert net.strength(u, v) == net.strength(v, u) == graph.edges[u, v]["weight"]


@settings(max_examples=300)
@given(
    st.permutations(_NAMES),
    st.lists(st.tuples(st.just("set_strength"), _index, _index, _strengths), max_size=12),
    _network_ops,
)
def test_property_orders_match_networkx(names, links, ops):
    """Every order Network promises is networkx.Graph's, copies included.

    The nodes are added in a random order, then links in a random order,
    so later operations mostly re-set existing links.
    """
    net, graph = Network(), nx.Graph()
    for name in names:
        net.add_node(name, 1.0)
        graph.add_node(name, weight=1.0)
    for op in links + ops:
        net, graph = _apply_network_op(net, graph, op)
        _assert_same_orders(net, graph)
    _assert_same_orders(net.copy(), graph.copy())
    _assert_same_orders(net.copy().copy(), graph.copy().copy())
    _assert_same_orders(net, net.to_networkx())
