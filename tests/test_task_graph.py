"""Unit tests for :class:`repro.core.TaskGraph`."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InvalidInstanceError, TaskGraph
from tests.strategies import task_graphs


class TestConstruction:
    def test_add_task_and_cost(self):
        tg = TaskGraph()
        tg.add_task("a", 1.5)
        assert tg.cost("a") == 1.5
        assert "a" in tg
        assert len(tg) == 1

    def test_zero_cost_allowed(self):
        # Clipped Gaussians can produce exactly 0 (paper Section IV-B).
        tg = TaskGraph()
        tg.add_task("a", 0.0)
        assert tg.cost("a") == 0.0

    def test_negative_cost_rejected(self):
        tg = TaskGraph()
        with pytest.raises(InvalidInstanceError):
            tg.add_task("a", -0.1)

    def test_nan_cost_rejected(self):
        tg = TaskGraph()
        with pytest.raises(InvalidInstanceError):
            tg.add_task("a", float("nan"))

    def test_add_dependency(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1}, {})
        tg.add_dependency("a", "b", 0.5)
        assert tg.data_size("a", "b") == 0.5
        assert tg.dependencies == (("a", "b"),)

    def test_dependency_requires_existing_tasks(self):
        tg = TaskGraph.from_dicts({"a": 1}, {})
        with pytest.raises(InvalidInstanceError):
            tg.add_dependency("a", "ghost", 1.0)

    def test_self_dependency_rejected(self):
        tg = TaskGraph.from_dicts({"a": 1}, {})
        with pytest.raises(InvalidInstanceError):
            tg.add_dependency("a", "a", 1.0)

    def test_cycle_rejected_and_rolled_back(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1}, {("a", "b"): 1.0})
        with pytest.raises(InvalidInstanceError):
            tg.add_dependency("b", "a", 1.0)
        # The offending edge must not linger.
        assert tg.dependencies == (("a", "b"),)

    def test_from_dicts(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 2}, {("a", "b"): 3})
        assert set(tg.tasks) == {"a", "b"}
        assert tg.data_size("a", "b") == 3


class TestAccessors:
    @pytest.fixture
    def diamond(self) -> TaskGraph:
        return TaskGraph.from_dicts(
            {"s": 1.0, "l": 2.0, "r": 3.0, "t": 4.0},
            {("s", "l"): 1, ("s", "r"): 2, ("l", "t"): 3, ("r", "t"): 4},
        )

    def test_predecessors_successors(self, diamond):
        assert set(diamond.predecessors("t")) == {"l", "r"}
        assert set(diamond.successors("s")) == {"l", "r"}
        assert diamond.predecessors("s") == ()

    def test_sources_sinks(self, diamond):
        assert diamond.source_tasks == ("s",)
        assert diamond.sink_tasks == ("t",)

    def test_topological_order_valid(self, diamond):
        order = diamond.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for u, v in diamond.dependencies:
            assert pos[u] < pos[v]

    def test_unknown_task_raises(self, diamond):
        with pytest.raises(InvalidInstanceError):
            diamond.cost("ghost")
        with pytest.raises(InvalidInstanceError):
            diamond.data_size("s", "t")

    @pytest.mark.parametrize("accessor", ["predecessors", "successors"])
    def test_unknown_task_neighbours_raise_canonical_error(self, diamond, accessor):
        with pytest.raises(InvalidInstanceError, match=r"^unknown task 'ghost'$"):
            getattr(diamond, accessor)("ghost")

    def test_has_dependency(self, diamond):
        assert diamond.has_dependency("s", "l")
        assert not diamond.has_dependency("l", "s")
        assert not diamond.has_dependency("ghost", "s")

    def test_successor_map_is_read_only(self, diamond):
        succ = diamond.successor_map
        assert dict(succ["s"]) == {"l": 1.0, "r": 2.0}
        with pytest.raises(TypeError):
            succ["ghost"] = {}

    def test_aggregates(self, diamond):
        assert diamond.total_cost() == 10.0
        assert diamond.mean_cost() == 2.5
        assert diamond.mean_data_size() == 2.5

    def test_empty_aggregates(self):
        tg = TaskGraph()
        assert tg.total_cost() == 0.0
        assert tg.mean_cost() == 0.0
        assert tg.mean_data_size() == 0.0


class TestMutation:
    def test_set_cost(self):
        tg = TaskGraph.from_dicts({"a": 1}, {})
        tg.set_cost("a", 9.0)
        assert tg.cost("a") == 9.0

    def test_set_data_size(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1}, {("a", "b"): 1})
        tg.set_data_size("a", "b", 7.0)
        assert tg.data_size("a", "b") == 7.0

    def test_set_cost_unknown_task(self):
        tg = TaskGraph()
        with pytest.raises(InvalidInstanceError):
            tg.set_cost("ghost", 1.0)

    def test_remove_dependency(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1}, {("a", "b"): 1})
        tg.remove_dependency("a", "b")
        assert tg.num_dependencies == 0

    def test_remove_missing_dependency(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1}, {})
        with pytest.raises(InvalidInstanceError):
            tg.remove_dependency("a", "b")

    def test_copy_is_independent(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1}, {("a", "b"): 1})
        clone = tg.copy()
        clone.set_cost("a", 99.0)
        clone.remove_dependency("a", "b")
        assert tg.cost("a") == 1.0
        assert tg.num_dependencies == 1


class TestOrderingContracts:
    """The iteration orders compiled ids, RNG draws and tie-breaks follow
    (every contract is also checked against networkx by the property below)."""

    def test_dependencies_group_by_source_not_insertion(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1, "c": 1}, {})
        tg.add_dependency("b", "c", 1.0)
        tg.add_dependency("a", "c", 1.0)
        assert tg.dependencies == (("a", "c"), ("b", "c"))

    def test_copy_rebuilds_predecessors_in_dependency_order(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1, "c": 1}, {})
        tg.add_dependency("b", "c", 1.0)
        tg.add_dependency("a", "c", 1.0)
        assert tg.predecessors("c") == ("b", "a")
        assert tg.copy().predecessors("c") == ("a", "b")

    def test_rejected_cycle_leaves_graph_unchanged(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1, "c": 1}, {("a", "b"): 1, ("b", "c"): 1})
        version = tg.version
        with pytest.raises(InvalidInstanceError, match=r"^dependency 'c'->'a' would create"):
            tg.add_dependency("c", "a", 1.0)
        assert tg.dependencies == (("a", "b"), ("b", "c"))
        assert tg.predecessors("a") == ()
        assert tg.version == version


class TestSerialization:
    def test_roundtrip(self):
        tg = TaskGraph.from_dicts(
            {"a": 1.25, "b": 0.0}, {("a", "b"): 0.75}
        )
        again = TaskGraph.from_dict(tg.to_dict())
        assert again == tg

    def test_equality_ignores_insertion_order(self):
        tg1 = TaskGraph.from_dicts({"a": 1, "b": 2}, {("a", "b"): 1})
        tg2 = TaskGraph()
        tg2.add_task("b", 2)
        tg2.add_task("a", 1)
        tg2.add_dependency("a", "b", 1)
        assert tg1 == tg2

    def test_inequality_on_weights(self):
        tg1 = TaskGraph.from_dicts({"a": 1}, {})
        tg2 = TaskGraph.from_dicts({"a": 2}, {})
        assert tg1 != tg2


@given(task_graphs())
def test_property_generated_graphs_validate(tg: TaskGraph):
    tg.validate()
    order = tg.topological_order()
    pos = {t: i for i, t in enumerate(order)}
    for u, v in tg.dependencies:
        assert pos[u] < pos[v]


@given(task_graphs())
def test_property_roundtrip(tg: TaskGraph):
    assert TaskGraph.from_dict(tg.to_dict()) == tg


@given(task_graphs(min_tasks=2))
def test_property_mean_cost_bounds(tg: TaskGraph):
    costs = [tg.cost(t) for t in tg.tasks]
    assert min(costs) - 1e-12 <= tg.mean_cost() <= max(costs) + 1e-12
    assert math.isclose(tg.total_cost(), sum(costs))


# ---------------------------------------------------------------------- #
# Ordering parity with networkx, the oracle for every iteration order.
# ---------------------------------------------------------------------- #
_NAMES = ("a", "b", "c", 1, 2, "d")
_weights = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
_index = st.integers(0, 40)  # taken modulo the current number of tasks/edges
_graph_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add_task"), _index, _weights),
        st.tuples(st.just("add_dependency"), _index, _index, _weights),
        st.tuples(st.just("readd_dependency"), _index, _weights),
        st.tuples(st.just("remove_dependency"), _index),
        st.tuples(st.just("set_cost"), _index, _weights),
        st.tuples(st.just("set_data_size"), _index, _weights),
        st.tuples(st.just("copy")),
    ),
    max_size=40,
)


def _apply_graph_op(tg: TaskGraph, graph: nx.DiGraph, op: tuple) -> tuple[TaskGraph, nx.DiGraph]:
    kind, args = op[0], op[1:]
    tasks, deps = tg.tasks, tg.dependencies
    if kind == "add_task":  # re-adds an existing task
        task = tasks[args[0] % len(tasks)]
        tg.add_task(task, args[1])
        graph.add_node(task, weight=args[1])
    elif kind == "add_dependency":  # new or existing edge; cycles are refused
        src, dst = tasks[args[0] % len(tasks)], tasks[args[1] % len(tasks)]
        try:
            tg.add_dependency(src, dst, args[2])
        except InvalidInstanceError:
            assert src == dst or nx.has_path(graph, dst, src)
        else:
            graph.add_edge(src, dst, weight=args[2])
    elif kind == "readd_dependency" and deps:
        src, dst = deps[args[0] % len(deps)]
        tg.remove_dependency(src, dst)
        graph.remove_edge(src, dst)
        tg.add_dependency(src, dst, args[1])
        graph.add_edge(src, dst, weight=args[1])
    elif kind == "remove_dependency" and deps:
        src, dst = deps[args[0] % len(deps)]
        tg.remove_dependency(src, dst)
        graph.remove_edge(src, dst)
    elif kind == "set_cost":
        task = tasks[args[0] % len(tasks)]
        tg.set_cost(task, args[1])
        graph.nodes[task]["weight"] = args[1]
    elif kind == "set_data_size" and deps:
        src, dst = deps[args[0] % len(deps)]
        tg.set_data_size(src, dst, args[1])
        graph.edges[src, dst]["weight"] = args[1]
    elif kind == "copy":
        return tg.copy(), graph.copy()
    return tg, graph


def _assert_same_orders(tg: TaskGraph, graph: nx.DiGraph) -> None:
    assert tg.tasks == tuple(graph.nodes)
    assert tg.dependencies == tuple(graph.edges)
    for task in tg.tasks:
        assert tg.predecessors(task) == tuple(graph.pred[task])
        assert tg.successors(task) == tuple(graph.succ[task])
        assert tg.cost(task) == graph.nodes[task]["weight"]
    for src, dst in tg.dependencies:
        assert tg.data_size(src, dst) == graph.edges[src, dst]["weight"]


@settings(max_examples=300)
@given(
    st.permutations(_NAMES),
    st.lists(st.tuples(st.just("add_dependency"), _index, _index, _weights), max_size=12),
    _graph_ops,
)
def test_property_orders_match_networkx(names, edges, ops):
    """Every order TaskGraph promises is networkx.DiGraph's, copies included.

    The tasks are added in a random order, then edges in a random order,
    so predecessor insertion order rarely matches task order — the case
    where a copy's predecessor order differs from the original's.
    """
    tg, graph = TaskGraph(), nx.DiGraph()
    for name in names:
        tg.add_task(name, 1.0)
        graph.add_node(name, weight=1.0)
    for op in edges + ops:
        tg, graph = _apply_graph_op(tg, graph, op)
        _assert_same_orders(tg, graph)
    _assert_same_orders(tg.copy(), graph.copy())
    _assert_same_orders(tg.copy().copy(), graph.copy().copy())
    _assert_same_orders(tg.copy(), tg.to_networkx())
