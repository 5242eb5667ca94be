"""Unit tests for the shared execution semantics (ScheduleBuilder etc.)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given

from repro import (
    InvalidInstanceError,
    Network,
    ProblemInstance,
    Schedule,
    ScheduleBuilder,
    SchedulingError,
    TaskGraph,
)
from repro.core.simulator import comm_time, exec_time, mean_comm_time, mean_exec_time
from tests.strategies import instances


@pytest.fixture
def instance() -> ProblemInstance:
    tg = TaskGraph.from_dicts(
        {"a": 2.0, "b": 4.0, "c": 1.0},
        {("a", "b"): 2.0, ("a", "c"): 1.0},
    )
    net = Network.from_speeds({"u": 1.0, "v": 2.0}, default_strength=2.0)
    return ProblemInstance(net, tg)


class TestTimeFunctions:
    def test_exec_time(self, instance):
        assert exec_time(instance, "b", "u") == 4.0
        assert exec_time(instance, "b", "v") == 2.0

    def test_comm_time_cross_node(self, instance):
        assert comm_time(instance, "a", "b", "u", "v") == 1.0  # 2.0 / 2.0

    def test_comm_time_same_node(self, instance):
        assert comm_time(instance, "a", "b", "u", "u") == 0.0

    def test_comm_time_zero_data(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1}, {("a", "b"): 0.0})
        net = Network.from_speeds({"u": 1, "v": 1}, default_strength=0.0)
        inst = ProblemInstance(net, tg)
        assert comm_time(inst, "a", "b", "u", "v") == 0.0

    def test_comm_time_dead_link(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1}, {("a", "b"): 1.0})
        net = Network.from_speeds({"u": 1, "v": 1}, default_strength=0.0)
        inst = ProblemInstance(net, tg)
        assert math.isinf(comm_time(inst, "a", "b", "u", "v"))

    def test_comm_time_infinite_strength(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1}, {("a", "b"): 5.0})
        net = Network.from_speeds({"u": 1, "v": 1}, default_strength=float("inf"))
        inst = ProblemInstance(net, tg)
        assert comm_time(inst, "a", "b", "u", "v") == 0.0

    def test_mean_exec_time(self, instance):
        # c=2.0, mean inverse speed = (1 + 0.5)/2 = 0.75
        assert mean_exec_time(instance, "a") == pytest.approx(1.5)

    def test_mean_comm_time(self, instance):
        # data 2.0, single link strength 2.0 -> 1.0
        assert mean_comm_time(instance, "a", "b") == pytest.approx(1.0)

    def test_mean_comm_time_single_node(self):
        tg = TaskGraph.from_dicts({"a": 1, "b": 1}, {("a", "b"): 5.0})
        net = Network.from_speeds({"u": 1})
        inst = ProblemInstance(net, tg)
        assert mean_comm_time(inst, "a", "b") == 0.0


#: Every builder entry point that takes a task, called with one the
#: instance does not have (the fixture's tasks are a, b, c).
_GHOST_TASK_CALLS = {
    "est": lambda b: b.est("ghost", "v"),
    "data_ready_time": lambda b: b.data_ready_time("ghost", "v"),
    "enabling_parent": lambda b: b.enabling_parent("ghost", "v"),
    "eft": lambda b: b.eft("ghost", "v"),
    "est_all": lambda b: b.est_all("ghost"),
    "eft_all": lambda b: b.eft_all("ghost"),
    "est_all_many": lambda b: b.est_all_many(["a", "ghost"]),
    "eft_all_many": lambda b: b.eft_all_many(["a", "ghost"]),
    "best_node_by_eft": lambda b: b.best_node_by_eft("ghost"),
    "placement": lambda b: b.placement("ghost"),
    "commit": lambda b: b.commit("ghost", "v"),
}

#: Every builder entry point that takes a node, called with one the
#: instance does not have (its nodes are u, v); b is ready on both.
_MARS_NODE_CALLS = {
    "est": lambda b: b.est("b", "mars"),
    "eft": lambda b: b.eft("b", "mars"),
    "data_ready_time": lambda b: b.data_ready_time("c", "mars"),
    "enabling_parent": lambda b: b.enabling_parent("b", "mars"),
    "source_data_ready_time": lambda b: b.data_ready_time("a", "mars"),
    "source_enabling_parent": lambda b: b.enabling_parent("a", "mars"),
    "node_available": lambda b: b.node_available("mars"),
    "best_node_by_eft": lambda b: b.best_node_by_eft("b", ["u", "mars"]),
}


class TestScheduleBuilder:
    def test_ready_tasks_initial(self, instance):
        builder = ScheduleBuilder(instance)
        assert builder.ready_tasks() == ["a"]

    def test_ready_tasks_after_commit(self, instance):
        builder = ScheduleBuilder(instance)
        builder.commit("a", "u")
        assert set(builder.ready_tasks()) == {"b", "c"}

    def test_commit_before_predecessors_fails(self, instance):
        builder = ScheduleBuilder(instance)
        with pytest.raises(SchedulingError):
            builder.commit("b", "u")

    def test_double_commit_fails(self, instance):
        builder = ScheduleBuilder(instance)
        builder.commit("a", "u")
        with pytest.raises(SchedulingError):
            builder.commit("a", "v")

    def test_unknown_node_fails(self, instance):
        builder = ScheduleBuilder(instance)
        with pytest.raises(SchedulingError):
            builder.commit("a", "mars")

    @pytest.mark.parametrize("query", list(_GHOST_TASK_CALLS))
    def test_unknown_task_raises_canonical_error(self, instance, query):
        for insertion in (True, False):
            builder = ScheduleBuilder(instance, insertion=insertion)
            with pytest.raises(InvalidInstanceError, match=r"^unknown task 'ghost'$"):
                _GHOST_TASK_CALLS[query](builder)

    @pytest.mark.parametrize("query", list(_MARS_NODE_CALLS))
    def test_unknown_node_raises_canonical_error(self, instance, query):
        for insertion in (True, False):
            builder = ScheduleBuilder(instance, insertion=insertion)
            builder.commit("a", "u")
            with pytest.raises(InvalidInstanceError, match=r"^unknown node 'mars'$"):
                _MARS_NODE_CALLS[query](builder)

    def test_est_accounts_for_communication(self, instance):
        builder = ScheduleBuilder(instance)
        builder.commit("a", "u")  # ends at 2.0
        assert builder.est("b", "u") == pytest.approx(2.0)  # same node
        assert builder.est("b", "v") == pytest.approx(3.0)  # + comm 1.0

    def test_eft(self, instance):
        builder = ScheduleBuilder(instance)
        builder.commit("a", "u")
        assert builder.eft("b", "u") == pytest.approx(6.0)
        assert builder.eft("b", "v") == pytest.approx(5.0)

    def test_best_node_by_eft(self, instance):
        builder = ScheduleBuilder(instance)
        builder.commit("a", "u")
        assert builder.best_node_by_eft("b") == "v"

    def test_node_available(self, instance):
        builder = ScheduleBuilder(instance)
        assert builder.node_available("u") == 0.0
        builder.commit("a", "u")
        assert builder.node_available("u") == 2.0

    def test_insertion_fills_gap(self):
        # One long task on u starting late leaves a gap a short task fits in.
        tg = TaskGraph.from_dicts({"long": 4.0, "short": 1.0}, {})
        net = Network.from_speeds({"u": 1.0}, default_strength=1.0)
        inst = ProblemInstance(net, tg)
        builder = ScheduleBuilder(inst, insertion=True)
        builder.commit("long", "u", start=2.0)
        entry = builder.commit("short", "u")
        assert entry.start == 0.0  # slotted into the [0, 2) gap

    def test_no_insertion_appends(self):
        tg = TaskGraph.from_dicts({"long": 4.0, "short": 1.0}, {})
        net = Network.from_speeds({"u": 1.0}, default_strength=1.0)
        inst = ProblemInstance(net, tg)
        builder = ScheduleBuilder(inst, insertion=False)
        builder.commit("long", "u", start=2.0)
        entry = builder.commit("short", "u")
        assert entry.start == 6.0  # appended after the long task

    def test_insertion_gap_too_small(self):
        tg = TaskGraph.from_dicts({"long": 4.0, "big": 3.0}, {})
        net = Network.from_speeds({"u": 1.0}, default_strength=1.0)
        inst = ProblemInstance(net, tg)
        builder = ScheduleBuilder(inst, insertion=True)
        builder.commit("long", "u", start=2.0)
        entry = builder.commit("big", "u")
        assert entry.start == 6.0  # the [0, 2) gap cannot hold 3.0

    def test_explicit_start_checks_overlap(self, instance):
        builder = ScheduleBuilder(instance)
        builder.commit("a", "u", start=0.0)
        with pytest.raises(SchedulingError):
            builder.commit("c", "u", start=1.0)  # overlaps a (0..2)

    def test_explicit_start_checks_ready_time(self, instance):
        builder = ScheduleBuilder(instance)
        builder.commit("a", "u")
        with pytest.raises(SchedulingError):
            builder.commit("b", "v", start=0.5)  # data not there yet

    def test_schedule_requires_all_committed(self, instance):
        builder = ScheduleBuilder(instance)
        builder.commit("a", "u")
        with pytest.raises(SchedulingError):
            builder.schedule()

    def test_enabling_parent(self, instance):
        builder = ScheduleBuilder(instance)
        builder.commit("a", "u")
        assert builder.enabling_parent("b", "v") == "a"
        assert builder.enabling_parent("a", "v") is None

    def test_commit_does_not_reuse_a_stale_score(self, instance):
        # b and c both wait on a.  c's earliest start is scored, then b
        # lands on u; committing c to u must see b there.
        for insertion in (True, False):
            builder = ScheduleBuilder(instance, insertion=insertion)
            builder.commit("a", "u")
            assert builder.est_all_many(["b", "c"])[1][0] == 2.0
            builder.commit("b", "u")  # [2, 6) on u
            assert builder.commit("c", "u").start == 6.0

    @pytest.mark.parametrize("start", [math.nan, -1e-10])
    def test_nan_or_negative_explicit_start_is_refused(self, instance, start):
        # Schedule.add() rejects both starts; commit refuses them first
        # (-1e-10 is inside its 1e-9 data-ready slack) and changes no
        # state, so the task can still be committed normally.
        builder = ScheduleBuilder(instance)
        with pytest.raises(SchedulingError, match="of 'a' must be >= 0"):
            builder.commit("a", "u", start=start)
        assert builder.scheduled_tasks == ()
        assert builder.ready_tasks() == ["a"]
        assert builder.makespan() == 0.0
        assert builder.commit("a", "u").start == 0.0
        builder.commit("b", "u")
        builder.commit("c", "v")
        builder.schedule().validate(instance)

    def test_handover_matches_add_built_schedule(self, instance):
        builder = ScheduleBuilder(instance)
        for task, node in (("a", "v"), ("c", "u"), ("b", "v")):
            builder.commit(task, node)
        sched = builder.schedule()
        rebuilt = Schedule()
        for task in builder.scheduled_tasks:
            e = builder.placement(task)
            rebuilt.add(e.task, e.node, e.start, e.end)
        assert sched.nodes == rebuilt.nodes == ("v", "u")
        assert sched.tasks == rebuilt.tasks == ("a", "c", "b")
        assert tuple(sched) == tuple(rebuilt)
        assert vars(sched) == vars(rebuilt)
        # The schedule owns its lists: a second handover is independent.
        again = builder.schedule()
        again.add("extra", "u", 100.0, 101.0)
        assert sched.on_node("u") == rebuilt.on_node("u")

    def test_dead_link_propagates_infinity(self):
        tg = TaskGraph.from_dicts({"a": 1.0, "b": 1.0}, {("a", "b"): 1.0})
        net = Network.from_speeds({"u": 1.0, "v": 1.0}, default_strength=0.0)
        inst = ProblemInstance(net, tg)
        builder = ScheduleBuilder(inst)
        builder.commit("a", "u")
        assert math.isinf(builder.est("b", "v"))
        entry = builder.commit("b", "v")
        assert math.isinf(entry.start) and math.isinf(entry.end)
        sched = builder.schedule()
        sched.validate(inst)
        assert math.isinf(sched.makespan)


@given(instances(min_tasks=1, max_tasks=5, min_nodes=1, max_nodes=3))
def test_property_greedy_topological_commit_is_valid(inst):
    """Committing tasks in topological order on arbitrary nodes is valid."""
    builder = ScheduleBuilder(inst, insertion=True)
    nodes = inst.network.nodes
    for i, task in enumerate(inst.task_graph.topological_order()):
        builder.commit(task, nodes[i % len(nodes)])
    sched = builder.schedule()
    sched.validate(inst)
    assert sched.makespan >= 0.0
