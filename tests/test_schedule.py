"""Unit tests for :class:`repro.core.Schedule` and its validity checks."""

from __future__ import annotations

import math

import pytest

from repro import InvalidScheduleError, Network, ProblemInstance, Schedule, TaskGraph


@pytest.fixture
def instance() -> ProblemInstance:
    tg = TaskGraph.from_dicts({"a": 1.0, "b": 2.0}, {("a", "b"): 1.0})
    net = Network.from_speeds({"u": 1.0, "v": 2.0}, default_strength=1.0)
    return ProblemInstance(net, tg)


class TestConstruction:
    def test_add_and_lookup(self):
        s = Schedule()
        entry = s.add("a", "u", 0.0, 1.0)
        assert s["a"] is entry
        assert "a" in s
        assert len(s) == 1
        assert s.on_node("u") == (entry,)

    def test_duplicate_task_rejected(self):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        with pytest.raises(InvalidScheduleError):
            s.add("a", "v", 0.0, 1.0)

    def test_negative_start_rejected(self):
        s = Schedule()
        with pytest.raises(InvalidScheduleError):
            s.add("a", "u", -0.5, 1.0)

    def test_end_before_start_rejected(self):
        s = Schedule()
        with pytest.raises(InvalidScheduleError):
            s.add("a", "u", 2.0, 1.0)

    def test_makespan(self):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "v", 0.5, 3.5)
        assert s.makespan == 3.5

    def test_empty_makespan(self):
        assert Schedule().makespan == 0.0

    def test_unscheduled_lookup_raises(self):
        with pytest.raises(InvalidScheduleError):
            Schedule()["ghost"]

    def test_entries_sorted_by_time(self):
        s = Schedule()
        s.add("b", "u", 5.0, 6.0)
        s.add("a", "u", 0.0, 1.0)
        assert [e.task for e in s.on_node("u")] == ["a", "b"]


class TestValidation:
    def test_valid_schedule(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "v", 2.0, 3.0)  # data arrives at 1 + 1/1 = 2
        s.validate(instance)
        assert s.is_valid(instance)

    def test_missing_task(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        with pytest.raises(InvalidScheduleError, match="unscheduled"):
            s.validate(instance)

    def test_unknown_task(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "u", 1.0, 3.0)
        s.add("ghost", "u", 3.0, 3.0)
        with pytest.raises(InvalidScheduleError, match="unknown tasks"):
            s.validate(instance)

    def test_unknown_node(self, instance):
        s = Schedule()
        s.add("a", "mars", 0.0, 1.0)
        s.add("b", "u", 2.0, 4.0)
        with pytest.raises(InvalidScheduleError, match="unknown node"):
            s.validate(instance)

    def test_wrong_duration(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 2.0)  # should take 1.0 on speed-1 node
        s.add("b", "v", 3.0, 4.0)
        with pytest.raises(InvalidScheduleError, match="ends at"):
            s.validate(instance)

    def test_overlap_on_node(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "u", 0.5, 2.5)
        with pytest.raises(InvalidScheduleError, match="overlap"):
            s.validate(instance)

    def test_precedence_violation(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "v", 1.5, 2.5)  # data only arrives at 2.0
        with pytest.raises(InvalidScheduleError, match="before receiving"):
            s.validate(instance)

    def test_same_node_no_comm_delay(self, instance):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "u", 1.0, 3.0)  # same node: no communication time
        s.validate(instance)

    def test_dead_link_requires_infinite_start(self):
        tg = TaskGraph.from_dicts({"a": 1.0, "b": 1.0}, {("a", "b"): 1.0})
        net = Network.from_speeds({"u": 1.0, "v": 1.0}, default_strength=0.0)
        inst = ProblemInstance(net, tg)
        bad = Schedule()
        bad.add("a", "u", 0.0, 1.0)
        bad.add("b", "v", 5.0, 6.0)
        with pytest.raises(InvalidScheduleError, match="never arrives"):
            bad.validate(inst)
        ok = Schedule()
        ok.add("a", "u", 0.0, 1.0)
        ok.add("b", "v", math.inf, math.inf)
        ok.validate(inst)
        assert math.isinf(ok.makespan)

    def test_undefined_execution_time_fails(self):
        """a(inf) -> b(1) over speeds v=inf, w=1: a runs on v for inf/inf,
        which is undefined.  add() refuses the NaN end a builder would give
        it, and validate() fails a defined one; an infinite end stays
        valid where the expected end is inf too (inf - inf is NaN)."""
        tg = TaskGraph.from_dicts({"a": math.inf, "b": 1.0}, {("a", "b"): 1.0})
        net = Network.from_speeds({"v": math.inf, "w": 1.0}, default_strength=1.0)
        inst = ProblemInstance(net, tg)
        with pytest.raises(InvalidScheduleError, match="end time of 'a'"):
            Schedule().add("a", "v", 0.0, math.nan)
        bad = Schedule()
        bad.add("a", "v", 0.0, 5.0)
        bad.add("b", "v", 5.0, 5.0)
        with pytest.raises(InvalidScheduleError, match="'a' on node 'v' ends at 5.0"):
            bad.validate(inst)
        ok = Schedule()
        ok.add("a", "w", 0.0, math.inf)
        ok.add("b", "w", math.inf, math.inf)
        ok.validate(inst)

    def test_infinite_end_must_match_exactly(self, instance):
        """An infinite end or expected end makes the relative tolerance
        infinite, so neither may differ from the other by any amount."""
        forever = Schedule()  # a takes 1.0 on u, but never ends
        forever.add("a", "u", 0.0, math.inf)
        forever.add("b", "u", math.inf, math.inf)
        with pytest.raises(InvalidScheduleError, match="'a' on node 'u' ends at inf"):
            forever.validate(instance)
        tg = TaskGraph.from_dicts({"a": math.inf, "b": 2.0}, {("a", "b"): 1.0})
        net = Network.from_speeds({"u": 1.0, "v": 2.0}, default_strength=1.0)
        finite = Schedule()  # a never finishes, but ends at 5.0
        finite.add("a", "u", 0.0, 5.0)
        finite.add("b", "u", 5.0, 7.0)
        with pytest.raises(InvalidScheduleError, match="'a' on node 'u' ends at 5.0"):
            finite.validate(ProblemInstance(net, tg))

    def test_zero_data_over_dead_link_is_fine(self):
        tg = TaskGraph.from_dicts({"a": 1.0, "b": 1.0}, {("a", "b"): 0.0})
        net = Network.from_speeds({"u": 1.0, "v": 1.0}, default_strength=0.0)
        inst = ProblemInstance(net, tg)
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "v", 1.0, 2.0)
        s.validate(inst)


class TestSerialization:
    def test_roundtrip(self):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "v", 2.0, 3.0)
        again = Schedule.from_dict(s.to_dict())
        assert again.makespan == s.makespan
        assert again["a"] == s["a"]
        assert set(again.tasks) == set(s.tasks)

    def test_iteration_covers_all(self):
        s = Schedule()
        s.add("a", "u", 0.0, 1.0)
        s.add("b", "v", 0.0, 2.0)
        assert {e.task for e in s} == {"a", "b"}
