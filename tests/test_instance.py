"""Unit tests for :class:`repro.core.ProblemInstance` (incl. CCR)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given

from repro import InvalidInstanceError, Network, ProblemInstance, TaskGraph
from tests.strategies import instances


def _simple_instance(strength: float = 1.0) -> ProblemInstance:
    tg = TaskGraph.from_dicts({"a": 2.0, "b": 2.0}, {("a", "b"): 4.0})
    net = Network.from_speeds({"u": 1.0, "v": 1.0}, default_strength=strength)
    return ProblemInstance(net, tg)


class TestDerivedQuantities:
    def test_mean_execution_time(self):
        inst = _simple_instance()
        # mean cost 2.0, mean inverse speed 1.0.
        assert inst.mean_execution_time() == pytest.approx(2.0)

    def test_mean_execution_heterogeneous(self):
        tg = TaskGraph.from_dicts({"a": 2.0}, {})
        net = Network.from_speeds({"u": 1.0, "v": 2.0}, default_strength=1.0)
        # 2.0 * (1 + 0.5)/2 = 1.5
        assert ProblemInstance(net, tg).mean_execution_time() == pytest.approx(1.5)

    def test_mean_communication_time(self):
        inst = _simple_instance(strength=2.0)
        # mean data 4.0, mean inverse strength 0.5.
        assert inst.mean_communication_time() == pytest.approx(2.0)

    def test_ccr(self):
        inst = _simple_instance(strength=1.0)
        # comm 4.0 / comp 2.0
        assert inst.ccr() == pytest.approx(2.0)

    def test_ccr_infinite_strength_is_zero(self):
        inst = _simple_instance(strength=float("inf"))
        assert inst.ccr() == 0.0

    def test_ccr_zero_strength_is_infinite(self):
        inst = _simple_instance(strength=0.0)
        assert math.isinf(inst.ccr())

    def test_ccr_no_dependencies(self):
        tg = TaskGraph.from_dicts({"a": 1.0}, {})
        net = Network.from_speeds({"u": 1.0})
        assert ProblemInstance(net, tg).ccr() == 0.0


class TestPlumbing:
    def test_copy_is_deep(self):
        inst = _simple_instance()
        clone = inst.copy()
        clone.task_graph.set_cost("a", 99.0)
        clone.network.set_speed("u", 99.0)
        assert inst.task_graph.cost("a") == 2.0
        assert inst.network.speed("u") == 1.0

    def test_with_name(self):
        inst = _simple_instance()
        named = inst.with_name("x")
        assert named.name == "x"
        # Same underlying graphs (with_name is a shallow rename).
        assert named.task_graph is inst.task_graph

    def test_roundtrip_dict(self):
        inst = _simple_instance().with_name("rt")
        again = ProblemInstance.from_dict(inst.to_dict())
        assert again.task_graph == inst.task_graph
        assert again.network == inst.network
        assert again.name == "rt"

    def test_save_load(self, tmp_path):
        inst = _simple_instance().with_name("disk")
        path = tmp_path / "instance.json"
        inst.save(path)
        again = ProblemInstance.load(path)
        assert again.task_graph == inst.task_graph
        assert again.network == inst.network

    def test_validate(self):
        _simple_instance().validate()

    def test_validate_refuses_infinite_cost_on_infinite_speed(self):
        """inf/inf is undefined: the error names the first infinite-cost
        task and the first infinite-speed node.  Either alone is legal."""
        tg = TaskGraph.from_dicts({"x": 1.0, "a": math.inf, "c": math.inf}, {})
        net = Network.from_speeds({"u": 1.0, "v": math.inf, "w": math.inf})
        with pytest.raises(InvalidInstanceError) as refused:
            ProblemInstance(net, tg).validate()
        assert str(refused.value) == (
            "execution time of task 'a' on node 'v' is undefined "
            "(infinite cost over infinite speed)"
        )
        ProblemInstance(Network.from_speeds({"u": 1.0}), tg).validate()
        ProblemInstance(net, TaskGraph.from_dicts({"x": 1.0}, {})).validate()


@given(instances())
def test_property_roundtrip(inst: ProblemInstance):
    again = ProblemInstance.from_dict(inst.to_dict())
    assert again.task_graph == inst.task_graph
    assert again.network == inst.network


@given(instances(min_tasks=2, min_nodes=2))
def test_property_ccr_nonnegative(inst: ProblemInstance):
    assert inst.ccr() >= 0.0
