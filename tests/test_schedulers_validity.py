"""Cross-cutting validity tests: every scheduler produces valid schedules.

This is the keystone property behind the paper's makespan-ratio metric:
all schedulers share the same execution semantics, and every schedule
they emit satisfies the Section II constraints on every instance.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

from repro import get_scheduler
from tests.conftest import ALL_SCHEDULERS, POLY_SCHEDULERS
from tests.strategies import instances


@pytest.mark.parametrize("name", ALL_SCHEDULERS)
class TestOnFixtures:
    def test_diamond(self, name, diamond_instance):
        sched = get_scheduler(name).schedule(diamond_instance)
        sched.validate(diamond_instance)
        assert sched.makespan > 0

    def test_chain(self, name, chain_instance):
        sched = get_scheduler(name).schedule(chain_instance)
        sched.validate(chain_instance)

    def test_fork_join(self, name, fork_join_instance):
        sched = get_scheduler(name).schedule(fork_join_instance)
        sched.validate(fork_join_instance)

    def test_independent_tasks(self, name, independent_instance):
        sched = get_scheduler(name).schedule(independent_instance)
        sched.validate(independent_instance)

    def test_single_node(self, name, single_node_instance):
        sched = get_scheduler(name).schedule(single_node_instance)
        sched.validate(single_node_instance)
        # One node: no parallelism, makespan == total work.
        assert sched.makespan == pytest.approx(
            single_node_instance.task_graph.total_cost()
        )

    def test_deterministic(self, name, diamond_instance):
        a = get_scheduler(name).schedule(diamond_instance)
        b = get_scheduler(name).schedule(diamond_instance)
        assert a.makespan == b.makespan
        assert {(e.task, e.node, e.start) for e in a} == {
            (e.task, e.node, e.start) for e in b
        }


@pytest.mark.parametrize("name", POLY_SCHEDULERS)
def test_dead_link_still_produces_valid_schedule(name, dead_link_instance):
    """Zero-strength links may yield infinite makespans but never crash."""
    sched = get_scheduler(name).schedule(dead_link_instance)
    sched.validate(dead_link_instance)
    # Either everything on one node (finite) or split across the dead link.
    assert sched.makespan >= 2.0 or math.isinf(sched.makespan)


@pytest.mark.parametrize("name", POLY_SCHEDULERS)
def test_empty_task_graph(name):
    """Degenerate case: scheduling nothing is a valid empty schedule."""
    from repro import Network, ProblemInstance, TaskGraph

    inst = ProblemInstance(Network.from_speeds({"v": 1.0}), TaskGraph())
    sched = get_scheduler(name).schedule(inst)
    assert len(sched) == 0
    assert sched.makespan == 0.0


@settings(max_examples=25, deadline=None)
@given(inst=instances(min_tasks=1, max_tasks=6, min_nodes=1, max_nodes=4))
@pytest.mark.parametrize("name", POLY_SCHEDULERS)
def test_property_valid_on_random_instances(name, inst):
    """Property: every polynomial scheduler is valid on random DAGs."""
    sched = get_scheduler(name).schedule(inst)
    sched.validate(inst)


@settings(max_examples=25, deadline=None)
@given(inst=instances(min_tasks=1, max_tasks=6, min_nodes=1, max_nodes=4))
@pytest.mark.parametrize("name", POLY_SCHEDULERS)
def test_property_makespan_at_least_critical_path(name, inst):
    """No scheduler can beat the critical path at maximum speed."""
    from repro.utils.topo import longest_path_length

    smax = max(inst.network.speed(v) for v in inst.network.nodes)
    lower = longest_path_length(
        inst.task_graph.successor_map,
        {t: inst.task_graph.cost(t) / smax for t in inst.task_graph.tasks},
    )
    sched = get_scheduler(name).schedule(inst)
    assert sched.makespan >= lower - 1e-9


@settings(max_examples=25, deadline=None)
@given(inst=instances(min_tasks=1, max_tasks=6, min_nodes=1, max_nodes=4))
@pytest.mark.parametrize("name", POLY_SCHEDULERS)
def test_property_makespan_at_most_serial_slowest(name, inst):
    """Serializing on any single node is always feasible, so no reasonable
    scheduler should exceed total work on the *slowest* node... except the
    ones that ignore execution times entirely (OLB) or communication (all,
    via cross-node penalties).  We therefore only check schedulers stay
    finite when a finite schedule obviously exists."""
    sched = get_scheduler(name).schedule(inst)
    assert not math.isnan(sched.makespan)
