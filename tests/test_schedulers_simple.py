"""Behavioural tests for the simple schedulers: FastestNode, MET, OLB, MCT,
MinMin, MaxMin, Duplex, WBA."""

from __future__ import annotations

import contextlib
import math

import pytest
from hypothesis import given, settings

from repro import InvalidInstanceError, Network, ProblemInstance, TaskGraph, get_scheduler
from repro.core.reference import use_reference_builder
from repro.schedulers import (
    DuplexScheduler,
    FastestNodeScheduler,
    MaxMinScheduler,
    METScheduler,
    MinMinScheduler,
    OLBScheduler,
    WBAScheduler,
)
from tests.strategies import instances


class TestFastestNode:
    def test_exact_makespan(self, diamond_instance):
        sched = FastestNodeScheduler().schedule(diamond_instance)
        total = diamond_instance.task_graph.total_cost()
        smax = max(
            diamond_instance.network.speed(v) for v in diamond_instance.network.nodes
        )
        assert sched.makespan == pytest.approx(total / smax)

    def test_all_on_fastest(self, diamond_instance):
        sched = FastestNodeScheduler().schedule(diamond_instance)
        fastest = diamond_instance.network.fastest_node
        assert all(e.node == fastest for e in sched)

    def test_no_idle_time(self, diamond_instance):
        sched = FastestNodeScheduler().schedule(diamond_instance)
        entries = sorted(sched, key=lambda e: e.start)
        for prev, cur in zip(entries, entries[1:]):
            assert cur.start == pytest.approx(prev.end)

    @settings(max_examples=30, deadline=None)
    @given(inst=instances(min_tasks=1))
    def test_property_exact_formula(self, inst):
        sched = FastestNodeScheduler().schedule(inst)
        total = inst.task_graph.total_cost()
        smax = max(inst.network.speed(v) for v in inst.network.nodes)
        assert sched.makespan == pytest.approx(total / smax)


class TestMET:
    def test_related_machines_degenerates_to_fastest(self, diamond_instance):
        """Under related machines the min-execution node is the fastest."""
        sched = METScheduler().schedule(diamond_instance)
        fastest = diamond_instance.network.fastest_node
        assert all(e.node == fastest for e in sched)

    def test_matches_fastest_node_makespan(self, diamond_instance):
        met = METScheduler().schedule(diamond_instance).makespan
        fn = FastestNodeScheduler().schedule(diamond_instance).makespan
        assert met == pytest.approx(fn)


class TestOLB:
    def test_spreads_over_idle_nodes(self, independent_instance):
        """Independent tasks: OLB round-robins over whichever node frees up."""
        sched = OLBScheduler().schedule(independent_instance)
        used = {e.node for e in sched}
        assert len(used) == 2  # both nodes get work

    def test_ignores_speed(self):
        """OLB happily puts work on an arbitrarily slow node."""
        tg = TaskGraph.from_dicts({"a": 1.0, "b": 1.0}, {})
        net = Network.from_speeds({"fast": 100.0, "slow": 0.01}, default_strength=1.0)
        sched = OLBScheduler().schedule(ProblemInstance(net, tg))
        assert {e.node for e in sched} == {"fast", "slow"}


class TestMCT:
    def test_beats_olb_on_heterogeneous(self):
        tg = TaskGraph.from_dicts({"a": 1.0, "b": 1.0, "c": 1.0}, {})
        net = Network.from_speeds({"fast": 10.0, "slow": 0.1}, default_strength=1.0)
        inst = ProblemInstance(net, tg)
        mct = get_scheduler("MCT").schedule(inst).makespan
        olb = get_scheduler("OLB").schedule(inst).makespan
        assert mct < olb

    def test_uses_completion_not_execution(self):
        """With the fast node busy, MCT must offload to the slower one."""
        tg = TaskGraph.from_dicts({"a": 10.0, "b": 10.0}, {})
        net = Network.from_speeds({"fast": 2.0, "slow": 1.9}, default_strength=1.0)
        sched = get_scheduler("MCT").schedule(ProblemInstance(net, tg))
        assert {e.node for e in sched} == {"fast", "slow"}


class TestMinMinMaxMin:
    @pytest.fixture
    def mixed(self) -> ProblemInstance:
        tg = TaskGraph.from_dicts({"big": 8.0, "s1": 1.0, "s2": 1.0, "s3": 1.0}, {})
        net = Network.from_speeds({"u": 1.0, "v": 1.0}, default_strength=1.0)
        return ProblemInstance(net, tg)

    def test_minmin_commits_shortest_first(self, mixed):
        sched = MinMinScheduler().schedule(mixed)
        first = min(sched, key=lambda e: (e.start, e.task))
        assert first.task in {"s1", "s2", "s3"}

    def test_maxmin_commits_longest_first(self, mixed):
        sched = MaxMinScheduler().schedule(mixed)
        big = sched["big"]
        assert big.start == 0.0

    def test_maxmin_balances_mixed_load(self, mixed):
        # Classic MaxMin win: big on one node, three smalls on the other.
        assert MaxMinScheduler().schedule(mixed).makespan <= 8.0 + 1e-9

    def test_respects_precedence(self, diamond_instance):
        for cls in (MinMinScheduler, MaxMinScheduler):
            sched = cls().schedule(diamond_instance)
            order = {e.task: e.start for e in sched}
            for u, v in diamond_instance.task_graph.dependencies:
                assert order[u] < order[v] or order[u] == order[v] == 0.0


class TestDuplex:
    @settings(max_examples=30, deadline=None)
    @given(inst=instances(min_tasks=1))
    def test_property_duplex_is_min_of_minmin_maxmin(self, inst):
        duplex = DuplexScheduler().schedule(inst).makespan
        minmin = MinMinScheduler().schedule(inst).makespan
        maxmin = MaxMinScheduler().schedule(inst).makespan
        assert duplex == min(minmin, maxmin)


class TestWBA:
    def test_seed_reproducibility(self, diamond_instance):
        a = WBAScheduler(seed=3).schedule(diamond_instance)
        b = WBAScheduler(seed=3).schedule(diamond_instance)
        assert {(e.task, e.node) for e in a} == {(e.task, e.node) for e in b}

    def test_alpha_zero_is_greedy(self, diamond_instance):
        """alpha=0 always takes a minimum-increase placement, so two seeds
        can only differ among exact ties."""
        a = WBAScheduler(alpha=0.0, seed=1).schedule(diamond_instance)
        b = WBAScheduler(alpha=0.0, seed=2).schedule(diamond_instance)
        assert a.makespan == pytest.approx(b.makespan)

    @pytest.mark.parametrize("reference", [False, True], ids=["compiled", "reference"])
    def test_undefined_execution_time_is_refused(self, reference):
        """An infinite cost on an infinite-speed node (inf / inf) is an
        undefined execution time: WBA raises validate()'s error on both
        builders, for the minimal case and for the chain whose later task
        would be measured against a NaN makespan."""
        minimal = ProblemInstance(
            Network.from_speeds({"v": math.inf}), TaskGraph.from_dicts({"a": math.inf}, {})
        )
        chain = ProblemInstance(
            Network.from_speeds({"v": math.inf, "w": 1.0}, default_strength=1.0),
            TaskGraph.from_dicts({"a": math.inf, "b": 1.0}, {("a", "b"): 1.0}),
        )
        with use_reference_builder() if reference else contextlib.nullcontext():
            for instance in (minimal, chain):
                with pytest.raises(InvalidInstanceError) as refused:
                    WBAScheduler().schedule(instance)
                assert str(refused.value) == (
                    "execution time of task 'a' on node 'v' is undefined "
                    "(infinite cost over infinite speed)"
                )

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            WBAScheduler(alpha=1.5)
        with pytest.raises(ValueError):
            WBAScheduler(alpha=-0.1)

    @settings(max_examples=20, deadline=None)
    @given(inst=instances(min_tasks=1))
    def test_property_valid_for_any_alpha(self, inst):
        for alpha in (0.0, 0.5, 1.0):
            sched = WBAScheduler(alpha=alpha, seed=0).schedule(inst)
            sched.validate(inst)
