"""Tests for the discrete-event dynamic simulator (`repro.core.dynamic`).

Pins the subsystem's three contracts:

* **Degenerate equivalence** — the all-defaults replay reproduces the
  static plan bit-identically for every registered scheduler (golden
  fig4-preset instances + hypothesis DAGs), and `replay_schedule` now
  routed through the simulator stays bit-identical to its historical
  `ScheduleBuilder` recommit loop.
* **Determinism** — identical event logs and makespans across reruns,
  across a pickled round-trip of the spec, at any `--jobs`, and across
  checkpoint truncation/resume; event tie-breaking (FIFO service order,
  fair-share completion order) is covered with hand-computed timings.
* **The robustness gap** — a fixed-seed `RobustnessGapPISA` run surfaces
  an instance where the static winner of a fig4 pair loses under
  dynamics (the pinned regression for the new adversarial objective).
"""

from __future__ import annotations

import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import get_scheduler
from repro.core.dynamic import (
    DynamicsError,
    DynamicsSpec,
    FailureSpec,
    NoiseSpec,
    sample_seed_stream,
    simulate_schedule,
)
from repro.core import Network, ProblemInstance, Schedule, TaskGraph
from repro.core.exceptions import InvalidInstanceError, SchedulingError
from repro.core.simulator import ScheduleBuilder
from repro.pisa import (
    AnnealingConfig,
    PISAConfig,
    RobustnessGapPISA,
    SimulatedAnnealing,
    apply_initial_constraints,
    random_chain_instance,
)
from repro.stochastic.variables import ClippedGaussianRV, UniformRV
from repro.sweeps import SweepSpec, run_sweep
from repro.sweeps.spec import SpecError
from repro.utils.rng import as_generator
from tests import dynamic_reference
from tests.conftest import ALL_SCHEDULERS, POLY_SCHEDULERS
from tests.strategies import dynamics_specs, instances


def entries_of(schedule_like) -> dict:
    return {e.task: (e.start, e.end, e.node) for e in schedule_like}


def reference_replay(schedule: Schedule, instance: ProblemInstance) -> Schedule:
    """The historical replay: ScheduleBuilder recommit in start-time order."""
    builder = ScheduleBuilder(instance, insertion=False)
    for entry in sorted(schedule, key=lambda e: (e.start, str(e.task))):
        builder.commit(entry.task, entry.node)
    return builder.schedule()


# ---------------------------------------------------------------------- #
# DynamicsSpec validation + serialization
# ---------------------------------------------------------------------- #
class TestDynamicsSpec:
    @pytest.mark.parametrize(
        "spec",
        [
            DynamicsSpec(),
            DynamicsSpec(contention="fair"),
            DynamicsSpec(contention="fifo", samples=4),
            DynamicsSpec(error=NoiseSpec(kind="uniform", low=0.5, high=2.0)),
            DynamicsSpec(slowdown=NoiseSpec(kind="gaussian", std=0.3, low=0.25, high=4.0)),
            DynamicsSpec(failures=FailureSpec(count=2, at=0.25, fate="reassign", pick="random")),
            DynamicsSpec(
                contention="fair",
                error=NoiseSpec(kind="gaussian", std=0.1, low=0.5, high=1.5),
                slowdown=NoiseSpec(kind="uniform", low=0.9, high=1.1),
                failures=FailureSpec(count=1, at=0.75),
                samples=7,
            ),
        ],
    )
    def test_json_round_trip_lossless(self, spec):
        assert DynamicsSpec.from_json(spec.to_json()) == spec
        assert DynamicsSpec.from_dict(spec.to_dict()) == spec

    def test_minimal_dict_fills_defaults(self):
        assert DynamicsSpec.from_dict({}) == DynamicsSpec()
        assert DynamicsSpec.from_dict({"contention": "fair"}) == DynamicsSpec(contention="fair")

    def test_is_static_and_needs_rng(self):
        assert DynamicsSpec().is_static
        assert not DynamicsSpec().needs_rng
        assert not DynamicsSpec(contention="fair").is_static
        assert not DynamicsSpec(contention="fair").needs_rng
        noisy = DynamicsSpec(error=NoiseSpec(kind="uniform"))
        assert not noisy.is_static and noisy.needs_rng
        fail_fixed = DynamicsSpec(failures=FailureSpec(count=1))
        assert not fail_fixed.is_static and not fail_fixed.needs_rng
        fail_random = DynamicsSpec(failures=FailureSpec(count=1, pick="random"))
        assert fail_random.needs_rng

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"contention": "sometimes"}, "contention"),
            ({"error": {"kind": "poisson"}}, "error.kind"),
            ({"error": {"kind": "uniform", "low": 0.0}}, "low"),
            ({"error": {"kind": "uniform", "low": 2.0, "high": 1.0}}, "high"),
            ({"failures": {"count": -1}}, "count"),
            ({"failures": {"count": 1, "fate": "retry"}}, "fate"),
            ({"failures": {"count": 1, "pick": "leftmost"}}, "pick"),
            ({"failures": {"count": 1, "at": -0.5}}, "at"),
            ({"samples": 0}, "samples"),
            ({"contention": "none", "bogus": 1}, "bogus"),
            ({"error": {"kind": "uniform", "sigma": 1}}, "sigma"),
            ({"error": {"kind": "uniform", "low": math.nan}}, "low"),
            ({"error": {"kind": "uniform", "high": math.inf}}, "high"),
            ({"slowdown": {"kind": "gaussian", "std": math.nan}}, "std"),
            ({"slowdown": {"kind": "gaussian", "std": math.inf}}, "std"),
            ({"failures": {"count": 1, "at": math.inf}}, "at"),
            ({"failures": {"count": 1, "at": math.nan}}, "at"),
        ],
    )
    def test_invalid_specs_name_the_field(self, data, fragment):
        with pytest.raises(DynamicsError, match=fragment):
            DynamicsSpec.from_dict(data)

    def test_not_json(self):
        with pytest.raises(DynamicsError, match="not valid JSON"):
            DynamicsSpec.from_json("{nope")

    def test_json_non_finite_literals_rejected(self):
        """json.loads accepts NaN/Infinity literals; the spec does not."""
        with pytest.raises(DynamicsError, match=r"dynamics\.error.*low: must be finite"):
            DynamicsSpec.from_json('{"error": {"kind": "uniform", "low": NaN}}')
        with pytest.raises(DynamicsError, match=r"dynamics\.failures.*at: must be finite"):
            DynamicsSpec.from_json('{"failures": {"count": 1, "at": Infinity}}')

    @given(
        low=st.floats(1e-3, 10.0),
        span=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
        std=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        n=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_noise_draw_matches_scalar_samples(self, low, span, std, n, seed):
        """One vectorized draw == ``n`` scalar samples, bit for bit, same state."""
        high = low + span
        for noise, variable in (
            (NoiseSpec("uniform", low=low, high=high), UniformRV(low, high)),
            (
                NoiseSpec("gaussian", low=low, high=high, std=std),
                ClippedGaussianRV(1.0, std, low=low, high=high),
            ),
        ):
            vector, scalar = as_generator(seed), as_generator(seed)
            drawn = noise.draw(vector, n)
            expected = [variable.sample(scalar) for _ in range(n)]
            assert all(type(x) is float for x in drawn)
            assert [x.hex() for x in drawn] == [x.hex() for x in expected]
            assert vector.bit_generator.state == scalar.bit_generator.state

    def test_inactive_noise_draws_nothing(self):
        gen = as_generator(7)
        before = gen.bit_generator.state
        assert NoiseSpec().draw(gen, 5) == [1.0] * 5
        assert NoiseSpec().draw(None, 3) == [1.0] * 3
        assert gen.bit_generator.state == before


# ---------------------------------------------------------------------- #
# Degenerate equivalence: the simulator vs the static plan
# ---------------------------------------------------------------------- #
class TestDegenerateEquivalence:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_fig4_preset_golden(self, name):
        """All registered schedulers, fig4 chain preset: bit-identical."""
        for seed in range(8):
            instance = random_chain_instance(seed)
            planned = get_scheduler(name).schedule(instance)
            result = simulate_schedule(planned, instance)
            assert result.makespan == planned.makespan
            assert entries_of(result.entries) == entries_of(planned)
            assert result.unfinished == ()
            assert result.failed_nodes == ()

    @pytest.mark.parametrize(
        "fixture",
        ["diamond_instance", "fork_join_instance", "chain_instance",
         "independent_instance", "single_node_instance"],
    )
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_canonical_instances(self, request, fixture, name):
        instance = request.getfixturevalue(fixture)
        planned = get_scheduler(name).schedule(instance)
        result = simulate_schedule(planned, instance)
        assert result.makespan == planned.makespan
        assert entries_of(result.entries) == entries_of(planned)

    @given(instance=instances(min_tasks=1, max_tasks=6, min_nodes=1, max_nodes=4))
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_dags_match_static_makespan(self, instance):
        """Random DAGs, every polynomial scheduler: replay == static plan.

        The per-node replay order sorts entries by ``(start, task)``, the
        same convention the historical ``replay_schedule`` used — so the
        simulator must be bit-identical to that recommit reference on
        *every* plan.  Equality with the plan itself is asserted when the
        commit order is recoverable: ties (two entries on one node with
        the same start — only possible with zero-duration or infinite
        entries) make the planned order unobservable from a Schedule.
        """
        for name in POLY_SCHEDULERS:
            planned = get_scheduler(name).schedule(instance)
            result = simulate_schedule(planned, instance)
            reference = reference_replay(planned, instance)
            assert result.makespan == reference.makespan
            assert entries_of(result.entries) == entries_of(reference)
            starts = [(e.node, e.start) for e in planned]
            unambiguous = len(starts) == len(set(starts))
            if math.isfinite(planned.makespan) and unambiguous:
                assert result.makespan == planned.makespan
                assert entries_of(result.entries) == entries_of(planned)

    def test_dead_link_plan_stays_infinite(self, dead_link_instance):
        tg = dead_link_instance.task_graph
        planned = Schedule()
        planned.add("a", "n1", 0.0, tg.cost("a"))
        planned.add("b", "n2", math.inf, math.inf)
        result = simulate_schedule(planned, dead_link_instance)
        assert result.makespan == math.inf
        assert result.unfinished == ("b",)

    def test_rejects_incomplete_schedules(self, chain_instance):
        planned = Schedule()
        planned.add("a", "n1", 0.0, 1.0)
        with pytest.raises(SchedulingError, match="unscheduled"):
            simulate_schedule(planned, chain_instance)

    def test_rejects_invalid_instance_up_front(self, chain_instance):
        """The replay compiles (so validates) the instance: a missing link
        fails with the canonical error even if no transfer would cross it,
        and so does an infinite cost on an infinite-speed node (inf/inf)
        even if the plan puts that task elsewhere."""
        net = Network()
        net.add_node("n1", 1.0)
        net.add_node("n2", 2.0)
        instance = ProblemInstance(net, chain_instance.task_graph, name="incomplete")
        planned = Schedule()
        planned.add("a", "n1", 0.0, 1.0)
        planned.add("b", "n1", 1.0, 3.0)
        planned.add("c", "n1", 3.0, 4.0)
        with pytest.raises(InvalidInstanceError, match="not complete"):
            simulate_schedule(planned, instance)

        undefined = chain_instance.copy(name="inf-over-inf")
        undefined.task_graph.set_cost("c", math.inf)
        undefined.network.set_speed("n2", math.inf)
        planned = Schedule()
        planned.add("a", "n1", 0.0, 1.0)
        planned.add("b", "n1", 1.0, 3.0)
        planned.add("c", "n1", 3.0, math.inf)
        with pytest.raises(InvalidInstanceError) as refused:
            simulate_schedule(planned, undefined)
        with pytest.raises(InvalidInstanceError) as canonical:
            undefined.validate()
        assert str(refused.value) == str(canonical.value)


# ---------------------------------------------------------------------- #
# Satellite: replay_schedule routed through the simulator, bit-identical
# ---------------------------------------------------------------------- #
class TestReplayReroute:
    @given(instance=instances(min_tasks=1, max_tasks=6, min_nodes=1, max_nodes=4))
    @settings(max_examples=20, deadline=None)
    def test_replay_matches_builder_reference(self, instance):
        from repro.stochastic import replay_schedule

        for name in ("HEFT", "MinMin", "OLB"):
            planned = get_scheduler(name).schedule(instance)
            rerouted = replay_schedule(planned, instance)
            reference = reference_replay(planned, instance)
            assert rerouted.makespan == reference.makespan
            assert entries_of(rerouted) == entries_of(reference)

    def test_replay_on_different_weights(self, diamond_instance):
        """Replaying a plan on *perturbed* weights matches the reference."""
        from repro.stochastic import replay_schedule

        planned = get_scheduler("HEFT").schedule(diamond_instance)
        heavier = ProblemInstance(
            diamond_instance.network,
            TaskGraph.from_dicts(
                {t: diamond_instance.task_graph.cost(t) * 1.7
                 for t in diamond_instance.task_graph.tasks},
                {(u, v): diamond_instance.task_graph.data_size(u, v) * 0.3
                 for u, v in diamond_instance.task_graph.dependencies},
            ),
            name="heavier",
        )
        rerouted = replay_schedule(planned, heavier)
        reference = reference_replay(planned, heavier)
        assert entries_of(rerouted) == entries_of(reference)
        assert rerouted.makespan == reference.makespan

    def test_evaluate_robustness_pinned_against_reference(self, monkeypatch):
        """RobustnessReport is bit-identical to the pre-switch implementation."""
        import repro.stochastic.model as model
        from repro.stochastic import StochasticInstance, UniformRV, evaluate_robustness

        stochastic = StochasticInstance(
            task_costs={"a": UniformRV(0.5, 1.5), "b": 2.0, "c": UniformRV(0.2, 0.6)},
            data_sizes={("a", "b"): UniformRV(0.5, 1.5), ("b", "c"): 0.5},
            speeds={"u": 1.0, "v": UniformRV(1.0, 3.0)},
            strengths={("u", "v"): UniformRV(0.5, 1.5)},
            name="pin",
        )
        scheduler = get_scheduler("HEFT")
        new = evaluate_robustness(scheduler, stochastic, samples=25, rng=123)
        monkeypatch.setattr(model, "replay_schedule", reference_replay)
        old = evaluate_robustness(scheduler, stochastic, samples=25, rng=123)
        assert new == old


# ---------------------------------------------------------------------- #
# Determinism: reruns, pickled specs, tie-breaking
# ---------------------------------------------------------------------- #
class TestDeterminism:
    @given(
        instance=instances(min_tasks=2, max_tasks=6, min_nodes=2, max_nodes=4),
        dynamics=dynamics_specs(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_replay_twice_and_through_pickle(self, instance, dynamics, seed):
        planned = get_scheduler("HEFT").schedule(instance)
        first = simulate_schedule(planned, instance, dynamics, rng=seed)
        second = simulate_schedule(planned, instance, dynamics, rng=seed)
        assert first.events == second.events
        assert first.makespan == second.makespan
        assert entries_of(first.entries) == entries_of(second.entries)
        pickled = pickle.loads(pickle.dumps(dynamics))
        assert pickled == dynamics
        third = simulate_schedule(planned, instance, pickled, rng=seed)
        assert third.events == first.events
        assert third.makespan == first.makespan

    def test_rng_required_when_dynamics_draw(self, chain_instance):
        planned = get_scheduler("HEFT").schedule(chain_instance)
        noisy = DynamicsSpec(error=NoiseSpec(kind="uniform"))
        with pytest.raises(SchedulingError, match="rng"):
            simulate_schedule(planned, chain_instance, noisy)
        # Contention-only specs draw nothing and need no rng.
        simulate_schedule(planned, chain_instance, DynamicsSpec(contention="fair"))

    def test_sample_seed_stream_is_deterministic(self):
        assert sample_seed_stream(42, 5) == sample_seed_stream(42, 5)
        assert sample_seed_stream(42, 5) != sample_seed_stream(43, 5)


def star_instance() -> ProblemInstance:
    """One producer fanning equal transfers to three consumers on one link."""
    tg = TaskGraph.from_dicts(
        {"t0": 1.0, "t1": 1.0, "t2": 1.0, "t3": 1.0},
        {("t0", "t1"): 1.0, ("t0", "t2"): 1.0, ("t0", "t3"): 1.0},
    )
    net = Network.from_speeds({"v0": 1.0, "v1": 1.0}, default_strength=1.0)
    return ProblemInstance(net, tg, name="star")


def star_plan() -> Schedule:
    planned = Schedule()
    planned.add("t0", "v0", 0.0, 1.0)
    planned.add("t1", "v1", 2.0, 3.0)
    planned.add("t2", "v1", 3.0, 4.0)
    planned.add("t3", "v1", 4.0, 5.0)
    return planned


class TestContentionTieBreaking:
    def test_fair_share_splits_the_link(self):
        """3 simultaneous unit transfers on a unit link: each takes 3x."""
        instance = star_instance()
        result = simulate_schedule(star_plan(), instance, DynamicsSpec(contention="fair"))
        got = entries_of(result.entries)
        # All three transfers run at rate 1/3 from t=1 and complete
        # together at t=4; the tied arrivals deliver in issue order, so
        # the node runs its planned queue t1, t2, t3 back to back.
        assert got["t1"] == (4.0, 5.0, "v1")
        assert got["t2"] == (5.0, 6.0, "v1")
        assert got["t3"] == (6.0, 7.0, "v1")
        assert result.makespan == 7.0

    def test_fifo_serves_in_issue_order(self):
        """Same-time submissions serve in successor order: 1x each, queued."""
        instance = star_instance()
        result = simulate_schedule(star_plan(), instance, DynamicsSpec(contention="fifo"))
        got = entries_of(result.entries)
        assert got["t1"] == (2.0, 3.0, "v1")
        assert got["t2"] == (3.0, 4.0, "v1")
        assert got["t3"] == (4.0, 5.0, "v1")
        # The event log records the service completions in queue order.
        arrivals = [ev for ev in result.events if ev[0] == "xfer-arrive"]
        assert [ev[2] for ev in arrivals] == ["t1", "t2", "t3"]
        assert [ev[1] for ev in arrivals] == [2.0, 3.0, 4.0]

    def test_fair_share_staggered_join_hand_computed(self):
        """A (data 4) alone for 1s, then B (data 1) joins: 3 -> 1/2 rate each.

        a finishes at 1 and starts A; b finishes at 2 and starts B.
        From t=2 both share the unit link at rate 1/2: B's remaining 1
        drains by t=4; A then finishes its remaining 2 alone by t=6.
        """
        tg = TaskGraph.from_dicts(
            {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
            {("a", "c"): 4.0, ("b", "d"): 1.0},
        )
        net = Network.from_speeds({"v0": 1.0, "v1": 1.0}, default_strength=1.0)
        instance = ProblemInstance(net, tg, name="stagger")
        planned = Schedule()
        planned.add("a", "v0", 0.0, 1.0)
        planned.add("b", "v0", 1.0, 2.0)  # non-overlapping: same node
        planned.add("d", "v1", 4.0, 5.0)
        planned.add("c", "v1", 6.0, 7.0)
        result = simulate_schedule(planned, instance, DynamicsSpec(contention="fair"))
        got = entries_of(result.entries)
        assert got["d"] == (4.0, 5.0, "v1")
        assert got["c"] == (6.0, 7.0, "v1")

    def test_contention_off_matches_plan(self):
        instance = star_instance()
        result = simulate_schedule(star_plan(), instance, DynamicsSpec())
        assert entries_of(result.entries) == entries_of(star_plan())


class TestFailures:
    def make(self):
        instance = star_instance()
        return instance, star_plan()

    def test_stall_never_finishes(self):
        instance, planned = self.make()
        spec = DynamicsSpec(failures=FailureSpec(count=1, at=0.5, fate="stall"))
        result = simulate_schedule(planned, instance, spec)
        # v1 holds 3.0 planned busy time vs v0's 1.0: most-loaded picks v1
        # and its entire queue dies at t = 0.5 * 5.0 = 2.5.
        assert result.failed_nodes == ("v1",)
        assert result.unfinished == ("t1", "t2", "t3")
        assert result.makespan == math.inf
        assert ("node-fail", 2.5, "v1") in result.events
        # The completed producer keeps its entry.
        assert entries_of(result.entries)["t0"] == (0.0, 1.0, "v0")

    def test_reassign_restarts_on_survivor(self):
        instance, planned = self.make()
        spec = DynamicsSpec(failures=FailureSpec(count=1, at=0.5, fate="reassign"))
        result = simulate_schedule(planned, instance, spec)
        assert result.failed_nodes == ("v1",)
        assert result.unfinished == ()
        got = entries_of(result.entries)
        # Survivors re-fetch t0's (durable) output on v0 at fail time 2.5:
        # same-node arrivals are instant, so the chain runs 2.5..5.5.
        assert got["t1"] == (2.5, 3.5, "v0")
        assert got["t2"] == (3.5, 4.5, "v0")
        assert got["t3"] == (4.5, 5.5, "v0")
        assert math.isfinite(result.makespan)

    def test_all_nodes_failing_degrades_reassign_to_stall(self):
        instance, planned = self.make()
        spec = DynamicsSpec(failures=FailureSpec(count=2, at=0.5, fate="reassign"))
        result = simulate_schedule(planned, instance, spec)
        assert set(result.failed_nodes) == {"v0", "v1"}
        assert result.makespan == math.inf

    def test_failures_skipped_for_infinite_plans(self, dead_link_instance):
        planned = Schedule()
        planned.add("a", "n1", 0.0, 1.0)
        planned.add("b", "n2", math.inf, math.inf)
        spec = DynamicsSpec(failures=FailureSpec(count=1, at=0.5))
        result = simulate_schedule(planned, dead_link_instance, spec)
        assert result.failed_nodes == ()
        assert result.makespan == math.inf

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: a rescued task queues behind the rescue node's "
        "planned tasks, and one of them waits on it (reassign deadlock)",
    )
    def test_reassign_runs_rescued_predecessor_first(self):
        """a (v1) feeds b (v0); v1 dies at t=1 and a moves to v0 behind b.

        b waits on a and a waits for b to leave the queue head, so today
        the replay ends at ``('reassign', 1.0, 'a', 'v0')`` with both
        unfinished and an infinite makespan.
        """
        tg = TaskGraph.from_dicts({"a": 2.0, "b": 1.0}, {("a", "b"): 1.0})
        net = Network.from_speeds({"v0": 1.0, "v1": 1.0}, default_strength=1.0)
        instance = ProblemInstance(net, tg, name="reassign-deadlock")
        planned = Schedule()
        planned.add("a", "v1", 0.0, 2.0)
        planned.add("b", "v0", 3.0, 4.0)
        spec = DynamicsSpec(failures=FailureSpec(count=1, at=0.25, fate="reassign"))
        result = simulate_schedule(planned, instance, spec)
        assert result.failed_nodes == ("v1",)
        assert result.unfinished == ()
        assert math.isfinite(result.makespan)

    def test_random_pick_needs_and_uses_rng(self):
        instance, planned = self.make()
        spec = DynamicsSpec(failures=FailureSpec(count=1, at=0.5, pick="random"))
        with pytest.raises(SchedulingError, match="rng"):
            simulate_schedule(planned, instance, spec)
        a = simulate_schedule(planned, instance, spec, rng=3)
        b = simulate_schedule(planned, instance, spec, rng=3)
        assert a.events == b.events


# ---------------------------------------------------------------------- #
# The replay plan cache: one plan per schedule, never a stale one
# ---------------------------------------------------------------------- #
CACHE_DYNAMICS = DynamicsSpec(
    contention="fair",
    error=NoiseSpec(kind="uniform", low=0.5, high=2.0),
    failures=FailureSpec(count=1, at=0.5, fate="reassign"),
)


def assert_same_as_reference(result, planned, instance, spec, seed) -> None:
    reference = dynamic_reference.simulate_schedule(planned, instance, spec, rng=seed)
    assert repr(result) == repr(reference)


class TestReplayPlanCache:
    def test_interleaved_seeds_share_one_plan(self):
        """Seeds a, b, a: the reassign in each replay rewrites that
        replay's queues, never the shared plan's."""
        instance, planned = star_instance(), star_plan()
        first = simulate_schedule(planned, instance, CACHE_DYNAMICS, rng=3)
        second = simulate_schedule(planned, instance, CACHE_DYNAMICS, rng=4)
        third = simulate_schedule(planned, instance, CACHE_DYNAMICS, rng=3)
        assert any(event[0] == "reassign" for event in first.events)
        assert repr(third) == repr(first)
        assert repr(second) != repr(first)
        assert_same_as_reference(first, planned, instance, CACHE_DYNAMICS, 3)
        assert_same_as_reference(second, planned, instance, CACHE_DYNAMICS, 4)

    def test_adding_to_the_schedule_replans(self):
        instance, planned = star_instance(), star_plan()
        simulate_schedule(planned, instance, CACHE_DYNAMICS, rng=3)
        planned.add("ghost", "v0", 6.0, 7.0)
        with pytest.raises(SchedulingError, match="unknown tasks"):
            simulate_schedule(planned, instance, CACHE_DYNAMICS, rng=3)

    def test_mutated_instance_or_other_spec_replans(self):
        instance, planned = star_instance(), star_plan()
        before = simulate_schedule(planned, instance, CACHE_DYNAMICS, rng=3)
        instance.task_graph.set_cost("t1", 4.0)
        after = simulate_schedule(planned, instance, CACHE_DYNAMICS, rng=3)
        assert repr(after) != repr(before)
        assert_same_as_reference(after, planned, instance, CACHE_DYNAMICS, 3)
        stall = DynamicsSpec(
            contention="fair",
            error=CACHE_DYNAMICS.error,
            failures=FailureSpec(count=1, at=0.25, fate="stall"),
        )
        stalled = simulate_schedule(planned, instance, stall, rng=3)
        assert stalled.unfinished and not after.unfinished
        assert_same_as_reference(stalled, planned, instance, stall, 3)


# ---------------------------------------------------------------------- #
# The pinned robustness gap: static winner loses under dynamics
# ---------------------------------------------------------------------- #
GAP_DYNAMICS = DynamicsSpec(
    contention="fair",
    error=NoiseSpec(kind="uniform", low=0.7, high=1.8),
    samples=3,
)


class TestRobustnessGap:
    def test_static_dynamics_rejected(self):
        with pytest.raises(ValueError, match="active dynamics"):
            RobustnessGapPISA("HEFT", "FastestNode", dynamics=DynamicsSpec())

    def test_energy_is_pure_function_of_instance(self):
        pisa = RobustnessGapPISA(
            "HEFT", "FastestNode", dynamics=GAP_DYNAMICS, dynamics_seed=0
        )
        instance = random_chain_instance(5)
        assert pisa.energy(instance) == pisa.energy(instance)
        other = RobustnessGapPISA(
            "HEFT", "FastestNode", dynamics=GAP_DYNAMICS, dynamics_seed=0
        )
        assert pisa.energy(instance) == other.energy(instance)

    def test_pinned_ranking_flip(self):
        """Fixed seeds: MinMin beats FastestNode statically, loses replayed.

        The regression pin for the acceptance criterion — the search
        surfaces an instance on a fig4 pair where the static winner
        loses under dynamics.
        """
        from repro.benchmarking.metrics import makespan_ratio

        config = PISAConfig(
            annealing=AnnealingConfig(t_max=10, t_min=0.1, max_iterations=120, alpha=0.95),
            restarts=1,
        )
        pisa = RobustnessGapPISA(
            "MinMin", "FastestNode", dynamics=GAP_DYNAMICS, dynamics_seed=0, config=config
        )
        result = pisa.run_restart(1)
        best = result.best_state
        static = makespan_ratio(
            pisa.target.schedule(best).makespan, pisa.baseline.schedule(best).makespan
        )
        dynamic = makespan_ratio(
            pisa._mean_dynamic_makespan(pisa.target.schedule(best), best),
            pisa._mean_dynamic_makespan(pisa.baseline.schedule(best), best),
        )
        assert static < 1.0, "MinMin must win statically on the pinned instance"
        assert dynamic > 1.0, "MinMin must lose under dynamics on the pinned instance"
        # The recorded best energy re-evaluates identically (pure energy).
        assert result.best_energy == pisa.energy(best)

    @pytest.mark.parametrize(
        "target,baseline", list(itertools.permutations(("HEFT", "MinMin", "MaxMin"), 2))
    )
    def test_restart_scores_the_gap_energy_on_kernel_pairs(self, target, baseline):
        """Pairs with a lockstep kernel anneal the subclass's own energy.

        A restart must score every candidate with ``RobustnessGapPISA.energy``,
        not the static makespan ratio the lockstep kernels compute: its
        best energy re-evaluates identically, and its trajectory is a plain
        ``SimulatedAnnealing`` run over that energy.
        """
        pisa = RobustnessGapPISA(
            target,
            baseline,
            dynamics=DynamicsSpec(
                contention="fair", error=NoiseSpec("uniform", low=0.8, high=1.5), samples=3
            ),
            dynamics_seed=0,
            config=PISAConfig(
                annealing=AnnealingConfig(max_iterations=200), restarts=1, keep_history=True
            ),
        )
        result = pisa.run_restart(2)
        assert result.best_energy == pisa.energy(result.best_state)

        gen = as_generator(2)
        plain = SimulatedAnnealing(
            energy=pisa.energy,
            perturb=pisa.perturbations.perturb,
            config=pisa.config.annealing,
            keep_history=True,
        ).run(apply_initial_constraints(pisa.initial_factory(gen), pisa.constraints), rng=gen)
        assert result.best_energy == plain.best_energy
        assert result.history == plain.history


# ---------------------------------------------------------------------- #
# The dynamic sweep mode: spec wiring, jobs-invariance, resume
# ---------------------------------------------------------------------- #
def tiny_dynamic_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        name="dyn-test",
        mode="dynamic",
        schedulers=("HEFT", "MinMin"),
        num_instances=3,
        seed=17,
        dynamics=DynamicsSpec(
            contention="fair",
            error=NoiseSpec(kind="uniform", low=0.8, high=1.5),
            samples=2,
        ),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestDynamicSweep:
    def test_spec_round_trip(self):
        spec = tiny_dynamic_spec()
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_dynamic_mode_requires_dynamics(self):
        with pytest.raises(SpecError, match="dynamics"):
            SweepSpec(name="x", mode="dynamic", schedulers=("HEFT",))

    def test_benchmark_mode_rejects_dynamics(self):
        with pytest.raises(SpecError, match="dynamics"):
            SweepSpec(
                name="x",
                mode="benchmark",
                schedulers=("HEFT",),
                dynamics=DynamicsSpec(contention="fair"),
            )

    def test_jobs_invariance_and_resume(self, tmp_path):
        spec = tiny_dynamic_spec()
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2, run_dir=tmp_path / "run")
        for name in spec.schedulers:
            assert (serial.makespans[name] == parallel.makespans[name]).all()
            assert (serial.dynamic[name] == parallel.dynamic[name]).all()
        # Truncate the checkpoint to one completed unit and resume.
        units = tmp_path / "run" / "units.jsonl"
        units.write_text(units.read_text().splitlines()[0] + "\n")
        resumed = run_sweep(spec, jobs=2, run_dir=tmp_path / "run", resume=True)
        for name in spec.schedulers:
            assert (serial.dynamic[name] == resumed.dynamic[name]).all()

    def test_degenerate_dynamics_mirror_static(self):
        """A do-nothing dynamics spec: realized == static, every sample."""
        spec = tiny_dynamic_spec(dynamics=DynamicsSpec(samples=2))
        result = run_sweep(spec, jobs=1)
        for name in spec.schedulers:
            assert (result.dynamic[name] == result.makespans[name][:, None]).all()

    def test_common_random_numbers_across_schedulers(self):
        """Replay seeds are per instance, not per scheduler: adding a
        scheduler to the sweep cannot change another's realized makespans."""
        a = run_sweep(tiny_dynamic_spec(schedulers=("HEFT",)), jobs=1)
        b = run_sweep(tiny_dynamic_spec(schedulers=("HEFT", "MinMin")), jobs=1)
        assert (a.dynamic["HEFT"] == b.dynamic["HEFT"]).all()

    def test_pisa_mode_with_dynamics_sweeps_the_gap(self, tmp_path):
        spec = SweepSpec(
            name="gap",
            mode="pisa",
            pairs=(("MinMin", "FastestNode"),),
            config=PISAConfig(
                annealing=AnnealingConfig(t_max=10, t_min=0.1, max_iterations=15, alpha=0.85),
                restarts=2,
            ),
            seed=7,
            dynamics=GAP_DYNAMICS,
        )
        assert SweepSpec.from_json(spec.to_json()) == spec
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2, run_dir=tmp_path / "run")
        key = ("MinMin", "FastestNode")
        assert (
            serial.pairwise.results[key].restart_ratios
            == parallel.pairwise.results[key].restart_ratios
        )
        # Resume from a truncated checkpoint reproduces the same ratios.
        units = tmp_path / "run" / "units.jsonl"
        units.write_text(units.read_text().splitlines()[0] + "\n")
        resumed = run_sweep(spec, jobs=2, run_dir=tmp_path / "run", resume=True)
        assert (
            serial.pairwise.results[key].restart_ratios
            == resumed.pairwise.results[key].restart_ratios
        )

    def test_report_renders(self):
        result = run_sweep(tiny_dynamic_spec(), jobs=1)
        report = result.report
        assert "dynamic replay" in report
        assert "HEFT" in report and "degradation" in report
