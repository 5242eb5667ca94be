"""The integer-table replay engine against the frozen dict-keyed engine.

``repro.core.dynamic.simulator`` replays on the compiled instance's dense
ids; ``tests/dynamic_reference.py`` is the engine it replaced, frozen.
Every check here replays the same ``(schedule, instance, dynamics, rng)``
through both and compares the :class:`DynamicResult` field by field by
``repr`` (so ``-0.0``, ``inf`` and float types count): event log,
entries, makespan, failed nodes and unfinished tasks.  When the replay is
handed a :class:`numpy.random.Generator`, the generator's next draw after
the replay must match too, so the draws consumed are the same.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import get_scheduler
from repro.core import Network, ProblemInstance, Schedule, TaskGraph
from repro.core.dynamic import DynamicsSpec, FailureSpec, NoiseSpec, simulate_schedule
from repro.sweeps.sources import resolve_source
from repro.sweeps.spec import SourceSpec
from repro.utils.rng import as_generator
from tests import dynamic_reference
from tests.conftest import ALL_SCHEDULERS, POLY_SCHEDULERS
from tests.strategies import instances

NOISES = (
    NoiseSpec(),
    NoiseSpec(kind="uniform", low=0.5, high=2.0),
    NoiseSpec(kind="gaussian", std=0.3, low=0.5, high=1.8),
)
FAILURES = (
    FailureSpec(),
    FailureSpec(count=1, at=0.5, fate="stall"),
    FailureSpec(count=1, at=0.4, fate="reassign", pick="random"),
    FailureSpec(count=9, at=0.6, fate="reassign"),  # at least every node
)
#: contention x error x slowdown x failures: 108 specs.
SPECS = tuple(
    DynamicsSpec(contention=contention, error=error, slowdown=slowdown, failures=failures)
    for contention, error, slowdown, failures in itertools.product(
        ("none", "fair", "fifo"), NOISES, NOISES, FAILURES
    )
)
#: The benchmark's ``dynamic`` workload spec (``benchmarks/e2e/workloads.py``).
WORKLOAD_SPEC = DynamicsSpec(
    contention="fair",
    error=NoiseSpec("uniform", low=0.8, high=1.5),
    slowdown=NoiseSpec("uniform", low=1.0, high=1.5),
    failures=FailureSpec(count=1, fate="reassign"),
    samples=20,
)


def assert_same_replay(plan: Schedule, instance: ProblemInstance, spec: DynamicsSpec, seed: int):
    """Both engines, with an int seed and with a Generator: identical results."""
    new = simulate_schedule(plan, instance, spec, rng=seed)
    ref = dynamic_reference.simulate_schedule(plan, instance, spec, rng=seed)
    for name in ("events", "entries", "makespan", "failed_nodes", "unfinished"):
        assert repr(getattr(new, name)) == repr(getattr(ref, name)), (name, spec)

    gen_new, gen_ref = as_generator(seed), as_generator(seed)
    new = simulate_schedule(plan, instance, spec, rng=gen_new)
    ref = dynamic_reference.simulate_schedule(plan, instance, spec, rng=gen_ref)
    assert repr(new) == repr(ref), spec
    assert gen_new.integers(2**63) == gen_ref.integers(2**63), spec


def assert_same_over_specs(plan: Schedule, instance: ProblemInstance, seed: int) -> None:
    for spec in SPECS:
        assert_same_replay(plan, instance, spec, seed)


class TestAgainstFrozenEngine:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_every_scheduler_plan_every_spec(self, name, data, seed):
        if name in POLY_SCHEDULERS:
            strategy = instances(min_tasks=1, max_tasks=6, min_nodes=1, max_nodes=4)
        else:  # exponential search: keep the instance tiny
            strategy = instances(min_tasks=1, max_tasks=4, min_nodes=1, max_nodes=3)
        instance = data.draw(strategy)
        plan = get_scheduler(name).schedule(instance)
        assert_same_over_specs(plan, instance, seed)

    def test_workload_spec_on_montage(self):
        """The ``dynamic`` benchmark workload's own spec and instances."""
        source = resolve_source(SourceSpec("workflow", {"workflow": "montage", "ccr": 1.0}))
        for instance in source.sequential(3, as_generator(0)):
            for name in ("CPoP", "FastestNode", "HEFT", "MaxMin", "MinMin", "WBA"):
                plan = get_scheduler(name).schedule(instance)
                for seed in range(WORKLOAD_SPEC.samples):
                    assert_same_replay(plan, instance, WORKLOAD_SPEC, seed)


# ---------------------------------------------------------------------- #
# Fixed corner cases, each replayed under every spec
# ---------------------------------------------------------------------- #
def fork_instance(
    strength: float, data: float, cost_b: float = 1.0, speeds: tuple = (1.0, 2.0)
) -> ProblemInstance:
    """a -> {b, c} on nodes v0, v1, ... joined by links of ``strength``."""
    tg = TaskGraph.from_dicts(
        {"a": 1.0, "b": cost_b, "c": 2.0}, {("a", "b"): data, ("a", "c"): data}
    )
    net = Network.from_speeds(
        {f"v{i}": speed for i, speed in enumerate(speeds)}, default_strength=strength
    )
    return ProblemInstance(net, tg, name="fork")


def fork_plan() -> Schedule:
    """a and b on v0, c across the link on v1 (starts are only an order)."""
    plan = Schedule()
    plan.add("a", "v0", 0.0, 1.0)
    plan.add("b", "v0", 1.0, 2.0)
    plan.add("c", "v1", 3.0, 4.0)
    return plan


FIXED = {
    "zero-strength link": fork_instance(strength=0.0, data=1.0),
    "infinite-strength link": fork_instance(strength=math.inf, data=1.0),
    "zero data": fork_instance(strength=0.5, data=0.0),
    "infinite data": fork_instance(strength=0.5, data=math.inf),
    "infinite-cost task": fork_instance(strength=1.0, data=1.0, cost_b=math.inf),
    # Two equally fast survivors: the rescue node is the first of them.
    "tied rescue speeds": fork_instance(strength=1.0, data=1.0, speeds=(1.0, 1.0, 1.0)),
}


@pytest.mark.parametrize("case", sorted(FIXED))
@pytest.mark.parametrize("seed", [0, 1])
def test_fixed_case_hand_plan(case, seed):
    instance = FIXED[case]
    assert_same_over_specs(fork_plan(), instance, seed)


@pytest.mark.parametrize("case", sorted(set(FIXED) - {"infinite-cost task"}))
def test_fixed_case_scheduler_plans(case):
    """Every scheduler's plan; the infinite-cost case has only the hand
    plan, since BruteForce and WBA refuse to plan it."""
    instance = FIXED[case]
    for name in ALL_SCHEDULERS:
        assert_same_over_specs(get_scheduler(name).schedule(instance), instance, 3)


@pytest.mark.parametrize("at", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("fate", ["stall", "reassign"])
def test_failure_at_exactly_a_finish_time(at, fate):
    """Planned makespan 4 on unit speeds: ``at * 4`` lands on finish times.

    v0 runs a [0, 1] then d [1, 4] and is the most-loaded victim; v1 runs
    b [0, 2] and then i, whose infinite cost holds v1 forever.  With
    ``at=0.25`` the failure and a's finish are both at t=1; with
    ``at=0.5`` it meets b's finish, and with ``at=1.0`` it hits i mid-run.
    """
    tg = TaskGraph.from_dicts(
        {"a": 1.0, "b": 2.0, "d": 3.0, "i": math.inf}, {("a", "d"): 1.0, ("b", "d"): 0.0}
    )
    net = Network.from_speeds({"v0": 1.0, "v1": 1.0}, default_strength=1.0)
    instance = ProblemInstance(net, tg, name="finish-tie")
    plan = Schedule()
    plan.add("a", "v0", 0.0, 1.0)
    plan.add("d", "v0", 1.0, 4.0)
    plan.add("b", "v1", 0.0, 2.0)
    plan.add("i", "v1", 2.0, 2.0)
    for count, contention in itertools.product((1, 2), ("none", "fair", "fifo")):
        failures = FailureSpec(count=count, at=at, fate=fate)
        assert_same_replay(plan, instance, DynamicsSpec(contention, failures=failures), 0)
