"""Realized dynamic traces obey the replay model's laws.

``tests/dynamic_laws.py`` checks a :class:`DynamicResult` against the
instance, spec and seed alone, so unlike the frozen-engine equivalence
suite it shares no code, and no defect, with the engine.  ``reassign``
specs are left out until the reassign deadlock is fixed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import get_scheduler
from repro.core.dynamic import DynamicsSpec, NoiseSpec, simulate_schedule
from tests.conftest import POLY_SCHEDULERS
from tests.dynamic_laws import check_laws
from tests.strategies import dynamics_specs, instances


@pytest.mark.parametrize("name", POLY_SCHEDULERS)
@given(
    instance=instances(min_tasks=1, max_tasks=6, min_nodes=1, max_nodes=4),
    dynamics=dynamics_specs(fates=("stall",)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_every_replay_obeys_the_laws(name, instance, dynamics, seed):
    plan = get_scheduler(name).schedule(instance)
    check_laws(instance, dynamics, seed, simulate_schedule(plan, instance, dynamics, rng=seed))


@given(
    instance=instances(min_tasks=2, max_tasks=6, min_nodes=2, max_nodes=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_checker_rejects_another_seeds_factors(instance, seed):
    """A checker that passes everything shows nothing: durations drawn
    under one seed break the duration law under another."""
    spec = DynamicsSpec(contention="fifo", error=NoiseSpec(kind="uniform", low=0.5, high=2.0))
    plan = get_scheduler("HEFT").schedule(instance)
    result = simulate_schedule(plan, instance, spec, rng=seed)
    check_laws(instance, spec, seed, result)
    if any(instance.task_graph.cost(t) > 0.0 for t in instance.task_graph.tasks):
        with pytest.raises(AssertionError):
            check_laws(instance, spec, seed + 1, result)

