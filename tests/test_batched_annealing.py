"""One annealing loop: delta-compiled candidates change nothing.

PISA restarts run `SimulatedAnnealing`, and every weight move derives
its candidate's compilation from the parent's (`PlannedMove.materialize`
binds `CompiledInstance.apply_delta` to the copy) instead of compiling
it from scratch.  The golden property is that this is *invisible*: for
any seed, schedule, and scheduler pair, the trajectory — every candidate
energy, acceptance decision, temperature, best energy — the best state
and the generator state after the run all equal a full-compile reference
run, which is the same loop with each candidate's compile cache dropped
before scoring.  These tests pin that across all fig4 ordered pairs, plus
the finiteness validation and the grouped `batch_energy` kernel path.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.pisa.pisa as pisa_mod
from repro.core.compiled import compile_stats, reset_compile_stats
from repro.pisa.annealing import (
    AnnealingConfig,
    SimulatedAnnealing,
    require_finite_energy,
)
from repro.pisa.batch import batch_energy
from repro.pisa.constraints import apply_initial_constraints
from repro.pisa.initial import random_chain_instance
from repro.pisa.pisa import PISA, PISAConfig
from repro.schedulers import PAPER_SCHEDULERS
from repro.sweeps.spec import SpecError, SweepSpec
from repro.utils.rng import as_generator

KERNEL_TRIO = ("HEFT", "MinMin", "MaxMin")


def _delta_and_reference(target, baseline, cfg, seed):
    """One restart through PISA's loop and through the full-compile
    reference, each on its own generator seeded alike.

    Returns ``(delta_run, reference_run, delta_gen, reference_gen,
    delta_compiles)``, the last counted over the PISA run only.
    """
    pisa = PISA(
        target, baseline, config=PISAConfig(annealing=cfg, restarts=1, keep_history=True)
    )
    gen = as_generator(seed)
    reset_compile_stats()
    delta_run = pisa.run_restart(rng=gen)
    delta_compiles = compile_stats()["delta"]

    def full_compile_energy(instance):
        instance.__dict__.pop("_compiled_cache", None)
        return pisa.energy(instance)

    ref_gen = as_generator(seed)
    initial = apply_initial_constraints(pisa.initial_factory(ref_gen), pisa.constraints)
    reference = SimulatedAnnealing(
        energy=full_compile_energy,
        perturb=pisa.perturbations.perturb,
        config=cfg,
        keep_history=True,
    ).run(initial, rng=ref_gen)
    return delta_run, reference, gen, ref_gen, delta_compiles


def _assert_same_run(delta_run, reference, gen, ref_gen):
    assert delta_run.initial_energy == reference.initial_energy
    assert delta_run.best_energy == reference.best_energy
    assert delta_run.iterations == reference.iterations
    assert delta_run.history == reference.history
    assert delta_run.best_state.to_dict() == reference.best_state.to_dict()
    # Same generator consumption: the next draws after the run agree.
    assert gen.random(8).tolist() == ref_gen.random(8).tolist()


def test_all_fig4_pairs_trajectory_identical():
    """Every ordered pair of the 15 paper schedulers, short schedule."""
    cfg = AnnealingConfig(alpha=0.75)  # ~16 iterations
    delta_total = 0
    for target, baseline in itertools.permutations(PAPER_SCHEDULERS, 2):
        delta_run, reference, gen, ref_gen, delta = _delta_and_reference(
            target, baseline, cfg, 3
        )
        _assert_same_run(delta_run, reference, gen, ref_gen)
        delta_total += delta
    assert delta_total > 0, "no candidate took the delta-compile path"


@pytest.mark.parametrize(
    "target,baseline",
    [(t, b) for t, b in itertools.permutations(KERNEL_TRIO, 2)],
)
def test_kernel_pairs_trajectory_identical(target, baseline):
    """The pairs the lockstep kernels cover, on a schedule long enough to
    cross the accept-heavy -> reject-heavy transition."""
    cfg = AnnealingConfig(alpha=0.95)
    for seed in (0, 1):
        delta_run, reference, gen, ref_gen, delta = _delta_and_reference(
            target, baseline, cfg, seed
        )
        _assert_same_run(delta_run, reference, gen, ref_gen)
        assert delta > 0


def test_generator_state_identical_after_run():
    """Delta compilation draws nothing: the generator ends where the
    full-compile reference leaves it."""
    cfg = AnnealingConfig(alpha=0.9)
    for seed in range(3):
        delta_run, reference, gen, ref_gen, _ = _delta_and_reference("HEFT", "CPoP", cfg, seed)
        _assert_same_run(delta_run, reference, gen, ref_gen)


def test_metropolis_acceptance_identical():
    cfg = AnnealingConfig(alpha=0.9, acceptance="metropolis")
    delta_run, reference, gen, ref_gen, delta = _delta_and_reference("MinMin", "MaxMin", cfg, 11)
    _assert_same_run(delta_run, reference, gen, ref_gen)
    assert delta > 0


def test_uncompiled_parent_is_not_compiled_to_perturb():
    """Perturbing an instance nobody scored (a genetic crossover child)
    must not compile it: the copy simply stays uncompiled."""
    pisa = PISA("HEFT", "MinMin")
    gen = as_generator(5)
    parent = random_chain_instance(gen)
    reset_compile_stats()
    for _ in range(20):
        child = pisa.perturbations.perturb(parent, gen)
        assert "_compiled_cache" not in child.__dict__
    assert compile_stats() == {"full": 0, "delta": 0, "cache_hits": 0}


# --------------------------------------------------------------------- #
# Finiteness validation
# --------------------------------------------------------------------- #
def test_require_finite_energy_messages():
    require_finite_energy(1.5)  # finite: no-op
    with pytest.raises(ValueError, match="energy must be finite, got nan"):
        require_finite_energy(float("nan"))
    with pytest.raises(ValueError, match="energy must be finite, got inf"):
        require_finite_energy(float("inf"))
    with pytest.raises(ValueError, match="energy of the initial state must be finite"):
        require_finite_energy(float("nan"), initial=True)


def test_serial_annealer_still_raises_on_nan():
    calls = {"n": 0}

    def energy(state):
        calls["n"] += 1
        return 1.0 if calls["n"] <= 3 else float("nan")

    annealer = SimulatedAnnealing(
        energy=energy, perturb=lambda s, rng: s, config=AnnealingConfig(alpha=0.5)
    )
    with pytest.raises(ValueError, match="energy must be finite, got nan"):
        annealer.run(object(), rng=0)


def test_serial_annealer_raises_on_nonfinite_initial():
    annealer = SimulatedAnnealing(
        energy=lambda s: float("inf"), perturb=lambda s, rng: s
    )
    with pytest.raises(ValueError, match="energy of the initial state must be finite"):
        annealer.run(object(), rng=0)


def test_pisa_restart_raises_on_nan(monkeypatch):
    """A NaN energy on a delta-compiled candidate surfaces with the
    canonical message."""
    real_ratio = pisa_mod.makespan_ratio
    calls = {"n": 0}

    def poisoned(target_ms, baseline_ms):
        calls["n"] += 1
        if calls["n"] <= 1:  # let the initial-state evaluation through
            return real_ratio(target_ms, baseline_ms)
        return float("nan")

    monkeypatch.setattr(pisa_mod, "makespan_ratio", poisoned)
    pisa = PISA(
        "HEFT", "MinMin", config=PISAConfig(annealing=AnnealingConfig(alpha=0.95), restarts=1)
    )
    with pytest.raises(ValueError, match="energy must be finite, got nan"):
        pisa.run_restart(rng=0)


def test_pisa_restart_raises_on_nonfinite_initial(monkeypatch):
    monkeypatch.setattr(pisa_mod, "makespan_ratio", lambda t, b: float("nan"))
    pisa = PISA(
        "HEFT", "MinMin", config=PISAConfig(annealing=AnnealingConfig(alpha=0.95), restarts=1)
    )
    with pytest.raises(ValueError, match="energy of the initial state must be finite"):
        pisa.run_restart(rng=0)


# --------------------------------------------------------------------- #
# Grouped batch_energy
# --------------------------------------------------------------------- #
def test_batch_energy_grouped_identical_to_scalar():
    pisa = PISA("HEFT", "MinMin")
    gen = as_generator(2)
    seed_inst = random_chain_instance(gen)
    # Weight siblings (structure-identical, stacked through the kernel)
    # plus structural mutants (serial path) in one population.
    population = [seed_inst]
    for _ in range(12):
        population.append(pisa.perturbations.perturb(seed_inst, gen))
    got = batch_energy("HEFT", "MinMin", population)
    want = np.array([pisa.energy(p) for p in population])
    assert got.tolist() == want.tolist()


def test_batch_energy_unsupported_pair_identical():
    pisa = PISA("HEFT", "CPoP")
    gen = as_generator(4)
    seed_inst = random_chain_instance(gen)
    population = [seed_inst] + [
        pisa.perturbations.perturb(seed_inst, gen) for _ in range(5)
    ]
    got = batch_energy("HEFT", "CPoP", population)
    want = np.array([pisa.energy(p) for p in population])
    assert got.tolist() == want.tolist()


# --------------------------------------------------------------------- #
# Config plumbing
# --------------------------------------------------------------------- #
def test_spec_with_config_batch_is_rejected():
    """The annealer has no ``batch`` switch; a spec file that still sets
    one fails loudly, naming the field's path, instead of being ignored."""
    data = SweepSpec(name="t", mode="pisa", schedulers=("HEFT", "CPoP")).to_dict()
    assert "batch" not in data["config"]
    data["config"]["batch"] = True
    with pytest.raises(SpecError, match=r"^spec\.config: unknown field\(s\): 'batch'"):
        SweepSpec.from_dict(data)
