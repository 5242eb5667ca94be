"""Tests for the simulated-annealing engine (Algorithm 1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.pisa.annealing import AnnealingConfig, SimulatedAnnealing


def _walk_energy(state: float) -> float:
    """A 1-D multimodal *positive* energy with its global max near x = 3.

    PISA energies are makespan ratios (always positive); Algorithm 1's
    acceptance rule exp(-(M'/M_best)/T) assumes that, so the toy landscape
    here stays positive too: a floored parabola peaking at 10 plus a
    0.5-amplitude ripple creating local optima.
    """
    return max(10.0 - (state - 3.0) ** 2, 1.0) + 0.5 * math.sin(5.0 * state)


def _walk_perturb(state: float, rng: np.random.Generator) -> float:
    return state + float(rng.uniform(-0.5, 0.5))


class TestConfig:
    def test_defaults_are_paper_parameters(self):
        cfg = AnnealingConfig()
        assert cfg.t_max == 10.0
        assert cfg.t_min == 0.1
        assert cfg.max_iterations == 1000
        assert cfg.alpha == 0.99

    def test_effective_iterations_temperature_bound(self):
        """10 * 0.99^k < 0.1 first at k = 459."""
        assert AnnealingConfig().effective_iterations == 459

    def test_effective_iterations_capped_by_imax(self):
        cfg = AnnealingConfig(max_iterations=100)
        assert cfg.effective_iterations == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_max": -1.0},
            {"t_min": 0.0},
            {"t_min": 20.0},  # above t_max
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"max_iterations": -1},
            {"acceptance": "bogus"},
            {"t_max": float("nan")},
            {"t_min": float("nan")},
            {"t_max": float("inf")},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            AnnealingConfig(**kwargs)


class TestRun:
    def test_best_never_worse_than_initial(self):
        sa = SimulatedAnnealing(_walk_energy, _walk_perturb)
        result = sa.run(0.0, rng=0)
        assert result.best_energy >= result.initial_energy
        assert result.improvement >= 1.0 or result.initial_energy <= 0

    def test_finds_near_global_max_with_restarts(self):
        """Single runs of Algorithm 1's acceptance rule can stall in local
        optima (non-improving moves are accepted with a probability that
        shrinks fast as T cools) — the reason PISA restarts 5 times.  The
        best over a few restarts reliably reaches the global basin."""
        sa = SimulatedAnnealing(_walk_energy, _walk_perturb)
        best = max(sa.run(0.0, rng=seed).best_energy for seed in range(4))
        assert best > 9.0  # global max is ~10.4

    def test_iteration_count_matches_config(self):
        cfg = AnnealingConfig(max_iterations=50)
        sa = SimulatedAnnealing(_walk_energy, _walk_perturb, config=cfg)
        assert sa.run(0.0, rng=0).iterations == 50

    def test_deterministic_under_seed(self):
        sa = SimulatedAnnealing(_walk_energy, _walk_perturb)
        a = sa.run(0.0, rng=42)
        b = sa.run(0.0, rng=42)
        assert a.best_energy == b.best_energy
        assert a.best_state == b.best_state

    def test_history_recorded(self):
        cfg = AnnealingConfig(max_iterations=20)
        sa = SimulatedAnnealing(_walk_energy, _walk_perturb, config=cfg)
        result = sa.run(0.0, rng=0)
        assert len(result.history) == 20
        # Best energy is monotone nondecreasing along the trajectory.
        best_seq = [step.best_energy for step in result.history]
        assert best_seq == sorted(best_seq)
        # Temperatures decay geometrically.
        temps = [step.temperature for step in result.history]
        assert temps[0] == 10.0
        assert temps[5] == pytest.approx(10.0 * 0.99**5)

    def test_history_optional(self):
        sa = SimulatedAnnealing(
            _walk_energy, _walk_perturb, AnnealingConfig(max_iterations=5), keep_history=False
        )
        assert sa.run(0.0, rng=0).history == []

    def test_best_state_matches_best_energy(self):
        sa = SimulatedAnnealing(_walk_energy, _walk_perturb)
        result = sa.run(0.0, rng=3)
        assert _walk_energy(result.best_state) == pytest.approx(result.best_energy)

    def test_nonfinite_energy_rejected(self):
        sa = SimulatedAnnealing(lambda s: math.inf, _walk_perturb)
        with pytest.raises(ValueError):
            sa.run(0.0, rng=0)

    def test_metropolis_acceptance(self):
        cfg = AnnealingConfig(acceptance="metropolis", max_iterations=200)
        sa = SimulatedAnnealing(_walk_energy, _walk_perturb, config=cfg)
        result = sa.run(0.0, rng=2)
        assert result.best_energy > 9.0

    def test_paper_acceptance_probability_shape(self):
        """Algorithm 1's exp(-(M'/M_best)/T): high T accepts often, low T rarely."""
        sa = SimulatedAnnealing(_walk_energy, _walk_perturb)
        hot = sa._acceptance_probability(candidate=1.0, current=1.0, best=1.0, temperature=10.0)
        cold = sa._acceptance_probability(candidate=1.0, current=1.0, best=1.0, temperature=0.1)
        assert hot == pytest.approx(math.exp(-0.1))
        assert cold == pytest.approx(math.exp(-10.0))
        assert hot > cold

    def test_zero_iterations(self):
        cfg = AnnealingConfig(max_iterations=0)
        sa = SimulatedAnnealing(_walk_energy, _walk_perturb, config=cfg)
        result = sa.run(1.5, rng=0)
        assert result.iterations == 0
        assert result.best_state == 1.5
