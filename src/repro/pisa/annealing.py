"""The simulated-annealing engine of Algorithm 1.

PISA maximizes an *energy* (the makespan ratio of the target scheduler
over the baseline).  Following Algorithm 1 of the paper:

    Initialize solution (N, G) and best solution
    T = T_max
    while T > T_min and iteration < I_max:
        candidate = PERTURB(current)
        M' = energy(candidate)
        if M' > M_best:   accept; update best
        else:             accept with probability exp(-(M'/M_best) / T)
        T = T * alpha
    return best

With the paper's parameters (T_max = 10, T_min = 0.1, I_max = 1000,
alpha = 0.99) the temperature floor binds first: 10 * 0.99^k < 0.1 at
k = 459, so each run performs 459 iterations.

The acceptance rule is implemented exactly as printed ("paper" mode);
a conventional Metropolis rule (accept worse moves with probability
exp((M' - M_current)/T)) is available as ``acceptance="metropolis"`` for
the ablation benchmark.  Energies must be finite; PISA's ratio function
caps infinite ratios (see :func:`repro.benchmarking.metrics.makespan_ratio`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.utils.rng import as_generator

__all__ = [
    "AnnealingConfig",
    "AnnealingStep",
    "AnnealingResult",
    "SimulatedAnnealing",
    "require_finite_energy",
]


def require_finite_energy(value: float, initial: bool = False) -> None:
    """Raise the canonical ``ValueError`` when ``value`` is NaN or infinite.

    The single choke point for energy validation: the annealer calls it
    on the initial state and on every candidate.
    """
    if math.isnan(value) or math.isinf(value):
        if initial:
            raise ValueError(f"energy of the initial state must be finite, got {value}")
        raise ValueError(f"energy must be finite, got {value}")


@dataclass(frozen=True)
class AnnealingConfig:
    """Algorithm 1 parameters (defaults are the paper's)."""

    t_max: float = 10.0
    t_min: float = 0.1
    max_iterations: int = 1000
    alpha: float = 0.99
    acceptance: str = "paper"  # "paper" | "metropolis"

    def __post_init__(self) -> None:
        # NaN passes every comparison below, so finiteness comes first.
        if not (math.isfinite(self.t_max) and math.isfinite(self.t_min)):
            raise ValueError(
                f"temperatures must be finite, got t_max={self.t_max}, t_min={self.t_min}"
            )
        if self.t_max <= 0 or self.t_min <= 0:
            raise ValueError("temperatures must be positive")
        if self.t_min > self.t_max:
            raise ValueError("t_min must not exceed t_max")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.acceptance not in ("paper", "metropolis"):
            raise ValueError(f"unknown acceptance rule {self.acceptance!r}")

    @property
    def effective_iterations(self) -> int:
        """Iterations actually executed: min(I_max, temperature-floor bound)."""
        cooling = math.ceil(math.log(self.t_min / self.t_max) / math.log(self.alpha))
        return min(self.max_iterations, max(cooling, 0))


@dataclass(frozen=True)
class AnnealingStep:
    """One iteration's bookkeeping (kept for the case-study analyses)."""

    iteration: int
    temperature: float
    candidate_energy: float
    accepted: bool
    best_energy: float


@dataclass
class AnnealingResult:
    """Outcome of one annealing run."""

    best_state: Any
    best_energy: float
    initial_energy: float
    iterations: int
    history: list[AnnealingStep] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """best / initial energy (>= 1 by the keep-best invariant)."""
        if self.initial_energy == 0:
            return math.inf if self.best_energy > 0 else 1.0
        return self.best_energy / self.initial_energy


class SimulatedAnnealing:
    """Generic maximizing annealer over arbitrary states.

    Parameters
    ----------
    energy:
        Maps a state to a finite float to be maximized.
    perturb:
        ``(state, rng) -> state`` proposal function (must not mutate).
    config:
        :class:`AnnealingConfig`; defaults to the paper's parameters.
    keep_history:
        Record an :class:`AnnealingStep` per iteration (cheap; used by the
        HEFT-vs-CPoP case study to show the search trajectory).
    """

    def __init__(
        self,
        energy: Callable[[Any], float],
        perturb: Callable[[Any, np.random.Generator], Any],
        config: AnnealingConfig | None = None,
        keep_history: bool = True,
    ) -> None:
        self.energy = energy
        self.perturb = perturb
        self.config = config or AnnealingConfig()
        self.keep_history = keep_history

    def run(self, initial: Any, rng: int | np.random.Generator | None = None) -> AnnealingResult:
        gen = as_generator(rng)
        cfg = self.config

        current = initial
        current_energy = float(self.energy(initial))
        require_finite_energy(current_energy, initial=True)
        best, best_energy = current, current_energy
        initial_energy = current_energy

        history: list[AnnealingStep] = []
        temperature = cfg.t_max
        iteration = 0
        while temperature > cfg.t_min and iteration < cfg.max_iterations:
            candidate = self.perturb(current, gen)
            candidate_energy = float(self.energy(candidate))
            require_finite_energy(candidate_energy)

            if candidate_energy > best_energy:
                best, best_energy = candidate, candidate_energy
                current, current_energy = candidate, candidate_energy
                accepted = True
            else:
                accepted = gen.random() < self._acceptance_probability(
                    candidate_energy, current_energy, best_energy, temperature
                )
                if accepted:
                    current, current_energy = candidate, candidate_energy

            if self.keep_history:
                history.append(
                    AnnealingStep(
                        iteration=iteration,
                        temperature=temperature,
                        candidate_energy=candidate_energy,
                        accepted=accepted,
                        best_energy=best_energy,
                    )
                )
            temperature *= cfg.alpha
            iteration += 1

        return AnnealingResult(
            best_state=best,
            best_energy=best_energy,
            initial_energy=initial_energy,
            iterations=iteration,
            history=history,
        )

    def _acceptance_probability(
        self, candidate: float, current: float, best: float, temperature: float
    ) -> float:
        if self.config.acceptance == "paper":
            # Algorithm 1, line 9: exp(-(M'/M_best) / T).  M_best > 0 always
            # (makespan ratios are positive); guard the degenerate case.
            if best <= 0:
                return 1.0
            return math.exp(-(candidate / best) / temperature)
        # Metropolis on the *current* energy (standard maximizing SA).
        if candidate >= current:
            return 1.0
        return math.exp((candidate - current) / temperature)
