"""PISA — Problem-instance Identification using Simulated Annealing.

Section VI: given a *target* scheduler A and a *baseline* scheduler B,
PISA searches the space of problem instances for one that maximizes the
makespan ratio ``m(S_A) / m(S_B)`` — the instance on which A maximally
under-performs B.  For every pair of schedulers the search is restarted
``restarts`` (paper: 5) times from fresh random initial instances.

The pairwise driver (:func:`pairwise_comparison`) reproduces Fig. 4: a
matrix whose (base B, target A) cell is the largest ratio found over all
restarts, with the homogeneity constraints of Section VI applied whenever
a constrained scheduler participates in the pair.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.benchmarking.metrics import makespan_ratio
from repro.core.instance import ProblemInstance
from repro.core.scheduler import Scheduler, get_scheduler
from repro.pisa.annealing import AnnealingConfig, AnnealingResult, SimulatedAnnealing
from repro.pisa.constraints import (
    SearchConstraints,
    apply_initial_constraints,
    combined_constraints,
    constrain_perturbations,
)
from repro.pisa.initial import random_chain_instance
from repro.pisa.perturbations import PerturbationSet, default_perturbations
from repro.utils.rng import as_generator, spawn

__all__ = ["PISAConfig", "PISAResult", "PISA", "pairwise_comparison", "PairwiseResult"]


@dataclass(frozen=True)
class PISAConfig:
    """PISA run parameters (defaults are the paper's, Section VI).

    ``keep_history`` opts a run into per-iteration
    :class:`~repro.pisa.annealing.AnnealingStep` records (459 allocations
    per restart at the paper's schedule).  The ratios are unaffected, so
    runtime work units default to history-off; the Fig. 5/6 trajectory
    analyses (and ``SweepSpec`` runs that request it) switch it on.
    """

    annealing: AnnealingConfig = field(default_factory=AnnealingConfig)
    restarts: int = 5
    keep_history: bool = False

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class PISAResult:
    """Outcome of one PISA search (one scheduler pair)."""

    target: str
    baseline: str
    best_instance: ProblemInstance
    best_ratio: float
    restart_results: list[AnnealingResult] = field(default_factory=list)

    @property
    def restart_ratios(self) -> list[float]:
        return [r.best_energy for r in self.restart_results]

    @classmethod
    def from_restarts(
        cls, target: str, baseline: str, restart_results: list[AnnealingResult]
    ) -> "PISAResult":
        """Combine per-restart annealing results (first restart wins ties)."""
        if not restart_results:
            raise ValueError("at least one restart result is required")
        best_instance: ProblemInstance | None = None
        best_ratio = -math.inf
        for result in restart_results:
            if result.best_energy > best_ratio:
                best_ratio = result.best_energy
                best_instance = result.best_state
        assert best_instance is not None
        return cls(
            target=target,
            baseline=baseline,
            best_instance=best_instance.with_name(f"pisa:{target}-vs-{baseline}"),
            best_ratio=best_ratio,
            restart_results=list(restart_results),
        )


class PISA:
    """Adversarial instance finder for one (target, baseline) pair.

    Parameters
    ----------
    target, baseline:
        Scheduler instances or registered names.  The energy being
        maximized is ``makespan(target) / makespan(baseline)``.
    perturbations:
        The PERTURB implementation; defaults to the six operators of
        Section VI.  Constrained operators are dropped automatically
        according to the participants (unless ``constraints`` is given).
    config:
        Annealing + restart parameters.
    initial_factory:
        ``rng -> ProblemInstance`` generator of restart initial states;
        defaults to the paper's random chain instances.  The Section VII
        application-specific variant passes workflow-based factories.
    constraints:
        Explicit search constraints; ``None`` derives them from the two
        schedulers' names per Section VI.
    """

    def __init__(
        self,
        target: Scheduler | str,
        baseline: Scheduler | str,
        perturbations: PerturbationSet | None = None,
        config: PISAConfig | None = None,
        initial_factory: Callable[[np.random.Generator], ProblemInstance] | None = None,
        constraints: SearchConstraints | None = None,
    ) -> None:
        self.target = get_scheduler(target) if isinstance(target, str) else target
        self.baseline = get_scheduler(baseline) if isinstance(baseline, str) else baseline
        self.config = config or PISAConfig()
        if constraints is None:
            constraints = combined_constraints(self.target.name, self.baseline.name)
        self.constraints = constraints
        base_perturbations = perturbations or default_perturbations()
        self.perturbations = constrain_perturbations(base_perturbations, constraints)
        self.initial_factory = initial_factory or random_chain_instance

    # ------------------------------------------------------------------ #
    def energy(self, instance: ProblemInstance) -> float:
        """Makespan ratio of target over baseline on ``instance``.

        Both schedules run over the instance's shared
        :class:`~repro.core.compiled.CompiledInstance` kernel — the
        candidate is compiled once and scheduled twice.
        """
        target_ms = self.target.schedule(instance).makespan
        baseline_ms = self.baseline.schedule(instance).makespan
        return makespan_ratio(target_ms, baseline_ms)

    def run_restart(self, rng: int | np.random.Generator | None = None) -> AnnealingResult:
        """One annealing run from a fresh constrained initial instance.

        This is the runtime's work unit: the caller owns the seeding (one
        spawned child generator per restart) and the combination of
        restarts into a :class:`PISAResult`.
        """
        gen = as_generator(rng)
        annealer = SimulatedAnnealing(
            energy=self.energy,
            perturb=self.perturbations.perturb,
            config=self.config.annealing,
            keep_history=self.config.keep_history,
        )
        initial = apply_initial_constraints(self.initial_factory(gen), self.constraints)
        return annealer.run(initial, rng=gen)

    def run(self, rng: int | np.random.Generator | None = None, jobs: int = 1) -> PISAResult:
        """Run ``restarts`` annealing runs and keep the best instance.

        Every restart draws from its own child generator spawned from
        ``rng`` (``np.random.SeedSequence.spawn`` semantics), so restart
        ``i``'s result does not depend on how many restarts precede it or
        on whether restarts execute serially (``jobs=1``) or across a
        process pool (``jobs>1``) — the two paths are bit-identical.
        """
        restart_gens = spawn(rng, self.config.restarts)
        if jobs > 1:
            from repro.runtime.pairwise import run_pisa_restarts

            results = run_pisa_restarts(self, restart_gens, jobs=jobs)
        else:
            results = [self.run_restart(gen) for gen in restart_gens]
        return PISAResult.from_restarts(self.target.name, self.baseline.name, results)


@dataclass
class PairwiseResult:
    """The Fig. 4 matrix: best adversarial ratio for every ordered pair."""

    schedulers: list[str]
    results: dict[tuple[str, str], PISAResult] = field(default_factory=dict)

    def ratio(self, target: str, baseline: str) -> float:
        return self.results[(target, baseline)].best_ratio

    def worst_case_row(self) -> dict[str, float]:
        """Per-target worst ratio over all baselines (Fig. 4's "Worst" row)."""
        out: dict[str, float] = {}
        for target in self.schedulers:
            out[target] = max(
                self.results[(target, base)].best_ratio
                for base in self.schedulers
                if base != target
            )
        return out


def pairwise_comparison(
    schedulers: list[str],
    config: PISAConfig | None = None,
    rng: int | np.random.Generator | None = None,
    perturbations: PerturbationSet | None = None,
    initial_factory: Callable[[np.random.Generator], ProblemInstance] | None = None,
    progress: Callable[[str, str, float], None] | None = None,
    jobs: int = 1,
) -> PairwiseResult:
    """Run PISA for every ordered pair of ``schedulers`` (Fig. 4).

    The sweep decomposes into one work unit per (target, baseline,
    restart), each on its own spawned RNG stream, executed by
    :mod:`repro.runtime`:

    * ``jobs`` fans units out over that many worker processes; for a
      fixed seed the ratio matrix is identical at any ``jobs``.
    * A checkpointed, resumable run goes through a spec instead
      (:func:`repro.sweeps.fig4_spec` and :func:`repro.sweeps.run_sweep`
      with ``run_dir=``), whose manifest records the whole search space.

    ``progress(target, baseline, ratio)`` is invoked as each pair's last
    restart completes — paper-scale runs take a while and the experiment
    drivers use this to stream rows.
    """
    from repro.runtime.pairwise import run_pairwise

    return run_pairwise(
        schedulers,
        config=config,
        rng=rng,
        perturbations=perturbations,
        initial_factory=initial_factory,
        progress=progress,
        jobs=jobs,
    )
