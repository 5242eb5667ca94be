"""Pairwise PISA sweeps on the work-unit runtime (Fig. 4, Figs. 10-19).

The unit of work is one *(target, baseline, restart)* annealing run —
the finest grain at which the paper's experiment decomposes without
changing its semantics.  Seeding follows a two-level spawn tree rooted
at the sweep's seed:

    root ── spawn(#pairs) ──> pair generator ── spawn(restarts) ──> unit

:meth:`repro.pisa.pisa.PISA.run` uses exactly the same per-restart spawn
for its serial path, so for a fixed seed the sweep produces bit-identical
ratios at any ``jobs`` and across interrupt/resume boundaries.

Checkpointed unit results keep the adversarial instance (via
``ProblemInstance.to_dict``) and the summary statistics of the annealing
run.  Work units run history-off by default (``PISAConfig.keep_history``
is False), so JSONL records are lean; runs that opt into full histories
for the Fig. 5/6 trajectory analyses get them serialized and restored
across resume boundaries too.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.instance import ProblemInstance
from repro.pisa.annealing import AnnealingResult, AnnealingStep
from repro.pisa.constraints import SearchConstraints
from repro.pisa.perturbations import PerturbationSet
from repro.pisa.pisa import PISA, PairwiseResult, PISAConfig, PISAResult
from repro.runtime.executor import run_units
from repro.runtime.units import WorkUnit
from repro.utils.rng import as_generator, spawn

__all__ = [
    "PairwiseUnitResult",
    "run_pairwise_unit",
    "run_pisa_restarts",
    "run_pairwise",
    "pair_sweep_units",
    "pair_progress",
    "aggregate_pair_sweep",
    "unit_key",
]


def unit_key(target: str, baseline: str, restart: int) -> str:
    """Checkpoint key of one (target, baseline, restart) unit."""
    return f"{target}|{baseline}|r{restart}"


@dataclass
class PairwiseUnitResult:
    """Outcome of one unit: one annealing restart of one scheduler pair."""

    target: str
    baseline: str
    restart: int
    annealing: AnnealingResult


def run_pairwise_unit(unit: WorkUnit) -> PairwiseUnitResult:
    """Worker: execute one (pair, restart) unit on its own RNG stream."""
    pisa, restart = unit.payload
    return PairwiseUnitResult(
        target=pisa.target.name,
        baseline=pisa.baseline.name,
        restart=restart,
        annealing=pisa.run_restart(unit.rng),
    )


def run_pisa_restarts(
    pisa: PISA, gens: list[np.random.Generator], jobs: int = 1
) -> list[AnnealingResult]:
    """Execute one pair's restarts (each on its own generator) in parallel."""
    units = [
        WorkUnit(key=f"r{i}", payload=(pisa, i), rng=gen) for i, gen in enumerate(gens)
    ]
    results = run_units(units, run_pairwise_unit, jobs=jobs)
    return [results[f"r{i}"].annealing for i in range(len(gens))]


# ---------------------------------------------------------------------- #
# Checkpoint encoding
# ---------------------------------------------------------------------- #
def encode_unit_result(result: PairwiseUnitResult) -> dict:
    """JSON payload of a unit result.

    Work units run history-off by default, so most records stay lean;
    when a run opts into ``keep_history`` (``PISAConfig.keep_history`` /
    the spec's ``config.keep_history``) the per-iteration steps are
    serialized too, so resumed trajectory runs keep their full fidelity.
    """
    ann = result.annealing
    payload = {
        "target": result.target,
        "baseline": result.baseline,
        "restart": result.restart,
        "best_energy": ann.best_energy,
        "initial_energy": ann.initial_energy,
        "iterations": ann.iterations,
        "best_instance": ann.best_state.to_dict(),
    }
    if ann.history:
        payload["history"] = [asdict(step) for step in ann.history]
    return payload


def decode_unit_result(payload: dict) -> PairwiseUnitResult:
    return PairwiseUnitResult(
        target=payload["target"],
        baseline=payload["baseline"],
        restart=payload["restart"],
        annealing=AnnealingResult(
            best_state=ProblemInstance.from_dict(payload["best_instance"]),
            best_energy=payload["best_energy"],
            initial_energy=payload["initial_energy"],
            iterations=payload["iterations"],
            history=[AnnealingStep(**step) for step in payload.get("history", ())],
        ),
    )


# ---------------------------------------------------------------------- #
# The sweep core: (pair, restart) units over the two-level spawn tree
# ---------------------------------------------------------------------- #
def pair_sweep_units(
    pairs: list[tuple[str, str, PISA]],
    restarts: int,
    rng: int | np.random.Generator | None = None,
) -> list[WorkUnit]:
    """The (pair, restart) unit list of a pairwise sweep, streams spawned.

    This function *is* the seeding contract: every entry point — the
    in-memory :func:`run_pairwise` and :func:`repro.sweeps.plan_sweep`,
    which :func:`repro.sweeps.run_sweep` and coordinator workers
    rebuilding the sweep from its manifest both call — builds units
    through it, so the same pair list and seed always yield the same
    per-unit RNG streams (and therefore bit-identical results).
    """
    gen = as_generator(rng)
    units: list[WorkUnit] = []
    for (target, baseline, pisa), pair_gen in zip(pairs, spawn(gen, len(pairs))):
        for restart, restart_gen in enumerate(spawn(pair_gen, restarts)):
            key = unit_key(target, baseline, restart)
            units.append(WorkUnit(key=key, payload=(pisa, restart), rng=restart_gen))
    return units


def aggregate_pair_sweep(
    pairs: list[tuple[str, str, PISA]],
    restarts: int,
    unit_results: dict[str, PairwiseUnitResult],
    schedulers: list[str],
) -> PairwiseResult:
    """Fold completed unit results back into a :class:`PairwiseResult`."""
    out = PairwiseResult(schedulers=list(schedulers))
    for target, baseline, pisa in pairs:
        pair_restarts = [
            unit_results[unit_key(target, baseline, r)].annealing for r in range(restarts)
        ]
        out.results[(target, baseline)] = PISAResult.from_restarts(
            pisa.target.name, pisa.baseline.name, pair_restarts
        )
    return out


def pair_progress(
    pairs: list[tuple[str, str, PISA]],
    restarts: int,
    progress: Callable[[str, str, float], None],
) -> Callable[[WorkUnit, PairwiseUnitResult, bool], None]:
    """An ``on_result`` hook reporting each pair once, as its last restart lands.

    ``progress(target, baseline, best_ratio)`` fires when every restart
    of a pair has a result — executed or restored from a checkpoint — so
    it follows the runner's streaming order: completion order on the
    local executor, pair order after a coordinator run.
    """
    key_to_pair = {
        unit_key(target, baseline, restart): (target, baseline)
        for target, baseline, _ in pairs
        for restart in range(restarts)
    }
    collected: dict[tuple[str, str], dict[int, float]] = {(t, b): {} for t, b, _ in pairs}

    def on_result(unit: WorkUnit, result: PairwiseUnitResult, cached: bool) -> None:
        pair = key_to_pair[unit.key]
        collected[pair][result.restart] = result.annealing.best_energy
        if len(collected[pair]) == restarts:
            progress(pair[0], pair[1], max(collected[pair][r] for r in range(restarts)))

    return on_result


# ---------------------------------------------------------------------- #
# The all-ordered-pairs sweep over a scheduler set
# ---------------------------------------------------------------------- #
def run_pairwise(
    schedulers: list[str],
    config: PISAConfig | None = None,
    rng: int | np.random.Generator | None = None,
    perturbations: PerturbationSet | None = None,
    initial_factory: Callable[[np.random.Generator], ProblemInstance] | None = None,
    constraints: SearchConstraints | None = None,
    progress: Callable[[str, str, float], None] | None = None,
    jobs: int = 1,
) -> PairwiseResult:
    """PISA over every ordered pair of ``schedulers`` as a unit sweep.

    ``progress(target, baseline, ratio)`` fires when a pair's last
    restart completes.  Nothing is checkpointed: a durable, resumable
    sweep goes through a :class:`~repro.sweeps.SweepSpec` and
    :func:`repro.sweeps.run_sweep`, whose manifest records the whole
    search space.
    """
    config = config or PISAConfig()
    gen = as_generator(rng)

    pairs: list[tuple[str, str, PISA]] = []
    for target in schedulers:
        for baseline in schedulers:
            if target == baseline:
                continue
            pairs.append(
                (
                    target,
                    baseline,
                    PISA(
                        target,
                        baseline,
                        perturbations=perturbations,
                        config=config,
                        initial_factory=initial_factory,
                        constraints=constraints,
                    ),
                )
            )

    units = pair_sweep_units(pairs, config.restarts, gen)
    on_result = None if progress is None else pair_progress(pairs, config.restarts, progress)
    results = run_units(units, run_pairwise_unit, jobs=jobs, on_result=on_result)
    return aggregate_pair_sweep(pairs, config.restarts, results, [str(s) for s in schedulers])
