"""The benchmark's four workloads, their sizes, and the result digest.

Each workload is a list of :class:`~repro.sweeps.SweepSpec` built from
the benchmark's ``--seed`` (it becomes each spec's ``seed``), plus how
the sweep is executed.  Why each workload exists:

``fig4``
    The paper's headline experiment (Fig. 4): PISA over all 210 ordered
    pairs of the 15 paper schedulers, one restart each, on 3-5 task
    chains, run in-process (``jobs=1``).  Search compute dominates; the
    runtime is nearly idle and the batched kernel covers 6 of the pairs.
``app_pisa``
    Two Figs. 10-19 PISA panels (srasearch at CCR 0.2, montage at CCR
    1.0), one restart each, on the local process pool (``jobs=min(2,
    nproc)``) with a JSONL checkpoint.  Instances have dozens of tasks,
    so delta compilation and the speculative batched kernel engage; it is
    the only workload on the pool and checkpoint path.  Montage rather
    than epigenomics: epigenomics instances span 22-82 tasks, which made
    the panel's work vary by ~13% from seed to seed.
``fig7_coord``
    Fig. 7's HEFT-adversarial family, HEFT vs CPoP (~0.4 ms of scheduling
    per unit), drained by one worker through a ``repro sweep serve``
    coordinator process with claim batches of 16.  Claim, record, journal
    fsync and HTTP dominate; PISA is bypassed.
``dynamic``
    A dynamic-mode sweep over montage workflows (CCR 1.0): every app
    scheduler's plan replayed under fair link contention, runtime error,
    node slowdown and one reassigning node failure.  ``core.dynamic``
    dominates; PISA, the batched kernel and the coordinator are bypassed,
    so it is the no-change control for search-layer changes.

``smoke`` scale shrinks every workload to about a second for
``bench_e2e.py``.
"""

from __future__ import annotations

import hashlib
import json
import os

WORKLOADS = ("fig4", "app_pisa", "fig7_coord", "dynamic")
SCALES = ("default", "smoke")

#: Units leased per claim request on the coordinator workload.
CLAIM_BATCH = 16


def jobs(workload: str) -> int:
    """Worker processes the workload's sweeps run with."""
    return min(2, os.cpu_count() or 1) if workload == "app_pisa" else 1


def _annealing(scale: str):
    from repro.experiments.config import pisa_config
    from repro.pisa.annealing import AnnealingConfig

    annealing = pisa_config(full=False).annealing
    if scale == "smoke":
        return AnnealingConfig(
            t_max=annealing.t_max, t_min=annealing.t_min, max_iterations=6, alpha=annealing.alpha
        )
    return annealing


def specs(workload: str, seed: int, scale: str = "default") -> list:
    """The sweep specs ``workload`` runs, in order."""
    from repro.pisa.pisa import PISAConfig
    from repro.sweeps import SourceSpec, SweepSpec
    from repro.sweeps.presets import fig4_spec, fig7_spec, fig10_19_pisa_spec

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {', '.join(SCALES)}")
    smoke = scale == "smoke"
    annealing = _annealing(scale)
    if workload == "fig4":
        return [fig4_spec(seed=seed, config=PISAConfig(annealing=annealing, restarts=1))]
    if workload == "app_pisa":
        config = PISAConfig(annealing=annealing, restarts=1)
        return [
            fig10_19_pisa_spec("srasearch", 0.2, seed=seed, config=config),
            fig10_19_pisa_spec("montage", 1.0, seed=seed, config=config),
        ]
    if workload == "fig7_coord":
        return [fig7_spec(num_instances=200 if smoke else 2000, seed=seed)]
    from repro.core.dynamic import DynamicsSpec, FailureSpec, NoiseSpec
    from repro.schedulers import APP_SPECIFIC_SCHEDULERS

    return [
        SweepSpec(
            name="montage_ccr1.0_dynamic",
            mode="dynamic",
            schedulers=tuple(APP_SPECIFIC_SCHEDULERS),
            source=SourceSpec("workflow", {"workflow": "montage", "ccr": 1.0}),
            num_instances=6 if smoke else 120,
            sampling="sequential",
            seed=seed,
            dynamics=DynamicsSpec(
                contention="fair",
                error=NoiseSpec("uniform", low=0.8, high=1.5),
                slowdown=NoiseSpec("uniform", low=1.0, high=1.5),
                failures=FailureSpec(count=1, fate="reassign"),
                samples=4 if smoke else 20,
            ),
            description="e2e benchmark: montage replays under contention, noise and a failure",
        )
    ]


def unit_count(result) -> int:
    """Units a finished sweep holds results for."""
    if result.pairwise is not None:
        return sum(len(r.restart_results) for r in result.pairwise.results.values())
    if result.dynamic is not None:
        return len(next(iter(result.dynamic.values())))
    return len(result.benchmark.per_instance)


def _canonical(result) -> dict:
    if result.pairwise is not None:
        return {
            f"{target}|{baseline}": {
                "ratio": res.best_ratio,
                "restarts": res.restart_ratios,
                "instance": res.best_instance.to_dict(),
            }
            for (target, baseline), res in sorted(result.pairwise.results.items())
        }
    out = {"makespans": {s: v.tolist() for s, v in sorted(result.makespans.items())}}
    if result.dynamic is not None:
        out["dynamic"] = {s: v.tolist() for s, v in sorted(result.dynamic.items())}
    return out


def digest(results: list) -> str:
    """A hash of every number the sweeps produced (bit-exact: floats
    serialize through ``repr``)."""
    h = hashlib.sha256()
    for result in results:
        h.update(json.dumps(_canonical(result), sort_keys=True).encode())
        h.update(result.report.encode())
    return h.hexdigest()[:24]


def reference_digest(workload: str, seed: int, scale: str = "default") -> str:
    """The digest of ``run_sweep(spec, jobs=1)`` in this process — the
    reference every backend and job count must reproduce bit for bit."""
    from repro.sweeps import run_sweep

    return digest([run_sweep(spec, jobs=1) for spec in specs(workload, seed, scale)])
