"""``run_sweep``: the single execution entry point for declarative sweeps.

Every sweep — paper figure or user-authored ``spec.json`` — goes through
:func:`run_sweep`.  It plans the spec into
:class:`~repro.runtime.units.WorkUnit`\\ s (:func:`plan_sweep`), runs them
on the local executor or through a coordinator, and folds the results
with one aggregation for both backends:

* PISA mode: one unit per (target, baseline, restart), the Fig. 4
  decomposition, returning a
  :class:`~repro.pisa.pisa.PairwiseResult`;
* benchmark mode: one unit per sampled instance, each scheduled with
  every scheduler, returning a
  :class:`~repro.benchmarking.harness.BenchmarkResult` plus raw
  makespan distributions;
* dynamic mode: one unit per sampled instance, each schedule replayed
  under the spec's dynamics, returning static and realized makespans.

With ``run_dir``, the *spec itself* is the checkpoint manifest: the run
directory records exactly which experiment it holds, resuming validates
the stored spec against the one being run, and completed units stream to
``units.jsonl`` so interrupted sweeps continue instead of restarting.
Results are bit-identical at any ``jobs`` value and across
interrupt/resume boundaries (every unit owns a deterministically spawned
RNG stream).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.benchmarking.harness import BenchmarkResult, instance_result
from repro.benchmarking.heatmap import format_gradient, render_matrix
from repro.core.dynamic import sample_seed_stream, simulate_schedule
from repro.core.scheduler import get_scheduler, list_schedulers
from repro.pisa.pisa import PISA, PairwiseResult
from repro.pisa.robustness import RobustnessGapPISA
from repro.runtime.checkpoint import CheckpointError, RunCheckpoint
from repro.runtime.distributed import WorkerStats, drain_units, run_units_coordinator
from repro.runtime.executor import run_units
from repro.runtime.pairwise import (
    aggregate_pair_sweep,
    decode_unit_result,
    encode_unit_result,
    pair_progress,
    pair_sweep_units,
    run_pairwise_unit,
)
from repro.runtime.units import WorkUnit
from repro.sweeps.sources import ResolvedSource, resolve_source
from repro.sweeps.spec import SpecError, SweepSpec
from repro.utils.rng import as_generator, spawn

__all__ = [
    "SweepResult",
    "SweepPlan",
    "run_sweep",
    "render_report",
    "plan_sweep",
    "plan_from_manifest",
    "load_run_plan",
    "work_coordinator",
]

#: Manifest discriminator for spec-backed run directories.
MANIFEST_KIND = "sweep"


@dataclass
class SweepResult:
    """What a sweep produced, by mode."""

    spec: SweepSpec
    pairwise: PairwiseResult | None = None  # PISA mode
    benchmark: BenchmarkResult | None = None  # benchmark mode: ratios vs best
    makespans: dict[str, np.ndarray] | None = None  # benchmark/dynamic: static makespans
    dynamic: dict[str, np.ndarray] | None = None  # dynamic mode: (instances, samples)

    @property
    def report(self) -> str:
        return render_report(self)


def _rng_fingerprint(gen: np.random.Generator) -> str:
    """A stable hash of a generator's exact position in its stream.

    Covers both the bit-generator state and the seed sequence's spawn
    state — ``spawn`` advances only the latter, and a sweep consumes the
    generator purely by spawning, so ``n_children_spawned`` is what
    distinguishes e.g. the fig7 and fig8 positions of one threaded
    generator.
    """
    seed_seq = getattr(gen.bit_generator, "seed_seq", None)
    payload = {
        "state": gen.bit_generator.state,
        "seed_seq": getattr(seed_seq, "state", None),
    }
    state = json.dumps(
        payload,
        sort_keys=True,
        default=lambda o: o.tolist() if hasattr(o, "tolist") else str(o),
    )
    return hashlib.sha256(state.encode()).hexdigest()[:16]


def _validate_schedulers(spec: SweepSpec) -> None:
    registered = set(list_schedulers())
    unknown = [s for s in spec.scheduler_names() if s not in registered]
    if unknown:
        raise SpecError(
            f"schedulers: unknown scheduler(s) {', '.join(map(repr, unknown))}; "
            f"registered: {', '.join(sorted(registered))}"
        )


# ---------------------------------------------------------------------- #
# Benchmark-mode units
# ---------------------------------------------------------------------- #
def sample_unit(unit: WorkUnit) -> dict:
    """Worker: materialize one instance and schedule it with every scheduler."""
    payload_kind, obj, scheduler_names = unit.payload
    instance = obj(unit.rng) if payload_kind == "factory" else obj
    return {
        "instance": instance.name,
        "makespans": {
            name: get_scheduler(name).schedule(instance).makespan
            for name in scheduler_names
        },
    }


def _spawn_sample_units(
    name: str, names: tuple[str, ...], factory: Callable, num_instances: int, rng
) -> list[WorkUnit]:
    """Benchmark units with per-unit spawned streams (the Figs. 7/8 protocol)."""
    return [
        WorkUnit(key=f"{name}[{i}]", payload=("factory", factory, names), rng=gen)
        for i, gen in enumerate(spawn(rng, num_instances))
    ]


def _instance_sample_units(
    name: str, names: tuple[str, ...], instances: list
) -> list[WorkUnit]:
    """Benchmark units over pre-sampled (sequentially drawn) instances."""
    return [
        WorkUnit(key=f"{name}[{i}]", payload=("instance", instance, names))
        for i, instance in enumerate(instances)
    ]


def _aggregate_benchmark(spec: SweepSpec, rows: list[dict]) -> tuple[BenchmarkResult, dict]:
    """Per-instance ratios vs the best-of-all baseline + raw distributions."""
    schedulers = list(spec.schedulers)
    benchmark = BenchmarkResult(dataset_name=spec.name, schedulers=schedulers)
    for i, row in enumerate(rows):
        makespans = {s: row["makespans"][s] for s in schedulers}
        benchmark.per_instance.append(
            instance_result(row["instance"] or f"{spec.name}[{i}]", makespans)
        )
    makespans = {
        s: np.asarray([row["makespans"][s] for row in rows]) for s in schedulers
    }
    return benchmark, makespans


# ---------------------------------------------------------------------- #
# Dynamic-mode units
# ---------------------------------------------------------------------- #
def dynamic_unit(unit: WorkUnit) -> dict:
    """Worker: schedule one instance, then replay every schedule under dynamics.

    Each sample's replay seed is shared across schedulers (common random
    numbers): in sample ``i`` every scheduler's plan faces the *same*
    duration-error factors, slowdowns, and failure picks, so realized
    differences are scheduling differences, not luck.
    """
    payload_kind, obj, scheduler_names, dynamics, seeds = unit.payload
    if payload_kind == "dyn-factory":
        instance = obj(unit.rng)
        if dynamics.needs_rng:
            # Drawn after the instance, from the unit's own spawned
            # stream — jobs-invariant and resume-stable by construction.
            seeds = sample_seed_stream(unit.rng, dynamics.samples)
    else:
        instance = obj
    static: dict[str, float] = {}
    realized: dict[str, list[float]] = {}
    for name in scheduler_names:
        schedule = get_scheduler(name).schedule(instance)
        static[name] = schedule.makespan
        realized[name] = [
            simulate_schedule(
                schedule,
                instance,
                dynamics,
                rng=seeds[i] if seeds is not None else None,
            ).makespan
            for i in range(dynamics.samples)
        ]
    return {"instance": instance.name, "static": static, "dynamic": realized}


def _dynamic_units(spec: SweepSpec, resolved: ResolvedSource, rng) -> list[WorkUnit]:
    """Dynamic-mode fan-out: one unit per instance, like benchmark mode.

    Sequentially-sampled units bake their replay seeds into the payload
    at plan time (drawn from the same sequential stream, after the
    instances), so every backend and worker sees identical payloads.
    """
    names = tuple(spec.schedulers)
    dynamics = spec.dynamics
    if spec.sampling == "spawn":
        return [
            WorkUnit(
                key=f"{spec.name}[{i}]",
                payload=("dyn-factory", resolved.factory, names, dynamics, None),
                rng=gen,
            )
            for i, gen in enumerate(spawn(rng, spec.num_instances))
        ]
    instances = resolved.sequential(spec.num_instances, rng)
    units = []
    for i, instance in enumerate(instances):
        seeds = sample_seed_stream(rng, dynamics.samples) if dynamics.needs_rng else None
        units.append(
            WorkUnit(
                key=f"{spec.name}[{i}]",
                payload=("dyn-instance", instance, names, dynamics, seeds),
            )
        )
    return units


def _aggregate_dynamic(
    spec: SweepSpec, rows: list[dict]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Static makespans (instances,) and realized makespans (instances, samples)."""
    static = {
        s: np.asarray([row["static"][s] for row in rows]) for s in spec.schedulers
    }
    realized = {
        s: np.asarray([row["dynamic"][s] for row in rows]) for s in spec.schedulers
    }
    return static, realized


# ---------------------------------------------------------------------- #
# Planning: spec -> units + worker + codecs (the distributable form)
# ---------------------------------------------------------------------- #
@dataclass
class SweepPlan:
    """A sweep decomposed into executable work units.

    This is the distributable form of a spec: any process that can load
    the spec — in particular a ``repro sweep work`` worker on another
    host reading a coordinator's ``GET /manifest`` — reconstructs the
    *same* plan (same unit keys, same spawned RNG streams, same worker
    function), which is what makes multi-host results bit-identical to
    ``run_sweep(spec, jobs=1)``.
    """

    spec: SweepSpec
    units: list[WorkUnit]
    worker: Callable[[WorkUnit], Any]
    encode: Callable | None
    decode: Callable | None
    pairs: list[tuple[str, str, PISA]] | None = None  # PISA mode only

    def manifest(self) -> dict:
        return {"kind": MANIFEST_KIND, "spec": self.spec.to_dict(), "units": len(self.units)}


def _pisa_pairs(spec: SweepSpec, resolved: ResolvedSource) -> list[tuple[str, str, PISA]]:
    if resolved.factory is None:
        raise SpecError(
            f"source.kind: {spec.source.kind!r} cannot generate PISA initial "
            "instances"
        )
    constraints = (
        spec.constraints if spec.constraints is not None else resolved.default_constraints
    )
    kwargs = dict(
        perturbations=resolved.perturbations,
        config=spec.config,
        initial_factory=resolved.factory,
        constraints=constraints,
    )
    if spec.dynamics is not None:
        # The robustness-gap objective: replay seeds derive from the
        # sweep seed, making the energy a pure function of the instance.
        return [
            (
                target,
                baseline,
                RobustnessGapPISA(
                    target,
                    baseline,
                    dynamics=spec.dynamics,
                    dynamics_seed=spec.seed,
                    **kwargs,
                ),
            )
            for target, baseline in spec.resolved_pairs()
        ]
    return [
        (target, baseline, PISA(target, baseline, **kwargs))
        for target, baseline in spec.resolved_pairs()
    ]


def plan_sweep(
    spec: SweepSpec, rng: int | np.random.Generator | None = None
) -> SweepPlan:
    """Decompose ``spec`` into its work units, deterministically.

    With ``rng=None`` (the only form coordinator workers use) every
    stream derives from ``spec.seed``, so independently planning the same
    spec on any host yields identical units.
    """
    _validate_schedulers(spec)
    resolved = resolve_source(spec.source)
    gen = as_generator(spec.seed if rng is None else rng)
    if spec.mode == "pisa":
        pairs = _pisa_pairs(spec, resolved)
        units = pair_sweep_units(pairs, spec.config.restarts, gen)
        return SweepPlan(
            spec=spec,
            units=units,
            worker=run_pairwise_unit,
            encode=encode_unit_result,
            decode=decode_unit_result,
            pairs=pairs,
        )
    if spec.mode == "dynamic":
        units = _dynamic_units(spec, resolved, gen)
        return SweepPlan(spec=spec, units=units, worker=dynamic_unit, encode=None, decode=None)
    names = tuple(spec.schedulers)
    if spec.sampling == "spawn":
        units = _spawn_sample_units(
            spec.name, names, resolved.factory, spec.num_instances, gen
        )
    else:
        instances = resolved.sequential(spec.num_instances, gen)
        units = _instance_sample_units(spec.name, names, instances)
    return SweepPlan(spec=spec, units=units, worker=sample_unit, encode=None, decode=None)


def _aggregate_plan(plan: SweepPlan, results: dict[str, Any]) -> SweepResult:
    """Fold every unit result of ``plan`` into the sweep's result, by mode."""
    spec = plan.spec
    if spec.mode == "pisa":
        pairwise = aggregate_pair_sweep(
            plan.pairs, spec.config.restarts, results, spec.scheduler_names()
        )
        return SweepResult(spec=spec, pairwise=pairwise)
    rows = [results[f"{spec.name}[{i}]"] for i in range(spec.num_instances)]
    if spec.mode == "dynamic":
        static, realized = _aggregate_dynamic(spec, rows)
        return SweepResult(spec=spec, makespans=static, dynamic=realized)
    benchmark, makespans = _aggregate_benchmark(spec, rows)
    return SweepResult(spec=spec, benchmark=benchmark, makespans=makespans)


# ---------------------------------------------------------------------- #
# The runner
# ---------------------------------------------------------------------- #
def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    run_dir: str | Path | None = None,
    resume: bool = False,
    rng: int | np.random.Generator | None = None,
    progress: Callable[[str, str, float], None] | None = None,
    backend: str = "local",
    heartbeat_interval: float | None = None,
    poll_interval: float | None = None,
    coordinator: str | None = None,
    retry_timeout: float | None = None,
    claim_batch: int | None = None,
) -> SweepResult:
    """Execute ``spec`` and return its :class:`SweepResult`.

    Parameters
    ----------
    spec:
        The declarative sweep definition.
    jobs:
        Worker processes for the unit fan-out (results are identical at
        any value).
    run_dir:
        Checkpoint directory; the spec is written as ``manifest.json``
        and completed units stream to ``units.jsonl``.  Per-worker
        ``units-*.jsonl`` shards a coordinator wrote there merge in on
        ``resume``.
    resume:
        Skip units already recorded in ``run_dir`` (requires the stored
        spec to match ``spec`` exactly).
    rng:
        Override the sweep's RNG root.  ``None`` (the default) seeds
        from ``spec.seed``; experiment drivers thread a shared generator
        through consecutive sweeps to preserve historical streams.  The
        manifest then fingerprints the generator's position before
        planning (``external_rng``), so a resume must present the same
        position.  Local backend only — coordinator workers must be able
        to reconstruct every stream from the manifest's spec alone.
    progress:
        PISA mode: ``(target, baseline, best_ratio)`` once per pair, as
        its last restart lands — pairs restored from ``run_dir`` first,
        then in completion order (under the coordinator backend, after
        the run completes, in pair order).
    backend:
        ``"local"`` (this process + optional process pool) or
        ``"coordinator"`` (workers speaking JSON to a ``repro sweep
        serve`` coordinator — no shared filesystem; additional hosts
        join with ``repro sweep work --coordinator <url>``).  Results
        are bit-identical either way.
    heartbeat_interval, poll_interval:
        Coordinator lease tuning, forwarded to
        :func:`repro.runtime.distributed.drain_units`.  The lease TTL is
        set on the coordinator (``repro sweep serve --ttl``).
    coordinator:
        Coordinator backend: the ``repro sweep serve`` base URL.  The
        coordinator owns the run directory, so ``run_dir`` must be left
        unset; its manifest must match ``spec`` exactly.
    retry_timeout:
        Coordinator backend: seconds to keep retrying transient wire
        errors (rides out a coordinator restart).
    claim_batch:
        Units leased per claim request (default 1); every size speaks
        the same batch protocol.  A batch of one costs two coordinator
        requests per unit (claim and record) and records its unit as
        soon as it finishes, so crash granularity stays per unit.
        Larger batches amortize claim and record round trips — the big
        win on the coordinator backend: finished units are recorded in
        one flush per batch (or per heartbeat interval), so a worker
        SIGKILLed mid-batch also loses its unflushed finished units,
        which peers re-execute bit-identically after the TTL.

    Coordinator-only options are rejected under the local backend rather
    than silently dropped.
    """
    if backend not in ("local", "coordinator"):
        raise ValueError(f"backend must be 'local' or 'coordinator', got {backend!r}")
    if backend == "coordinator":
        if coordinator is None:
            raise CheckpointError(
                "backend='coordinator' needs a coordinator URL: the "
                "`repro sweep serve` endpoint is the coordination medium"
            )
        if run_dir is not None:
            raise CheckpointError(
                "backend='coordinator' cannot take a run_dir: the coordinator "
                "owns its run directory; results are fetched over the wire"
            )
        if rng is not None:
            raise SpecError(
                "backend='coordinator' cannot honor an external rng override: "
                "workers reconstruct RNG streams from the coordinator "
                "manifest's spec.seed alone; bake the seed into the spec"
            )
    else:
        coordinator_options = {
            "coordinator": coordinator,
            "heartbeat_interval": heartbeat_interval,
            "poll_interval": poll_interval,
            "retry_timeout": retry_timeout,
            "claim_batch": claim_batch,
        }
        for option, value in coordinator_options.items():
            if value is not None:
                raise ValueError(
                    f"{option} is a coordinator-backend option and has no effect "
                    "with backend='local'; pass backend='coordinator'"
                )

    gen = as_generator(spec.seed if rng is None else rng)
    # Planning consumes the generator by spawning, so an external one is
    # fingerprinted first: a resume must present the same stream position.
    fingerprint = None if rng is None else _rng_fingerprint(gen)
    plan = plan_sweep(spec, gen)
    on_result = None
    if progress is not None and plan.pairs is not None:
        on_result = pair_progress(plan.pairs, spec.config.restarts, progress)

    if backend == "coordinator":
        from repro.runtime.backends import HttpWorkBackend

        client = HttpWorkBackend(coordinator, retry_timeout=retry_timeout)
        try:
            stored = client.manifest()
        finally:
            client.close()
        if stored != plan.manifest():
            raise CheckpointError(
                f"coordinator at {coordinator} serves a different sweep "
                f"(its manifest does not match this spec); point run_sweep at "
                "the right coordinator or serve a fresh run directory"
            )
        results = run_units_coordinator(
            plan.units,
            plan.worker,
            coordinator,
            jobs=jobs,
            encode=plan.encode,
            decode=plan.decode,
            heartbeat_interval=heartbeat_interval,
            poll_interval=poll_interval,
            retry_timeout=retry_timeout,
            claim_batch=1 if claim_batch is None else claim_batch,
            on_result=on_result,
        )
    else:
        checkpoint = None
        if run_dir is not None:
            checkpoint = RunCheckpoint(run_dir, encode=plan.encode, decode=plan.decode)
            manifest = plan.manifest()
            if fingerprint is not None:
                manifest["external_rng"] = fingerprint
            checkpoint.initialize(manifest, resume=resume)
        results = run_units(
            plan.units, plan.worker, jobs=jobs, checkpoint=checkpoint, on_result=on_result
        )
    return _aggregate_plan(plan, results)


# ---------------------------------------------------------------------- #
# Multi-host workers: reconstruct the sweep from its manifest alone
# ---------------------------------------------------------------------- #
def plan_from_manifest(manifest: Any, *, where: str) -> SweepPlan:
    """Rebuild the executable plan a stored manifest describes.

    This is the distribution hinge: any process holding a sweep manifest
    — read from a run directory's ``manifest.json`` *or* fetched from a
    coordinator's ``GET /manifest`` — reconstructs the same units,
    RNG streams, and worker function.  Refuses manifests that are not
    spec sweeps and externally-seeded runs (their RNG streams cannot be
    reconstructed from the spec).  ``where`` names the manifest's origin
    in error messages.
    """
    if not isinstance(manifest, dict) or manifest.get("kind") != MANIFEST_KIND:
        raise CheckpointError(
            f"{where} is not a sweep run (manifest kind "
            f"{manifest.get('kind') if isinstance(manifest, dict) else None!r}); "
            "only spec-backed sweeps can be drained by remote workers"
        )
    if "external_rng" in manifest:
        raise CheckpointError(
            f"{where} was seeded from an external generator; its RNG streams "
            "cannot be reconstructed from the spec, so remote workers "
            "cannot join it"
        )
    spec = SweepSpec.from_dict(manifest.get("spec"), where=f"{where}: spec")
    plan = plan_sweep(spec)
    stored_units = manifest.get("units")
    if stored_units != len(plan.units):
        raise CheckpointError(
            f"manifest of {where} records {stored_units!r} units but the spec "
            f"plans {len(plan.units)}; the run is corrupt or from an "
            "incompatible version"
        )
    return plan


def load_run_plan(run_dir: str | Path) -> SweepPlan:
    """Rebuild the executable plan of a run directory from its manifest.

    This is what lets ``repro sweep serve <run_dir>`` (and a warm
    standby) serve an initialized directory without its spec file: the
    stored :class:`SweepSpec` *is* the work definition.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / RunCheckpoint.MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise CheckpointError(
            f"{run_dir} has no {RunCheckpoint.MANIFEST_NAME}; initialize it with "
            "`repro sweep serve ... --spec spec.json` or "
            "`repro sweep run spec.json --run-dir ...`"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read manifest of {run_dir}: {exc}") from None
    return plan_from_manifest(manifest, where=str(run_dir))


def work_coordinator(
    url: str,
    *,
    worker_id: str | None = None,
    heartbeat_interval: float | None = None,
    poll_interval: float | None = None,
    retry_timeout: float | None = None,
    wait: bool = True,
    on_unit: Callable[[str], None] | None = None,
    claim_batch: int = 1,
) -> tuple[SweepPlan, WorkerStats]:
    """Join the coordinator at ``url`` as one worker and drain it.

    The worker needs nothing but the URL — no filesystem shared with the
    coordinator: the plan (units, RNG streams, worker function) is
    reconstructed from the manifest served at ``GET /manifest``.
    Returns when the whole run is complete, or — with ``wait=False`` —
    when nothing is claimable.
    """
    from repro.runtime.backends import HttpWorkBackend

    client = HttpWorkBackend(url, retry_timeout=retry_timeout)
    try:
        manifest = client.manifest()
    finally:
        client.close()
    plan = plan_from_manifest(manifest, where=f"coordinator at {url}")
    backend = HttpWorkBackend(url, encode=plan.encode, retry_timeout=retry_timeout)
    try:
        stats = drain_units(
            plan.units,
            plan.worker,
            backend=backend,
            worker_id=worker_id,
            heartbeat_interval=heartbeat_interval,
            poll_interval=poll_interval,
            wait=wait,
            on_unit=on_unit,
            claim_batch=claim_batch,
        )
    finally:
        backend.close()
    return plan, stats


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
def render_report(result: SweepResult) -> str:
    """A human-readable summary of a sweep result (used by the CLI)."""
    spec = result.spec
    if result.pairwise is not None:
        schedulers = result.pairwise.schedulers
        values = {
            (baseline, target): res.best_ratio
            for (target, baseline), res in result.pairwise.results.items()
        }
        objective = (
            "robustness-gap energies (dynamic/static ratio)"
            if spec.dynamics is not None
            else "best makespan ratios"
        )
        return render_matrix(
            values,
            row_labels=schedulers,
            col_labels=schedulers,
            title=(
                f"sweep {spec.name!r} — PISA {objective} "
                f"(row = base, column = target)"
            ),
            row_header="base",
        )
    if result.dynamic is not None:
        dyn = spec.dynamics
        lines = [
            f"sweep {spec.name!r} — dynamic replay over {spec.num_instances} "
            f"instances x {dyn.samples} sample(s) "
            f"(contention={dyn.contention}, error={dyn.error.kind}, "
            f"slowdown={dyn.slowdown.kind}, failures={dyn.failures.count})"
        ]
        for scheduler in spec.schedulers:
            static = result.makespans[scheduler]
            realized = result.dynamic[scheduler]
            unfinished = int(np.sum(~np.isfinite(realized)))
            static_mean = float(static.mean())
            realized_mean = float(realized.mean())
            if unfinished or static_mean == 0.0:
                degradation = "inf" if unfinished else "n/a"
            else:
                degradation = f"{realized_mean / static_mean:.4f}"
            lines.append(
                f"  {scheduler}: static mean {static_mean:.4f}, realized mean "
                f"{realized_mean:.4f}, degradation x{degradation}, "
                f"unfinished {unfinished}/{realized.size}"
            )
        return "\n".join(lines)
    assert result.benchmark is not None
    lines = [
        f"sweep {spec.name!r} — benchmark over {len(result.benchmark.per_instance)} "
        f"instances (ratios vs best-of-all; median~max)"
    ]
    for scheduler in result.benchmark.schedulers:
        summary = result.benchmark.summary(scheduler)
        mean = float(result.makespans[scheduler].mean())
        lines.append(
            f"  {scheduler}: {format_gradient(summary)}  (mean makespan {mean:.4f})"
        )
    return "\n".join(lines)
