"""The work-unit executor: serial or process-pool, with checkpointing.

:func:`run_units` is the single entry point every parallelized experiment
goes through:

* ``jobs=1`` executes units in order, in process — this is *the* serial
  path, not a simulation of it, so serial results are bit-identical to
  what the pre-runtime drivers produced.
* ``jobs>1`` fans units out over a :class:`~concurrent.futures.
  ProcessPoolExecutor` and streams results back as they complete.
  Determinism is unaffected because every unit carries its own spawned
  RNG (see :mod:`repro.runtime.units`).
* With a :class:`~repro.runtime.checkpoint.RunCheckpoint`, completed
  units are appended to ``units.jsonl`` as they finish, and units already
  recorded there are *not* re-executed — an interrupted sweep resumes
  where it left off.

Workers must be module-level functions (they cross process boundaries by
pickle) mapping one :class:`WorkUnit` to one picklable result.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.runtime.checkpoint import RunCheckpoint
from repro.runtime.units import WorkUnit

__all__ = ["run_units", "default_jobs", "reject_distributed_options"]


def _pool_child_init(telemetry_dir: str | None) -> None:
    """Pool-child initializer: arm ``--profile`` accounting.

    Runs once per worker process (fork or spawn).  When profiling is
    requested the child enables the phase accumulators and registers an
    exit hook that serializes its snapshot into a per-process telemetry
    shard — the same serialize-and-merge seam ``drain_units`` uses, which
    is what lets ``--profile`` work at any ``--jobs``.
    """
    from repro.observability.trace import profile_requested

    if not profile_requested():
        return
    from repro.utils import phases

    phases.enable()
    if telemetry_dir is None:
        return
    from multiprocessing import util as _mp_util

    def _dump() -> None:
        from repro.observability.trace import TelemetryWriter

        snap = phases.snapshot()
        if not snap:
            return
        writer = TelemetryWriter.open(
            telemetry_dir, f"pool-{socket.gethostname()}-{os.getpid()}"
        )
        if writer is not None:
            writer.phases(snap)
            writer.close()

    # Pool children never run atexit hooks (multiprocessing bootstrap
    # ends in os._exit); util.Finalize registrations DO run on the way
    # out, which is the only reliable per-child exit seam.
    _mp_util.Finalize(None, _dump, exitpriority=10)


def _timed_call(worker: Callable[[WorkUnit], Any], unit: WorkUnit) -> tuple[Any, float]:
    """Run ``worker(unit)`` in a pool child, returning (result, seconds).

    The timing wrapper is telemetry-only: the worker sees the identical
    unit (own spawned RNG, untouched), so results stay bit-identical with
    telemetry on or off.
    """
    t0 = perf_counter()
    result = worker(unit)
    return result, perf_counter() - t0


def reject_distributed_options(options: dict[str, Any]) -> None:
    """Refuse coordinator-only tuning under the local backend.

    Shared by :func:`run_units` and :func:`repro.sweeps.run_sweep` so the
    two entry points cannot drift: a user who sets claim batching or
    heartbeat timing expects the coordinator backend, and silently
    dropping the options would hide the mistake.
    """
    for option, value in options.items():
        if value is not None:
            raise ValueError(
                f"{option} is a coordinator-backend option and has no effect with "
                "backend='local'"
            )


def default_jobs() -> int:
    """A reasonable worker count for this machine (all visible CPUs)."""
    return max(os.cpu_count() or 1, 1)


def _mp_context():
    """Prefer fork (cheap, inherits sys.path); fall back to spawn.

    ``REPRO_MP_START_METHOD`` overrides the choice — remote hosts won't
    always fork, and the test suite uses this to run the jobs-invariance
    and resume properties under spawn as well.
    """
    override = os.environ.get("REPRO_MP_START_METHOD")
    if override:
        return multiprocessing.get_context(override)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _ensure_child_importable() -> None:
    """Make sure spawned children can ``import repro``.

    Under the spawn start method a worker re-imports its module from
    scratch; if the parent got ``repro`` on ``sys.path`` without setting
    ``PYTHONPATH`` (e.g. via pytest's ``pythonpath`` ini option), the
    child would fail.  Exporting the package root is harmless otherwise.
    """
    import repro

    root = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    if root not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = root + (os.pathsep + existing if existing else "")


def run_units(
    units: Iterable[WorkUnit],
    worker: Callable[[WorkUnit], Any],
    *,
    jobs: int = 1,
    checkpoint: RunCheckpoint | None = None,
    on_result: Callable[[WorkUnit, Any, bool], None] | None = None,
    backend: str = "local",
    worker_id: str | None = None,
    heartbeat_interval: float | None = None,
    poll_interval: float | None = None,
    coordinator_url: str | None = None,
    retry_timeout: float | None = None,
    claim_batch: int | None = None,
) -> dict[str, Any]:
    """Execute ``units`` and return ``{unit.key: result}``.

    Parameters
    ----------
    units:
        The work units; keys must be unique.
    worker:
        Module-level function mapping one unit to one result.
    jobs:
        Worker processes; ``1`` runs everything serially in-process.
    checkpoint:
        Optional :class:`RunCheckpoint`.  Units whose keys are already
        recorded are returned from the checkpoint without re-executing;
        freshly completed units are appended as they finish.  Under the
        coordinator backend it only supplies the result codecs — the
        coordinator owns the run directory.
    on_result:
        Streaming callback ``(unit, result, cached)`` invoked once per
        unit — with ``cached=True`` for units restored from the
        checkpoint, in unit order before any execution starts.  (The
        coordinator backend invokes it only after the whole run
        completes, with ``cached=True`` for units executed by peers.)
    backend:
        ``"local"`` (this process plus an optional process pool) or
        ``"coordinator"`` (workers speaking JSON to a ``repro sweep
        serve`` coordinator — see :mod:`repro.runtime.distributed`;
        requires ``coordinator_url``).
    worker_id, heartbeat_interval, poll_interval:
        Coordinator-backend tuning (worker shard identity, heartbeat
        renewal interval, wait-poll interval); rejected under the local
        backend rather than silently ignored.  The lease TTL is set on
        the coordinator (``repro sweep serve --ttl``).
    coordinator_url, retry_timeout:
        Coordinator backend: the coordinator's base URL and the bounded
        retry budget for transient errors.
    claim_batch:
        Units leased per claim request (default 1); every size speaks
        the same batch protocol.  A batch of one costs two coordinator
        requests per unit (claim and record) and records its unit as
        soon as it finishes, so crash granularity stays per unit.
        Larger batches amortize claim and record round trips — the big
        win on the coordinator backend: finished units are recorded in
        one flush per batch (or per heartbeat interval), so a worker
        SIGKILLed mid-batch also loses its unflushed finished units,
        which peers re-execute bit-identically after the TTL.  Rejected
        under the local backend.
    """
    units = list(units)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if backend not in ("local", "coordinator"):
        raise ValueError(f"backend must be 'local' or 'coordinator', got {backend!r}")
    if backend != "coordinator" and coordinator_url is not None:
        raise ValueError(
            f"coordinator_url has no effect with backend={backend!r}; "
            "pass backend='coordinator'"
        )
    if backend == "coordinator":
        if coordinator_url is None:
            raise ValueError(
                "backend='coordinator' requires coordinator_url (the "
                "`repro sweep serve` endpoint is the coordination medium)"
            )
        from repro.runtime.distributed import run_units_coordinator

        return run_units_coordinator(
            units,
            worker,
            coordinator_url,
            jobs=jobs,
            worker_id=worker_id,
            encode=checkpoint.encode if checkpoint is not None else None,
            decode=checkpoint.decode if checkpoint is not None else None,
            heartbeat_interval=heartbeat_interval,
            poll_interval=poll_interval,
            retry_timeout=retry_timeout,
            claim_batch=1 if claim_batch is None else claim_batch,
            on_result=on_result,
        )
    reject_distributed_options(
        {
            "worker_id": worker_id,
            "heartbeat_interval": heartbeat_interval,
            "poll_interval": poll_interval,
            "retry_timeout": retry_timeout,
            "claim_batch": claim_batch,
        }
    )
    keys = [u.key for u in units]
    if len(set(keys)) != len(keys):
        raise ValueError("work-unit keys must be unique within a run")

    results: dict[str, Any] = {}
    if checkpoint is not None:
        done = checkpoint.completed()
        for unit in units:
            if unit.key in done:
                results[unit.key] = done[unit.key]
                if on_result is not None:
                    on_result(unit, done[unit.key], True)
    pending = [u for u in units if u.key not in results]

    from repro.observability.trace import TelemetryWriter, profile_requested
    from repro.utils import phases

    telemetry_dir: str | Path | None
    if checkpoint is not None:
        telemetry_dir = checkpoint.run_dir
    else:
        telemetry_dir = os.environ.get("REPRO_TELEMETRY_DIR") or None
    wid = f"local-{socket.gethostname()}-{os.getpid()}"
    telemetry = TelemetryWriter.open(telemetry_dir, wid) if pending else None
    if profile_requested():
        phases.enable()

    def _finish(unit: WorkUnit, result: Any, execute_s: float) -> None:
        results[unit.key] = result
        t0 = perf_counter()
        if checkpoint is not None:
            checkpoint.record(unit.key, result)
        if telemetry is not None:
            telemetry.span(
                unit.key,
                claim_s=0.0,
                execute_s=execute_s,
                record_s=perf_counter() - t0,
                release_s=0.0,
            )
        if on_result is not None:
            on_result(unit, result, False)

    try:
        if jobs == 1 or len(pending) <= 1:
            for unit in pending:
                t0 = perf_counter()
                result = worker(unit)
                _finish(unit, result, perf_counter() - t0)
        elif pending:
            _ensure_child_importable()
            max_workers = min(jobs, len(pending))
            child_dir = None if telemetry_dir is None else str(telemetry_dir)
            with ProcessPoolExecutor(
                max_workers=max_workers,
                mp_context=_mp_context(),
                initializer=_pool_child_init,
                initargs=(child_dir,),
            ) as pool:
                futures = {pool.submit(_timed_call, worker, unit): unit for unit in pending}
                for future in as_completed(futures):
                    result, execute_s = future.result()
                    _finish(futures[future], result, execute_s)
            # Pool children dumped their phase snapshots at exit (the
            # shutdown above joins them); nothing to collect here.
    finally:
        if telemetry is not None:
            snap = phases.snapshot()
            if snap:
                telemetry.phases(snap)
                phases.reset()
            telemetry.close()
    return results
