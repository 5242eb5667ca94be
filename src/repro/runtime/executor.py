"""The work-unit executor: serial or process-pool, with checkpointing.

:func:`run_units` executes work units on this host (multi-host runs drain
through :func:`repro.runtime.distributed.run_units_coordinator`):

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

__all__ = ["run_units", "default_jobs"]


def _pool_child_init() -> None:
    """Pool-child initializer; intentionally empty.

    It stays as the pool's ``initializer`` because it is the one hook
    that runs once in every pool child (fork or spawn) before any unit:
    ``benchmarks/e2e/tracing.py`` wraps it to trace forked children, and
    ``tests/test_runtime.py`` pins that every child runs it.
    """


def _timed_call(worker: Callable[[WorkUnit], Any], unit: WorkUnit) -> tuple[Any, float]:
    """Run ``worker(unit)`` in a pool child, returning (result, seconds).

    The timing wrapper is telemetry-only: the worker sees the identical
    unit (own spawned RNG, untouched), so results stay bit-identical with
    telemetry on or off.
    """
    t0 = perf_counter()
    result = worker(unit)
    return result, perf_counter() - t0


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
) -> dict[str, Any]:
    """Execute ``units`` locally and return ``{unit.key: result}``.

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
        freshly completed units are appended as they finish.
    on_result:
        Streaming callback ``(unit, result, cached)`` invoked once per
        unit — with ``cached=True`` for units restored from the
        checkpoint, in unit order before any execution starts.
    """
    units = list(units)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
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

    from repro.observability.trace import TelemetryWriter

    telemetry_dir: str | Path | None
    if checkpoint is not None:
        telemetry_dir = checkpoint.run_dir
    else:
        telemetry_dir = os.environ.get("REPRO_TELEMETRY_DIR") or None
    wid = f"local-{socket.gethostname()}-{os.getpid()}"
    telemetry = TelemetryWriter.open(telemetry_dir, wid) if pending else None

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
            with ProcessPoolExecutor(
                max_workers=max_workers,
                mp_context=_mp_context(),
                initializer=_pool_child_init,
            ) as pool:
                futures = {pool.submit(_timed_call, worker, unit): unit for unit in pending}
                for future in as_completed(futures):
                    result, execute_s = future.result()
                    _finish(futures[future], result, execute_s)
    finally:
        if telemetry is not None:
            telemetry.close()
    return results
