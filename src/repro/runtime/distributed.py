"""Multi-worker draining: the drain loop, advisory leases, run-dir inspection.

Any number of worker processes, on any hosts that can reach a ``repro
sweep serve`` coordinator (:mod:`repro.runtime.coordinator`), drain one
sweep cooperatively.  The coordinator owns the only lease table: it
grants claims, judges TTL staleness on its single clock, re-grants a
dead worker's units under a fresh ownership token, and appends every
result to the recording worker's ``units-<worker>.jsonl`` shard in its
run directory.  This module is the worker side plus the run-directory
views that need no coordinator:

:func:`drain_units`
    One worker's loop — claim a batch, execute, record in flushes,
    release the rest — against a :class:`~repro.runtime.backends.
    WorkBackend` until every unit of the run is recorded by *someone*,
    sleeping ``poll_interval`` between passes while live peers hold the
    rest.  A daemon thread renews each batch's heartbeat while its
    members run.
:func:`run_units_coordinator`
    ``run_units(backend="coordinator")``: this process plus ``jobs - 1``
    sibling processes drain through the coordinator, then fetch the
    merged results over the wire.
:class:`LeaseDir`
    The ``leases/`` directory of a run.  Its one writer is a serving
    coordinator's *advisory* lease (``leases/__coordinator__.json``),
    which ``repro runs gc``, ``repro sweep status``, ``sweep serve
    --standby`` and the fresh-initialization refusal read through
    :func:`lease_seems_live`.
:func:`inspect_run_dir`
    The read-only progress/shard/lease snapshot behind ``sweep status``
    and ``runs gc``.

Fault injection (used by ``tests/test_coordinator.py``): setting
``REPRO_RUNTIME_UNIT_DELAY`` to a float number of seconds makes every
worker sleep that long between claiming a unit and executing it, which
gives a test harness a deterministic window to ``SIGKILL`` a worker
mid-unit.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import secrets
import socket
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.runtime.checkpoint import (
    RunCheckpoint,
    iter_result_records,
    result_file_paths,
    safe_filename,
)
from repro.runtime.units import WorkUnit

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_POLL_INTERVAL",
    "COMPLETION_GRACE",
    "LEASES_DIR",
    "STATUS_SCHEMA_VERSION",
    "Lease",
    "LeaseDir",
    "lease_seems_live",
    "WorkerStats",
    "RunDirStatus",
    "worker_identity",
    "drain_units",
    "run_units_coordinator",
    "inspect_run_dir",
    "render_status_payload",
]

logger = logging.getLogger(__name__)

#: Seconds without a heartbeat after which a lease is presumed dead.
DEFAULT_LEASE_TTL = 120.0
#: Seconds between drain-loop passes while waiting on other workers.
DEFAULT_POLL_INTERVAL = 0.5
#: Seconds ``repro sweep serve --until-complete`` keeps answering after
#: the last record lands, so the closing reads of workers (a final
#: ``GET /completed``, a poll while waiting on a peer, a status or
#: results fetch) are served instead of stranded on a closed port.
COMPLETION_GRACE = 4 * DEFAULT_POLL_INTERVAL
#: Lease directory name inside a run directory.
LEASES_DIR = "leases"
#: Version tag of the machine-readable status payload schema
#: (``RunDirStatus.to_payload`` / coordinator ``GET /status`` /
#: ``repro sweep status --json``).
STATUS_SCHEMA_VERSION = 1

#: Fault-injection hook: sleep this many seconds between claim and
#: execution (see module docstring).
_UNIT_DELAY_ENV = "REPRO_RUNTIME_UNIT_DELAY"


def lease_seems_live(lease: "Lease | None", path: Path, now: float) -> bool:
    """Conservative, stateless liveness guess shared by every consumer of
    ``leases/`` — ``sweep status``, lease-aware ``runs gc``, the warm
    standby's primary check, and the fresh-initialization refusal — so
    their judgements cannot drift apart.

    A lease seems live if either its embedded heartbeat or its file mtime
    is younger than its TTL; a torn file (``lease`` is ``None``) has only
    its mtime.  Using both errs toward "live" under clock skew (mtimes on
    a shared filesystem come from one server clock), which is the safe
    direction for anything that might delete state.
    """
    ttl = lease.ttl if lease is not None else DEFAULT_LEASE_TTL
    if lease is not None and now - lease.heartbeat <= ttl:
        return True
    try:
        mtime = path.stat().st_mtime
    except OSError:
        return False  # vanished: certainly not holding anything
    return now - mtime <= ttl


#: Per-process random identity suffix, chosen lazily at first use (so a
#: forked child that first calls :func:`worker_identity` after the fork
#: still shares the parent's suffix — its pid already distinguishes it).
_identity_suffix: str | None = None


def worker_identity() -> str:
    """This process's worker id: ``<host>-<pid>-<random32>``.

    Uniqueness matters because the worker id names the result shard the
    coordinator appends this worker's records to; two workers sharing an
    id would interleave in one shard.  Hostname + pid alone collide
    across container fleets (every container is ``host`` pid 42) and
    across pid reuse on one machine, so a random 32-bit suffix is
    appended — chosen once, at the first call, so every call in one
    process names the *same* worker.  Leases and shards treat the id as
    opaque, so the format can evolve freely.
    """
    global _identity_suffix
    if _identity_suffix is None:
        _identity_suffix = secrets.token_hex(4)
    host = socket.gethostname().split(".")[0] or "host"
    return f"{host}-{os.getpid()}-{_identity_suffix}"


# ---------------------------------------------------------------------- #
# Leases
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Lease:
    """One holder's claim recorded in a lease file."""

    unit: str
    worker: str
    acquired_at: float
    heartbeat: float
    ttl: float

    def to_dict(self) -> dict:
        return {
            "unit": self.unit,
            "worker": self.worker,
            "acquired_at": self.acquired_at,
            "heartbeat": self.heartbeat,
            "ttl": self.ttl,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "Lease":
        """Parse a lease payload; raises :class:`ValueError` on anything
        a torn write or foreign file could have left behind."""
        if not isinstance(data, dict):
            raise ValueError(f"lease payload must be an object, got {type(data).__name__}")
        try:
            unit = data["unit"]
            worker = data["worker"]
            acquired_at = float(data["acquired_at"])
            heartbeat = float(data["heartbeat"])
            ttl = float(data["ttl"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed lease payload: {exc}") from None
        if not isinstance(unit, str) or not isinstance(worker, str):
            raise ValueError("lease unit/worker must be strings")
        return cls(
            unit=unit, worker=worker, acquired_at=acquired_at, heartbeat=heartbeat, ttl=ttl
        )


class LeaseDir:
    """The ``leases/`` directory of one run: create, renew, release, list.

    Every mutation is one atomic filesystem operation (``O_EXCL`` create,
    ``replace``, ``unlink``), so racing processes — or hosts sharing the
    directory — cannot tear a lease.  Nothing here judges staleness or
    steals: readers guess liveness with :func:`lease_seems_live`, and a
    coordinator restarting after a SIGKILL removes its predecessor's
    advisory lease itself before creating its own.
    """

    def __init__(self, run_dir: str | Path, ttl: float = DEFAULT_LEASE_TTL) -> None:
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        self.path = Path(run_dir) / LEASES_DIR
        self.ttl = float(ttl)

    def lease_path(self, unit_key: str) -> Path:
        return self.path / f"{safe_filename(unit_key)}.json"

    def create(self, unit_key: str, worker: str) -> Lease | None:
        """Create ``unit_key``'s lease for ``worker``; ``None`` if a lease
        file for it already exists (exactly one racer wins)."""
        self.path.mkdir(parents=True, exist_ok=True)
        now = time.time()
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        try:
            fd = os.open(self.lease_path(unit_key), flags, 0o644)
        except FileExistsError:
            return None
        lease = Lease(unit=unit_key, worker=worker, acquired_at=now, heartbeat=now, ttl=self.ttl)
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(lease.to_dict()) + "\n")
        return lease

    def renew(self, lease: Lease) -> Lease | None:
        """Refresh ``lease``'s heartbeat; ``None`` if ownership was lost.

        A lease file that now names another holder (a successor replaced
        it) is not ours to overwrite, so the renewal is refused and the
        caller should stop heartbeating.  A *vanished* lease refuses
        renewal too: recreating it would let a straggler heartbeat — e.g.
        one blocked in a slow filesystem call while its holder released —
        resurrect a phantom "live" lease, blocking gc for a full TTL.
        """
        path = self.lease_path(lease.unit)
        current = self.load(path)
        if current is None or current.worker != lease.worker:
            return None
        updated = replace(lease, heartbeat=time.time())
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{secrets.token_hex(2)}")
        tmp.write_text(json.dumps(updated.to_dict()) + "\n")
        os.replace(tmp, path)
        return updated

    def release(self, lease: Lease) -> None:
        """Remove ``lease`` — only if it is still ours.

        A holder whose lease a successor replaced must not unlink the
        successor's live lease: that would hide it from gc, status and a
        standby's primary check.
        """
        path = self.lease_path(lease.unit)
        current = self.load(path)
        if current is not None and current.worker != lease.worker:
            return  # replaced: the successor's lease is not ours to remove
        with contextlib.suppress(OSError):
            os.unlink(path)

    def load(self, path: Path) -> Lease | None:
        """The lease at ``path``, or ``None`` if torn/unreadable/vanished."""
        try:
            return Lease.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError, json.JSONDecodeError):
            return None

    def leases(self) -> list[tuple[Path, Lease | None]]:
        """Every lease file currently present (``None`` payload = torn)."""
        if not self.path.is_dir():
            return []
        return [(p, self.load(p)) for p in sorted(self.path.glob("*.json"))]


@contextlib.contextmanager
def _renewing(backend, batch, interval: float):
    """Renew ``batch`` on ``backend`` every ``interval`` seconds while the
    body runs.  ``backend`` is any :class:`~repro.runtime.backends.
    WorkBackend`; one ``renew_batch`` round trip covers every member not
    yet recorded.  Transient errors (a coordinator restarting, a dropped
    connection) are retried on the next beat."""
    stop = threading.Event()

    def _beat() -> None:
        current = batch
        try:
            while not stop.wait(interval):
                try:
                    renewed = backend.renew_batch(current)
                except OSError:
                    continue  # transient network hiccup; retry next beat
                except Exception as exc:  # noqa: BLE001 - the beat must survive
                    # e.g. a protocol error from a version-skewed coordinator
                    # or an intermediary returning garbage: losing the thread
                    # here would silently stop renewals and hand the units to
                    # a peer; keep beating — if the condition persists the
                    # leases expire anyway, which is the same worst case,
                    # loudly.
                    logger.warning(
                        "heartbeat renewal for a batch of %d unit(s) failed (%s); "
                        "retrying next beat",
                        len(batch.units),
                        exc,
                    )
                    continue
                if renewed is None:
                    logger.warning(
                        "leases on a batch of %d unit(s) were reclaimed from worker "
                        "%s while it was still running (stalled past its TTL?); "
                        "finishing anyway — duplicate results are deduplicated on "
                        "merge",
                        len(batch.units),
                        batch.worker,
                    )
                    return
                current = renewed
        finally:
            # HttpWorkBackend keeps one connection per thread, so only this
            # thread can close the one its renewals opened.
            close = getattr(backend, "close", None)
            if close is not None:
                close()

    thread = threading.Thread(target=_beat, daemon=True, name="lease-renew")
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=max(interval, 1.0) + 5.0)


# ---------------------------------------------------------------------- #
# The drain loop
# ---------------------------------------------------------------------- #
@dataclass
class WorkerStats:
    """What one worker did while draining a run."""

    worker_id: str
    executed: int = 0
    reclaimed: int = 0  # claims re-granted from dead workers' expired leases
    executed_keys: set[str] = field(default_factory=set)


def drain_units(
    units: Iterable[WorkUnit],
    worker: Callable[[WorkUnit], Any],
    *,
    backend: Any,
    worker_id: str | None = None,
    heartbeat_interval: float | None = None,
    poll_interval: float | None = None,
    wait: bool = True,
    on_unit: Callable[[str], None] | None = None,
    claim_batch: int = 1,
    telemetry_dir: str | Path | None = None,
) -> WorkerStats:
    """Drain ``units`` through a work backend as one worker.

    Claim a batch of units, execute its members with ``worker``, record
    their results in flushes, release whatever is left unrecorded —
    against any :class:`~repro.runtime.backends.WorkBackend`
    (in production an :class:`~repro.runtime.backends.HttpWorkBackend`
    speaking to a ``repro sweep serve`` coordinator).  Returns when every
    unit of the run is completed (by this worker or any peer); with
    ``wait=False``, returns as soon as nothing is claimable instead of
    waiting for peers' in-flight units.

    Parameters
    ----------
    backend:
        The :class:`WorkBackend` to drain through.  It owns the lease
        TTL; the coordinator refuses claims of completed units
        atomically, so every granted member is live work.
    worker_id:
        Shard/lease identity; default :func:`worker_identity`.  Must be
        unique among concurrently running workers.
    heartbeat_interval:
        Seconds between heartbeat renewals (default: a quarter of each
        lease's TTL).
    poll_interval:
        Sleep between passes when all pending units are leased by live
        peers (default :data:`DEFAULT_POLL_INTERVAL`).
    on_unit:
        Callback invoked with each unit key this worker finished.
    claim_batch:
        Units to lease per claim request (default 1).  Every size takes
        the same path: finished members are buffered and recorded with
        one ``record_batch`` flush when the batch ends, or right after a
        member finishes once a heartbeat interval has passed since the
        claim or the last flush, so larger batches amortize claim and
        record round trips.  A batch of one costs two requests per unit
        (claim and record) and keeps crash granularity per unit: its
        only member is flushed as soon as it finishes.  A worker
        SIGKILLed mid-batch loses its unflushed finished members (at most
        one heartbeat interval of work) as well as the unfinished
        remainder; peers re-execute both after the TTL, bit-identically.
        A Python exception loses nothing: the finished members are
        flushed before the remainder is released.
    telemetry_dir:
        Where this worker's ``telemetry-<worker>.jsonl`` trace shard
        goes.  Defaults to ``$REPRO_TELEMETRY_DIR`` (if set); ``None``
        with no default means no trace shard.  Telemetry is inert — it
        records wall-clock observations about completed units and never
        touches RNG streams or results — and is disabled entirely by
        ``REPRO_TELEMETRY=0``.
    """
    units = list(units)
    keys = [u.key for u in units]
    if len(set(keys)) != len(keys):
        raise ValueError("work-unit keys must be unique within a run")
    wid = worker_id if worker_id is not None else worker_identity()
    beat_override = None if heartbeat_interval is None else float(heartbeat_interval)
    if beat_override is not None and beat_override <= 0:
        raise ValueError(f"heartbeat interval must be positive, got {beat_override}")

    def _beat_for(batch) -> float:
        beat = batch.ttl / 4.0 if beat_override is None else beat_override
        if beat >= batch.ttl:
            # A heartbeat slower than the TTL lets every live lease expire
            # between renewals: the coordinator would re-grant mid-unit and
            # systematically re-execute every long unit.
            raise ValueError(
                f"heartbeat interval ({beat}) must be smaller than the lease "
                f"ttl ({batch.ttl}); leave it unset for the ttl/4 default"
            )
        return beat

    poll = DEFAULT_POLL_INTERVAL if poll_interval is None else float(poll_interval)
    delay = float(os.environ.get(_UNIT_DELAY_ENV, 0) or 0)
    batch_size = int(claim_batch)
    if batch_size < 1:
        raise ValueError(f"claim_batch must be >= 1, got {claim_batch}")

    stats = WorkerStats(worker_id=wid)
    by_key = {u.key: u for u in units}

    from repro.observability.trace import TelemetryWriter

    if telemetry_dir is None:
        telemetry_dir = os.environ.get("REPRO_TELEMETRY_DIR") or None
    telemetry = TelemetryWriter.open(telemetry_dir, wid)

    def _execute(key: str) -> Any:
        if delay > 0:
            time.sleep(delay)  # fault-injection window (see module docstring)
        return worker(by_key[key])

    def _finished(key: str) -> None:
        stats.executed += 1
        stats.executed_keys.add(key)
        if on_unit is not None:
            on_unit(key)

    def _flush(batch, buffered: dict[str, tuple[Any, float]], claim_share: float) -> None:
        """Record a batch's finished members (``{key: (result,
        execute_s)}``) with one ``record_batch`` flush.  The buffer is
        emptied before the request, so a failed flush is never retried
        here: its members stay in ``batch.units`` and are released with
        the remainder.  Members count as finished only after the ack."""
        if not buffered:
            return
        flushing = dict(buffered)
        buffered.clear()
        t0 = time.perf_counter()
        backend.record_batch(batch, {key: result for key, (result, _) in flushing.items()})
        # One flush covers every member in it; spans split its cost evenly.
        record_share = (time.perf_counter() - t0) / len(flushing)
        for key, (_, execute_s) in flushing.items():
            _finished(key)
            if telemetry is not None:
                telemetry.span(
                    key,
                    claim_s=claim_share,
                    execute_s=execute_s,
                    record_s=record_share,
                    release_s=0.0,  # released with the batch
                    reclaimed=key in batch.reclaimed_units,
                    batched=True,
                )

    def _close_telemetry() -> None:
        if telemetry is None:
            return
        telemetry.event("drain_end", executed=stats.executed, reclaimed=stats.reclaimed)
        telemetry.close()

    if telemetry is not None:
        telemetry.event("drain_start", units=len(units))
    try:
        while True:
            done = backend.completed_keys()
            pending = [k for k in by_key if k not in done]
            if not pending:
                return stats
            progressed = False
            for start in range(0, len(pending), batch_size):
                chunk = pending[start : start + batch_size]
                claim_t0 = time.perf_counter()
                batch = backend.claim_batch(chunk, wid)
                claim_s = time.perf_counter() - claim_t0
                if batch is None:
                    continue
                progressed = True
                stats.reclaimed += len(batch.reclaimed_units)
                # One claim round trip covers the batch; spans amortize its
                # cost evenly across the granted members.
                claim_share = claim_s / max(len(batch.units), 1)
                buffered: dict[str, tuple[Any, float]] = {}
                try:
                    # Inside the try: a refused heartbeat hands the granted
                    # batch straight back instead of leaving it leased.
                    beat = _beat_for(batch)
                    flushed_at = time.perf_counter()
                    with _renewing(backend, batch, beat):
                        for key in list(batch.units):
                            t0 = time.perf_counter()
                            result = _execute(key)
                            buffered[key] = (result, time.perf_counter() - t0)
                            # Flush once a heartbeat interval has passed: a
                            # SIGKILL then loses under one interval of
                            # finished work, which peers re-execute after the
                            # TTL.
                            if time.perf_counter() - flushed_at >= beat:
                                _flush(batch, buffered, claim_share)
                                flushed_at = time.perf_counter()
                        _flush(batch, buffered, claim_share)
                finally:
                    if buffered:
                        # Only a failing member leaves results buffered (a
                        # flush empties the buffer before its request): keep
                        # the finished ones, and never let a failed flush
                        # mask the worker's own exception.
                        count = len(buffered)
                        try:
                            _flush(batch, buffered, claim_share)
                        except Exception:  # noqa: BLE001 - the original propagates
                            logger.warning(
                                "could not record %d finished unit(s) of a failed "
                                "batch; they are released for peers to re-execute",
                                count,
                                exc_info=True,
                            )
                    # Success path: every member was recorded, so this
                    # releases nothing.  Failure path: hands the unrecorded
                    # remainder back to peers immediately.
                    backend.release_batch(batch)
            if not progressed:
                if not wait:
                    return stats
                time.sleep(poll)
    finally:
        _close_telemetry()


# ---------------------------------------------------------------------- #
# Coordinator-backed execution (the `backend="coordinator"` path)
# ---------------------------------------------------------------------- #
def _drain_coordinator_child(
    url: str,
    units: list[WorkUnit],
    worker: Callable[[WorkUnit], Any],
    encode: Callable[[Any], Any] | None,
    heartbeat_interval: float | None,
    poll_interval: float | None,
    retry_timeout: float | None,
    claim_batch: int = 1,
    telemetry_dir: str | None = None,
) -> WorkerStats:
    """Module-level child entry (crosses process boundaries by pickle)."""
    from repro.runtime.backends import HttpWorkBackend

    backend = HttpWorkBackend(url, encode=encode, retry_timeout=retry_timeout)
    try:
        return drain_units(
            units,
            worker,
            backend=backend,
            heartbeat_interval=heartbeat_interval,
            poll_interval=poll_interval,
            claim_batch=claim_batch,
            telemetry_dir=telemetry_dir,
        )
    finally:
        backend.close()


def run_units_coordinator(
    units: Iterable[WorkUnit],
    worker: Callable[[WorkUnit], Any],
    url: str,
    *,
    jobs: int = 1,
    worker_id: str | None = None,
    encode: Callable[[Any], Any] | None = None,
    decode: Callable[[Any], Any] | None = None,
    heartbeat_interval: float | None = None,
    poll_interval: float | None = None,
    retry_timeout: float | None = None,
    claim_batch: int = 1,
    on_result: Callable[[WorkUnit, Any, bool], None] | None = None,
    telemetry_dir: str | Path | None = None,
) -> dict[str, Any]:
    """Execute ``units`` through the HTTP coordinator at ``url``.

    The calling process participates as one worker; ``jobs > 1`` adds
    ``jobs - 1`` sibling worker processes on this host, and workers on
    other hosts join with ``repro sweep work --coordinator <url>``.  No
    shared filesystem is required: results are recorded to (and, at the
    end, fetched back from) the coordinator over the wire, so this
    process never touches the coordinator's run directory.

    ``encode``/``decode`` are the unit-result codecs (the same ones a
    :class:`~repro.runtime.checkpoint.RunCheckpoint` would hold);
    ``on_result`` follows :func:`repro.runtime.executor.run_units`
    semantics, invoked once per unit after the run completes, with
    ``cached=True`` for units executed by peers.
    """
    from repro.runtime.backends import HttpWorkBackend
    from repro.runtime.executor import _ensure_child_importable, _mp_context

    units = list(units)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    backend = HttpWorkBackend(url, encode=encode, retry_timeout=retry_timeout)
    try:
        stats: WorkerStats
        if jobs > 1 and len(units) > 1:
            from concurrent.futures import ProcessPoolExecutor

            _ensure_child_importable()
            siblings = min(jobs, len(units)) - 1
            with ProcessPoolExecutor(
                max_workers=max(siblings, 1), mp_context=_mp_context()
            ) as pool:
                futures = [
                    pool.submit(
                        _drain_coordinator_child,
                        url,
                        units,
                        worker,
                        encode,
                        heartbeat_interval,
                        poll_interval,
                        retry_timeout,
                        claim_batch,
                        None if telemetry_dir is None else str(telemetry_dir),
                    )
                    for _ in range(siblings)
                ]
                stats = drain_units(
                    units,
                    worker,
                    backend=backend,
                    worker_id=worker_id,
                    heartbeat_interval=heartbeat_interval,
                    poll_interval=poll_interval,
                    claim_batch=claim_batch,
                    telemetry_dir=telemetry_dir,
                )
                for future in futures:
                    future.result()  # surface child crashes
        else:
            stats = drain_units(
                units,
                worker,
                backend=backend,
                worker_id=worker_id,
                heartbeat_interval=heartbeat_interval,
                poll_interval=poll_interval,
                claim_batch=claim_batch,
                telemetry_dir=telemetry_dir,
            )
        raw = backend.results()
    finally:
        backend.close()
    missing = [u.key for u in units if u.key not in raw]
    if missing:
        raise RuntimeError(
            f"coordinator run at {url} ended with {len(missing)} unit(s) "
            f"unrecorded (first: {missing[0]!r}); a worker may have failed "
            "without surfacing its error"
        )
    decode = decode if decode is not None else (lambda value: value)
    results = {u.key: decode(raw[u.key]) for u in units}
    if on_result is not None:
        for unit in units:
            on_result(unit, results[unit.key], unit.key not in stats.executed_keys)
    return results


# ---------------------------------------------------------------------- #
# Introspection (`repro sweep status`, lease-aware gc)
# ---------------------------------------------------------------------- #
@dataclass
class RunDirStatus:
    """A point-in-time snapshot of a run directory's progress.

    This is *the* read-only inspection of a run directory: ``repro sweep
    status`` renders it and the lease-aware ``runs gc`` classifier is
    layered on it, so the two CLIs can never disagree about what a
    directory contains.
    """

    run_dir: Path
    kind: str | None
    name: str | None
    total_units: int | None
    completed_units: int
    shard_counts: dict[str, int]  # result file name -> distinct keys in it
    duplicate_records: int
    active_leases: list[Lease]
    stale_leases: list[Lease]
    torn_leases: int  # unparseable lease files (a writer died mid-write)
    torn_live: int  # of those, still fresh by the conservative rule

    @property
    def complete(self) -> bool:
        return self.total_units is not None and self.completed_units >= self.total_units

    @property
    def live_lease_count(self) -> int:
        """Leases that may belong to a live worker — fresh parseable ones
        plus fresh torn ones (their writer may still be mid-write)."""
        return len(self.active_leases) + self.torn_live

    def to_payload(self, now: float | None = None) -> dict:
        """This snapshot as the machine-readable status schema.

        One schema for every backend: ``repro sweep status --json``
        emits it for filesystem run directories, and the coordinator's
        ``GET /status`` returns the identical shape, so dashboards never
        care where a snapshot came from.  Heartbeats are reported as
        *ages* (seconds since last beat), never absolute timestamps —
        ages survive the trip between hosts with skewed clocks.
        """
        now = time.time() if now is None else now

        def lease_payload(lease: Lease) -> dict:
            return {
                "unit": lease.unit,
                "worker": lease.worker,
                "heartbeat_age": max(round(now - lease.heartbeat, 3), 0.0),
                "ttl": lease.ttl,
            }

        return {
            # "schema" is the legacy alias; dashboard consumers should key
            # off "schema_version" to detect payload drift.
            "schema": STATUS_SCHEMA_VERSION,
            "schema_version": STATUS_SCHEMA_VERSION,
            "backend": "filesystem",
            "source": str(self.run_dir),
            "kind": self.kind,
            "name": self.name,
            "complete": self.complete,
            "total_units": self.total_units,
            "completed_units": self.completed_units,
            "shard_counts": dict(sorted(self.shard_counts.items())),
            "duplicate_records": self.duplicate_records,
            "active_leases": [lease_payload(lease) for lease in self.active_leases],
            "stale_leases": [lease_payload(lease) for lease in self.stale_leases],
            "torn_leases": self.torn_leases,
            "torn_live": self.torn_live,
        }


def inspect_run_dir(run_dir: str | Path, now: float | None = None) -> RunDirStatus:
    """Inspect progress, shards, and leases of ``run_dir`` (read-only)."""
    run_dir = Path(run_dir)
    now = time.time() if now is None else now
    kind = name = None
    total = None
    try:
        manifest = json.loads((run_dir / RunCheckpoint.MANIFEST_NAME).read_text())
    except (OSError, json.JSONDecodeError):
        manifest = None
    if isinstance(manifest, dict):
        kind = manifest.get("kind") if isinstance(manifest.get("kind"), str) else None
        total = manifest.get("units") if isinstance(manifest.get("units"), int) else None
        spec = manifest.get("spec")
        if isinstance(spec, dict) and isinstance(spec.get("name"), str):
            name = spec["name"]

    seen: set[str] = set()
    shard_counts: dict[str, int] = {}
    duplicates = 0
    for path in result_file_paths(run_dir):
        in_file: set[str] = set()
        for record in iter_result_records(path, log=False):
            key = record["key"]
            if key in seen:
                duplicates += 1
            seen.add(key)
            in_file.add(key)
        shard_counts[path.name] = len(in_file)

    active: list[Lease] = []
    stale: list[Lease] = []
    torn = torn_live = 0
    for path, lease in LeaseDir(run_dir).leases():
        if lease is None:
            torn += 1
            if lease_seems_live(lease, path, now):
                torn_live += 1
        elif lease_seems_live(lease, path, now):
            active.append(lease)
        else:
            stale.append(lease)

    return RunDirStatus(
        run_dir=run_dir,
        kind=kind,
        name=name,
        total_units=total,
        completed_units=len(seen),
        shard_counts=shard_counts,
        duplicate_records=duplicates,
        active_leases=active,
        stale_leases=stale,
        torn_leases=torn,
        torn_live=torn_live,
    )


def render_status_payload(payload: dict) -> str:
    """Human-readable rendering of one status-schema payload.

    This is *the* ``repro sweep status`` output; because it consumes the
    shared payload schema (:meth:`RunDirStatus.to_payload` / the
    coordinator's ``GET /status``), the filesystem and coordinator views
    of one run render identically.
    """
    label = payload.get("name") or payload.get("kind") or "run"
    total = payload.get("total_units")
    total_text = "?" if total is None else total
    state = "complete" if payload.get("complete") else "incomplete"
    via = " (via coordinator)" if payload.get("backend") == "coordinator" else ""
    lines = [
        f"{payload.get('source')} [{label}]{via} {state}: "
        f"{payload.get('completed_units', 0)}/{total_text} units"
    ]
    for file_name, count in sorted((payload.get("shard_counts") or {}).items()):
        lines.append(f"  {file_name}: {count} unit(s)")
    if payload.get("duplicate_records"):
        lines.append(
            f"  {payload['duplicate_records']} duplicate record(s) across shards "
            "(first writer wins on merge)"
        )
    for lease in payload.get("active_leases") or []:
        # Replay-restored leases had their heartbeat reset at coordinator
        # restart, so heartbeat_age says nothing about worker liveness
        # until the holder renews once.
        restored = "; restored from journal, awaiting renewal" if lease.get("restored") else ""
        lines.append(
            f"  lease {lease['unit']}: held by {lease['worker']} "
            f"(heartbeat {lease['heartbeat_age']:.1f}s ago, ttl {lease['ttl']:.0f}s{restored})"
        )
    for lease in payload.get("stale_leases") or []:
        lines.append(
            f"  stale lease {lease['unit']}: worker {lease['worker']} presumed dead "
            f"(heartbeat {lease['heartbeat_age']:.1f}s ago, ttl {lease['ttl']:.0f}s); "
            "reclaimable"
        )
    if payload.get("torn_leases"):
        lines.append(f"  {payload['torn_leases']} torn lease file(s)")
    return "\n".join(lines)
