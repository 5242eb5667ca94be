"""The HTTP coordinator: multi-host sweeps without a shared filesystem.

``repro sweep serve <run_dir>`` turns one run directory into a network
service.  Workers anywhere (``repro sweep work --coordinator
http://host:port``) drain the sweep through the JSON wire protocol of
:mod:`repro.runtime.backends`; only the coordinator machine ever touches
the run directory.

Design:

**One clock.**  The coordinator owns the lease table in memory and
judges TTL staleness on its own monotonic clock, so expiry is plain
``now - heartbeat > ttl`` with no cross-host clock comparison.

**Ownership tokens.**  Every granted lease carries a random token; renew,
release, and record must present it.  An expired lease is re-granted
under a *fresh* token, so a stalled worker that wakes up cannot clobber
the new holder — its renewals and releases are rejected as stale.

**Record before release, exactly once.**  A result is durably appended
to the recording worker's shard in the run directory (and journaled)
before the coordinator acknowledges it; recording drops the unit's
lease, and the worker releases only what is still unrecorded.  A
duplicate record — a stalled worker finishing a unit someone
re-executed — is dropped server-side (first writer wins; both are
bit-identical because every unit owns a deterministic RNG stream), so
the shards on disk never need merge-time deduplication, though the
merged read tolerates it anyway.

**Write-ahead journal with group commit.**  Every lease state transition
(claim, expire, release, record) is appended to the active journal
segment in the run directory and **fsynced before it is acknowledged**.
The fsync is amortized: transitions enqueue their journal line under the
state lock (so journal order equals state order), then the first waiter
to reach the commit path drains the whole queue with one
write+flush+fsync while later arrivals block on a condition — N
concurrent transitions cost one disk flush, not N
(:class:`_GroupCommitJournal`).  A SIGKILLed coordinator restarts
losslessly: the lease table and completion set replay from the journal
(heartbeats reset to the restart instant, granting in-flight holders one
fresh TTL of grace — erring toward "alive", never toward a double grant).
The journal is read with the shared torn-line-tolerant reader, so a line
torn by the kill is skipped, not fatal: the worst case is one lease
forgotten, which a worker simply re-claims.

**Segmented journal + snapshots: O(live) restart.**  A single
append-only journal makes restart replay O(entire sweep history) — a
million-unit sweep would turn the lossless restart from milliseconds
into minutes.  The journal therefore *rolls*: when the active segment
crosses ``segment_bytes``, the triggering operation seals it, switches
appends to ``coordinator.<seq+1>.jsonl``, and — once every sealed event
is durable — publishes an atomic ``snapshot.<seq>.json`` holding the
full coordinator state (completion set, shard counts, lease table with
tokens, and a manifest hash binding the snapshot to this experiment).
Restart loads the newest *valid* snapshot and replays only the segments
after it: O(live state), not O(history).  A torn or mismatched snapshot
falls back to the previous one, ultimately to a full replay of every
surviving segment; segments covered by the two newest snapshots are
reaped, so the fallback chain is always intact on disk.  Replay is
prefix-idempotent (claims overwrite, releases/expiries pop, records are
guarded), so a snapshot that includes effects of a not-yet-acknowledged
event is safe — the event's replay on top of it converges to the same
state.

**Warm standby.**  The snapshot + segment chain is exactly what a
second process needs to take over: ``repro sweep serve --standby``
(:func:`standby_coordinator`) watches the primary — advisory lease
fresh *or* port accepting connections means alive — and on primary
death replays the chain and binds the same port.  Ownership tokens
survive in the snapshot/journal, so in-flight workers' renewals keep
working across the handoff, and ``HttpWorkBackend``'s reconnect probe
rejoins the new primary transparently.

**Restored leases are flagged.**  After any restart every surviving
lease's heartbeat resets to the restart instant, so ``GET /status``
would report ``heartbeat_age ≈ 0`` for workers that died during the
outage.  Leases rebuilt from snapshot/journal therefore carry
``"restored": true`` in the status payload until their first real
renewal (or a holder re-claim) proves the worker alive.

**Batched claims.**  Every claim is a batch: ``POST /claim-batch``
leases up to N units (one, by default) to one worker under a single
ownership token and a single journal record; ``/renew-batch`` and
``/release-batch`` cover the unrecorded remainder in one round trip
each.  The drain loop records a batch's finished members with ``POST
/record-batch`` flushes (one shard append, one journal event, one group
commit each): at the end of the batch, and whenever a member finishes a
heartbeat interval or more after the claim or the last flush.  Members
keep individual rows in the lease table and are dropped as their flush
lands, so a worker that dies mid-batch leaks its unflushed finished
members (at most one heartbeat interval of work) and its unfinished ones
to TTL expiry; peers re-execute them bit-identically, and flushed
members never travel again.  A batch of one is flushed as soon as its
unit finishes, so crash granularity stays per unit, at two requests per
unit.

The server is an asyncio event loop speaking HTTP/1.1 with keep-alive
(still stdlib-only).  Workers hold persistent connections, and a
thousand idle sockets cost one loop rather than the thousand OS threads
a thread-per-connection server would pin; the blocking, lock-protected
coordinator operations run on a small thread pool, which is exactly
what piles concurrent transitions into one group commit.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import secrets
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from hashlib import sha1
from pathlib import Path
from typing import Any

from repro.runtime.backends import (
    BatchAckReply,
    BatchClaimReply,
    BatchClaimRequest,
    BatchLeaseRequest,
    BatchRecordReply,
    BatchRecordRequest,
)
from repro.runtime.checkpoint import (
    CheckpointError,
    RunCheckpoint,
    _ends_with_newline,
    iter_jsonl,
    iter_result_records,
    journal_segment_path,
    journal_segments,
    journal_snapshots,
    snapshot_path,
)
from repro.runtime.distributed import (
    ADVISORY_LEASE_UNIT,
    DEFAULT_LEASE_TTL,
    STATUS_SCHEMA_VERSION,
    Lease,
    advisory_lease_path,
    lease_seems_live,
    read_advisory_lease,
    write_advisory_lease,
)

__all__ = [
    "ADVISORY_LEASE_UNIT",
    "DEFAULT_SEGMENT_BYTES",
    "JOURNAL_NAME",
    "SNAPSHOT_SCHEMA_VERSION",
    "Coordinator",
    "CoordinatorHTTPServer",
    "UnknownUnitError",
    "serve_coordinator",
    "running_coordinator",
    "standby_coordinator",
]

logger = logging.getLogger(__name__)

#: Journal file name inside the coordinator's run directory (segment 0;
#: rolled segments are ``coordinator.<seq>.jsonl``, see
#: :func:`repro.runtime.checkpoint.journal_segment_path`).
JOURNAL_NAME = "coordinator.jsonl"
#: Roll the journal (and snapshot the state) once the active segment
#: crosses this many bytes.  ~4 MiB keeps restart replay bounded by a
#: few tens of thousands of events regardless of sweep size, while a
#: small sweep never rolls at all (one segment, no snapshot — exactly
#: the pre-segmentation layout).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
#: Version tag of the ``snapshot.<seq>.json`` format.
SNAPSHOT_SCHEMA_VERSION = 1


class UnknownUnitError(ValueError):
    """A request named a unit that is not part of this run — a worker
    draining the wrong coordinator, or a version-skewed plan."""


def _event_units(event: dict) -> list[str] | None:
    """The unit keys a journal event covers: plural ``units`` (claims,
    releases and records) or singular ``unit`` (``expire`` events, and
    every event of journals written before all claims were batches)."""
    unit = event.get("unit")
    if isinstance(unit, str):
        return [unit]
    units = event.get("units")
    if isinstance(units, list) and units and all(isinstance(u, str) for u in units):
        return units
    return None


@dataclass
class _LeaseEntry:
    """One in-flight lease in the coordinator's table."""

    worker: str
    token: str
    ttl: float
    reclaimed: bool
    heartbeat: float  # coordinator-monotonic instant of the last beat
    #: True while this entry exists only because a restart replayed it —
    #: its heartbeat is the restart instant, not proof the worker lives.
    #: Cleared by the first real renewal or holder re-claim.
    restored: bool = False


@dataclass
class _PendingSnapshot:
    """A sealed segment's snapshot, captured under the state lock and
    published (written + old segments reaped) outside it."""

    seq: int  # the segment this snapshot covers through
    ticket: int  # last journal ticket of the sealed segment
    state: dict  # the JSON-serializable snapshot body


class _GroupCommitJournal:
    """Write-ahead JSONL journal with group commit.

    :meth:`enqueue` buffers one event and returns a ticket; it must be
    called under the caller's state lock, which is what fixes journal
    order = state order.  :meth:`wait_durable` (called *outside* that
    lock) blocks until the ticket's bytes are on disk: the first waiter
    to find no commit in progress becomes the leader and drains the
    whole buffer with one ``write`` + ``flush`` + ``os.fsync`` while
    later arrivals wait on the condition.  N concurrent transitions
    therefore cost one fsync, and a request is acknowledged only after
    its record is durable.

    A failed commit poisons exactly the tickets in the failed batch
    (their waiters re-raise the write error); later enqueues proceed —
    the torn-line-tolerant journal reader makes a partially-written
    batch a recoverable event, not corruption.

    **Rolling.**  :meth:`roll` (called under the same state lock as
    :meth:`enqueue`) switches subsequent appends to a new segment file by
    planting a roll marker in the buffer — the commit leader fsyncs and
    closes the sealed segment when it reaches the marker, then opens the
    new one.  Because the marker sits *between* buffered lines, journal
    order across segment boundaries still equals state order, and the
    caller can snapshot the state it captured at roll time once the
    sealed segment's last ticket is durable.
    """

    def __init__(self, path: str | Path, metrics: Any | None = None) -> None:
        self.path = Path(path)  # the active (newest) segment
        # Group-commit observability (``metrics`` is a MetricsRegistry):
        # how many transitions each fsync amortizes, and what the fsync
        # itself costs — the two numbers that explain coordinator write
        # throughput.
        self._m_batch = self._m_fsync = None
        if metrics is not None:
            self._m_batch = metrics.histogram(
                "coordinator_journal_batch_size",
                "Journal events per group commit (transitions amortized per fsync).",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            )
            self._m_fsync = metrics.histogram(
                "coordinator_journal_fsync_seconds",
                "Wall seconds per journal write+flush+fsync.",
            )
        #: Bytes in the active segment, counting buffered-but-unwritten
        #: lines; read by the coordinator (under its state lock, the same
        #: lock serializing enqueue/roll) to decide when to roll.
        try:
            self.segment_bytes = self.path.stat().st_size
        except OSError:
            self.segment_bytes = 0
        self._cond = threading.Condition()
        # Buffer items: ("line", bytes) or ("roll", Path).
        self._pending: list[tuple[str, Any]] = []
        self._enqueued = 0  # line tickets handed out
        self._durable = 0  # tickets whose bytes are fsynced (or poisoned)
        self._writing = False  # a leader is inside write+fsync
        self._failed: tuple[int, Exception] | None = None  # (through_ticket, cause)
        self._fh: Any | None = None
        self._commit_path = self.path  # segment the leader is appending to

    def enqueue(self, event: dict) -> int:
        """Buffer one event; caller must hold the state lock."""
        line = (json.dumps(event) + "\n").encode()
        with self._cond:
            self._pending.append(("line", line))
            self._enqueued += 1
            self.segment_bytes += len(line)
            return self._enqueued

    def last_ticket(self) -> int:
        """The most recently issued ticket (0 if nothing was enqueued)."""
        with self._cond:
            return self._enqueued

    def pending(self) -> int:
        """Events enqueued but not yet durable (the journal's commit lag)."""
        with self._cond:
            return max(self._enqueued - self._durable, 0)

    def roll(self, new_path: str | Path) -> None:
        """Seal the active segment and append to ``new_path`` from now on.

        Caller must hold the state lock (like :meth:`enqueue`), so the
        roll lands at a well-defined point of the event order.
        """
        with self._cond:
            self._pending.append(("roll", Path(new_path)))
            self.path = Path(new_path)
            self.segment_bytes = 0

    def wait_durable(self, ticket: int) -> None:
        """Block until ``ticket``'s event is on disk (leader/follower)."""
        while True:
            with self._cond:
                if self._failed is not None and ticket <= self._failed[0]:
                    raise self._failed[1]
                if self._durable >= ticket:
                    return
                if self._writing or not self._pending:
                    self._cond.wait(timeout=1.0)
                    continue
                batch = self._pending
                self._pending = []
                self._writing = True
                through = self._durable + sum(1 for kind, _ in batch if kind == "line")
            try:
                self._commit(batch)
            except Exception as exc:  # noqa: BLE001 - waiters must see the cause
                with self._cond:
                    self._failed = (through, exc)
                    self._durable = through  # unblock; poisoned tickets raise
                    self._writing = False
                    self._cond.notify_all()
                raise
            with self._cond:
                self._durable = through
                self._writing = False
                self._cond.notify_all()

    def _commit(self, batch: list[tuple[str, Any]]) -> None:
        if self._m_batch is not None:
            lines = sum(1 for kind, _ in batch if kind == "line")
            if lines:
                self._m_batch.observe(lines)
        buffered: list[bytes] = []
        for kind, payload in batch:
            if kind == "line":
                buffered.append(payload)
                continue
            # Roll marker: everything buffered belongs to the sealed
            # segment — write + fsync it there, then switch files.
            self._write_fsync(b"".join(buffered))
            buffered = []
            self._close_fh()
            self._commit_path = payload
        self._write_fsync(b"".join(buffered))

    def _write_fsync(self, data: bytes) -> None:
        if not data:
            return
        t0 = time.perf_counter() if self._m_fsync is not None else 0.0
        if self._fh is None:
            fh = self._commit_path.open("ab")
            # Repair a killed predecessor's torn tail before appending,
            # exactly as append_jsonl_many does.
            if fh.tell() > 0 and not _ends_with_newline(self._commit_path):
                fh.write(b"\n")
            self._fh = fh
        self._fh.write(data)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        if self._m_fsync is not None:
            self._m_fsync.observe(time.perf_counter() - t0)

    def _close_fh(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            with contextlib.suppress(OSError):
                fh.close()

    def close(self) -> None:
        with self._cond:
            self._close_fh()


class Coordinator:
    """Lock-protected lease table + result store over one run directory.

    All methods are thread-safe (the HTTP server calls them from a
    bounded thread pool).  State-changing methods enqueue their journal
    event under the state lock — fixing journal order = state order —
    then wait for the group commit *outside* the lock before returning,
    so every acknowledged transition is durable and concurrent
    transitions share one fsync.
    """

    def __init__(
        self,
        run_dir: str | Path,
        *,
        ttl: float = DEFAULT_LEASE_TTL,
        unit_keys: list[str] | None = None,
        segment_bytes: int | None = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        self.run_dir = Path(run_dir)
        self.ttl = float(ttl)
        self.segment_bytes = (
            DEFAULT_SEGMENT_BYTES if segment_bytes is None else int(segment_bytes)
        )
        if self.segment_bytes <= 0:
            raise ValueError(f"segment_bytes must be positive, got {segment_bytes}")
        self.checkpoint = RunCheckpoint(self.run_dir)  # raw results; codecs stay client-side
        manifest = self.checkpoint.manifest()
        if manifest is None:
            raise CheckpointError(
                f"{self.run_dir} has no {RunCheckpoint.MANIFEST_NAME}; initialize it "
                "with `repro sweep serve --spec spec.json` (or run/work it once)"
            )
        if not isinstance(manifest, dict):
            raise CheckpointError(f"{self.run_dir} manifest is not an object")
        self.manifest = manifest
        self.unit_keys = None if unit_keys is None else set(unit_keys)
        total = manifest.get("units")
        self.total_units: int | None = total if isinstance(total, int) else None
        self._lock = threading.Lock()
        #: Authoritative completion set.  Result *values* live in
        #: ``_results`` — populated eagerly on a full replay (shard scan),
        #: lazily on a snapshot restart (that laziness is what makes
        #: restart O(live state); ``GET /results`` hydrates on demand).
        self._completed: set[str] = set()
        self._results: dict[str, Any] = {}
        self._results_hydrated = False
        self._shard_counts: dict[str, int] = {}
        self._duplicates = 0
        self._leases: dict[str, _LeaseEntry] = {}
        self._segment_seq = 0
        # Per-instance metrics registry: a restarted coordinator (or a
        # promoting standby) builds a fresh one and seeds it from the
        # recovered state below, so `GET /metrics` is always consistent
        # with the server's actual authority — never a stale carry-over.
        from repro.observability.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        self._started_at = time.monotonic()
        self._m_claims = self.metrics.counter(
            "coordinator_claims_granted_total", "Lease claims granted (incl. batch members)."
        )
        self._m_reclaims = self.metrics.counter(
            "coordinator_claims_reclaimed_total",
            "Granted claims that reclaimed an expired peer lease.",
        )
        self._m_expired = self.metrics.counter(
            "coordinator_leases_expired_total", "Stale leases expired and re-granted."
        )
        self._m_records = self.metrics.counter(
            "coordinator_records_total",
            "Units durably recorded (seeded with recovered completions on restart).",
        )
        self._m_duplicates = self.metrics.counter(
            "coordinator_duplicate_records_total",
            "Duplicate records dropped (first writer wins).",
        )
        self._m_releases = self.metrics.counter(
            "coordinator_releases_total", "Leases released (incl. batch members)."
        )
        # Per-worker attribution is live-traffic only (recovery cannot map
        # mangled shard names back to worker ids); `sweep top` uses the
        # frame-to-frame delta, so a restart just restarts the window.
        self._m_worker_records = self.metrics.counter(
            "coordinator_worker_records_total",
            "Results recorded since this coordinator started, by worker.",
            labelnames=("worker",),
        )
        self._m_recoveries = self.metrics.counter(
            "coordinator_recoveries_total",
            "Restarts that rebuilt state from snapshot/journal/shards.",
        )
        self._m_roll_s = self.metrics.histogram(
            "coordinator_rollover_seconds", "Wall seconds sealing a journal segment."
        )
        self._m_snapshot_s = self.metrics.histogram(
            "coordinator_snapshot_write_seconds",
            "Wall seconds writing+fsyncing one state snapshot.",
        )
        self._m_snapshots = self.metrics.counter(
            "coordinator_snapshots_total", "State snapshots published."
        )
        self._recover()
        # Seed the cumulative series from recovered state: after a restart
        # or standby takeover, records_total keeps matching the completion
        # set the merged report will show.
        if self._completed:
            self._m_records.inc(len(self._completed))
        if self._duplicates:
            self._m_duplicates.inc(self._duplicates)
        if self._completed or self._leases:
            self._m_recoveries.inc()
        self._journal = _GroupCommitJournal(
            journal_segment_path(self.run_dir, self._segment_seq), metrics=self.metrics
        )

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def _manifest_hash(self) -> str:
        """A digest binding snapshots to this run's identity: a snapshot
        of a *different* experiment (a reused directory) must never seed
        this coordinator's state."""
        return sha1(json.dumps(self.manifest, sort_keys=True).encode()).hexdigest()

    def _recover(self) -> None:
        """Rebuild in-memory state after a (possibly SIGKILLed) restart.

        Snapshot-first: the newest valid ``snapshot.<seq>.json`` seeds
        the completion set, shard counts, and lease table, then only the
        journal segments *after* it replay — O(live state), not
        O(history).  A torn or mismatched snapshot falls back to the
        previous one; with no usable snapshot at all (including every
        pre-segmentation run directory), results are rebuilt by scanning
        the shard files and the lease table replays from every surviving
        segment — the original full-replay path.

        Every acknowledged transition is fsynced in some segment covered
        by this chain, so acked state always survives; a journal line
        torn by the kill was never acked, and its worker's retry is
        idempotent.  Heartbeats reset to *now* and restored leases are
        flagged (``restored=True``) until their first real renewal:
        in-flight holders get one fresh TTL to prove they are alive
        before their units are re-granted, but status consumers can see
        that a fresh-looking heartbeat is only the restart instant.
        """
        now = time.monotonic()
        snap_seq = -1
        for seq, path in reversed(journal_snapshots(self.run_dir)):
            state = self._load_snapshot(path)
            if state is None:
                logger.warning(
                    "%s: torn or mismatched snapshot; falling back to the previous one",
                    path,
                )
                continue
            snap_seq = seq
            self._completed = set(state["completed"])
            self._shard_counts = dict(state["shard_counts"])
            self._duplicates = int(state["duplicates"])
            for item in state["leases"]:
                self._leases[item["unit"]] = _LeaseEntry(
                    worker=item["worker"],
                    token=item["token"],
                    ttl=item["ttl"],
                    reclaimed=item["reclaimed"],
                    heartbeat=now,
                    restored=True,
                )
            break
        if snap_seq < 0:
            # Full replay: the shard files are the durable record store.
            for path in self.checkpoint.result_paths():
                for record in iter_result_records(path):
                    key = record["key"]
                    if key in self._completed:
                        self._duplicates += 1
                        continue
                    self._completed.add(key)
                    self._results[key] = record["result"]
                    self._shard_counts[path.name] = (
                        self._shard_counts.get(path.name, 0) + 1
                    )
            self._results_hydrated = True
        segments = journal_segments(self.run_dir)
        replayed = 0
        for seq, path in segments:
            if seq <= snap_seq:
                continue  # fully covered by the snapshot
            replayed += self._replay_segment(path, now)
        # A record whose journal line was torn still completed durably
        # (the shard append precedes the journal append's acknowledgement
        # path only in memory; both precede the reply) — drop any lease
        # the replay left on a completed unit.
        for unit in [u for u in self._leases if u in self._completed]:
            del self._leases[unit]
        # Appends go to a segment no snapshot claims to fully cover:
        # past the newest existing segment *and* past the newest snapshot
        # (writing into a snapshot-covered segment would hide events from
        # the next restart).
        max_segment = segments[-1][0] if segments else 0
        self._segment_seq = max(max_segment, snap_seq + 1, 0)
        if replayed or self._completed:
            logger.info(
                "coordinator recovered %d completed unit(s) and %d in-flight "
                "lease(s) from %s (%s + %d replayed event(s))",
                len(self._completed),
                len(self._leases),
                self.run_dir,
                f"snapshot {snap_seq}" if snap_seq >= 0 else "shard scan",
                replayed,
            )

    def _replay_segment(self, path: Path, now: float) -> int:
        """Replay one journal segment into the state; returns event count.

        Replay is *prefix-idempotent*: claims overwrite the lease row,
        releases/expiries pop it, records are guarded by the completion
        set — so replaying events a snapshot already includes converges
        to the same state, which is what makes the snapshot/segment
        boundary safe against every kill point.
        """
        replayed = 0
        for event in iter_jsonl(path, what="coordinator journal"):
            if not isinstance(event, dict):
                continue
            kind = event.get("event")
            units = _event_units(event)
            if units is None:
                continue
            replayed += 1
            if kind == "claim":
                try:
                    worker = str(event["worker"])
                    token = str(event["token"])
                    ttl = float(event["ttl"])
                except (KeyError, TypeError, ValueError):
                    continue  # torn mid-object; the lease is simply forgotten
                reclaimed = event.get("reclaimed", False)
                if isinstance(reclaimed, list):
                    reclaimed_units = {u for u in reclaimed if isinstance(u, str)}
                else:
                    reclaimed_units = set(units) if reclaimed is True else set()
                for unit in units:
                    self._leases[unit] = _LeaseEntry(
                        worker=worker,
                        token=token,
                        ttl=ttl,
                        reclaimed=unit in reclaimed_units,
                        heartbeat=now,
                        restored=True,
                    )
            elif kind == "record":
                worker = event.get("worker")
                shard = (
                    self.checkpoint.shard_path(worker).name
                    if isinstance(worker, str)
                    else None
                )
                for unit in units:
                    self._leases.pop(unit, None)
                    if unit not in self._completed:
                        self._completed.add(unit)
                        if shard is not None:
                            self._shard_counts[shard] = (
                                self._shard_counts.get(shard, 0) + 1
                            )
            elif kind in ("release", "expire"):
                for unit in units:
                    self._leases.pop(unit, None)
        return replayed

    def _load_snapshot(self, path: Path) -> dict | None:
        """Parse + validate one snapshot file; None means fall back."""
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or data.get("schema") != SNAPSHOT_SCHEMA_VERSION:
            return None
        if data.get("manifest_sha1") != self._manifest_hash():
            return None  # another experiment's snapshot in a reused directory
        completed = data.get("completed")
        shard_counts = data.get("shard_counts")
        duplicates = data.get("duplicates")
        leases = data.get("leases")
        if not (
            isinstance(completed, list)
            and all(isinstance(k, str) for k in completed)
            and isinstance(shard_counts, dict)
            and all(
                isinstance(k, str) and isinstance(v, int)
                for k, v in shard_counts.items()
            )
            and isinstance(duplicates, int)
            and isinstance(leases, list)
        ):
            return None
        entries = []
        for item in leases:
            if not isinstance(item, dict):
                return None
            try:
                entries.append(
                    {
                        "unit": str(item["unit"]),
                        "worker": str(item["worker"]),
                        "token": str(item["token"]),
                        "ttl": float(item["ttl"]),
                        "reclaimed": bool(item.get("reclaimed", False)),
                    }
                )
            except (KeyError, TypeError, ValueError):
                return None
        return {
            "completed": completed,
            "shard_counts": shard_counts,
            "duplicates": duplicates,
            "leases": entries,
        }

    # ------------------------------------------------------------------ #
    # Rollover + snapshots
    # ------------------------------------------------------------------ #
    def _maybe_roll_locked(self) -> _PendingSnapshot | None:
        """Roll the journal if the active segment crossed the threshold.

        Caller holds the state lock.  Returns the pending snapshot to
        publish via :meth:`_finish` (outside the lock), or None.
        """
        if self._journal.segment_bytes < self.segment_bytes:
            return None
        return self._roll_locked()

    def _roll_locked(self) -> _PendingSnapshot:
        """Seal the active segment and capture a state snapshot.

        The captured state may include effects of events not yet durable
        (still queued for the group commit) — that is safe because
        :meth:`_finish` publishes the snapshot only after the sealed
        segment's last ticket commits, and replay on top of a snapshot is
        prefix-idempotent anyway.
        """
        roll_t0 = time.perf_counter()
        sealed = self._segment_seq
        ticket = self._journal.last_ticket()
        state = {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "seq": sealed,
            "manifest_sha1": self._manifest_hash(),
            "completed": sorted(self._completed),
            "shard_counts": dict(self._shard_counts),
            "duplicates": self._duplicates,
            "leases": [
                {
                    "unit": unit,
                    "worker": entry.worker,
                    "token": entry.token,
                    "ttl": entry.ttl,
                    "reclaimed": entry.reclaimed,
                }
                for unit, entry in sorted(self._leases.items())
            ],
        }
        self._segment_seq = sealed + 1
        self._journal.roll(journal_segment_path(self.run_dir, self._segment_seq))
        self._m_roll_s.observe(time.perf_counter() - roll_t0)
        return _PendingSnapshot(seq=sealed, ticket=ticket, state=state)

    def _finish(self, ticket: int | None, pending: _PendingSnapshot | None = None) -> None:
        """Outside the state lock: wait for this operation's journal
        event to be durable (group commit), and publish a pending
        snapshot once everything it covers is durable too.

        The snapshot wait costs no extra fsync: the roll-triggering
        operation's own event is the last line of the sealed segment, so
        waiting on the sealed ticket *is* waiting on this operation.
        """
        if pending is not None:
            self._journal.wait_durable(max(ticket or 0, pending.ticket))
            self._publish_snapshot(pending)
        elif ticket is not None:
            self._journal.wait_durable(ticket)

    def _publish_snapshot(self, pending: _PendingSnapshot) -> None:
        """Atomically write ``snapshot.<seq>.json``, then reap history.

        tmp + fsync + ``os.replace``: a kill leaves either the previous
        snapshot set or the complete new file, never a torn one.  A write
        failure is logged and swallowed — the snapshot is an optimization;
        the journal chain it summarizes remains authoritative.
        """
        path = snapshot_path(self.run_dir, pending.seq)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        snap_t0 = time.perf_counter()
        try:
            with tmp.open("w") as fh:
                json.dump(pending.state, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            logger.exception("could not publish coordinator snapshot %s", path)
            with contextlib.suppress(OSError):
                tmp.unlink()
            return
        self._m_snapshot_s.observe(time.perf_counter() - snap_t0)
        self._m_snapshots.inc()
        logger.info(
            "coordinator snapshot %s covers journal segments <= %d "
            "(%d completed, %d leases)",
            path.name,
            pending.seq,
            len(pending.state["completed"]),
            len(pending.state["leases"]),
        )
        self._reap_covered()

    def _reap_covered(self) -> None:
        """Delete journal history the two newest snapshots make redundant.

        Keeping two snapshots preserves the torn-snapshot fallback: the
        newest may be refused at restart (corruption, by validation), and
        the previous one still covers every surviving segment.  Segments
        newer than the *previous* snapshot are always kept — they are the
        replay tail of both snapshots.  With fewer than two snapshots
        nothing is reaped, so the newest snapshot and uncovered segments
        can never vanish.
        """
        snapshots = journal_snapshots(self.run_dir)
        if len(snapshots) < 2:
            return
        keep = {seq for seq, _ in snapshots[-2:]}
        previous = snapshots[-2][0]
        for seq, path in snapshots:
            if seq not in keep:
                with contextlib.suppress(OSError):
                    path.unlink()
        for seq, path in journal_segments(self.run_dir):
            if seq <= previous:
                with contextlib.suppress(OSError):
                    path.unlink()

    def roll_journal(self) -> Path:
        """Seal the active segment and publish a snapshot *now*.

        Operational lever (and the restart benchmark's setup): after this
        returns, a restart loads the snapshot and replays only events
        that arrive later.  Returns the published snapshot's path.
        """
        with self._lock:
            pending = self._roll_locked()
        self._finish(None, pending)
        return snapshot_path(self.run_dir, pending.seq)

    def close(self) -> None:
        """Release the journal file handle (clean shutdown only)."""
        self._journal.close()

    def _validate_unit(self, unit: str) -> None:
        if self.unit_keys is not None and unit not in self.unit_keys:
            raise UnknownUnitError(f"unit {unit!r} is not part of this run")

    def _expire_locked(self, unit: str, entry: _LeaseEntry, claimant: str) -> int:
        """Journal + drop one stale lease; returns its commit ticket."""
        ticket = self._journal.enqueue(
            {"event": "expire", "unit": unit, "worker": entry.worker, "token": entry.token}
        )
        del self._leases[unit]
        self._m_expired.inc()
        logger.warning(
            "expired stale lease on unit %r (worker %s silent past its "
            "%.0fs ttl); re-granting to %s",
            unit,
            entry.worker,
            entry.ttl,
            claimant,
        )
        return ticket

    # ------------------------------------------------------------------ #
    # The protocol operations
    # ------------------------------------------------------------------ #
    def claim_batch(self, request: BatchClaimRequest) -> BatchClaimReply:
        """Grant as many of ``request.units`` as possible to one worker
        under **one token and one journal record**.

        Units already recorded come back in ``completed``; units held by
        a live peer are silently omitted; expired leases are journaled
        as ``expire`` events and re-granted (listed in ``reclaimed``).
        Units the *requesting worker* already holds — a retry after a
        lost reply, since its old token is now unreachable — are folded
        into the fresh batch token.  Each granted member keeps its own
        row in the lease table, so each record flush drops exactly its
        members, and a mid-batch death leaks only the members no flush
        has recorded yet.
        """
        with self._lock:
            for unit in request.units:
                self._validate_unit(unit)
            now = time.monotonic()
            granted: list[str] = []
            reclaimed: list[str] = []
            completed: list[str] = []
            for unit in request.units:
                if unit in self._completed:
                    completed.append(unit)
                    continue
                entry = self._leases.get(unit)
                if entry is not None:
                    if entry.worker != request.worker:
                        if now - entry.heartbeat <= entry.ttl:
                            continue  # a live peer holds it
                        self._expire_locked(unit, entry, request.worker)
                        reclaimed.append(unit)
                    else:
                        # The holder retrying a lost reply: fold its units
                        # into this batch under the fresh token.
                        if entry.reclaimed:
                            reclaimed.append(unit)
                        del self._leases[unit]
                granted.append(unit)
            if not granted:
                return BatchClaimReply(granted=(), completed=tuple(completed))
            token = secrets.token_hex(8)
            ticket = self._journal.enqueue(
                {
                    "event": "claim",
                    "units": granted,
                    "worker": request.worker,
                    "token": token,
                    "ttl": self.ttl,
                    "reclaimed": reclaimed,
                }
            )
            reclaimed_set = set(reclaimed)
            for unit in granted:
                self._leases[unit] = _LeaseEntry(
                    worker=request.worker,
                    token=token,
                    ttl=self.ttl,
                    reclaimed=unit in reclaimed_set,
                    heartbeat=now,
                )
            self._m_claims.inc(len(granted))
            if reclaimed:
                self._m_reclaims.inc(len(reclaimed))
            reply = BatchClaimReply(
                granted=tuple(granted),
                token=token,
                ttl=self.ttl,
                reclaimed=tuple(reclaimed),
                completed=tuple(completed),
            )
            pending = self._maybe_roll_locked()
        self._finish(ticket, pending)
        return reply

    def renew_batch(self, request: BatchLeaseRequest) -> BatchAckReply:
        """Refresh the heartbeat of every listed unit still owned by the
        presented token; ``stale`` reports the rest (recorded, expired,
        or re-granted members).

        Renewals are *not* journaled — after a restart every surviving
        lease's heartbeat resets to the restart instant anyway, so the
        per-beat write would buy nothing.
        """
        with self._lock:
            now = time.monotonic()
            stale: list[str] = []
            owned = 0
            for unit in request.units:
                entry = self._leases.get(unit)
                if entry is None or entry.token != request.token:
                    stale.append(unit)
                else:
                    entry.heartbeat = now
                    entry.restored = False  # first real beat after a restart
                    owned += 1
        return BatchAckReply(ok=owned > 0, stale=tuple(stale))

    def release_batch(self, request: BatchLeaseRequest) -> BatchAckReply:
        """Drop every listed unit still owned by the presented token,
        under one journal record.  Vanished members acknowledge
        idempotently; superseded tokens are reported in ``stale`` and
        left alone (a stalled worker cannot unlink the new holder)."""
        with self._lock:
            released: list[str] = []
            stale: list[str] = []
            for unit in request.units:
                entry = self._leases.get(unit)
                if entry is None:
                    continue  # already gone: idempotent
                if entry.token != request.token:
                    stale.append(unit)
                    continue
                released.append(unit)
            ticket = None
            if released:
                ticket = self._journal.enqueue(
                    {
                        "event": "release",
                        "units": released,
                        "worker": request.worker,
                        "token": request.token,
                    }
                )
                for unit in released:
                    del self._leases[unit]
                self._m_releases.inc(len(released))
            pending = self._maybe_roll_locked() if ticket is not None else None
        self._finish(ticket, pending)
        return BatchAckReply(ok=True, stale=tuple(stale))

    def record_batch(self, request: BatchRecordRequest) -> BatchRecordReply:
        """Durably record finished units' results in one flush, exactly
        once.

        The shard append (and journal line) happen before the
        acknowledgement, and the worker drops a member from its batch
        only after being acknowledged — record before release, end to
        end.  A unit already recorded is dropped as a duplicate without
        writing (first writer wins).  A *stale* token does not block
        recording as long as the unit is unrecorded: a robbed worker that
        finishes first contributes its (bit-identical) result rather
        than wasting it, and every listed unit's lease is dropped so the
        unit cannot be claimed again.  The writes are batch-grained: one
        shard append (one open+flush covering every line), one journal
        event, one group commit for the whole flush — the amortization
        that lets sub-second units keep the coordinator out of the
        critical path.
        """
        with self._lock:
            for unit in request.units:
                self._validate_unit(unit)
            duplicates: list[str] = []
            fresh: list[tuple[str, Any]] = []
            for unit, result in zip(request.units, request.results):
                if unit in self._completed:
                    duplicates.append(unit)
                    continue
                entry = self._leases.get(unit)
                if entry is None or entry.token != request.token:
                    logger.warning(
                        "recording unit %r from worker %s despite a stale lease "
                        "token (its lease was reclaimed while it ran)",
                        unit,
                        request.worker,
                    )
                fresh.append((unit, result))
            ticket = None
            if fresh:
                shard_name = self.checkpoint.shard_path(request.worker).name
                self.checkpoint.record_many(fresh, shard=request.worker)
                ticket = self._journal.enqueue(
                    {
                        "event": "record",
                        "units": [unit for unit, _ in fresh],
                        "worker": request.worker,
                    }
                )
                for unit, result in fresh:
                    self._completed.add(unit)
                    self._results[unit] = result
                self._shard_counts[shard_name] = (
                    self._shard_counts.get(shard_name, 0) + len(fresh)
                )
                self._m_records.inc(len(fresh))
                self._m_worker_records.labels(request.worker).inc(len(fresh))
            if duplicates:
                self._duplicates += len(duplicates)
                self._m_duplicates.inc(len(duplicates))
                logger.warning(
                    "duplicate record(s) for %d unit(s) from worker %s dropped "
                    "(first writer wins)",
                    len(duplicates),
                    request.worker,
                )
            for unit in request.units:
                self._leases.pop(unit, None)
            pending = self._maybe_roll_locked() if ticket is not None else None
        self._finish(ticket, pending)
        return BatchRecordReply(ok=True, duplicates=tuple(duplicates))

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    def completed_keys(self) -> list[str]:
        with self._lock:
            return sorted(self._completed)

    def results(self) -> dict[str, Any]:
        """Every completed unit's result value, keyed by unit.

        After a snapshot restart the values are *hydrated* lazily from
        the shard files on the first call (first writer wins, matching
        the merge everywhere else) — the restart itself stays O(live
        state), and the common server lifecycle (claims, records,
        status) never pays the scan at all.
        """
        with self._lock:
            if not self._results_hydrated:
                for path in self.checkpoint.result_paths():
                    for record in iter_result_records(path):
                        self._results.setdefault(record["key"], record["result"])
                self._results_hydrated = True
            return {key: self._results[key] for key in self._completed if key in self._results}

    @property
    def complete(self) -> bool:
        with self._lock:
            return self.total_units is not None and len(self._completed) >= self.total_units

    def status_payload(self) -> dict:
        """A point-in-time snapshot in the shared status schema — the
        same shape :meth:`repro.runtime.distributed.RunDirStatus.
        to_payload` produces for a run directory read from disk."""
        with self._lock:
            now = time.monotonic()
            active: list[dict] = []
            stale: list[dict] = []
            for unit in sorted(self._leases):
                entry = self._leases[unit]
                item = {
                    "unit": unit,
                    "worker": entry.worker,
                    "heartbeat_age": max(round(now - entry.heartbeat, 3), 0.0),
                    "ttl": entry.ttl,
                    # Restored leases' heartbeat is the restart instant, not
                    # proof of life — a dashboard must not read a worker
                    # that died during the outage as fresh.
                    "restored": entry.restored,
                }
                (active if now - entry.heartbeat <= entry.ttl else stale).append(item)
            kind = self.manifest.get("kind")
            spec = self.manifest.get("spec")
            name = spec.get("name") if isinstance(spec, dict) else None
            completed = len(self._completed)
            return {
                # "schema" is the legacy alias; dashboard consumers should
                # key off "schema_version" to detect payload drift.
                "schema": STATUS_SCHEMA_VERSION,
                "schema_version": STATUS_SCHEMA_VERSION,
                "backend": "coordinator",
                "source": str(self.run_dir),
                "kind": kind if isinstance(kind, str) else None,
                "name": name if isinstance(name, str) else None,
                "complete": self.total_units is not None and completed >= self.total_units,
                "total_units": self.total_units,
                "completed_units": completed,
                "shard_counts": dict(sorted(self._shard_counts.items())),
                "duplicate_records": self._duplicates,
                "active_leases": active,
                "stale_leases": stale,
                "torn_leases": 0,
                "torn_live": 0,
            }

    def metrics_text(self) -> str:
        """The registry in Prometheus text format, point-in-time gauges
        refreshed first (lease-table size, completion, journal position).

        This is what ``GET /metrics`` serves.  Cumulative series survive
        restart/takeover via the seeding in ``__init__``; the gauges here
        are derived from live state on every scrape, so they are correct
        by construction on any coordinator generation.
        """
        with self._lock:
            leases = len(self._leases)
            completed = len(self._completed)
            segment_seq = self._segment_seq
            segment_bytes = self._journal.segment_bytes
        gauges = {
            "coordinator_lease_table_size": (
                leases, "In-flight leases (batch members count individually)."
            ),
            "coordinator_completed_units": (completed, "Units durably completed."),
            "coordinator_total_units": (
                self.total_units if self.total_units is not None else 0,
                "Units in this run's manifest (0 if unknown).",
            ),
            "coordinator_journal_segment_seq": (
                segment_seq, "Active journal segment sequence number."
            ),
            "coordinator_journal_segment_bytes": (
                segment_bytes, "Bytes in the active journal segment."
            ),
            "coordinator_journal_pending_events": (
                self._journal.pending(),
                "Journal events enqueued but not yet fsynced (commit lag).",
            ),
            "coordinator_uptime_seconds": (
                time.monotonic() - self._started_at,
                "Seconds since this coordinator process recovered.",
            ),
        }
        for name, (value, help_text) in gauges.items():
            self.metrics.gauge(name, help_text).set(value)
        return self.metrics.render_prometheus()


# ---------------------------------------------------------------------- #
# The HTTP face
# ---------------------------------------------------------------------- #
#: Worker threads for blocking coordinator operations.  Small on
#: purpose: the ops are short critical sections plus a group-commit
#: wait, so a handful of threads saturate the lock while any number of
#: idle keep-alive connections cost the event loop nothing.
_OPERATION_THREADS = 32

#: Content type of the Prometheus text exposition format.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Endpoints that get their own ``coordinator_request_seconds{op=...}``
#: series; anything else is folded into ``op="other"``.
_KNOWN_ENDPOINTS = frozenset(
    {
        "/status",
        "/completed",
        "/results",
        "/manifest",
        "/healthz",
        "/metrics",
        "/claim-batch",
        "/renew-batch",
        "/release-batch",
        "/record-batch",
    }
)


@dataclass(frozen=True)
class _RawBody:
    """A dispatch result that is already encoded — bypasses the default
    JSON response path (``GET /metrics`` serves Prometheus text)."""

    data: bytes
    content_type: str


class CoordinatorHTTPServer:
    """Asyncio HTTP/1.1 keep-alive server bound to one :class:`Coordinator`.

    Replaces the earlier thread-per-request ``ThreadingHTTPServer``: a
    large fleet holding persistent connections would pin one OS thread
    each there, while one event loop holds a thousand idle sockets for
    free.  The blocking, lock-protected coordinator operations run on a
    bounded thread pool — which is also what piles concurrent journal
    transitions into a single group commit.

    The listening socket is bound (and ``server_address`` fixed)
    synchronously in the constructor, so ``url`` is valid before
    ``serve_forever()`` starts the loop on whatever thread calls it.
    The public surface matches the old server: ``url``,
    ``serve_forever()`` (blocking), ``shutdown()`` (thread-safe),
    ``server_close()``, ``.coordinator``.

    While alive, the server holds the run directory's advisory lease
    (:func:`~repro.runtime.distributed.write_advisory_lease`), so every
    reader of it — ``runs gc``, ``sweep status``, a standby, the
    fresh-initialization refusal — sees the directory as actively
    worked, even though coordinator workers themselves never touch it.
    It publishes the file at start, replacing a SIGKILLed predecessor's,
    refreshes its heartbeat every ttl/4 and removes it on close, the
    last two only while the file still names this process.
    """

    def __init__(self, address: tuple[str, int], coordinator: Coordinator) -> None:
        self.coordinator = coordinator
        self._sock = socket.create_server(address, backlog=512)
        self._sock.setblocking(False)
        self.server_address = self._sock.getsockname()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._shutdown_flag = threading.Event()
        self._serving = False
        self._stopped = threading.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=_OPERATION_THREADS, thread_name_prefix="coordinator-op"
        )
        now = time.time()
        self._advisory_lease = Lease(
            unit=ADVISORY_LEASE_UNIT,
            worker=f"coordinator-{os.getpid()}",
            acquired_at=now,
            heartbeat=now,
            ttl=coordinator.ttl,
        )
        self._advisory_stop = threading.Event()
        self._advisory_thread = self._hold_advisory_lease()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking)."""
        self._serving = True
        try:
            asyncio.run(self._serve())
        finally:
            self._stopped.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(self._handle_client, sock=self._sock)
        if self._shutdown_flag.is_set():  # shutdown() raced serve_forever()
            self._stop_event.set()
        async with server:
            await self._stop_event.wait()

    def shutdown(self) -> None:
        """Stop ``serve_forever`` from any thread."""
        self._shutdown_flag.set()
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None and loop.is_running():
            with contextlib.suppress(RuntimeError):  # loop closed meanwhile
                loop.call_soon_threadsafe(stop.set)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    return  # client closed between requests
                except asyncio.LimitOverrunError:
                    return  # absurd header block; drop the connection
                request_line, _, header_blob = head.partition(b"\r\n")
                parts = request_line.decode("latin-1").split()
                if len(parts) < 2:
                    return
                method, target = parts[0], parts[1]
                headers: dict[str, str] = {}
                for raw in header_blob.decode("latin-1").split("\r\n"):
                    name, sep, value = raw.partition(":")
                    if sep:
                        headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    return
                body = await reader.readexactly(length) if length > 0 else b""
                close_after = headers.get("connection", "").lower() == "close"
                status, reason, payload = await self._dispatch(method, target, body)
                if isinstance(payload, _RawBody):
                    data, content_type = payload.data, payload.content_type
                else:
                    data, content_type = json.dumps(payload).encode(), "application/json"
                head_out = (
                    f"HTTP/1.1 {status} {reason}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"{'Connection: close' + chr(13) + chr(10) if close_after else ''}"
                    "\r\n"
                )
                writer.write(head_out.encode("latin-1") + data)
                await writer.drain()
                if close_after:
                    return
        except asyncio.CancelledError:
            pass  # loop shutting down mid-request; client retries are idempotent
        except (ConnectionError, TimeoutError, OSError):
            pass  # client vanished mid-request; its retry is idempotent
        finally:
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _run(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, lambda: fn(*args))

    async def _dispatch(self, method: str, target: str, body: bytes) -> tuple[int, str, Any]:
        # Per-op request latency: one histogram series per known endpoint
        # (unknown targets share "other" so a port scan cannot explode the
        # label space).  The observation covers parse + queue + operation.
        metrics = self.coordinator.metrics
        op = target if target in _KNOWN_ENDPOINTS else "other"
        t0 = time.perf_counter()
        try:
            return await self._dispatch_inner(method, target, body)
        finally:
            metrics.histogram(
                "coordinator_request_seconds",
                "Request latency by endpoint (parse + queue + operation).",
                ("op",),
            ).labels(op).observe(time.perf_counter() - t0)

    async def _dispatch_inner(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, str, Any]:
        coordinator = self.coordinator
        if method == "GET":
            reads = {
                "/status": coordinator.status_payload,
                "/completed": lambda: {"keys": coordinator.completed_keys()},
                "/results": lambda: {"results": coordinator.results()},
                "/manifest": lambda: coordinator.manifest,
                "/healthz": lambda: {"ok": True},
                "/metrics": lambda: _RawBody(
                    coordinator.metrics_text().encode(), _PROMETHEUS_CONTENT_TYPE
                ),
            }
            fn = reads.get(target)
            if fn is None:
                return 404, "Not Found", {"error": f"unknown endpoint {target}"}
            try:
                return 200, "OK", await self._run(fn)
            except Exception as exc:  # noqa: BLE001 - a 500 must carry the cause
                logger.exception("coordinator read %s failed", target)
                return 500, "Internal Server Error", {"error": f"internal error: {exc}"}
        if method != "POST":
            return 405, "Method Not Allowed", {"error": f"unsupported method {method}"}
        operations = {
            "/claim-batch": (BatchClaimRequest, coordinator.claim_batch),
            "/renew-batch": (BatchLeaseRequest, coordinator.renew_batch),
            "/release-batch": (BatchLeaseRequest, coordinator.release_batch),
            "/record-batch": (BatchRecordRequest, coordinator.record_batch),
        }
        operation = operations.get(target)
        if operation is None:
            return 404, "Not Found", {"error": f"unknown endpoint {target}"}
        parse, apply = operation
        try:
            payload = json.loads(body) if body else None
            request = parse.from_dict(payload)
        except (ValueError, json.JSONDecodeError) as exc:
            return 400, "Bad Request", {"error": f"malformed request: {exc}"}
        try:
            reply = await self._run(apply, request)
        except UnknownUnitError as exc:
            return 400, "Bad Request", {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - a 500 must carry the cause
            logger.exception("coordinator operation %s failed", target)
            return 500, "Internal Server Error", {"error": f"internal error: {exc}"}
        return 200, "OK", reply.to_dict()

    def _hold_advisory_lease(self) -> threading.Thread:
        """Publish the advisory lease and start the thread refreshing it."""
        # Publishing replaces a SIGKILLed predecessor's stale advisory
        # lease, which must not block a restart for a full TTL; exactly
        # one coordinator serves a run directory at a time (the port is
        # the real mutex on one host).
        write_advisory_lease(self.coordinator.run_dir, self._advisory_lease)
        interval = max(self._advisory_lease.ttl / 4.0, 0.1)

        def _beat() -> None:
            while not self._advisory_stop.wait(interval):
                self._refresh_advisory_lease()

        thread = threading.Thread(
            target=_beat, daemon=True, name="coordinator-advisory-lease"
        )
        thread.start()
        return thread

    def _refresh_advisory_lease(self) -> None:
        """Advance the advisory lease's heartbeat if the file still names
        us.  A removed file stays removed (a straggler refresh must not
        resurrect a phantom live lease), and a successor's is not ours to
        overwrite."""
        if self._owns_advisory_lease():
            with contextlib.suppress(OSError):  # retried next beat
                write_advisory_lease(
                    self.coordinator.run_dir,
                    replace(self._advisory_lease, heartbeat=time.time()),
                )

    def _owns_advisory_lease(self) -> bool:
        """Whether the run directory's advisory lease still names us."""
        advisory = read_advisory_lease(self.coordinator.run_dir)
        held = None if advisory is None else advisory[1]
        return held is not None and held.worker == self._advisory_lease.worker

    def server_close(self) -> None:
        self._advisory_stop.set()
        self._advisory_thread.join(timeout=5)
        # A successor's lease must stay: removing it would hide a live
        # coordinator from gc, status and a standby's primary check.
        if self._owns_advisory_lease():
            with contextlib.suppress(OSError):
                os.unlink(advisory_lease_path(self.coordinator.run_dir))
        # The event loop owns the listening socket once serving; closing
        # it out from under a live selector corrupts the loop, so stop
        # the loop (idempotent) and wait for it before touching the fd.
        self.shutdown()
        if self._serving:
            self._stopped.wait(timeout=10)
        self._pool.shutdown(wait=False)
        self.coordinator.close()
        with contextlib.suppress(OSError):
            self._sock.close()

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


def serve_coordinator(
    run_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    ttl: float = DEFAULT_LEASE_TTL,
    unit_keys: list[str] | None = None,
    segment_bytes: int | None = None,
) -> CoordinatorHTTPServer:
    """Bind a coordinator server for ``run_dir`` (not yet serving).

    Returns the bound server; call ``serve_forever()`` (optionally from a
    thread) to start handling requests and ``shutdown()``/
    ``server_close()`` to stop.  ``port=0`` binds an ephemeral port —
    read the actual one off ``server.url``.
    """
    coordinator = Coordinator(
        run_dir, ttl=ttl, unit_keys=unit_keys, segment_bytes=segment_bytes
    )
    return CoordinatorHTTPServer((host, port), coordinator)


@contextlib.contextmanager
def running_coordinator(
    run_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    ttl: float = DEFAULT_LEASE_TTL,
    unit_keys: list[str] | None = None,
    segment_bytes: int | None = None,
):
    """Context manager: a coordinator serving on a background thread.

    Mostly for tests and in-process benchmarks; the CLI serves in the
    foreground via :func:`serve_coordinator`.
    """
    server = serve_coordinator(
        run_dir,
        host=host,
        port=port,
        ttl=ttl,
        unit_keys=unit_keys,
        segment_bytes=segment_bytes,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True, name="coordinator")
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


# ---------------------------------------------------------------------- #
# Warm standby
# ---------------------------------------------------------------------- #
def _primary_alive(run_dir: Path, probe_host: str, port: int) -> bool:
    """Whether a primary coordinator still looks alive.

    Two independent signals, either one counts: the port accepts a TCP
    connection (the primary's listening socket dies with its process),
    or its advisory lease still seems live (the conservative
    heartbeat-or-mtime rule every advisory reader shares).  The lease
    keeps a standby from stealing the port during a network blip; the
    port probe keeps a *clean* shutdown (which removes the lease) from
    waiting out a TTL.
    """
    try:
        with socket.create_connection((probe_host, port), timeout=0.5):
            return True
    except OSError:
        pass
    advisory = read_advisory_lease(run_dir)
    return advisory is not None and lease_seems_live(advisory[1], advisory[0], time.time())


def standby_coordinator(
    run_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int,
    ttl: float = DEFAULT_LEASE_TTL,
    unit_keys: list[str] | None = None,
    segment_bytes: int | None = None,
    poll: float = 1.0,
    stop: threading.Event | None = None,
) -> CoordinatorHTTPServer | None:
    """Warm standby: block until the primary dies, then take over its port.

    Watches the run directory's snapshot/segment chain while the primary
    serves (logging progression, so an operator can see the standby is
    current), declaring the primary dead only when its advisory lease has
    gone stale *and* the port refuses connections.  Takeover then
    replays the chain — O(live state) thanks to the snapshots the primary
    kept publishing — and binds the **same** ``host:port``, so workers'
    reconnect probes rejoin without any reconfiguration.  Losing the
    bind race to another standby (``EADDRINUSE``) just resumes watching.

    Token fencing makes the handoff safe even mid-batch: the lease table
    (with tokens) survives in the snapshot/journal, so in-flight workers'
    renewals and records keep working, and record-before-release
    exactly-once holds across the transition.

    Returns the bound (not yet serving) server, or ``None`` if ``stop``
    was set first.  ``port`` must be explicit — an ephemeral port would
    take over an address nobody is retrying against.
    """
    if port <= 0:
        raise ValueError("a standby needs the primary's explicit port, not 0")
    run_dir = Path(run_dir)
    probe_host = "127.0.0.1" if host in ("0.0.0.0", "::", "") else host
    last_snapshot: int | None = None
    while stop is None or not stop.is_set():
        if _primary_alive(run_dir, probe_host, port):
            snapshots = journal_snapshots(run_dir)
            newest = snapshots[-1][0] if snapshots else None
            if newest != last_snapshot:
                logger.info(
                    "standby: primary alive on %s:%d; chain at snapshot %s + %d segment(s)",
                    probe_host,
                    port,
                    newest,
                    len(journal_segments(run_dir)),
                )
                last_snapshot = newest
            if stop is not None:
                stop.wait(poll)
            else:
                time.sleep(poll)
            continue
        logger.warning(
            "standby: primary on %s:%d looks dead (port closed, advisory lease "
            "stale); taking over",
            probe_host,
            port,
        )
        try:
            return serve_coordinator(
                run_dir,
                host=host,
                port=port,
                ttl=ttl,
                unit_keys=unit_keys,
                segment_bytes=segment_bytes,
            )
        except OSError:
            # Lost the bind race to another standby (or the primary came
            # back between probe and bind): back off and resume watching.
            logger.info("standby: lost the takeover race for port %d; resuming watch", port)
            if stop is not None:
                stop.wait(poll)
            else:
                time.sleep(poll)
    return None
