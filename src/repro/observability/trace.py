"""Per-unit trace spans and worker lifecycle events.

Every worker that drains units appends telemetry records to its own
``telemetry-<worker>.jsonl`` shard in the run directory — the same
one-writer-per-file rule, torn-tail repair, and torn-line-tolerant
reader (:mod:`repro.runtime.checkpoint`) as the result shards, so a
SIGKILLed worker can tear at most its last buffered lines and never
corrupts anyone else's telemetry.  The shards are an *output artifact*
of the run: ``repro sweep top`` and
:func:`repro.observability.aggregate.summarize_run_dir` read them, and
they survive for post-hoc analysis.

Record kinds (one JSON object per line, ``"v": 1``):

``span``
    One completed work unit: ``{"kind": "span", "unit": key, "worker":
    id, "ts": wall-clock end time, "claim_s": ..., "execute_s": ...,
    "record_s": ..., "release_s": ..., "reclaimed": bool, "batched":
    bool}`` — the claim → execute → record → release lifecycle with
    per-stage wall seconds.
``event``
    Free-form worker lifecycle notes (``{"kind": "event", "event":
    name, ...}``), currently ``drain_start`` / ``drain_end``.

Telemetry is **inert by construction**: records are derived from
``time.time()``/``perf_counter`` and already-committed results; nothing
here reads or advances an RNG stream or alters result bytes.  Disable it
entirely with ``REPRO_TELEMETRY=0`` — ``tests/test_observability.py``
pins that the merged sweep results are bit-identical either way.

Readers skip record kinds they do not know, so shards holding kinds
that older versions wrote (such as ``phases``) still fold.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any

from repro.runtime.checkpoint import append_jsonl_many, safe_filename

__all__ = [
    "TELEMETRY_GLOB",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryWriter",
    "telemetry_enabled",
    "telemetry_shard_path",
]

#: Glob matching per-worker telemetry shards next to the result shards.
TELEMETRY_GLOB = "telemetry-*.jsonl"

#: Bumped when record fields change incompatibly.
TELEMETRY_SCHEMA_VERSION = 1

#: Spans buffered per writer before one append_jsonl_many flush.  A
#: killed worker loses at most this many *telemetry* lines (results have
#: their own durability); the batching keeps the per-unit overhead to a
#: dict build + list append on all but every Nth unit.
FLUSH_EVERY = 16

_FALSEY = {"0", "false", "off", "no"}


def telemetry_enabled() -> bool:
    """Telemetry is on unless ``REPRO_TELEMETRY`` says otherwise."""
    return os.environ.get("REPRO_TELEMETRY", "1").strip().lower() not in _FALSEY


def telemetry_shard_path(run_dir: str | Path, worker_id: str) -> Path:
    """This worker's telemetry shard in ``run_dir``."""
    return Path(run_dir) / f"telemetry-{safe_filename(worker_id)}.jsonl"


class TelemetryWriter:
    """Buffered appender of telemetry records for ONE worker's shard.

    Thread-safe (the drain loop and its heartbeat daemon may both
    record); flushes every :data:`FLUSH_EVERY` records and on
    :meth:`close`.  All write errors are swallowed after logging-free
    best effort — telemetry must never fail a unit that already
    executed.
    """

    def __init__(self, run_dir: str | Path, worker_id: str) -> None:
        self.path = telemetry_shard_path(run_dir, worker_id)
        self.worker_id = worker_id
        self._lock = threading.Lock()
        self._buffer: list[dict[str, Any]] = []
        self._closed = False

    @classmethod
    def open(cls, run_dir: str | Path | None, worker_id: str) -> "TelemetryWriter | None":
        """A writer for ``run_dir``, or None when telemetry is off or
        there is nowhere to write (no run directory)."""
        if run_dir is None or not telemetry_enabled():
            return None
        try:
            return cls(run_dir, worker_id)
        except OSError:
            return None

    # ------------------------------------------------------------------ #
    def _append(self, record: dict[str, Any]) -> None:
        with self._lock:
            if self._closed:
                return
            self._buffer.append(record)
            if len(self._buffer) < FLUSH_EVERY:
                return
            buffered, self._buffer = self._buffer, []
        self._write(buffered)

    def _write(self, records: list[dict[str, Any]]) -> None:
        if not records:
            return
        try:
            append_jsonl_many(self.path, records)
        except OSError:
            # Telemetry loss is acceptable; losing the unit is not.
            pass

    def flush(self) -> None:
        with self._lock:
            buffered, self._buffer = self._buffer, []
        self._write(buffered)

    def close(self) -> None:
        with self._lock:
            buffered, self._buffer = self._buffer, []
            self._closed = True
        self._write(buffered)

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def span(
        self,
        unit: str,
        *,
        claim_s: float,
        execute_s: float,
        record_s: float,
        release_s: float,
        reclaimed: bool = False,
        batched: bool = False,
    ) -> None:
        """Record one unit's claim → execute → record → release span."""
        self._append(
            {
                "kind": "span",
                "v": TELEMETRY_SCHEMA_VERSION,
                "unit": unit,
                "worker": self.worker_id,
                "ts": time.time(),
                "claim_s": round(claim_s, 9),
                "execute_s": round(execute_s, 9),
                "record_s": round(record_s, 9),
                "release_s": round(release_s, 9),
                "reclaimed": bool(reclaimed),
                "batched": bool(batched),
            }
        )

    def event(self, event: str, **fields: Any) -> None:
        """Record a worker lifecycle event (``drain_start``/``drain_end``)."""
        record: dict[str, Any] = {
            "kind": "event",
            "v": TELEMETRY_SCHEMA_VERSION,
            "event": event,
            "worker": self.worker_id,
            "ts": time.time(),
        }
        record.update(fields)
        self._append(record)
