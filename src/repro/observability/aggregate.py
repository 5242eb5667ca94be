"""Merge per-worker telemetry shards into one fleet summary.

The inverse of :mod:`repro.observability.trace`: read every
``telemetry-<worker>.jsonl`` shard of a run directory (torn-line
tolerant — a SIGKILLed worker's last buffered lines are skipped, never
fatal) and fold the span records into per-worker unit counts,
span-stage totals and observed rates.  Other record kinds (lifecycle
events, and the ``phases`` records older versions wrote) are skipped.

Used by the ``sweep top`` dashboard's filesystem mode, the end-to-end
benchmark's ``runtime.*`` metrics, and the CI coordinator smoke (which
cross-checks ``GET /metrics`` against the merged report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.observability.trace import TELEMETRY_GLOB
from repro.runtime.checkpoint import iter_jsonl

__all__ = [
    "TelemetrySummary",
    "WorkerTelemetry",
    "iter_telemetry_records",
    "summarize_records",
    "summarize_run_dir",
    "telemetry_shard_paths",
]

SPAN_STAGES = ("claim_s", "execute_s", "record_s", "release_s")


def telemetry_shard_paths(run_dir: str | Path) -> list[Path]:
    """Existing telemetry shards of ``run_dir``, sorted (deterministic
    merge order, like :func:`repro.runtime.checkpoint.result_file_paths`)."""
    return sorted(p for p in Path(run_dir).glob(TELEMETRY_GLOB) if p.is_file())


def iter_telemetry_records(run_dir: str | Path) -> Iterator[dict]:
    """Every well-formed telemetry record of ``run_dir``'s shards.

    Lines that are torn, unparseable, or not ``{"kind": ...}`` objects
    are skipped — telemetry is advisory, so damage narrows the summary
    instead of failing it.
    """
    for path in telemetry_shard_paths(run_dir):
        for record in iter_jsonl(path, what="telemetry"):
            if isinstance(record, dict) and isinstance(record.get("kind"), str):
                yield record


@dataclass
class WorkerTelemetry:
    """One worker's folded span records."""

    worker: str
    units: int = 0
    reclaimed: int = 0
    batched: int = 0
    stage_seconds: dict[str, float] = field(
        default_factory=lambda: {stage: 0.0 for stage in SPAN_STAGES}
    )
    first_ts: float | None = None
    last_ts: float | None = None

    @property
    def busy_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def rate(self) -> float | None:
        """Observed units/second over this worker's span window, or None
        when fewer than two spans landed (no measurable window)."""
        if self.units < 2 or self.first_ts is None or self.last_ts is None:
            return None
        window = self.last_ts - self.first_ts
        if window <= 0:
            return None
        # First span's completion opens the window, so it contributes
        # the endpoint, not the interval.
        return (self.units - 1) / window

    def to_payload(self) -> dict[str, Any]:
        return {
            "worker": self.worker,
            "units": self.units,
            "reclaimed": self.reclaimed,
            "batched": self.batched,
            "stage_seconds": dict(self.stage_seconds),
            "busy_seconds": self.busy_seconds,
            "rate": self.rate,
        }


@dataclass
class TelemetrySummary:
    """Fleet-wide fold of every telemetry shard in a run directory."""

    workers: dict[str, WorkerTelemetry] = field(default_factory=dict)
    spans: int = 0

    @property
    def units(self) -> int:
        return sum(w.units for w in self.workers.values())

    @property
    def reclaimed(self) -> int:
        return sum(w.reclaimed for w in self.workers.values())

    def to_payload(self) -> dict[str, Any]:
        return {
            "spans": self.spans,
            "units": self.units,
            "reclaimed": self.reclaimed,
            "workers": {
                worker: stats.to_payload()
                for worker, stats in sorted(self.workers.items())
            },
        }


def summarize_records(records: Iterable[Mapping[str, Any]]) -> TelemetrySummary:
    """Fold telemetry records (any workers, any order) into one summary."""
    summary = TelemetrySummary()
    for record in records:
        if record.get("kind") == "span":
            worker = str(record.get("worker", "<unknown>"))
            stats = summary.workers.setdefault(worker, WorkerTelemetry(worker))
            stats.units += 1
            summary.spans += 1
            if record.get("reclaimed"):
                stats.reclaimed += 1
            if record.get("batched"):
                stats.batched += 1
            for stage in SPAN_STAGES:
                try:
                    stats.stage_seconds[stage] += float(record.get(stage, 0.0))
                except (TypeError, ValueError):
                    continue
            ts = record.get("ts")
            if isinstance(ts, (int, float)):
                if stats.first_ts is None or ts < stats.first_ts:
                    stats.first_ts = float(ts)
                if stats.last_ts is None or ts > stats.last_ts:
                    stats.last_ts = float(ts)
    return summary


def summarize_run_dir(run_dir: str | Path) -> TelemetrySummary:
    """Merge every telemetry shard of ``run_dir`` into one summary."""
    return summarize_records(iter_telemetry_records(run_dir))
