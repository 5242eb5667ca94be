"""Fleet dashboard frames: collect, diff, and render (``repro sweep top``).

The dashboard is a pure fold over the two observability surfaces that
already exist — the shared status schema (``sweep status --json`` /
``GET /status``) and the telemetry layer (per-worker trace shards on the
filesystem, ``GET /metrics`` on a coordinator).  One :class:`FleetFrame`
is one poll; throughput and ETA come from the delta between consecutive
frames, so the renderer needs no history beyond the previous frame.

Both sources produce the *same* frame shape:

* **run directory** — ``inspect_run_dir`` for progress/leases plus
  :func:`~repro.observability.aggregate.summarize_run_dir` for per-worker
  span rates;
* **coordinator** — ``GET /status`` for progress/leases plus a parse of
  the Prometheus text at ``GET /metrics`` for per-worker record counts,
  reclaim/duplicate totals, and journal lag.

Everything here is read-only and zero-dependency; the CLI loop in
``repro.__main__`` just polls, diffs, and prints.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "FleetFrame",
    "collect_coordinator_frame",
    "collect_run_dir_frame",
    "parse_prometheus_text",
    "render_frame",
]

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label(value: str) -> str:
    return value.replace("\\\\", "\x00").replace('\\"', '"').replace("\\n", "\n").replace(
        "\x00", "\\"
    )


def parse_prometheus_text(
    text: str,
) -> dict[str, dict[tuple[tuple[str, str], ...], float]]:
    """Parse Prometheus text exposition into ``{family: {labels: value}}``.

    ``labels`` is a sorted tuple of ``(name, value)`` pairs (empty tuple
    for unlabeled samples).  Comment/HELP/TYPE lines and malformed lines
    are skipped — the dashboard degrades, it never crashes on a scrape.
    """
    families: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        try:
            value = float(match.group("value"))
        except ValueError:
            continue
        labels = tuple(
            sorted(
                (name, _unescape_label(raw))
                for name, raw in _LABEL_RE.findall(match.group("labels") or "")
            )
        )
        families.setdefault(match.group("name"), {})[labels] = value
    return families


def _family_total(
    families: Mapping[str, Mapping[tuple, float]], name: str
) -> float | None:
    series = families.get(name)
    if not series:
        return None
    return sum(series.values())


@dataclass
class FleetFrame:
    """One dashboard poll — same shape from either source."""

    ts: float
    source: str  # human-readable origin ("run dir runs/x", "coordinator http://...")
    backend: str  # "filesystem" | "coordinator"
    name: str | None = None
    completed: int | None = None
    total: int | None = None
    complete: bool = False
    active_leases: int = 0
    stale_leases: int = 0
    #: worker -> cumulative completed-unit count (span count or
    #: coordinator_worker_records_total); rates come from frame deltas.
    worker_units: dict[str, int] = field(default_factory=dict)
    #: worker -> observed units/s from telemetry spans (run-dir source only).
    worker_rates: dict[str, float] = field(default_factory=dict)
    reclaimed: int = 0
    duplicates: int = 0
    journal_pending: int | None = None
    status: dict[str, Any] = field(default_factory=dict)

    def throughput(self, prev: "FleetFrame | None") -> float | None:
        """Fleet units/s from the delta against the previous frame."""
        if (
            prev is None
            or self.completed is None
            or prev.completed is None
            or self.ts <= prev.ts
        ):
            return None
        delta = self.completed - prev.completed
        if delta < 0:  # a restart reset the counter; skip this window
            return None
        return delta / (self.ts - prev.ts)

    def eta_seconds(self, prev: "FleetFrame | None") -> float | None:
        rate = self.throughput(prev)
        if rate is None or rate <= 0 or self.completed is None or self.total is None:
            return None
        return max(self.total - self.completed, 0) / rate


def _frame_from_status(payload: Mapping[str, Any], *, source: str) -> FleetFrame:
    def _int(key: str) -> int | None:
        value = payload.get(key)
        return value if isinstance(value, int) else None

    return FleetFrame(
        ts=time.time(),
        source=source,
        backend=str(payload.get("backend", "?")),
        name=payload.get("name") if isinstance(payload.get("name"), str) else None,
        completed=_int("completed_units"),
        total=_int("total_units"),
        complete=bool(payload.get("complete")),
        active_leases=len(payload.get("active_leases") or ()),
        stale_leases=len(payload.get("stale_leases") or ()),
        duplicates=_int("duplicate_records") or 0,
        status=dict(payload),
    )


def collect_run_dir_frame(run_dir: str | Path) -> FleetFrame:
    """One frame from a filesystem run directory (status + trace shards)."""
    from repro.observability.aggregate import summarize_run_dir
    from repro.runtime.checkpoint import CheckpointError
    from repro.runtime.distributed import inspect_run_dir

    run_dir = Path(run_dir)
    status = inspect_run_dir(run_dir)
    if status.kind is None and not status.shard_counts:
        # A typo'd path would otherwise render as an empty-but-plausible
        # dashboard forever; fail like `sweep status` does.
        raise CheckpointError(f"{run_dir} is not a run directory")
    frame = _frame_from_status(status.to_payload(), source=f"run dir {run_dir}")
    summary = summarize_run_dir(run_dir)
    for worker, stats in summary.workers.items():
        frame.worker_units[worker] = stats.units
        if stats.rate is not None:
            frame.worker_rates[worker] = stats.rate
    frame.reclaimed = summary.reclaimed
    return frame


def collect_coordinator_frame(url: str, *, retry_timeout: float = 5.0) -> FleetFrame:
    """One frame from a live coordinator (``GET /status`` + ``GET /metrics``)."""
    from repro.runtime.backends import HttpWorkBackend

    client = HttpWorkBackend(url, retry_timeout=retry_timeout)
    try:
        frame = _frame_from_status(client.status(), source=f"coordinator {url}")
        families = parse_prometheus_text(client.metrics_text())
    finally:
        client.close()
    for labels, value in families.get("coordinator_worker_records_total", {}).items():
        worker = dict(labels).get("worker")
        if worker:
            frame.worker_units[worker] = int(value)
    reclaimed = _family_total(families, "coordinator_claims_reclaimed_total")
    if reclaimed is not None:
        frame.reclaimed = int(reclaimed)
    duplicates = _family_total(families, "coordinator_duplicate_records_total")
    if duplicates is not None:
        frame.duplicates = int(duplicates)
    pending = _family_total(families, "coordinator_journal_pending_events")
    if pending is not None:
        frame.journal_pending = int(pending)
    return frame


def _fmt_rate(rate: float | None) -> str:
    if rate is None:
        return "-"
    if rate >= 100:
        return f"{rate:.0f}/s"
    return f"{rate:.2f}/s" if rate < 10 else f"{rate:.1f}/s"


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def render_frame(frame: FleetFrame, prev: FleetFrame | None = None) -> str:
    """Render one dashboard frame as plain text.

    ``prev`` (the previous poll) powers throughput/ETA and per-worker
    rate deltas; the first frame renders with those columns blank.
    """
    lines: list[str] = []
    title = frame.name or "sweep"
    lines.append(f"{title} — {frame.source} [{frame.backend}]")
    if frame.completed is not None and frame.total:
        pct = 100.0 * frame.completed / frame.total
        bar_width = 30
        filled = int(bar_width * min(frame.completed / frame.total, 1.0))
        bar = "#" * filled + "-" * (bar_width - filled)
        lines.append(
            f"  progress  [{bar}] {frame.completed}/{frame.total} ({pct:.1f}%)"
            + ("  COMPLETE" if frame.complete else "")
        )
    else:
        lines.append(f"  progress  {frame.completed if frame.completed is not None else '?'} units")
    throughput = frame.throughput(prev)
    lines.append(
        f"  throughput {_fmt_rate(throughput)}   eta {_fmt_eta(frame.eta_seconds(prev))}   "
        f"leases {frame.active_leases} active"
        + (f" / {frame.stale_leases} stale" if frame.stale_leases else "")
    )
    counters = f"  reclaims {frame.reclaimed}   duplicates {frame.duplicates}"
    if frame.journal_pending is not None:
        counters += f"   journal lag {frame.journal_pending} event(s)"
    lines.append(counters)
    if frame.worker_units:
        lines.append("  workers:")
        prev_units = prev.worker_units if prev is not None else {}
        window = (frame.ts - prev.ts) if prev is not None else 0.0
        for worker in sorted(frame.worker_units):
            units = frame.worker_units[worker]
            rate = frame.worker_rates.get(worker)
            if rate is None and prev is not None and window > 0 and worker in prev_units:
                delta = units - prev_units[worker]
                rate = delta / window if delta >= 0 else None
            lines.append(f"    {worker:<32} units {units:>6}   rate {_fmt_rate(rate)}")
    return "\n".join(lines)
