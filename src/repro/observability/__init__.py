"""Zero-dependency fleet telemetry: metrics, trace spans, aggregation.

The runtime records *what the fleet is doing* through three seams, none
of which touch RNG streams or result bytes (telemetry is provably inert;
``tests/test_observability.py`` pins bit-identity with telemetry on vs
off on every backend):

* :mod:`repro.observability.metrics` — a thread-safe registry of labeled
  counters, gauges, and fixed-bucket histograms with a Prometheus text
  exposition renderer.  Each coordinator serves its own registry at
  ``GET /metrics``; that is where fleet health lives.
* :mod:`repro.observability.trace` — per-unit trace spans
  (claim → execute → record → release) appended to per-worker
  ``telemetry-<worker>.jsonl`` shards in the run directory; that is
  where per-worker time lives.
* :mod:`repro.observability.aggregate` — torn-line-tolerant merge of the
  telemetry shards into a fleet summary (per-worker rates and span
  stage totals).

Per-layer time (compile, schedule, perturb, ...) is measured from
outside the package by the end-to-end tracer,
``python3 benchmarks/e2e/run.py --workload W --trace 1``; for a custom
spec, ``python -m cProfile -s tottime -m repro sweep run spec.json``
at ``--jobs 1``.

``repro sweep top`` (see ``repro.__main__``) is the live dashboard built
on these: it polls status + metrics on an interval and renders
throughput, ETA, per-worker rates, and reclaim/duplicate counts against
either a run directory or a live coordinator.
"""

from __future__ import annotations

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.trace import (
    TELEMETRY_GLOB,
    TelemetryWriter,
    telemetry_enabled,
    telemetry_shard_path,
)
from repro.observability.aggregate import (
    TelemetrySummary,
    iter_telemetry_records,
    summarize_run_dir,
    summarize_records,
)
from repro.observability.dashboard import (
    FleetFrame,
    collect_coordinator_frame,
    collect_run_dir_frame,
    parse_prometheus_text,
    render_frame,
)

__all__ = [
    "FleetFrame",
    "collect_coordinator_frame",
    "collect_run_dir_frame",
    "parse_prometheus_text",
    "render_frame",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TELEMETRY_GLOB",
    "TelemetryWriter",
    "telemetry_enabled",
    "telemetry_shard_path",
    "TelemetrySummary",
    "iter_telemetry_records",
    "summarize_run_dir",
    "summarize_records",
]
