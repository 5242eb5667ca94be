"""Tests for the telemetry layer (observability/ + its runtime seams).

What makes telemetry trustworthy enough to leave on by default:

* **exact under concurrency** — the metrics registry is written from
  executor threads, heartbeat daemons, and the asyncio loop; counters
  and histograms must not lose increments under contention;
* **standard on the wire** — ``GET /metrics`` speaks the Prometheus
  text exposition format 0.0.4 (escaping, cumulative ``le`` buckets,
  ``+Inf``), so any scraper ingests it — pinned by rendering through
  the registry and re-parsing with the dashboard's parser;
* **torn-tolerant** — telemetry shards follow the same
  one-writer-per-file rule as result shards, and the aggregator skips a
  SIGKILLed worker's torn tail instead of failing the summary;
* **inert** — the acceptance property: a fig4-preset sweep produces
  bit-identical results with telemetry on and off, on every backend;
* **restart-consistent** — a restarted (or takeover) coordinator's
  ``/metrics`` is seeded from recovered state, never a stale carry-over.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.__main__ import main
from repro.observability.aggregate import (
    iter_telemetry_records,
    merge_phase_tables,
    summarize_records,
    summarize_run_dir,
    telemetry_shard_paths,
)
from repro.observability.dashboard import (
    FleetFrame,
    collect_coordinator_frame,
    collect_run_dir_frame,
    parse_prometheus_text,
    render_frame,
)
from repro.observability.metrics import MetricsRegistry, global_registry
from repro.observability.trace import (
    FLUSH_EVERY,
    TELEMETRY_SCHEMA_VERSION,
    TelemetryWriter,
    telemetry_enabled,
    telemetry_shard_path,
)
from repro.pisa import AnnealingConfig, PISAConfig
from repro.runtime import RunCheckpoint
from repro.runtime.backends import HttpWorkBackend
from repro.runtime.coordinator import running_coordinator
from repro.runtime.distributed import drain_units
from repro.runtime.units import WorkUnit
from repro.sweeps import fig4_spec, plan_sweep, run_sweep

TINY = PISAConfig(annealing=AnnealingConfig(max_iterations=10, alpha=0.8), restarts=2)
SCHEDULERS = ["HEFT", "CPoP"]  # 2 ordered pairs x 2 restarts = 4 units


def tiny_fig4_spec(seed: int = 0):
    return fig4_spec(schedulers=SCHEDULERS, config=TINY, seed=seed)


def _ratios(result):
    return {pair: res.restart_ratios for pair, res in result.pairwise.results.items()}


def _square_payload(unit):
    return int(unit.payload) ** 2


def _init_minimal_run_dir(run_dir, units: int) -> None:
    RunCheckpoint(run_dir).initialize(
        {"kind": "sweep", "spec": {"name": "t"}, "units": units}, resume=True
    )


@pytest.fixture(scope="module")
def serial_reference():
    """The telemetry-independent ground truth: one plain serial sweep."""
    return run_sweep(tiny_fig4_spec(), jobs=1)


# ---------------------------------------------------------------------- #
# Metrics registry
# ---------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

        gauge = registry.gauge("g", "help")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4.0

        histogram = registry.histogram("h_seconds", "help", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count() == 3
        assert histogram.total() == pytest.approx(5.55)

    def test_get_or_create_is_idempotent_but_schema_conflicts_fail(self):
        registry = MetricsRegistry()
        first = registry.counter("records_total", "h", labelnames=("worker",))
        assert registry.counter("records_total", "h", labelnames=("worker",)) is first
        with pytest.raises(ValueError, match="different schema"):
            registry.counter("records_total", "h", labelnames=("unit",))
        with pytest.raises(ValueError, match="different schema"):
            registry.gauge("records_total", "h", labelnames=("worker",))

    def test_labeled_instruments_require_label_resolution(self):
        registry = MetricsRegistry()
        counter = registry.counter("by_worker_total", "h", labelnames=("worker",))
        with pytest.raises(ValueError, match="labeled"):
            counter.inc()
        with pytest.raises(ValueError, match="expects labels"):
            counter.labels("a", "b")
        counter.labels("w1").inc(2)
        counter.labels(worker="w1").inc()
        assert counter.value("w1") == 3.0

    def test_invalid_metric_and_label_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("has space")
        with pytest.raises(ValueError, match="digit"):
            registry.counter("9lives")
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("ok_total", "h", labelnames=("bad-label",))

    def test_thread_safety_under_concurrent_writers(self):
        """No lost increments: N threads hammer one labeled counter and
        one histogram; the final totals must be exact, not approximate."""
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "h", labelnames=("worker",))
        histogram = registry.histogram("lat_seconds", "h", buckets=(0.5,))
        threads, per_thread = 8, 2000

        def hammer(worker: str) -> None:
            # Resolve through .labels() every time on purpose: the
            # memoized child lookup is part of the contended surface.
            for i in range(per_thread):
                counter.labels(worker).inc()
                histogram.observe(0.25 if i % 2 else 0.75)

        pool = [
            threading.Thread(target=hammer, args=(f"w{i % 2}",)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.value("w0") == (threads // 2) * per_thread
        assert counter.value("w1") == (threads // 2) * per_thread
        assert histogram.count() == threads * per_thread
        assert histogram.total() == pytest.approx(threads * per_thread * 0.5)

    def test_global_registry_is_one_shared_instance(self):
        assert global_registry() is global_registry()


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #
class TestPrometheusExposition:
    def test_help_type_and_sorted_families(self):
        registry = MetricsRegistry()
        registry.gauge("b_gauge", "second").set(1)
        registry.counter("a_total", "first").inc()
        text = registry.render_prometheus()
        assert text.endswith("\n")
        assert "# HELP a_total first" in text
        assert "# TYPE a_total counter" in text
        assert "# TYPE b_gauge gauge" in text
        # Families render sorted by name for a stable, diffable scrape.
        assert text.index("a_total") < text.index("b_gauge")
        assert "a_total 1" in text  # integral values render without ".0"

    def test_label_escaping_round_trips_through_the_parser(self):
        registry = MetricsRegistry()
        hostile = 'sl\\ash "quoted"\nnewline'
        registry.counter("esc_total", "h", labelnames=("worker",)).labels(hostile).inc()
        text = registry.render_prometheus()
        assert '\\\\' in text and '\\"' in text and "\\n" in text
        families = parse_prometheus_text(text)
        assert families["esc_total"] == {(("worker", hostile),): 1.0}

    def test_help_text_newlines_escaped(self):
        registry = MetricsRegistry()
        registry.counter("multi_total", "line one\nline two").inc()
        text = registry.render_prometheus()
        assert "# HELP multi_total line one\\nline two" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", "h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        families = parse_prometheus_text(registry.render_prometheus())
        buckets = {dict(labels)["le"]: v for labels, v in families["lat_seconds_bucket"].items()}
        assert buckets == {"0.1": 1.0, "1": 2.0, "+Inf": 3.0}
        assert families["lat_seconds_count"][()] == 3.0
        assert families["lat_seconds_sum"][()] == pytest.approx(5.55)

    def test_record_phases_bridges_the_profile_accumulators(self):
        registry = MetricsRegistry()
        registry.record_phases({"compile": {"seconds": 1.5, "calls": 3}})
        registry.record_phases({"compile": {"seconds": 0.5, "calls": 1}})
        families = parse_prometheus_text(registry.render_prometheus())
        assert families["repro_phase_seconds_total"][(("phase", "compile"),)] == 2.0
        assert families["repro_phase_calls_total"][(("phase", "compile"),)] == 4.0


# ---------------------------------------------------------------------- #
# Trace shards: write, tear, merge
# ---------------------------------------------------------------------- #
class TestTraceShards:
    def test_span_phases_event_records_round_trip(self, tmp_path):
        writer = TelemetryWriter(tmp_path, "w1")
        writer.event("drain_start", backend="local")
        writer.span("u1", claim_s=0.1, execute_s=0.2, record_s=0.3, release_s=0.4)
        writer.close()
        records = list(iter_telemetry_records(tmp_path))
        assert [r["kind"] for r in records] == ["event", "span"]
        assert all(r["v"] == TELEMETRY_SCHEMA_VERSION for r in records)
        span = records[1]
        assert span["unit"] == "u1" and span["worker"] == "w1"
        assert span["execute_s"] == pytest.approx(0.2)
        assert span["reclaimed"] is False and span["batched"] is False

    def test_open_returns_none_when_disabled_or_homeless(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert not telemetry_enabled()
        assert TelemetryWriter.open(tmp_path, "w1") is None
        monkeypatch.delenv("REPRO_TELEMETRY")
        assert telemetry_enabled()
        assert TelemetryWriter.open(None, "w1") is None
        assert TelemetryWriter.open(tmp_path, "w1") is not None

    def test_buffering_flushes_every_n_records_and_on_close(self, tmp_path):
        writer = TelemetryWriter(tmp_path, "w1")
        for i in range(FLUSH_EVERY - 1):
            writer.span(f"u{i}", claim_s=0, execute_s=0, record_s=0, release_s=0)
        assert not writer.path.exists()  # still buffered
        writer.span("last", claim_s=0, execute_s=0, record_s=0, release_s=0)
        assert len(writer.path.read_text().splitlines()) == FLUSH_EVERY
        writer.span("post", claim_s=0, execute_s=0, record_s=0, release_s=0)
        writer.close()
        assert len(writer.path.read_text().splitlines()) == FLUSH_EVERY + 1
        # Closed writers drop further records instead of raising.
        writer.span("late", claim_s=0, execute_s=0, record_s=0, release_s=0)
        writer.flush()
        assert len(writer.path.read_text().splitlines()) == FLUSH_EVERY + 1

    def test_worker_id_is_mangled_into_a_safe_filename(self, tmp_path):
        path = telemetry_shard_path(tmp_path, "host/worker:1")
        assert path.parent == tmp_path
        assert "/" not in path.name[len("telemetry-") :].replace(".jsonl", "")

    def test_merge_tolerates_torn_tails_and_junk_lines(self, tmp_path):
        with TelemetryWriter(tmp_path, "alpha") as writer:
            for i in range(3):
                writer.span(
                    f"a{i}", claim_s=0.1, execute_s=1.0, record_s=0.0, release_s=0.0,
                    reclaimed=(i == 0), batched=True,
                )
        with TelemetryWriter(tmp_path, "beta") as writer:
            writer.span("b0", claim_s=0.0, execute_s=2.0, record_s=0.0, release_s=0.0)
        # A SIGKILL tears the tail mid-line; earlier damage can leave
        # non-object lines and kind-less records. None of it is fatal.
        shard = telemetry_shard_path(tmp_path, "beta")
        with shard.open("a") as fh:
            fh.write("[1, 2, 3]\n")
            fh.write('{"no_kind": true}\n')
            fh.write('{"kind": "span", "unit": "torn", "worker": "beta", "exe')
        summary = summarize_run_dir(tmp_path)
        assert set(summary.workers) == {"alpha", "beta"}
        assert summary.units == 4 and summary.spans == 4
        assert summary.reclaimed == 1
        assert summary.workers["alpha"].batched == 3
        assert summary.workers["alpha"].stage_seconds["execute_s"] == pytest.approx(3.0)
        assert summary.to_payload()["workers"]["beta"]["units"] == 1

    def test_phase_tables_merge_across_shards_and_memory(self, tmp_path):
        with TelemetryWriter(tmp_path, "w1") as writer:
            writer.phases({"compile": {"seconds": 1.0, "calls": 2}})
        with TelemetryWriter(tmp_path, "w2") as writer:
            writer.phases({"compile": {"seconds": 0.5, "calls": 1}, "anneal": {"seconds": 3.0, "calls": 4}})
        merged = merge_phase_tables(
            [summarize_run_dir(tmp_path).phases, {"anneal": {"seconds": 1.0, "calls": 1}}]
        )
        assert merged == {
            "anneal": {"seconds": 4.0, "calls": 5},
            "compile": {"seconds": 1.5, "calls": 3},
        }
        # Garbage stats are skipped per-entry, not fatal.
        assert merge_phase_tables([{"x": {"seconds": "nan?", "calls": None}}]) == {
            "x": {"seconds": 0.0, "calls": 0}
        }

    def test_rate_needs_two_spans_and_a_positive_window(self):
        records = [
            {"kind": "span", "worker": "w", "ts": 100.0, "claim_s": 0, "execute_s": 0,
             "record_s": 0, "release_s": 0},
        ]
        assert summarize_records(records).workers["w"].rate is None
        records.append(dict(records[0], ts=104.0))
        records.append(dict(records[0], ts=102.0))  # out of order is fine
        stats = summarize_records(records).workers["w"]
        # 3 spans over a 4s window: the first span opens the window.
        assert stats.rate == pytest.approx(2 / 4.0)

    def test_shard_paths_sorted_for_deterministic_merge(self, tmp_path):
        for name in ("zeta", "alpha"):
            with TelemetryWriter(tmp_path, name) as writer:
                writer.event("drain_start")
        paths = telemetry_shard_paths(tmp_path)
        assert paths == sorted(paths)
        assert len(paths) == 2


# ---------------------------------------------------------------------- #
# Inertness: bit-identical results with telemetry on and off
# ---------------------------------------------------------------------- #
class TestTelemetryInert:
    """The acceptance property: flipping REPRO_TELEMETRY never changes a
    result byte, on any backend — telemetry observes work, never feeds it."""

    def _assert_identical(self, result, reference):
        assert _ratios(result) == _ratios(reference)
        for pair, res in reference.pairwise.results.items():
            best = result.pairwise.results[pair].best_instance
            assert best.task_graph == res.best_instance.task_graph
            assert best.network == res.best_instance.network

    def test_local_serial_and_pool(self, tmp_path, monkeypatch, serial_reference):
        spec = tiny_fig4_spec()
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        for jobs in (1, 2):
            on_dir = tmp_path / f"on-{jobs}"
            monkeypatch.setenv("REPRO_TELEMETRY", "1")
            self._assert_identical(
                run_sweep(spec, run_dir=on_dir, jobs=jobs), serial_reference
            )
            assert telemetry_shard_paths(on_dir), "telemetry on must leave shards"
            assert summarize_run_dir(on_dir).units == 4

            off_dir = tmp_path / f"off-{jobs}"
            monkeypatch.setenv("REPRO_TELEMETRY", "0")
            self._assert_identical(
                run_sweep(spec, run_dir=off_dir, jobs=jobs), serial_reference
            )
            assert not telemetry_shard_paths(off_dir), "telemetry off must be silent"

    def test_distributed_backend(self, tmp_path, monkeypatch, serial_reference):
        """Several worker processes (``jobs=2``) draining one coordinator in
        batches: every process's shard appears only with telemetry on."""
        spec = tiny_fig4_spec()
        for toggle, expect_shards in (("1", True), ("0", False)):
            run_dir = tmp_path / f"dist-{toggle}"
            shard_dir = tmp_path / f"dist-shards-{toggle}"
            shard_dir.mkdir()
            plan = plan_sweep(spec)
            RunCheckpoint(run_dir).initialize(plan.manifest(), resume=True)
            monkeypatch.setenv("REPRO_TELEMETRY", toggle)
            monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(shard_dir))
            with running_coordinator(
                run_dir, unit_keys=[u.key for u in plan.units]
            ) as server:
                result = run_sweep(
                    spec,
                    backend="coordinator",
                    coordinator=server.url,
                    jobs=2,
                    claim_batch=2,
                    poll_interval=0.05,
                )
            self._assert_identical(result, serial_reference)
            assert bool(telemetry_shard_paths(shard_dir)) is expect_shards

    def test_coordinator_backend(self, tmp_path, monkeypatch, serial_reference):
        spec = tiny_fig4_spec()
        for toggle, expect_shards in (("1", True), ("0", False)):
            run_dir = tmp_path / f"coord-{toggle}"
            shard_dir = tmp_path / f"shards-{toggle}"
            shard_dir.mkdir()
            plan = plan_sweep(spec)
            RunCheckpoint(run_dir).initialize(plan.manifest(), resume=True)
            monkeypatch.setenv("REPRO_TELEMETRY", toggle)
            # Coordinator workers have no run dir of their own; the env
            # fallback names where their shards land.
            monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(shard_dir))
            with running_coordinator(
                run_dir, unit_keys=[u.key for u in plan.units]
            ) as server:
                result = run_sweep(
                    spec,
                    backend="coordinator",
                    coordinator=server.url,
                    poll_interval=0.05,
                )
            self._assert_identical(result, serial_reference)
            assert bool(telemetry_shard_paths(shard_dir)) is expect_shards


# ---------------------------------------------------------------------- #
# Coordinator /metrics: live, restarted, taken over
# ---------------------------------------------------------------------- #
class TestCoordinatorMetrics:
    def test_metrics_endpoint_speaks_prometheus_0_0_4(self, tmp_path):
        run_dir = tmp_path / "run"
        _init_minimal_run_dir(run_dir, 2)
        with running_coordinator(run_dir, unit_keys=["u0", "u1"]) as server:
            backend = HttpWorkBackend(server.url, retry_timeout=10)
            try:
                batch = backend.claim_batch(["u0"], "w1")
                backend.record_batch(batch, {"u0": {"x": 1}})
                backend.release_batch(batch)  # all recorded: sends nothing
            finally:
                backend.close()
            with urllib.request.urlopen(f"{server.url}/metrics") as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                families = parse_prometheus_text(response.read().decode())
        assert families["coordinator_records_total"][()] == 1.0
        assert families["coordinator_claims_granted_total"][()] == 1.0
        assert families["coordinator_completed_units"][()] == 1.0
        assert families["coordinator_total_units"][()] == 2.0
        assert families["coordinator_worker_records_total"][(("worker", "w1"),)] == 1.0
        # The request-latency histogram saw every HTTP round trip above,
        # labeled per endpoint.
        latency = families["coordinator_request_seconds_count"]
        assert latency[(("op", "/claim-batch"),)] == 1.0
        assert latency[(("op", "/record-batch"),)] == 1.0
        assert (("op", "/release-batch"),) not in latency

    def test_metrics_survive_restart_and_takeover(self, tmp_path):
        """A fresh coordinator over the same run dir — what both a
        restart and a standby promotion construct — must serve /metrics
        seeded from recovered state, not zeros and not stale carry-over."""
        run_dir = tmp_path / "run"
        _init_minimal_run_dir(run_dir, 3)
        unit_keys = ["u0", "u1", "u2"]
        with running_coordinator(run_dir, unit_keys=unit_keys) as server:
            backend = HttpWorkBackend(server.url, retry_timeout=10)
            try:
                for key in ("u0", "u1"):
                    batch = backend.claim_batch([key], "early-bird")
                    backend.record_batch(batch, {key: {"k": key}})
                before = parse_prometheus_text(backend.metrics_text())
            finally:
                backend.close()
        assert before["coordinator_records_total"][()] == 2.0

        with running_coordinator(run_dir, unit_keys=unit_keys) as server:
            backend = HttpWorkBackend(server.url, retry_timeout=10)
            try:
                families = parse_prometheus_text(backend.metrics_text())
                # Seeded from recovery: cumulative records match completions.
                assert families["coordinator_records_total"][()] == 2.0
                assert families["coordinator_completed_units"][()] == 2.0
                assert families["coordinator_recoveries_total"][()] == 1.0
                # Per-worker attribution is live-traffic only; recovery
                # cannot map shard files back to worker ids.
                assert "coordinator_worker_records_total" not in families

                batch = backend.claim_batch(["u2"], "finisher")
                backend.record_batch(batch, {"u2": {"k": "u2"}})
                families = parse_prometheus_text(backend.metrics_text())
            finally:
                backend.close()
        assert families["coordinator_records_total"][()] == 3.0
        assert families["coordinator_completed_units"][()] == 3.0
        assert families["coordinator_worker_records_total"] == {
            (("worker", "finisher"),): 1.0
        }

    def test_duplicate_records_counted(self, tmp_path):
        run_dir = tmp_path / "run"
        _init_minimal_run_dir(run_dir, 1)
        with running_coordinator(run_dir, unit_keys=["u0"], ttl=0.1) as server:
            backend = HttpWorkBackend(server.url, retry_timeout=10)
            try:
                first = backend.claim_batch(["u0"], "w1")
                time.sleep(0.3)  # let w1's lease expire so w2 reclaims it
                second = backend.claim_batch(["u0"], "w2")
                assert second is not None
                backend.record_batch(second, {"u0": {"winner": "w2"}})
                backend.record_batch(first, {"u0": {"winner": "w1"}})  # dropped, first wins
                families = parse_prometheus_text(backend.metrics_text())
            finally:
                backend.close()
        assert families["coordinator_duplicate_records_total"][()] == 1.0
        assert families["coordinator_claims_reclaimed_total"][()] == 1.0


# ---------------------------------------------------------------------- #
# Dashboard: parse, diff, render, CLI
# ---------------------------------------------------------------------- #
class TestDashboard:
    def test_parse_skips_comments_and_malformed_lines(self):
        text = "\n".join(
            [
                "# HELP x_total help",
                "# TYPE x_total counter",
                'x_total{worker="w1"} 3',
                "x_total 1.5",
                "not a sample line !!!",
                "y_total not-a-number",
                "",
            ]
        )
        families = parse_prometheus_text(text)
        assert families == {"x_total": {(("worker", "w1"),): 3.0, (): 1.5}}

    def test_throughput_and_eta_from_frame_deltas(self):
        prev = FleetFrame(ts=100.0, source="s", backend="b", completed=10, total=40)
        frame = FleetFrame(ts=110.0, source="s", backend="b", completed=30, total=40)
        assert frame.throughput(prev) == pytest.approx(2.0)
        assert frame.eta_seconds(prev) == pytest.approx(5.0)
        assert frame.throughput(None) is None
        # A counter reset (coordinator restart) skips the window instead
        # of reporting a negative rate.
        reset = FleetFrame(ts=120.0, source="s", backend="b", completed=5, total=40)
        assert reset.throughput(frame) is None
        # A zero-width window cannot produce a rate either.
        assert frame.throughput(FleetFrame(ts=110.0, source="s", backend="b", completed=1)) is None

    def test_collect_and_render_run_dir_frame(self, tmp_path):
        run_dir = tmp_path / "run"
        _init_minimal_run_dir(run_dir, 4)
        checkpoint = RunCheckpoint(run_dir)
        checkpoint.record("u0", {"x": 0})
        checkpoint.record("u1", {"x": 1})
        with TelemetryWriter(run_dir, "w1") as writer:
            writer.span("u0", claim_s=0, execute_s=0.5, record_s=0, release_s=0)
            writer.span("u1", claim_s=0, execute_s=0.5, record_s=0, release_s=0,
                        reclaimed=True)
        frame = collect_run_dir_frame(run_dir)
        assert frame.backend != "coordinator"
        assert frame.completed == 2 and frame.total == 4 and not frame.complete
        assert frame.worker_units == {"w1": 2}
        assert frame.reclaimed == 1
        assert frame.status["schema_version"] == 1
        text = render_frame(frame)
        assert "[###############---------------] 2/4 (50.0%)" in text
        assert "reclaims 1" in text
        assert "w1" in text and "units      2" in text
        # Second frame with a previous one: per-worker delta rates appear.
        later = collect_run_dir_frame(run_dir)
        later.ts = frame.ts + 10.0
        later.worker_units["w1"] = 4
        later.worker_rates.clear()
        assert "rate 0.20/s" in render_frame(later, frame)

    def test_collect_coordinator_frame(self, tmp_path):
        run_dir = tmp_path / "run"
        _init_minimal_run_dir(run_dir, 2)
        with running_coordinator(run_dir, unit_keys=["u0", "u1"]) as server:
            backend = HttpWorkBackend(server.url, retry_timeout=10)
            try:
                batch = backend.claim_batch(["u0"], "w1")
                backend.record_batch(batch, {"u0": {"x": 1}})
            finally:
                backend.close()
            frame = collect_coordinator_frame(server.url)
        assert frame.backend == "coordinator"
        assert frame.completed == 1 and frame.total == 2
        assert frame.worker_units == {"w1": 1}
        assert frame.journal_pending is not None
        assert frame.status["schema_version"] == 1

    def test_sweep_top_cli_against_run_dir_and_coordinator(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        _init_minimal_run_dir(run_dir, 1)
        RunCheckpoint(run_dir).record("u0", {"x": 1})
        assert main(["sweep", "top", str(run_dir), "--frames", "1"]) == 0
        out = capsys.readouterr().out
        assert "progress" in out and "1/1" in out and "COMPLETE" in out

        with running_coordinator(run_dir, unit_keys=["u0"]) as server:
            assert main(["sweep", "top", "--coordinator", server.url]) == 0
        out = capsys.readouterr().out
        assert "coordinator" in out and "COMPLETE" in out

    def test_sweep_top_cli_validations(self, tmp_path, capsys):
        assert main(["sweep", "top"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["sweep", "top", str(tmp_path), "--interval", "0"]) == 2
        assert "--interval" in capsys.readouterr().err
        assert main(["sweep", "top", str(tmp_path), "--frames", "0"]) == 2
        assert "--frames" in capsys.readouterr().err
        assert main(["sweep", "top", str(tmp_path / "nope"), "--frames", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_status_watch_stops_on_complete(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        _init_minimal_run_dir(run_dir, 1)
        RunCheckpoint(run_dir).record("u0", {"x": 1})
        assert main(["sweep", "status", str(run_dir), "--watch", "0.01", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is True
        assert payload["schema_version"] == 1
        assert main(["sweep", "status", str(run_dir), "--watch", "0"]) == 2
        assert "--watch" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# --profile at any --jobs: shards from pool children merge into one table
# ---------------------------------------------------------------------- #
class TestProfileLift:
    def test_profile_merges_pool_children(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(tiny_fig4_spec().to_json())
        run_dir = tmp_path / "run"
        assert (
            main(
                [
                    "sweep", "run", str(spec_path),
                    "--run-dir", str(run_dir),
                    "--jobs", "2",
                    "--profile",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "profile (per-phase wall time inside work units):" in err
        assert "total" in err
        # The request is not left armed in the parent's environment.
        import os

        assert "REPRO_PROFILE" not in os.environ
        assert "REPRO_TELEMETRY_DIR" not in os.environ

    def test_drain_units_serializes_phase_snapshots(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        run_dir = tmp_path / "run"
        _init_minimal_run_dir(run_dir, 2)
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(2)]
        with running_coordinator(run_dir, unit_keys=[u.key for u in units]) as server:
            backend = HttpWorkBackend(server.url, retry_timeout=10)
            drain_units(
                units,
                _square_payload,
                backend=backend,
                worker_id="w1",
                wait=False,
                telemetry_dir=run_dir,
            )
            backend.close()
        summary = summarize_run_dir(run_dir)
        assert summary.units == 2
        # A phases record landed (possibly empty if no instrumented phase
        # ran inside the trivial worker) — the span records are the pinned
        # part; phase content is covered by the CLI merge test above.
        kinds = {r["kind"] for r in iter_telemetry_records(run_dir)}
        assert "span" in kinds
