"""End-to-end sweep benchmark: wall time of real paper sweeps, split by layer.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload fig4 --seed 0 --seconds 25 --trace 0

It repeats the workload's sweeps, each repetition in a fresh interpreter
(``rep.py``), until ``--seconds`` are used, checks every result digest
(against ``golden.json`` for seeds 0 and 1, otherwise across the
repetitions), prints every metric by name with its unit, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics
(``tracing.py``), writing the full breakdown to
``benchmarks/_reports/trace-<workload>.json``.  The metric catalogue
(names, units, directions, bounds) is ``BENCHMARK.json``.

While the coordinator workload's sweep runs, an open-loop reader in
this process sends the coordinator ``GET /status`` and ``GET /metrics``
alternately at 8 reads/s, each timed from its scheduled send time.
Local workloads run unread.

``--write-golden`` rewrites ``golden.json`` from ``run_sweep(spec,
jobs=1)`` for seeds 0 and 1 (the runtime promises bit-identical results
at any ``jobs`` and on any backend).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from rep import nearest_rank

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
CATALOGUE = ROOT / "BENCHMARK.json"
REPORTS = ROOT / "benchmarks" / "_reports"
WORK = HERE / "_work"

#: Dashboard reads per second while a sweep runs (open loop).
READ_HZ = 8.0
#: Set-up-only interpreters started before the repetitions of an
#: untraced run, so ``setup_s`` is a median of several samples.
SETUP_PROBES = 2
#: A repetition's processes are killed after this long (a normal one
#: takes under 15 s), so even a run whose every process hangs ends
#: within three minutes.
REP_TIMEOUT_S = 50.0
GOLDEN_SEEDS = (0, 1)
#: Coordinator endpoints whose request latency the trace reports.
ENDPOINTS = ("claim-batch", "record", "status", "metrics")


@dataclass
class Rep:
    """What one repetition measured."""

    traced: bool
    setup_s: float | None = None
    planned: int = 0
    wall_s: float | None = None
    units: int = 0
    digest: str | None = None
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    processes: list | None = None
    runtime: dict = field(default_factory=dict)
    coordinator: dict = field(default_factory=dict)
    elapsed_s: float = 0.0


class Reader:
    """Open-loop dashboard reader: one read every ``1/READ_HZ`` seconds,
    alternating ``GET /status`` and ``GET /metrics``, against the
    coordinator that is currently serving a sweep."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.late_ms_max = 0.0
        self.reads = 0
        self.errors = 0
        self._url: str | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def point_at(self, url: str) -> None:
        self._url = url
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(target=self._run, name="e2e-reader", daemon=True)
            self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def _run(self) -> None:
        from repro.runtime.backends import CoordinatorProtocolError, HttpWorkBackend

        client = HttpWorkBackend(self._url, retry_timeout=5.0)
        start = time.monotonic()
        k = 0
        while True:
            due = start + k / READ_HZ
            if self._stop.wait(max(due - time.monotonic(), 0.0)):
                break
            self.late_ms_max = max(self.late_ms_max, 1000.0 * (time.monotonic() - due))
            try:
                client.status() if k % 2 == 0 else client.metrics_text()
            except (OSError, ValueError, CoordinatorProtocolError) as exc:
                self.errors += 1
                print(f"dashboard read of {self._url} failed: {exc}", file=sys.stderr)
            else:
                self.latencies_ms.append(1000.0 * (time.monotonic() - due))
            self.reads += 1
            k += 1
        client.close()


# ---------------------------------------------------------------------- #
# Processes
# ---------------------------------------------------------------------- #
def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Children run the program's defaults: paper-reduced scale, telemetry
    # on, fork pool children (which inherit the trace wrappers).
    for name in ("REPRO_FULL", "REPRO_PROFILE", "REPRO_TELEMETRY", "REPRO_MP_START_METHOD",
                 "REPRO_TELEMETRY_DIR", "REPRO_RUNTIME_UNIT_DELAY"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["TMPDIR"] = str(WORK / str(os.getpid()))  # stay inside the checkout
    return env


class Child:
    """A started process that is killed if it outlives ``REP_TIMEOUT_S``."""

    def __init__(self, cmd: list[str], **kwargs) -> None:
        self.proc = subprocess.Popen(cmd, env=_child_env(), text=True, **kwargs)
        self._watchdog = threading.Timer(REP_TIMEOUT_S, self.proc.kill)
        self._watchdog.start()

    def reap(self):
        """Wait for exit; returns the process's resource usage (its own
        plus that of the children it reaped)."""
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            self._watchdog.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        return usage

    def stop(self):
        """Terminate and reap.  SIGTERM, not SIGINT: a shell starts
        background jobs with SIGINT ignored, and children inherit that.
        os.kill, not Popen.send_signal: the latter polls, and reaping
        there would lose the resource usage ``wait4`` reports."""
        os.kill(self.proc.pid, signal.SIGTERM)
        self._watchdog.cancel()
        self._watchdog = threading.Timer(5.0, self.proc.kill)
        self._watchdog.start()
        return self.reap()


def _rep_cmd(args, rep_dir: Path, t0: float, *extra: str) -> list[str]:
    return [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
        "--rep-dir", str(rep_dir), "--t0", repr(t0), *extra,
    ]


def _drive(child: Child, rep: Rep, reader: Reader | None) -> None:
    """Follow a rep child's protocol lines until it is done."""
    try:
        for line in child.proc.stdout:
            event = json.loads(line)
            kind = event.pop("event")
            if kind == "setup":
                rep.setup_s, rep.planned = event["setup_s"], event["units"]
            elif kind == "sweep" and reader is not None:
                reader.point_at(event["url"])
            elif kind == "done":
                rep.wall_s, rep.units, rep.digest = event["wall_s"], event["units"], event["digest"]
                rep.processes, rep.runtime = event["processes"], event["runtime"]
                break
    finally:
        if reader is not None:
            reader.stop()


def _account(rep: Rep, *usages) -> None:
    rep.cpu_s = sum(u.ru_utime + u.ru_stime for u in usages)
    rep.rss_mb = max(u.ru_maxrss for u in usages) / 1024.0  # Linux: KiB


def run_rep(args, index: int, reader: Reader | None, traced: bool = False,
            setup_only: bool = False) -> Rep:
    """One repetition (or set-up probe) in fresh processes.  ``reader``
    reads the coordinator while it serves; local sweeps run unread."""
    rep = Rep(traced=traced)
    rep_dir = WORK / str(os.getpid()) / str(index)
    rep_dir.mkdir(parents=True)
    extra = (["--trace"] if traced else []) + (["--setup-only"] if setup_only else [])
    started = time.monotonic()
    try:
        if args.workload == "fig7_coord":
            _coordinator_rep(args, rep, rep_dir, reader, extra)
        else:
            t0 = time.monotonic()
            child = Child(_rep_cmd(args, rep_dir, t0, *extra), stdout=subprocess.PIPE)
            try:
                _drive(child, rep, None)
            finally:
                _account(rep, child.reap())
    finally:
        rep.elapsed_s = time.monotonic() - started
        shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def _coordinator_rep(args, rep: Rep, rep_dir: Path, reader: Reader | None, extra) -> None:
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(workloads.specs(args.workload, args.seed, args.scale)[0].to_json())
    t0 = time.monotonic()
    coordinator = Child(
        [sys.executable, "-m", "repro", "sweep", "serve", str(rep_dir / "coordinator"),
         "--spec", str(spec_path)],
        stdout=subprocess.PIPE,
    )
    child = None
    try:
        child = Child(
            _rep_cmd(args, rep_dir, t0, "--coordinator", *extra),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        # No announcement (the coordinator died) sends an empty URL, and
        # the rep child fails instead of waiting.
        match = re.search(r" on (http://\S+) ", coordinator.proc.stdout.readline())
        if match is not None:
            child.proc.stdin.write(match.group(1) + "\n")
        child.proc.stdin.close()
        _drive(child, rep, reader)
        if rep.traced and rep.wall_s is not None:
            from repro.runtime.backends import HttpWorkBackend

            client = HttpWorkBackend(match.group(1), retry_timeout=5.0)
            rep.coordinator = coordinator_metrics(client.metrics_text())
            client.close()
    finally:
        usages = [child.reap()] if child is not None else []
        _account(rep, coordinator.stop(), *usages)


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def _bucket_bound(series: list[tuple[float, float]], q: float) -> float:
    """Upper bound of the histogram bucket holding the ``q`` quantile
    (the largest finite bound when it falls in ``+Inf``)."""
    if not series or series[-1][1] == 0:
        return 0.0
    target = q * series[-1][1]
    finite = [bound for bound, _ in series if bound != float("inf")]
    for bound, cumulative in series:
        if cumulative >= target:
            return bound if bound != float("inf") else finite[-1]
    return finite[-1]


def coordinator_metrics(text: str) -> dict[str, float]:
    """The coordinator layer, scraped from its ``GET /metrics``."""
    from repro.observability.dashboard import parse_prometheus_text

    families = parse_prometheus_text(text)

    def total(name: str) -> float:
        return sum(families.get(name, {}).values())

    batches = total("coordinator_journal_batch_size_count")
    out = {
        "coordinator.claims": total("coordinator_claims_granted_total"),
        "coordinator.records": total("coordinator_records_total"),
        "coordinator.duplicates": total("coordinator_duplicate_records_total"),
        "coordinator.reclaims": total("coordinator_claims_reclaimed_total"),
        "coordinator.journal_fsyncs": total("coordinator_journal_fsync_seconds_count"),
        "coordinator.journal_fsync_s": total("coordinator_journal_fsync_seconds_sum"),
        "coordinator.journal_batch_mean": (
            total("coordinator_journal_batch_size_sum") / batches if batches else 0.0
        ),
    }
    buckets = families.get("coordinator_request_seconds_bucket", {})
    for endpoint in ENDPOINTS:
        series = sorted(
            (float(labels["le"]), count)
            for labels, count in ((dict(key), value) for key, value in buckets.items())
            if labels.get("op") == f"/{endpoint}"
        )
        for q in (50, 99):
            out[f"coordinator.request_p{q}_ms.{endpoint}"] = 1000.0 * _bucket_bound(
                series, q / 100
            )
    return out


def untraced_metrics(reps: list[Rep], setups: list[float], reader: Reader) -> dict[str, float]:
    """The end-to-end metrics plus the dashboard read latencies."""
    done = [r for r in reps if r.wall_s is not None and not r.traced]
    return {
        "wall_s": statistics.median(r.wall_s for r in done),
        "units_per_s": statistics.median(r.planned / r.wall_s for r in done),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r.cpu_s for r in done),
        "peak_rss_mb": statistics.median(r.rss_mb for r in done),
        "status_p50_ms": nearest_rank(reader.latencies_ms, 0.50),
        "status_p90_ms": nearest_rank(reader.latencies_ms, 0.90),
    }


def traced_metrics(reps: list[Rep], reader: Reader) -> dict[str, float]:
    """The per-layer metrics of the median traced repetition."""
    import tracing
    from repro.core.scheduler import scheduler_registry

    traced = sorted((r for r in reps if r.traced and r.wall_s is not None), key=lambda r: r.wall_s)
    untraced = [r.wall_s for r in reps if not r.traced and r.wall_s is not None]
    chosen = traced[(len(traced) - 1) // 2]  # the median traced repetition
    out = tracing.layer_metrics(chosen.processes, sorted(scheduler_registry()))
    out.update(chosen.runtime)
    out.update(chosen.coordinator or coordinator_metrics(""))  # zeros without a coordinator
    out.update(
        {
            "trace.wall_s": chosen.wall_s,
            "trace.overhead": chosen.wall_s / statistics.median(untraced),
            "reader.late_ms_max": reader.late_ms_max,
            "reader.errors": reader.errors,
        }
    )
    return out


# ---------------------------------------------------------------------- #
# Measuring one run
# ---------------------------------------------------------------------- #
def write_golden() -> int:
    golden = {
        workload: {str(seed): workloads.reference_digest(workload, seed) for seed in GOLDEN_SEEDS}
        for workload in workloads.WORKLOADS
    }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def measure(args) -> int:
    catalogue = json.loads(CATALOGUE.read_text())
    section = catalogue["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in catalogue["end_to_end"] + catalogue["per_layer"]}

    reader = Reader()
    setups: list[float] = []
    reps: list[Rep] = []
    start = time.monotonic()
    if not args.trace:
        for i in range(SETUP_PROBES):
            probe = run_rep(args, i, None, setup_only=True)
            if probe.setup_s is not None:
                setups.append(probe.setup_s)
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(args, SETUP_PROBES + len(reps), reader, traced=traced))
        longest = max(r.elapsed_s for r in reps)
        enough = not args.trace or len(reps) >= 2
        if enough and time.monotonic() - start + longest > args.seconds:
            break
    setups += [r.setup_s for r in reps if r.setup_s is not None and not r.traced]

    golden = json.loads(GOLDEN.read_text()) if args.scale == "default" else {}
    expected = golden.get(args.workload, {}).get(str(args.seed))
    reference = expected or next((r.digest for r in reps if r.digest), None)
    # A repetition that died before planning still counts one failed unit.
    attempted = sum(r.planned or 1 for r in reps) + reader.reads
    failed = reader.errors
    for i, rep in enumerate(reps):
        ok = rep.wall_s is not None and rep.digest == reference and rep.units == rep.planned
        failed += (rep.planned or 1) if not ok else 0
        print(
            f"rep {i} {'traced' if rep.traced else 'untraced'}: wall {rep.wall_s} s, "
            f"units {rep.units}/{rep.planned}, digest {rep.digest} "
            f"({'ok' if ok else 'MISMATCH' if rep.digest else 'FAILED'})"
        )
    print(f"reference digest {reference} ({'golden' if expected else 'first repetition'})")
    print(f"dashboard reads: {reader.reads} ({reader.errors} failed), "
          f"{len(reader.latencies_ms)} latency samples; set-up samples: {len(setups)}")

    # Both forms of the failure share: the end-to-end one must never be 0.
    metrics = {"failed_frac": failed / attempted, "completed_frac": 1.0 - failed / attempted}
    if any(not r.traced and r.wall_s for r in reps):
        metrics.update(untraced_metrics(reps, setups, reader))
    if args.trace and any(r.traced and r.wall_s for r in reps) and "wall_s" in metrics:
        metrics.update(traced_metrics(reps, reader))
        REPORTS.mkdir(parents=True, exist_ok=True)
        report = REPORTS / f"trace-{args.workload}.json"
        report.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "scale": args.scale,
                    "metrics": {k: metrics[k] for k in sorted(metrics)},
                    "processes": [r.processes for r in reps if r.traced],
                },
                indent=2,
            )
            + "\n"
        )
        print(f"trace breakdown written to {report}")
    for name in sorted(metrics):
        print(f"  {name:<45} {metrics[name]:>16.6f} {units.get(name, '?')}")

    wanted = [m["name"] for m in section]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
    correct = failed == 0 and not missing
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in wanted
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="fig4")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="default",
                        help="smoke shrinks every sweep to about a second")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        return write_golden()
    try:
        return measure(args)
    finally:
        shutil.rmtree(WORK / str(os.getpid()), ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())
