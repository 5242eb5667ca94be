"""One measured repetition of a workload, in a fresh interpreter.

Started by ``run.py``, never by hand.  The timeline it reports:

1. set-up: interpreter start (``--t0`` is ``run.py``'s monotonic clock
   at spawn) -> ``import repro`` -> specs -> ``plan_sweep``; on the
   coordinator workload also until the coordinator answers ``/status``
   (its URL arrives on stdin);
2. the sweeps: each ``run_sweep`` call until its ``SweepResult`` is back;
3. the digest of every result, the runtime's telemetry shards folded, and
   with ``--trace`` each process's layer self times.

Protocol lines (one JSON object each) go to the original stdout; the
program's own output is redirected to stderr so it cannot interleave.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path


def _emit(proto, **event) -> None:
    proto.write(json.dumps(event) + "\n")
    proto.flush()


def nearest_rank(values: list[float], q: float) -> float:
    """The ``q`` quantile by the nearest-rank rule (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _tree_bytes(root: Path, telemetry: bool) -> int:
    """Bytes under ``root`` in telemetry shards (or in everything else)."""
    total = 0
    for path in root.rglob("*"):
        if path.is_file() and path.name.startswith("telemetry-") == telemetry:
            total += path.stat().st_size
    return total


def runtime_metrics(span_dirs: list[Path], data_dirs: list[Path]) -> dict[str, float]:
    """The runtime layer as its own telemetry shards describe it."""
    from repro.observability.aggregate import (
        SPAN_STAGES,
        iter_telemetry_records,
        summarize_run_dir,
    )

    stages = dict.fromkeys(SPAN_STAGES, 0.0)
    reclaimed = 0
    for directory in span_dirs:
        summary = summarize_run_dir(directory)
        for worker in summary.workers.values():
            for stage in SPAN_STAGES:
                stages[stage] += worker.stage_seconds[stage]
        reclaimed += summary.reclaimed
    executes = [
        float(record.get("execute_s", 0.0))
        for directory in span_dirs
        for record in iter_telemetry_records(directory)
        if record.get("kind") == "span"
    ]
    busy = sum(stages.values())
    out = {f"runtime.{stage}": seconds for stage, seconds in stages.items()}
    out.update(
        {
            "runtime.execute_p50_ms": 1000.0 * nearest_rank(executes, 0.50),
            "runtime.execute_p99_ms": 1000.0 * nearest_rank(executes, 0.99),
            "runtime.overhead_frac": (busy - stages["execute_s"]) / busy if busy else 0.0,
            "runtime.reclaimed": reclaimed,
            "checkpoint.shard_bytes": sum(_tree_bytes(d, False) for d in data_dirs),
            "telemetry.shard_bytes": sum(_tree_bytes(d, True) for d in span_dirs),
        }
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="default")
    parser.add_argument("--rep-dir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--coordinator", action="store_true", help="read the URL from stdin")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    import workloads
    from repro.sweeps import run_sweep
    from repro.sweeps.runner import plan_sweep

    specs = workloads.specs(args.workload, args.seed, args.scale)
    planned = sum(len(plan_sweep(spec).units) for spec in specs)
    url = None
    if args.coordinator:
        from repro.runtime.backends import HttpWorkBackend

        url = sys.stdin.readline().strip()
        HttpWorkBackend(url, retry_timeout=60.0).status()
    _emit(proto, event="setup", setup_s=time.monotonic() - args.t0, units=planned)
    if args.setup_only:
        return 0

    tracer = None
    dump_dir = args.rep_dir / "trace"
    if args.trace:
        import tracing

        dump_dir.mkdir(parents=True)
        tracer = tracing.Tracer()
        tracing.install(tracer, dump_dir)
        tracer.reset()

    jobs = workloads.jobs(args.workload)
    telemetry_dir = args.rep_dir / "telemetry"
    results = []
    run_dirs: list[Path] = []
    wall_s = 0.0
    for i, spec in enumerate(specs):
        if url is not None:
            telemetry_dir.mkdir(exist_ok=True)
            os.environ["REPRO_TELEMETRY_DIR"] = str(telemetry_dir)
            kwargs = dict(backend="coordinator", coordinator=url, claim_batch=workloads.CLAIM_BATCH)
            _emit(proto, event="sweep", url=url)
        else:
            run_dir = args.rep_dir / f"run{i}"
            run_dir.mkdir()
            run_dirs.append(run_dir)
            kwargs = dict(run_dir=run_dir)
        t0 = time.perf_counter()
        results.append(run_sweep(spec, jobs=jobs, **kwargs))
        wall_s += time.perf_counter() - t0

    processes = None
    if tracer is not None:
        import tracing

        processes = [tracer.snapshot(wall_s)] + tracing.load_dumps(dump_dir)
    if url is not None:
        span_dirs, data_dirs = [telemetry_dir], [args.rep_dir / "coordinator"]
    else:
        span_dirs, data_dirs = run_dirs, run_dirs
    _emit(
        proto,
        event="done",
        wall_s=wall_s,
        units=sum(workloads.unit_count(r) for r in results),
        digest=workloads.digest(results),
        processes=processes,
        runtime=runtime_metrics(span_dirs, data_dirs),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
