"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list
    List registered schedulers and dataset generators.
schedule
    Generate one dataset instance, schedule it, print the Gantt chart.
benchmark
    Benchmark schedulers over datasets (a slice of Fig. 2).
pisa
    Run an adversarial search for one scheduler pair (Section VI).
experiment
    Regenerate a paper table/figure by name (tables, fig1, ..., fig10_19).
sweep
    Declarative sweeps: ``init`` scaffolds a spec file, ``show`` dumps a
    named paper sweep as JSON, ``run`` executes a spec with parallel
    workers and resumable checkpoints, ``serve`` exposes a run directory
    as an HTTP coordinator, ``work`` joins a served run as one worker
    (``--coordinator http://host:port``, no shared filesystem),
    ``status`` reports a run's progress,
    shards, and leases (``--json`` for the machine-readable schema,
    ``--coordinator`` for a live coordinator's snapshot, ``--watch
    SECONDS`` to re-render periodically), ``top`` is the live fleet
    dashboard (throughput, ETA, per-worker rates, reclaim/duplicate
    counts, journal lag) over a run directory or ``--coordinator URL``.
runs
    Run-directory housekeeping: ``gc`` lists (default) or deletes
    completed/stale checkpoint directories (never ones a live
    coordinator is serving).

Examples
--------
    python -m repro list
    python -m repro schedule --scheduler HEFT --dataset chains --seed 1
    python -m repro benchmark --datasets chains,blast --schedulers HEFT,CPoP
    python -m repro pisa --target HEFT --baseline FastestNode --iterations 200
    python -m repro experiment fig4 --jobs 8 --run-dir runs/fig4
    python -m repro sweep init --out my-sweep.json
    python -m repro sweep run my-sweep.json --jobs 8 --run-dir runs/my-sweep
    python -m repro sweep serve runs/my-sweep --spec my-sweep.json --port 8642
    python -m repro sweep work --coordinator http://host:8642       # any host, no NFS
    python -m repro sweep status runs/my-sweep
    python -m repro sweep status --coordinator http://host:8642 --json
    python -m repro sweep top runs/my-sweep --interval 2
    python -m repro sweep top --coordinator http://host:8642
    python -m repro sweep show fig4
    python -m repro runs gc runs/ --stale-hours 48 --delete
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

from repro.benchmarking import (
    benchmark_grid,
    format_ratio,
    render_benchmark_rows,
    render_gantt,
)
from repro.core.scheduler import get_scheduler, list_schedulers
from repro.datasets import generate_dataset, list_datasets
from repro.pisa import PISA, AnnealingConfig, PISAConfig
from repro.utils.rng import as_generator, derive_seed

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAGA + PISA reproduction: task-graph scheduling and adversarial analysis",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="level for the repro.* loggers (worker leases, coordinator "
        "journal, checkpoint repair diagnostics); defaults to "
        "$REPRO_LOG_LEVEL or warning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered schedulers and datasets")

    p = sub.add_parser("schedule", help="schedule one dataset instance")
    p.add_argument("--scheduler", required=True, help="scheduler name (see `list`)")
    p.add_argument("--dataset", required=True, help="dataset name (see `list`)")
    p.add_argument("--index", type=int, default=0, help="instance index in the dataset")
    p.add_argument("--seed", type=int, default=0, help="dataset generation seed")

    p = sub.add_parser("benchmark", help="benchmark schedulers over datasets")
    p.add_argument("--datasets", required=True, help="comma-separated dataset names")
    p.add_argument("--schedulers", required=True, help="comma-separated scheduler names")
    p.add_argument("--instances", type=int, default=10, help="instances per dataset")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("pisa", help="adversarial search for one scheduler pair")
    p.add_argument("--target", required=True, help="the scheduler being attacked")
    p.add_argument("--baseline", required=True, help="the comparison scheduler")
    p.add_argument("--iterations", type=int, default=459, help="annealing iterations")
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--alpha", type=float, default=0.99, help="cooling rate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the restarts"
    )

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument(
        "name",
        choices=[
            "tables",
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5_fig6",
            "fig7_fig8",
            "fig9",
            "fig10_19",
        ],
    )
    p.add_argument("--full", action="store_true", help="paper-scale protocol (slow)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the PISA sweeps (fig4, fig7_fig8, fig10_19)",
    )
    p.add_argument(
        "--run-dir",
        default=None,
        help="checkpoint run directory; completed work units stream to "
        "<run-dir>/units.jsonl (fig4, fig7_fig8, fig10_19)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip work units already recorded in --run-dir",
    )

    p = sub.add_parser("sweep", help="define and run declarative sweeps")
    sweep_sub = p.add_subparsers(dest="sweep_command", required=True)

    q = sweep_sub.add_parser("run", help="execute a sweep spec file")
    q.add_argument("spec", help="path to a spec JSON file (see `sweep init`)")
    q.add_argument("--jobs", type=int, default=1, help="worker processes")
    q.add_argument(
        "--run-dir",
        default=None,
        help="checkpoint run directory (the spec becomes its manifest)",
    )
    q.add_argument(
        "--resume",
        action="store_true",
        help="skip work units already recorded in --run-dir",
    )
    q.add_argument(
        "--backend",
        choices=["local", "coordinator"],
        default="local",
        help="coordinator drains through a `repro sweep serve` HTTP "
        "endpoint (--coordinator URL), so `repro sweep work` processes on "
        "other hosts can help drain the same sweep with no shared "
        "filesystem (results are bit-identical either way)",
    )
    q.add_argument(
        "--coordinator",
        default=None,
        metavar="URL",
        help="coordinator base URL (http://host:port) for "
        "--backend coordinator",
    )
    q.add_argument(
        "--batch",
        type=int,
        default=None,
        help="units leased per claim request on the coordinator backend "
        "(default 1: two requests per unit, each unit recorded as soon as "
        "it finishes); larger batches amortize claim and record round "
        "trips: finished units are recorded in one flush per batch (or "
        "per heartbeat interval), so a worker killed mid-batch also loses "
        "its unflushed finished units, which peers re-execute",
    )

    q = sweep_sub.add_parser(
        "serve",
        help="serve a run directory as an HTTP coordinator (multi-host "
        "sweeps without a shared filesystem)",
    )
    q.add_argument("run_dir", help="run directory the coordinator owns")
    q.add_argument(
        "--spec",
        default=None,
        help="spec file: initializes an uninitialized run directory "
        "(validated against the manifest if one exists)",
    )
    q.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    q.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default 0: an ephemeral port, printed on startup)",
    )
    q.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="lease seconds without a heartbeat before a worker's units are "
        "re-granted (default 120; judged on the coordinator's clock)",
    )
    q.add_argument(
        "--until-complete",
        action="store_true",
        help="exit once every unit of the run is recorded, after a short "
        "grace that lets workers' closing reads land (default: serve until "
        "interrupted)",
    )
    q.add_argument(
        "--segment-bytes",
        type=int,
        default=None,
        help="journal segment size before rolling to a new "
        "coordinator.<seq>.jsonl and snapshotting (default 4 MiB); "
        "smaller segments mean cheaper restarts and more snapshot churn",
    )
    q.add_argument(
        "--standby",
        action="store_true",
        help="warm standby: watch the primary coordinator on --port and, "
        "when its port is free and its advisory lease has gone stale, "
        "replay snapshot+journal and take over the same port (requires "
        "an explicit --port)",
    )

    q = sweep_sub.add_parser(
        "work", help="join a served run as one worker (--coordinator URL)"
    )
    q.add_argument(
        "--coordinator",
        required=True,
        metavar="URL",
        help="drain through the `repro sweep serve` coordinator at URL",
    )
    q.add_argument(
        "--worker-id",
        default=None,
        help="shard identity (default: <host>-<pid>-<random>); must be "
        "unique among concurrent workers",
    )
    q.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        help="lease heartbeat renewal interval in seconds (default: a "
        "quarter of the coordinator's --ttl)",
    )
    q.add_argument(
        "--poll",
        type=float,
        default=None,
        help="seconds between checks while waiting on other workers' leases",
    )
    q.add_argument(
        "--retry",
        type=float,
        default=None,
        help="seconds to keep retrying transient wire errors, e.g. while "
        "the coordinator restarts (default 60)",
    )
    q.add_argument(
        "--batch",
        type=int,
        default=1,
        help="units leased per claim request (default 1: two requests "
        "per unit, each unit recorded as soon as it finishes); larger "
        "batches amortize claim and record round trips: finished units "
        "are recorded in one flush per batch (or per heartbeat interval), "
        "so a worker killed mid-batch also loses its unflushed finished "
        "units, which peers re-execute",
    )
    q.add_argument(
        "--no-wait",
        action="store_true",
        help="exit when nothing is claimable instead of waiting for the "
        "whole run to complete",
    )

    q = sweep_sub.add_parser(
        "status", help="report a run's progress, shards, and leases"
    )
    q.add_argument(
        "run_dir",
        nargs="?",
        default=None,
        help="run directory to inspect (omit with --coordinator)",
    )
    q.add_argument(
        "--coordinator",
        default=None,
        metavar="URL",
        help="inspect the live coordinator at URL instead of a run directory",
    )
    q.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (one schema for both backends)",
    )
    q.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-render every SECONDS until interrupted (or until the run "
        "completes)",
    )

    q = sweep_sub.add_parser(
        "top",
        help="live fleet dashboard: throughput, ETA, per-worker rates, "
        "reclaim/duplicate counts, journal lag",
    )
    q.add_argument(
        "run_dir",
        nargs="?",
        default=None,
        help="run directory to watch (omit with --coordinator)",
    )
    q.add_argument(
        "--coordinator",
        default=None,
        metavar="URL",
        help="watch the live coordinator at URL (GET /status + GET /metrics) "
        "instead of a run directory",
    )
    q.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (default 2)",
    )
    q.add_argument(
        "--frames",
        type=int,
        default=None,
        help="render N frames then exit (default: run until interrupted or "
        "the run completes)",
    )

    q = sweep_sub.add_parser(
        "show", help="print a named paper sweep as a spec (no name: list them)"
    )
    q.add_argument("name", nargs="?", default=None, help="named sweep (e.g. fig4)")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--full", action="store_true", help="paper-scale protocol")

    q = sweep_sub.add_parser("init", help="scaffold a sweep spec file to edit")
    q.add_argument("--out", default="sweep.json", help="where to write the spec")
    q.add_argument("--name", default="my-sweep", help="sweep name to scaffold")
    q.add_argument(
        "--mode",
        choices=["pisa", "benchmark", "dynamic"],
        default="pisa",
        help="sweep mode",
    )
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--force", action="store_true", help="overwrite an existing file")

    p = sub.add_parser("runs", help="checkpoint run-directory housekeeping")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    q = runs_sub.add_parser(
        "gc", help="list (default) or delete completed/stale run directories"
    )
    q.add_argument("root", help="directory tree to scan for run directories")
    q.add_argument(
        "--stale-hours",
        type=float,
        default=None,
        help="also collect incomplete runs idle longer than this many hours",
    )
    q.add_argument(
        "--keep-completed",
        action="store_true",
        help="do not collect completed runs (only --stale-hours candidates)",
    )
    q.add_argument(
        "--delete",
        action="store_true",
        help="actually remove the collectable directories (default: dry run)",
    )
    return parser


def _cmd_list(_args) -> int:
    print("schedulers:")
    for name in list_schedulers():
        print(f"  {name}")
    print("datasets:")
    for name in list_datasets():
        print(f"  {name}")
    return 0


def _cmd_schedule(args) -> int:
    dataset = generate_dataset(
        args.dataset,
        num_instances=args.index + 1,
        rng=as_generator(derive_seed(args.seed, args.dataset)),
    )
    instance = dataset[args.index]
    scheduler = get_scheduler(args.scheduler)
    schedule = scheduler.schedule(instance)
    schedule.validate(instance)
    print(
        f"{args.scheduler} on {instance.name}: makespan {schedule.makespan:.4f} "
        f"({len(instance.task_graph)} tasks, {len(instance.network)} nodes)"
    )
    print(render_gantt(schedule))
    return 0


def _cmd_benchmark(args) -> int:
    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    names = [d.strip() for d in args.datasets.split(",") if d.strip()]
    datasets = [
        generate_dataset(
            n, num_instances=args.instances, rng=as_generator(derive_seed(args.seed, n))
        )
        for n in names
    ]
    grid = benchmark_grid(schedulers, datasets)
    summaries = {name: grid.results[name].summaries() for name in grid.datasets}
    print(
        render_benchmark_rows(
            summaries,
            row_labels=grid.datasets,
            col_labels=schedulers,
            title=f"makespan ratios over {args.instances} instances (median~max)",
        )
    )
    return 0


def _cmd_pisa(args) -> int:
    config = PISAConfig(
        annealing=AnnealingConfig(max_iterations=args.iterations, alpha=args.alpha),
        restarts=args.restarts,
    )
    result = PISA(args.target, args.baseline, config=config).run(
        rng=args.seed, jobs=args.jobs
    )
    print(
        f"PISA {args.target} vs {args.baseline}: worst ratio found "
        f"{format_ratio(result.best_ratio)} "
        f"(restarts: {', '.join(format_ratio(r) for r in result.restart_ratios)})"
    )
    inst = result.best_instance
    for name in (args.target, args.baseline):
        sched = get_scheduler(name).schedule(inst)
        print(f"\n{name} schedule (makespan {sched.makespan:.4f}):")
        print(render_gantt(sched, node_order=list(inst.network.nodes)))
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import (
        fig1_example,
        fig2_benchmarking,
        fig3_motivating,
        fig4_pisa_heatmap,
        fig5_fig6_case_study,
        fig7_fig8_families,
        fig9_structures,
        fig10_19_app_specific,
        tables,
    )

    from repro.runtime.checkpoint import CheckpointError

    if args.name == "tables":
        print(tables.run())
        return 0
    drivers = {
        "fig1": lambda: fig1_example.run().report,
        "fig2": lambda: fig2_benchmarking.run(rng=args.seed, full=args.full).report,
        "fig3": lambda: fig3_motivating.run(rng=args.seed, full=args.full).report,
        "fig4": lambda: fig4_pisa_heatmap.run(
            rng=args.seed,
            full=args.full,
            jobs=args.jobs,
            run_dir=args.run_dir,
            resume=args.resume,
        ).report,
        "fig5_fig6": lambda: fig5_fig6_case_study.run(rng=args.seed, full=args.full).report,
        "fig7_fig8": lambda: fig7_fig8_families.run(
            rng=args.seed,
            full=args.full,
            jobs=args.jobs,
            run_dir=args.run_dir,
            resume=args.resume,
        ).report,
        "fig9": lambda: fig9_structures.run(rng=args.seed).report,
        "fig10_19": lambda: fig10_19_app_specific.run(
            rng=args.seed,
            full=args.full,
            jobs=args.jobs,
            run_dir=args.run_dir,
            resume=args.resume,
        ).report,
    }
    try:
        print(drivers[args.name]())
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args) -> int:
    from repro.runtime.checkpoint import CheckpointError
    from repro.sweeps import (
        SpecError,
        SweepSpec,
        list_named_specs,
        named_spec,
        render_report,
        run_sweep,
    )

    if args.sweep_command == "show":
        if args.name is None:
            print("named sweeps:")
            for name in list_named_specs():
                print(f"  {name}")
            return 0
        try:
            spec = named_spec(args.name, seed=args.seed, full=args.full or None)
        except SpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(spec.to_json(), end="")
        return 0

    if args.sweep_command == "work":
        return _cmd_sweep_work(args)

    if args.sweep_command == "serve":
        return _cmd_sweep_serve(args)

    if args.sweep_command == "status":
        return _cmd_sweep_status(args)

    if args.sweep_command == "top":
        return _cmd_sweep_top(args)

    if args.sweep_command == "init":
        out = Path(args.out)
        if out.exists() and not args.force:
            print(
                f"error: {out} already exists; pass --force to overwrite it",
                file=sys.stderr,
            )
            return 2
        spec = _scaffold_spec(args.name, args.mode, args.seed)
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(spec.to_json())
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {out}")
        print("edit schedulers/source/config, then run it with:")
        print(f"  python -m repro sweep run {out} --jobs 4 --run-dir runs/{spec.name}")
        return 0

    # sweep run
    try:
        spec = SweepSpec.load(args.spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    progress = None
    if spec.mode == "pisa":
        # Progress streams in completion order (nondeterministic under
        # jobs>1), so it goes to stderr; stdout carries only the report.
        def progress(t, b, r):
            print(f"  {t} vs {b}: {r:.2f}", file=sys.stderr, flush=True)
    if args.backend == "coordinator" and args.coordinator is None:
        print(
            "error: --backend coordinator requires --coordinator URL",
            file=sys.stderr,
        )
        return 2
    if args.backend != "coordinator" and args.coordinator is not None:
        print(
            "error: --coordinator requires --backend coordinator",
            file=sys.stderr,
        )
        return 2
    if args.batch is not None:
        if args.batch < 1:
            print(f"error: --batch must be >= 1, got {args.batch}", file=sys.stderr)
            return 2
        if args.backend == "local":
            print(
                "error: --batch is a coordinator option and has no effect "
                "with --backend local",
                file=sys.stderr,
            )
            return 2
    from repro.runtime.backends import CoordinatorError, CoordinatorProtocolError

    try:
        result = run_sweep(
            spec,
            jobs=args.jobs,
            run_dir=args.run_dir,
            resume=args.resume,
            progress=progress,
            backend=args.backend,
            coordinator=args.coordinator,
            claim_batch=args.batch,
        )
    except (SpecError, CheckpointError, CoordinatorError, CoordinatorProtocolError) as exc:
        # CheckpointError covers the run-dir refusals (existing run dir
        # without --resume, manifest mismatch on --resume) and the
        # coordinator-manifest mismatch; the coordinator errors cover an
        # unreachable or foreign coordinator.  Anything else is a real
        # failure and keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(result))
    return 0


def _cmd_sweep_work(args) -> int:
    from repro.runtime.backends import (
        CoordinatorError,
        CoordinatorProtocolError,
        HttpWorkBackend,
    )
    from repro.runtime.checkpoint import CheckpointError
    from repro.runtime.distributed import worker_identity
    from repro.sweeps import SpecError, work_coordinator

    # Validate timing flags up front: worker code raises plain ValueError
    # for these, which the clean-error clause below deliberately does not
    # catch (a ValueError from inside experiment code is a real failure
    # that must keep its traceback).
    if args.batch < 1:
        print(f"error: --batch must be >= 1, got {args.batch}", file=sys.stderr)
        return 2
    for flag, value, minimum in (
        ("--heartbeat", args.heartbeat, "positive"),
        ("--poll", args.poll, "non-negative"),
        ("--retry", args.retry, "positive"),
    ):
        if value is None:
            continue
        if value < 0 or (minimum == "positive" and value == 0):
            print(f"error: {flag} must be {minimum}, got {value}", file=sys.stderr)
            return 2
    wid = args.worker_id if args.worker_id is not None else worker_identity()
    worker_log = logging.getLogger("repro.runtime.worker")
    if args.log_level is None and not os.environ.get("REPRO_LOG_LEVEL"):
        # Per-unit completions were always visible before the logging
        # migration; keep that default unless the operator set a level.
        worker_log.setLevel(logging.INFO)

    def on_unit(key: str) -> None:
        # Routed through the repro.runtime.* namespace (not a bare stderr
        # print) so fleet operators can set levels / redirect per host.
        worker_log.info("[%s] completed %s", wid, key)

    try:
        plan, stats = work_coordinator(
            args.coordinator,
            worker_id=wid,
            heartbeat_interval=args.heartbeat,
            poll_interval=args.poll,
            retry_timeout=args.retry,
            wait=not args.no_wait,
            on_unit=on_unit,
            claim_batch=args.batch,
        )
    except (SpecError, CheckpointError, CoordinatorError, CoordinatorProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    probe = HttpWorkBackend(args.coordinator, retry_timeout=2.0)
    try:
        # Best-effort: a `serve --until-complete` coordinator exits a short
        # grace after the last unit records, which must not turn a late
        # worker's clean finish into a failure.
        payload = probe.status()
        complete = bool(payload.get("complete"))
        completed_units = payload.get("completed_units")
        total_units = payload.get("total_units")
    except (CoordinatorError, CoordinatorProtocolError):
        complete = not args.no_wait  # wait=True only returns complete
        completed_units = "?"
        total_units = len(plan.units)
    finally:
        probe.close()
    reclaimed = f", reclaimed {stats.reclaimed} stale lease(s)" if stats.reclaimed else ""
    print(
        f"worker {wid}: executed {stats.executed} unit(s){reclaimed}; "
        f"run {'complete' if complete else 'incomplete'} "
        f"({completed_units}/{total_units} units)"
    )
    if complete:
        print(
            "aggregate the merged result with: python -m repro sweep run "
            f"<spec.json> --backend coordinator --coordinator {args.coordinator}"
        )
    return 0


def _cmd_sweep_serve(args) -> int:
    from repro.runtime.checkpoint import CheckpointError, RunCheckpoint
    from repro.runtime.coordinator import serve_coordinator, standby_coordinator
    from repro.runtime.distributed import COMPLETION_GRACE, DEFAULT_LEASE_TTL
    from repro.sweeps import SpecError, SweepSpec, load_run_plan, plan_sweep

    if args.ttl is not None and args.ttl <= 0:
        print(f"error: --ttl must be positive, got {args.ttl}", file=sys.stderr)
        return 2
    if args.segment_bytes is not None and args.segment_bytes <= 0:
        print(
            f"error: --segment-bytes must be positive, got {args.segment_bytes}",
            file=sys.stderr,
        )
        return 2
    if args.standby and args.port <= 0:
        print(
            "error: --standby needs the primary's port; pass an explicit --port",
            file=sys.stderr,
        )
        return 2
    try:
        if args.spec is not None:
            spec = SweepSpec.load(args.spec)
            plan = plan_sweep(spec)
            checkpoint = RunCheckpoint(args.run_dir)
            checkpoint.initialize(plan.manifest(), resume=True)
        else:
            plan = load_run_plan(args.run_dir)
        if args.standby:
            print(
                f"standby watching {args.host}:{args.port} for {args.run_dir} "
                "(takes over when the primary's port frees and its advisory "
                "lease goes stale)",
                flush=True,
            )
            try:
                server = standby_coordinator(
                    args.run_dir,
                    host=args.host,
                    port=args.port,
                    ttl=args.ttl if args.ttl is not None else DEFAULT_LEASE_TTL,
                    unit_keys=[u.key for u in plan.units],
                    segment_bytes=args.segment_bytes,
                )
            except KeyboardInterrupt:
                return 0
            if server is None:
                return 0
        else:
            server = serve_coordinator(
                args.run_dir,
                host=args.host,
                port=args.port,
                ttl=args.ttl if args.ttl is not None else DEFAULT_LEASE_TTL,
                unit_keys=[u.key for u in plan.units],
                segment_bytes=args.segment_bytes,
            )
    except (SpecError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    coordinator = server.coordinator
    advertised = server.url
    if args.host in ("0.0.0.0", "::", ""):
        # A wildcard bind is not a reachable address; advertise this
        # machine's hostname so the printed join command works elsewhere.
        import socket as _socket

        port = server.server_address[1]
        advertised = f"http://{_socket.gethostname()}:{port}"
    print(
        f"coordinator serving {args.run_dir} on {advertised} "
        f"({coordinator.status_payload()['completed_units']}/{coordinator.total_units} "
        "units done); workers join with: "
        f"python -m repro sweep work --coordinator {advertised}",
        flush=True,
    )
    if args.until_complete:
        import threading

        def _watch() -> None:
            while not coordinator.complete:
                time.sleep(0.2)
            # Keep serving a little longer: a worker's closing reads land
            # after the last record, and a closed port would leave it
            # retrying for its whole --retry budget.
            time.sleep(COMPLETION_GRACE)
            server.shutdown()

        threading.Thread(target=_watch, daemon=True, name="serve-until-complete").start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    if args.until_complete and coordinator.complete:
        print(
            f"run complete ({coordinator.total_units} units); aggregate with: "
            f"python -m repro sweep run <spec.json> --run-dir {args.run_dir} --resume"
        )
    return 0


def _watch_loop(render_once, interval: float, frames: int | None = None) -> int:
    """Shared polling loop for ``sweep status --watch`` and ``sweep top``.

    ``render_once()`` returns ``(text, stop)``; the loop prints each
    frame (clearing the screen between frames on a TTY), sleeps
    ``interval``, and exits cleanly on Ctrl-C, after ``frames`` renders,
    or when ``render_once`` reports the run is done.
    """
    clear = "\x1b[H\x1b[2J" if sys.stdout.isatty() else ""
    rendered = 0
    try:
        while True:
            text, stop = render_once()
            print(f"{clear}{text}", flush=True)
            rendered += 1
            if stop or (frames is not None and rendered >= frames):
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def _cmd_sweep_status(args) -> int:
    import json as _json

    from repro.runtime.backends import (
        CoordinatorError,
        CoordinatorProtocolError,
        HttpWorkBackend,
    )
    from repro.runtime.checkpoint import CheckpointError
    from repro.runtime.distributed import inspect_run_dir, render_status_payload

    if (args.run_dir is None) == (args.coordinator is None):
        print(
            "error: pass exactly one of <run_dir> or --coordinator URL",
            file=sys.stderr,
        )
        return 2
    if args.watch is not None and args.watch <= 0:
        print(f"error: --watch must be positive, got {args.watch}", file=sys.stderr)
        return 2

    # A status probe should fail fast, not ride out a long restart.
    client = (
        None
        if args.coordinator is None
        else HttpWorkBackend(args.coordinator, retry_timeout=5.0)
    )

    def _payload() -> dict:
        if client is not None:
            return client.status()
        status = inspect_run_dir(args.run_dir)
        if status.kind is None and not status.shard_counts:
            raise CheckpointError(f"{args.run_dir} is not a run directory")
        return status.to_payload()

    def _render_once() -> tuple[str, bool]:
        payload = _payload()
        text = (
            _json.dumps(payload, indent=2, sort_keys=True)
            if args.json
            else render_status_payload(payload)
        )
        return text, bool(payload.get("complete"))

    try:
        if args.watch is None:
            print(_render_once()[0])
            return 0
        return _watch_loop(_render_once, args.watch)
    except (CoordinatorError, CoordinatorProtocolError, CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if client is not None:
            client.close()


def _cmd_sweep_top(args) -> int:
    from repro.observability.dashboard import (
        collect_coordinator_frame,
        collect_run_dir_frame,
        render_frame,
    )
    from repro.runtime.backends import CoordinatorError, CoordinatorProtocolError
    from repro.runtime.checkpoint import CheckpointError

    if (args.run_dir is None) == (args.coordinator is None):
        print(
            "error: pass exactly one of <run_dir> or --coordinator URL",
            file=sys.stderr,
        )
        return 2
    if args.interval <= 0:
        print(f"error: --interval must be positive, got {args.interval}", file=sys.stderr)
        return 2
    if args.frames is not None and args.frames < 1:
        print(f"error: --frames must be >= 1, got {args.frames}", file=sys.stderr)
        return 2

    prev = None

    def _render_once() -> tuple[str, bool]:
        nonlocal prev
        if args.coordinator is not None:
            frame = collect_coordinator_frame(args.coordinator)
        else:
            frame = collect_run_dir_frame(args.run_dir)
        text = render_frame(frame, prev)
        prev = frame
        return text, frame.complete

    try:
        return _watch_loop(_render_once, args.interval, frames=args.frames)
    except (CoordinatorError, CoordinatorProtocolError, CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _scaffold_spec(name: str, mode: str, seed: int):
    from repro.pisa import AnnealingConfig, PISAConfig
    from repro.sweeps import SourceSpec, SweepSpec

    description = (
        "scaffolded by `repro sweep init` — edit schedulers (see `repro list`), "
        "the instance source (chains | workflow | dataset | family), and the "
        "annealing config, then `repro sweep run` it"
    )
    if mode == "benchmark":
        return SweepSpec(
            name=name,
            mode="benchmark",
            schedulers=("HEFT", "CPoP", "FastestNode"),
            source=SourceSpec("dataset", {"dataset": "chains"}),
            num_instances=10,
            sampling="sequential",
            seed=seed,
            description=description,
        )
    if mode == "dynamic":
        from repro.core.dynamic import DynamicsSpec, FailureSpec, NoiseSpec

        return SweepSpec(
            name=name,
            mode="dynamic",
            schedulers=("HEFT", "CPoP", "FastestNode"),
            source=SourceSpec("chains"),
            num_instances=6,
            seed=seed,
            description=description
            + " — dynamic mode replays every schedule under the `dynamics` "
            "conditions (contention: none|fair|fifo; error/slowdown kind: "
            "none|uniform|gaussian; failure fate: stall|reassign)",
            dynamics=DynamicsSpec(
                contention="fair",
                error=NoiseSpec(kind="uniform", low=0.8, high=1.5),
                slowdown=NoiseSpec(kind="none"),
                failures=FailureSpec(count=0),
                samples=3,
            ),
        )
    return SweepSpec(
        name=name,
        mode="pisa",
        schedulers=("HEFT", "CPoP", "FastestNode"),
        source=SourceSpec("chains"),
        config=PISAConfig(
            annealing=AnnealingConfig(t_max=10.0, t_min=0.1, max_iterations=60, alpha=0.93),
            restarts=2,
        ),
        seed=seed,
        description=description,
    )


def _cmd_runs(args) -> int:
    from repro.runtime.gc import gc_runs

    stale_seconds = args.stale_hours * 3600.0 if args.stale_hours is not None else None
    collect, keep = gc_runs(
        args.root,
        completed=not args.keep_completed,
        stale_seconds=stale_seconds,
        delete=args.delete,
    )
    verb = "removed" if args.delete else "would remove"
    failed = [s for s in keep if s.delete_failed]
    for status in collect:
        print(f"{verb}: {status.describe()}")
    for status in keep:
        label = "FAILED to remove" if status.delete_failed else "kept"
        print(f"{label}: {status.describe()}")
    if not collect and not keep:
        print(f"no run directories found under {args.root}")
    elif not args.delete and collect:
        print(f"(dry run — pass --delete to remove {len(collect)} director"
              f"{'y' if len(collect) == 1 else 'ies'})")
    return 1 if failed else 0


_COMMANDS = {
    "list": _cmd_list,
    "schedule": _cmd_schedule,
    "benchmark": _cmd_benchmark,
    "pisa": _cmd_pisa,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "runs": _cmd_runs,
}


def _configure_logging(level_name: str | None) -> None:
    """Route the ``repro.*`` logger namespace to stderr at one level.

    Runtime diagnostics (lease churn, journal repair, duplicate records,
    worker completions) all log under ``repro.runtime.*``; this is the
    single knob — ``--log-level`` or ``$REPRO_LOG_LEVEL`` — that fleets
    use to raise or silence them.  Only the ``repro`` logger is touched:
    no ``basicConfig``, so embedding applications keep their own root
    handler setup.
    """
    if level_name is None:
        level_name = os.environ.get("REPRO_LOG_LEVEL") or "warning"
    level = getattr(logging, level_name.upper(), logging.WARNING)
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s [%(levelname)s] %(message)s")
        )
        logger.addHandler(handler)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.log_level)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
