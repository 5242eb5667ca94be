"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_sweep_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_sweep_run_requires_spec_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "run"])

    def test_sweep_run_flags(self):
        args = build_parser().parse_args(
            ["sweep", "run", "s.json", "--jobs", "4", "--run-dir", "runs/x", "--resume"]
        )
        assert args.command == "sweep" and args.sweep_command == "run"
        assert args.spec == "s.json"
        assert args.jobs == 4 and args.run_dir == "runs/x" and args.resume

    def test_sweep_show_name_is_optional(self):
        args = build_parser().parse_args(["sweep", "show"])
        assert args.sweep_command == "show" and args.name is None
        args = build_parser().parse_args(["sweep", "show", "fig4", "--seed", "7"])
        assert args.name == "fig4" and args.seed == 7

    def test_sweep_init_defaults(self):
        args = build_parser().parse_args(["sweep", "init"])
        assert args.out == "sweep.json" and args.mode == "pisa" and not args.force

    def test_sweep_init_rejects_bad_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "init", "--mode", "fuzz"])

    def test_runs_gc_requires_root(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs", "gc"])

    def test_runs_gc_flags(self):
        args = build_parser().parse_args(
            ["runs", "gc", "runs/", "--stale-hours", "48", "--delete", "--keep-completed"]
        )
        assert args.runs_command == "gc" and args.root == "runs/"
        assert args.stale_hours == 48.0 and args.delete and args.keep_completed

    def test_experiment_run_dir_flags(self):
        args = build_parser().parse_args(
            ["experiment", "fig7_fig8", "--jobs", "2", "--run-dir", "r", "--resume"]
        )
        assert args.run_dir == "r" and args.resume and args.jobs == 2

    def test_sweep_run_backend_flag(self):
        args = build_parser().parse_args(["sweep", "run", "s.json"])
        assert args.backend == "local"
        for backend in ("distributed", "rpc"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", "run", "s.json", "--backend", backend])

    def test_sweep_work_flags(self):
        args = build_parser().parse_args(
            [
                "sweep", "work",
                "--coordinator", "http://h:1",
                "--worker-id", "w1",
                "--heartbeat", "5",
                "--poll", "0.5",
                "--batch", "4",
                "--no-wait",
            ]
        )
        assert args.sweep_command == "work" and args.coordinator == "http://h:1"
        assert args.worker_id == "w1" and args.batch == 4
        assert args.heartbeat == 5.0 and args.poll == 0.5
        assert args.no_wait

    def test_sweep_work_run_dir_or_coordinator(self):
        # A worker joins through a coordinator; there is no shared-directory
        # mode, so --coordinator is required and a run_dir is not accepted.
        for argv in (["sweep", "work"], ["sweep", "work", "runs/x"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        args = build_parser().parse_args(
            ["sweep", "work", "--coordinator", "http://h:1", "--retry", "30"]
        )
        assert args.coordinator == "http://h:1" and args.retry == 30.0

    def test_sweep_serve_flags(self):
        args = build_parser().parse_args(["sweep", "serve", "runs/x"])
        assert args.sweep_command == "serve" and args.run_dir == "runs/x"
        assert args.host == "127.0.0.1" and args.port == 0 and not args.until_complete
        args = build_parser().parse_args(
            [
                "sweep", "serve", "runs/x",
                "--spec", "s.json",
                "--host", "0.0.0.0",
                "--port", "8642",
                "--ttl", "30",
                "--until-complete",
            ]
        )
        assert args.spec == "s.json" and args.host == "0.0.0.0" and args.port == 8642
        assert args.ttl == 30.0 and args.until_complete

    def test_sweep_run_coordinator_backend_flag(self):
        args = build_parser().parse_args(
            ["sweep", "run", "s.json", "--backend", "coordinator",
             "--coordinator", "http://h:1"]
        )
        assert args.backend == "coordinator" and args.coordinator == "http://h:1"

    def test_sweep_status_flags(self):
        args = build_parser().parse_args(["sweep", "status", "runs/x"])
        assert args.sweep_command == "status" and args.run_dir == "runs/x"
        assert not args.json and args.coordinator is None
        args = build_parser().parse_args(
            ["sweep", "status", "--coordinator", "http://h:1", "--json"]
        )
        assert args.run_dir is None and args.coordinator == "http://h:1" and args.json


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "HEFT" in out and "chains" in out

    def test_schedule(self, capsys):
        assert main(["schedule", "--scheduler", "HEFT", "--dataset", "chains", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "|" in out  # gantt chart rendered

    def test_schedule_index(self, capsys):
        assert (
            main(
                [
                    "schedule",
                    "--scheduler",
                    "CPoP",
                    "--dataset",
                    "in_trees",
                    "--index",
                    "2",
                ]
            )
            == 0
        )
        assert "in_trees[2]" in capsys.readouterr().out

    def test_benchmark(self, capsys):
        assert (
            main(
                [
                    "benchmark",
                    "--datasets",
                    "chains",
                    "--schedulers",
                    "HEFT,FastestNode",
                    "--instances",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "chains" in out and "FastestNode" in out

    def test_pisa(self, capsys):
        assert (
            main(
                [
                    "pisa",
                    "--target",
                    "HEFT",
                    "--baseline",
                    "CPoP",
                    "--iterations",
                    "15",
                    "--restarts",
                    "1",
                    "--alpha",
                    "0.8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "worst ratio found" in out
        assert "HEFT schedule" in out

    def test_experiment_tables(self, capsys):
        assert main(["experiment", "tables"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_experiment_fig1(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        assert "Fig. 1" in capsys.readouterr().out

    def test_experiment_fig9(self, capsys):
        assert main(["experiment", "fig9"]) == 0
        assert "srasearch" in capsys.readouterr().out


class TestSweepCommands:
    def test_show_lists_names_without_argument(self, capsys):
        assert main(["sweep", "show"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "fig7" in out

    def test_show_dumps_valid_spec_json(self, capsys):
        from repro.sweeps import SweepSpec

        assert main(["sweep", "show", "fig4", "--seed", "3"]) == 0
        spec = SweepSpec.from_json(capsys.readouterr().out)
        assert spec.name == "fig4" and spec.seed == 3

    def test_show_unknown_name_fails(self, capsys):
        assert main(["sweep", "show", "fig99"]) == 2
        assert "unknown named sweep" in capsys.readouterr().err

    def test_init_scaffolds_a_runnable_spec(self, tmp_path, capsys):
        from repro.sweeps import SweepSpec

        out = tmp_path / "spec.json"
        assert main(["sweep", "init", "--out", str(out), "--name", "probe"]) == 0
        spec = SweepSpec.load(out)
        assert spec.name == "probe" and spec.mode == "pisa"
        # Refuses to clobber without --force.
        assert main(["sweep", "init", "--out", str(out)]) == 2
        assert "--force" in capsys.readouterr().err
        assert main(["sweep", "init", "--out", str(out), "--force"]) == 0

    def test_init_creates_missing_directories(self, tmp_path):
        from repro.sweeps import SweepSpec

        out = tmp_path / "specs" / "nested" / "s.json"
        assert main(["sweep", "init", "--out", str(out)]) == 0
        assert SweepSpec.load(out).name == "my-sweep"

    def test_init_benchmark_mode(self, tmp_path):
        from repro.sweeps import SweepSpec

        out = tmp_path / "b.json"
        assert main(["sweep", "init", "--out", str(out), "--mode", "benchmark"]) == 0
        assert SweepSpec.load(out).mode == "benchmark"

    def test_run_executes_a_spec_file(self, tmp_path, capsys):
        from repro.pisa import AnnealingConfig, PISAConfig
        from repro.sweeps import SweepSpec

        spec = SweepSpec(
            name="cli-probe",
            schedulers=("HEFT", "CPoP"),
            config=PISAConfig(
                annealing=AnnealingConfig(max_iterations=10, alpha=0.8), restarts=1
            ),
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["sweep", "run", str(path), "--run-dir", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "cli-probe" in out and "HEFT" in out
        assert (tmp_path / "run" / "units.jsonl").exists()

    def test_run_refuses_existing_run_dir_without_resume(self, tmp_path, capsys):
        from repro.pisa import AnnealingConfig, PISAConfig
        from repro.sweeps import SweepSpec

        spec = SweepSpec(
            name="twice",
            schedulers=("HEFT", "CPoP"),
            config=PISAConfig(
                annealing=AnnealingConfig(max_iterations=10, alpha=0.8), restarts=1
            ),
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        run_dir = str(tmp_path / "run")
        assert main(["sweep", "run", str(path), "--run-dir", run_dir]) == 0
        capsys.readouterr()
        # Forgot --resume: a clean CLI error, not a traceback.
        assert main(["sweep", "run", str(path), "--run-dir", run_dir]) == 2
        assert "resume" in capsys.readouterr().err

    def test_run_reports_spec_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "mode": "quantum"}')
        assert main(["sweep", "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "mode" in err and str(path) in err

    def _benchmark_spec_file(self, tmp_path):
        from repro.sweeps import SourceSpec, SweepSpec

        spec = SweepSpec(
            name="cli-dist",
            mode="benchmark",
            schedulers=("HEFT", "CPoP"),
            source=SourceSpec("dataset", {"dataset": "chains"}),
            num_instances=3,
            sampling="sequential",
            seed=2,
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        return path

    def _serve_and_drain(self, tmp_path, spec_path, monkeypatch) -> str:
        """``sweep serve --spec`` in a thread, drained by one ``sweep
        work``, then shut down like Ctrl-C would; returns the served run
        directory."""
        import queue
        import threading

        from repro.runtime import coordinator

        servers: queue.Queue = queue.Queue()
        bind = coordinator.serve_coordinator

        def serve_coordinator(*args, **kwargs):
            server = bind(*args, **kwargs)
            servers.put(server)
            return server

        monkeypatch.setattr(coordinator, "serve_coordinator", serve_coordinator)
        run_dir = str(tmp_path / "run")
        serve = threading.Thread(
            target=main,
            args=(["sweep", "serve", run_dir, "--spec", str(spec_path)],),
            daemon=True,
        )
        serve.start()
        server = servers.get(timeout=30)
        try:
            assert main(
                ["sweep", "work", "--coordinator", server.url, "--worker-id", "w1"]
            ) == 0
        finally:
            server.shutdown()
            serve.join(timeout=30)
        assert not serve.is_alive()
        return run_dir

    def test_work_initializes_and_drains_then_status_reports_complete(
        self, tmp_path, capsys, monkeypatch
    ):
        spec_path = self._benchmark_spec_file(tmp_path)
        run_dir = self._serve_and_drain(tmp_path, spec_path, monkeypatch)
        out = capsys.readouterr().out
        assert "executed 3 unit(s)" in out
        assert "run complete (3/3 units)" in out
        assert main(["sweep", "status", run_dir]) == 0
        out = capsys.readouterr().out
        assert "cli-dist" in out and "3/3" in out
        assert "complete" in out and "incomplete" not in out
        # The drained directory aggregates via `sweep run --resume`.
        assert main(
            ["sweep", "run", str(spec_path), "--run-dir", run_dir, "--resume"]
        ) == 0
        assert "cli-dist" in capsys.readouterr().out

    def test_work_rejects_bad_timing_flags_cleanly(self, capsys):
        url = "http://127.0.0.1:1"
        for flag, value in (
            ("--heartbeat", "-1"), ("--poll", "-1"), ("--retry", "0"), ("--batch", "0")
        ):
            assert main(["sweep", "work", "--coordinator", url, flag, value]) == 2
            assert flag in capsys.readouterr().err

    def test_run_distributed_backend_executes_a_spec_file(self, tmp_path, capsys):
        from repro.runtime import RunCheckpoint
        from repro.runtime.coordinator import running_coordinator
        from repro.sweeps import SweepSpec, plan_sweep

        spec_path = self._benchmark_spec_file(tmp_path)
        run_dir = tmp_path / "run"
        plan = plan_sweep(SweepSpec.load(spec_path))
        RunCheckpoint(run_dir).initialize(plan.manifest(), resume=True)
        with running_coordinator(run_dir, unit_keys=[u.key for u in plan.units]) as server:
            assert main(
                ["sweep", "run", str(spec_path), "--backend", "coordinator",
                 "--coordinator", server.url, "--batch", "2"]
            ) == 0
        assert "cli-dist" in capsys.readouterr().out
        assert list(run_dir.glob("units-*.jsonl"))

    def test_status_on_non_run_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["sweep", "status", str(tmp_path)]) == 2
        assert "not a run directory" in capsys.readouterr().err

    def test_status_json_emits_the_shared_schema(self, tmp_path, capsys, monkeypatch):
        import json

        spec_path = self._benchmark_spec_file(tmp_path)
        run_dir = self._serve_and_drain(tmp_path, spec_path, monkeypatch)
        capsys.readouterr()
        assert main(["sweep", "status", run_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "filesystem" and payload["schema"] == 1
        assert payload["complete"] and payload["completed_units"] == 3
        assert payload["active_leases"] == []

    def test_work_requires_exactly_one_of_run_dir_and_coordinator(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "work"])
        assert "--coordinator" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["sweep", "work", str(tmp_path / "r"), "--coordinator", "http://h:1"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_work_coordinator_rejects_directory_only_flags(self, capsys):
        # The shared-directory flags are gone: the coordinator's manifest
        # defines the sweep and `sweep serve --ttl` sets the lease TTL.
        for flag, value in (("--spec", "s.json"), ("--ttl", "30")):
            with pytest.raises(SystemExit):
                main(["sweep", "work", "--coordinator", "http://h:1", flag, value])
            assert flag in capsys.readouterr().err

    def test_status_requires_exactly_one_source(self, capsys):
        assert main(["sweep", "status"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_run_coordinator_backend_requires_url(self, tmp_path, capsys):
        spec_path = self._benchmark_spec_file(tmp_path)
        assert main(["sweep", "run", str(spec_path), "--backend", "coordinator"]) == 2
        assert "--coordinator" in capsys.readouterr().err
        assert main(
            ["sweep", "run", str(spec_path), "--coordinator", "http://h:1"]
        ) == 2
        assert "--backend coordinator" in capsys.readouterr().err

    def test_serve_without_manifest_or_spec_fails_cleanly(self, tmp_path, capsys):
        assert main(["sweep", "serve", str(tmp_path / "empty")]) == 2
        assert "manifest" in capsys.readouterr().err
