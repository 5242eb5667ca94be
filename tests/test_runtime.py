"""Tests for the parallel experiment runtime (src/repro/runtime/).

The properties that make the runtime trustworthy:

* **jobs-invariance** — a pairwise sweep's ratio matrix is bit-identical
  at ``jobs=1`` and ``jobs>1`` for a fixed seed (every work unit owns a
  deterministically spawned RNG stream);
* **serial fidelity** — ``jobs=1`` goes through the same code as a plain
  loop of ``PISA.run`` calls over spawned per-pair generators;
* **resumability** — killing a sweep after N units and resuming from its
  checkpoint produces the same final matrix while re-executing only the
  missing units;
* **restart independence** — ``PISA.run`` seeds each restart from its
  own spawned child, so restart ``i`` does not depend on how many
  restarts run before or after it.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.pisa import PISA, AnnealingConfig, PISAConfig, pairwise_comparison
from repro.runtime import (
    CheckpointError,
    RunCheckpoint,
    WorkUnit,
    decode_unit_result,
    encode_unit_result,
    run_pairwise_unit,
    run_units,
    unit_key,
)
from repro.sweeps import fig4_spec, run_sweep
from repro.utils.rng import as_generator, spawn

FAST = PISAConfig(annealing=AnnealingConfig(max_iterations=25, alpha=0.9), restarts=2)
SCHEDULERS = ["HEFT", "CPoP", "MinMin"]


def _ratios(result):
    return {pair: res.restart_ratios for pair, res in result.results.items()}


# ---------------------------------------------------------------------- #
# Generic executor
# ---------------------------------------------------------------------- #
def _square_unit(unit: WorkUnit) -> int:
    return int(unit.payload) ** 2


def _draw_unit(unit: WorkUnit) -> float:
    return float(unit.rng.random())


class TestRunUnits:
    def test_serial_results_keyed_by_unit(self):
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(5)]
        results = run_units(units, _square_unit)
        assert results == {f"u{i}": i * i for i in range(5)}

    def test_parallel_matches_serial(self):
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(8)]
        assert run_units(units, _square_unit, jobs=4) == run_units(units, _square_unit)

    def test_spawned_rngs_are_jobs_invariant(self):
        units = [
            WorkUnit(key=f"u{i}", rng=gen) for i, gen in enumerate(spawn(123, 6))
        ]
        serial = run_units(units, _draw_unit, jobs=1)
        # Fresh generators: WorkUnit rngs are stateful, re-spawn for the
        # parallel run.
        units2 = [
            WorkUnit(key=f"u{i}", rng=gen) for i, gen in enumerate(spawn(123, 6))
        ]
        parallel = run_units(units2, _draw_unit, jobs=3)
        assert serial == parallel

    def test_duplicate_keys_rejected(self):
        units = [WorkUnit(key="same", payload=1), WorkUnit(key="same", payload=2)]
        with pytest.raises(ValueError, match="unique"):
            run_units(units, _square_unit)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_units([WorkUnit(key="u", payload=1)], _square_unit, jobs=0)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError, match="key"):
            WorkUnit(key="")

    def test_checkpoint_skips_completed_units(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "squares"}, resume=False)
        executed: list[str] = []

        def worker(unit):
            executed.append(unit.key)
            return int(unit.payload) ** 2

        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(4)]
        first = run_units(units, worker, checkpoint=checkpoint)
        assert executed == ["u0", "u1", "u2", "u3"]

        executed.clear()
        again = run_units(units, worker, checkpoint=checkpoint)
        assert executed == []
        assert again == first

    def test_on_result_reports_cached_flag(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "squares"}, resume=False)
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(3)]
        run_units(units[:2], _square_unit, checkpoint=checkpoint)
        seen: list[tuple[str, bool]] = []
        run_units(
            units,
            _square_unit,
            checkpoint=checkpoint,
            on_result=lambda u, r, cached: seen.append((u.key, cached)),
        )
        assert seen == [("u0", True), ("u1", True), ("u2", False)]


# ---------------------------------------------------------------------- #
# The pool-child initializer seam
# ---------------------------------------------------------------------- #
_MARKER_DIR_ENV = "REPRO_TEST_POOL_MARKERS"


def _mark_pool_child() -> None:
    """Stand-in pool initializer: one marker line per process that runs it."""
    marker = Path(os.environ[_MARKER_DIR_ENV]) / f"child-{os.getpid()}"
    with marker.open("a") as fh:
        fh.write("init\n")


def _pid_unit(unit: WorkUnit) -> int:
    return os.getpid()


class TestPoolChildInit:
    """``run_units`` runs ``executor._pool_child_init`` once in every pool
    child, looked up at call time.  The end-to-end tracer
    (``benchmarks/e2e/tracing.py``) replaces it to trace forked children;
    without this seam its per-layer numbers silently lose them."""

    def test_initializer_runs_once_in_every_pool_child(self, tmp_path, monkeypatch):
        from repro.runtime import executor

        monkeypatch.setenv(_MARKER_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(executor, "_pool_child_init", _mark_pool_child)
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(6)]
        worker_pids = set(run_units(units, _pid_unit, jobs=2).values())
        markers = {int(p.name.split("-")[1]): p.read_text() for p in tmp_path.glob("child-*")}
        assert os.getpid() not in markers  # never the parent
        assert worker_pids <= set(markers)  # every child that ran a unit
        assert 1 <= len(markers) <= 2  # one marker per pool child
        assert all(text == "init\n" for text in markers.values())


# ---------------------------------------------------------------------- #
# Checkpoint plumbing
# ---------------------------------------------------------------------- #
class TestRunCheckpoint:
    def test_manifest_mismatch_raises(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "a"}, resume=False)
        with pytest.raises(ValueError, match="manifest"):
            checkpoint.initialize({"kind": "b"}, resume=True)

    def test_fresh_run_refuses_to_destroy_completed_units(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "a"}, resume=False)
        checkpoint.record("u0", 1)
        with pytest.raises(ValueError, match="resume"):
            checkpoint.initialize({"kind": "a"}, resume=False)
        # The completed unit survives the refused initialize.
        assert checkpoint.completed() == {"u0": 1}

    def test_fresh_run_over_empty_checkpoint_allowed(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "a"}, resume=False)
        checkpoint.initialize({"kind": "b"}, resume=False)
        assert checkpoint.manifest() == {"kind": "b"}

    def test_torn_final_line_ignored(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "a"}, resume=False)
        checkpoint.record("u0", 1)
        with checkpoint.units_path.open("a") as fh:
            fh.write('{"key": "u1", "resu')  # interrupted mid-write
        assert checkpoint.completed() == {"u0": 1}

    def test_units_without_manifest_rejected_on_resume(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.units_path.write_text('{"key": "u0", "result": 1}\n')
        with pytest.raises(ValueError, match="manifest.json is missing"):
            checkpoint.initialize({"kind": "a"}, resume=True)

    def test_record_after_torn_line_repairs_the_file(self, tmp_path):
        """The latent partial-line bug: a mid-write kill leaves a torn
        final line, and a record appended on resume used to glue onto it —
        losing the *new* result.  record() must start on a fresh line."""
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "a"}, resume=False)
        checkpoint.record("u0", 1)
        with checkpoint.units_path.open("a") as fh:
            fh.write('{"key": "u1", "resu')  # killed mid-write, no newline
        checkpoint.record("u2", 3)
        assert checkpoint.completed() == {"u0": 1, "u2": 3}
        # u1 stays incomplete (re-executed on resume); u2 must survive.

    def test_mid_file_garbage_skipped_and_logged(self, tmp_path, caplog):
        import logging

        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "a"}, resume=False)
        checkpoint.record("u0", 1)
        with checkpoint.units_path.open("a") as fh:
            fh.write("not json at all\n")
        checkpoint.record("u2", 3)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.checkpoint"):
            assert checkpoint.completed() == {"u0": 1, "u2": 3}
        assert any("unparseable" in record.message for record in caplog.records)


# ---------------------------------------------------------------------- #
# Pairwise sweeps on the runtime
# ---------------------------------------------------------------------- #
class TestPairwiseParallel:
    def test_jobs_invariance(self):
        serial = pairwise_comparison(SCHEDULERS, config=FAST, rng=0, jobs=1)
        parallel = pairwise_comparison(SCHEDULERS, config=FAST, rng=0, jobs=4)
        assert _ratios(serial) == _ratios(parallel)

    def test_serial_path_matches_pisa_run(self):
        """jobs=1 is the PISA.run serial path, not a reimplementation."""
        sweep = pairwise_comparison(SCHEDULERS, config=FAST, rng=11, jobs=1)
        pairs = [(t, b) for t in SCHEDULERS for b in SCHEDULERS if t != b]
        gen = as_generator(11)
        for (target, baseline), pair_gen in zip(pairs, spawn(gen, len(pairs))):
            direct = PISA(target, baseline, config=FAST).run(pair_gen)
            assert direct.restart_ratios == sweep.results[(target, baseline)].restart_ratios
            assert direct.best_ratio == sweep.results[(target, baseline)].best_ratio

    def test_progress_fires_once_per_pair(self):
        calls = []
        pairwise_comparison(
            ["HEFT", "CPoP"],
            config=FAST,
            rng=0,
            jobs=2,
            progress=lambda t, b, r: calls.append((t, b, r)),
        )
        assert sorted(c[:2] for c in calls) == [("CPoP", "HEFT"), ("HEFT", "CPoP")]

    def test_unit_result_roundtrip(self):
        pisa = PISA("HEFT", "CPoP", config=FAST)
        unit = WorkUnit(key=unit_key("HEFT", "CPoP", 0), payload=(pisa, 0), rng=spawn(3, 1)[0])
        result = run_pairwise_unit(unit)
        restored = decode_unit_result(json.loads(json.dumps(encode_unit_result(result))))
        assert restored.target == "HEFT" and restored.baseline == "CPoP"
        assert restored.annealing.best_energy == result.annealing.best_energy
        assert restored.annealing.initial_energy == result.annealing.initial_energy
        assert restored.annealing.best_state.task_graph == result.annealing.best_state.task_graph
        assert restored.annealing.best_state.network == result.annealing.best_state.network
        # Default config runs history-off: nothing recorded, lean record.
        assert result.annealing.history == [] and restored.annealing.history == []

    def test_unit_result_roundtrip_keeps_opted_in_history(self):
        from dataclasses import replace

        pisa = PISA("HEFT", "CPoP", config=replace(FAST, keep_history=True))
        unit = WorkUnit(key=unit_key("HEFT", "CPoP", 0), payload=(pisa, 0), rng=spawn(3, 1)[0])
        result = run_pairwise_unit(unit)
        assert len(result.annealing.history) == result.annealing.iterations > 0
        restored = decode_unit_result(json.loads(json.dumps(encode_unit_result(result))))
        assert restored.annealing.history == result.annealing.history


class TestCheckpointResume:
    """Durable runs go through a spec and ``run_sweep`` (the pairwise
    entry points keep no checkpoint): a chains spec of the same
    schedulers, config and seed."""

    def test_resume_after_partial_run(self, tmp_path):
        """Kill after N units, resume, same final matrix."""
        run_dir = tmp_path / "sweep"
        spec = fig4_spec(schedulers=SCHEDULERS, config=FAST, seed=5)
        full = run_sweep(spec, run_dir=run_dir)
        units_path = run_dir / "units.jsonl"
        lines = units_path.read_text().splitlines()
        total = len(lines)
        assert total == len(SCHEDULERS) * (len(SCHEDULERS) - 1) * FAST.restarts

        # Simulate an interrupt: keep only the first 5 completed units.
        units_path.write_text("\n".join(lines[:5]) + "\n")
        resumed = run_sweep(spec, run_dir=run_dir, resume=True)
        assert _ratios(resumed.pairwise) == _ratios(full.pairwise)
        # Only the missing units were appended.
        assert len(units_path.read_text().splitlines()) == total

    def test_resume_with_different_config_rejected(self, tmp_path):
        run_dir = tmp_path / "sweep"
        run_sweep(fig4_spec(schedulers=["HEFT", "CPoP"], config=FAST, seed=5), run_dir=run_dir)
        other = PISAConfig(
            annealing=AnnealingConfig(max_iterations=26, alpha=0.9), restarts=2
        )
        with pytest.raises(CheckpointError, match="manifest"):
            run_sweep(
                fig4_spec(schedulers=["HEFT", "CPoP"], config=other, seed=5),
                run_dir=run_dir,
                resume=True,
            )

    def test_resumed_best_instance_survives_roundtrip(self, tmp_path):
        run_dir = tmp_path / "sweep"
        spec = fig4_spec(schedulers=["HEFT", "CPoP"], config=FAST, seed=9)
        full = run_sweep(spec, run_dir=run_dir).pairwise
        # Resume with everything already complete: the matrix is rebuilt
        # purely from the checkpoint.
        restored = run_sweep(spec, run_dir=run_dir, resume=True).pairwise
        for pair, result in full.results.items():
            assert restored.results[pair].best_ratio == result.best_ratio
            assert restored.results[pair].best_instance.task_graph == result.best_instance.task_graph
            assert restored.results[pair].best_instance.network == result.best_instance.network

    def test_retired_pairwise_run_dir_is_not_resumable(self, tmp_path):
        """A run dir with the retired ``"kind": "pairwise"`` manifest (it
        did not record the search space) never resumes as a spec run."""
        run_dir = tmp_path / "sweep"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(
            json.dumps(
                {
                    "kind": "pairwise",
                    "schedulers": ["HEFT", "CPoP"],
                    "restarts": FAST.restarts,
                    "annealing": asdict(FAST.annealing),
                    "seed": 5,
                    "units": 2 * FAST.restarts,
                }
            )
        )
        spec = fig4_spec(schedulers=["HEFT", "CPoP"], config=FAST, seed=5)
        with pytest.raises(CheckpointError, match="manifest"):
            run_sweep(spec, run_dir=run_dir, resume=True)


# ---------------------------------------------------------------------- #
# The spawn start method (remote hosts won't always fork)
# ---------------------------------------------------------------------- #
class TestSpawnStartMethod:
    """The runtime's invariants must hold when worker processes are
    spawned rather than forked: spawn re-imports everything from scratch,
    which is exactly what workers on a remote host do."""

    SPAWN_PAIR = ["HEFT", "CPoP"]

    @pytest.fixture(autouse=True)
    def _force_spawn(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")

    def test_jobs_invariance_under_spawn(self):
        serial = pairwise_comparison(self.SPAWN_PAIR, config=FAST, rng=0, jobs=1)
        parallel = pairwise_comparison(self.SPAWN_PAIR, config=FAST, rng=0, jobs=2)
        assert _ratios(serial) == _ratios(parallel)

    def test_resume_after_kill_under_spawn(self, tmp_path):
        run_dir = tmp_path / "sweep"
        spec = fig4_spec(schedulers=self.SPAWN_PAIR, config=FAST, seed=5)
        full = run_sweep(spec, jobs=2, run_dir=run_dir)
        units_path = run_dir / "units.jsonl"
        lines = units_path.read_text().splitlines()
        # Simulate a mid-sweep kill: keep the first unit plus a torn line.
        units_path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        resumed = run_sweep(spec, jobs=2, run_dir=run_dir, resume=True)
        assert _ratios(resumed.pairwise) == _ratios(full.pairwise)


# ---------------------------------------------------------------------- #
# Per-restart seeding (PISA.run)
# ---------------------------------------------------------------------- #
class TestRestartSeeding:
    def test_restart_results_are_order_independent(self):
        """Restart i's outcome must not depend on how many restarts run."""
        ratios_by_restarts = {}
        for restarts in (1, 2, 3):
            config = PISAConfig(
                annealing=AnnealingConfig(max_iterations=25, alpha=0.9), restarts=restarts
            )
            result = PISA("HEFT", "CPoP", config=config).run(rng=42)
            ratios_by_restarts[restarts] = result.restart_ratios
        assert ratios_by_restarts[2][0] == ratios_by_restarts[1][0]
        assert ratios_by_restarts[3][:2] == ratios_by_restarts[2]

    def test_run_jobs_invariance(self):
        serial = PISA("HEFT", "CPoP", config=FAST).run(rng=7)
        parallel = PISA("HEFT", "CPoP", config=FAST).run(rng=7, jobs=2)
        assert serial.restart_ratios == parallel.restart_ratios
        assert serial.best_ratio == parallel.best_ratio

    def test_generator_input_still_deterministic(self):
        a = PISA("HEFT", "CPoP", config=FAST).run(np.random.default_rng(3))
        b = PISA("HEFT", "CPoP", config=FAST).run(np.random.default_rng(3))
        assert a.restart_ratios == b.restart_ratios


# ---------------------------------------------------------------------- #
# Family sampling on the runtime (Figs. 7/8)
# ---------------------------------------------------------------------- #
class TestFamilySampling:
    def test_run_family_jobs_invariance(self):
        from repro.experiments.fig7_fig8_families import fig7_instance, run_family

        serial = run_family("fig7", fig7_instance, 12, rng=0, jobs=1)
        parallel = run_family("fig7", fig7_instance, 12, rng=0, jobs=3)
        for scheduler in serial.makespans:
            assert np.array_equal(
                serial.makespans[scheduler], parallel.makespans[scheduler]
            )
