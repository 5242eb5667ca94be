"""Tests for run-directory garbage collection (src/repro/runtime/gc.py)."""

from __future__ import annotations

import json

from repro.runtime.checkpoint import RunCheckpoint
from repro.runtime.distributed import (
    ADVISORY_LEASE_UNIT,
    Lease,
    advisory_lease_path,
    write_advisory_lease,
)
from repro.runtime.gc import collectable, gc_runs, scan_runs

NOW = 1_000_000.0


def _write_lease(run_dir, *, worker="coordinator-1", heartbeat, ttl=60.0):
    """Write the advisory lease a coordinator serving ``run_dir`` holds."""
    import os

    lease = Lease(
        unit=ADVISORY_LEASE_UNIT,
        worker=worker,
        acquired_at=heartbeat,
        heartbeat=heartbeat,
        ttl=ttl,
    )
    write_advisory_lease(run_dir, lease)
    os.utime(advisory_lease_path(run_dir), (heartbeat, heartbeat))


def _make_run(path, *, total=4, completed=4, kind="sweep", name=None, mtime=NOW):
    """Write a minimal run directory with `completed` unit records."""
    checkpoint = RunCheckpoint(path)
    manifest = {"kind": kind, "units": total}
    if name is not None:
        manifest["spec"] = {"name": name}
    checkpoint.initialize(manifest, resume=False)
    for i in range(completed):
        checkpoint.record(f"u{i}", i)
    import os

    for file in (checkpoint.manifest_path, checkpoint.units_path):
        os.utime(file, (mtime, mtime))
    return path


class TestScan:
    def test_finds_nested_run_dirs(self, tmp_path):
        _make_run(tmp_path / "a")
        _make_run(tmp_path / "panels" / "blast_ccr0.2" / "pisa")
        statuses = scan_runs(tmp_path, now=NOW)
        assert sorted(s.path.name for s in statuses) == ["a", "pisa"]

    def test_root_itself_can_be_a_run_dir(self, tmp_path):
        _make_run(tmp_path)
        statuses = scan_runs(tmp_path, now=NOW)
        assert [s.path for s in statuses] == [tmp_path]

    def test_missing_root_is_empty(self, tmp_path):
        assert scan_runs(tmp_path / "nope") == []

    def test_progress_and_identity(self, tmp_path):
        _make_run(tmp_path / "r", total=5, completed=3, name="fig4")
        (status,) = scan_runs(tmp_path, now=NOW)
        assert status.name == "fig4"
        assert status.kind == "sweep"
        assert status.total_units == 5
        assert status.completed_units == 3
        assert not status.complete
        assert "fig4" in status.describe()

    def test_corrupt_manifest_with_units_is_reported_not_fatal(self, tmp_path):
        run = tmp_path / "r"
        run.mkdir()
        (run / "manifest.json").write_text("{broken")
        (run / "units.jsonl").write_text('{"key": "u0", "result": 1}\n')
        (status,) = scan_runs(tmp_path, now=NOW)
        assert status.total_units is None and not status.complete

    def test_unreadable_manifest_with_units_still_counts(self, tmp_path, monkeypatch):
        """The documented damaged-run rule: unreadable manifest.json next
        to a units.jsonl is still a (never-complete) run directory."""
        run = _make_run(tmp_path / "r", total=4, completed=2)
        real_read_text = type(run).read_text

        def failing_read_text(self, *args, **kwargs):
            if self.name == "manifest.json":
                raise OSError("permission denied")
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(type(run), "read_text", failing_read_text)
        (status,) = scan_runs(tmp_path, now=NOW)
        assert status.completed_units == 2
        assert status.total_units is None and not status.complete

    def test_foreign_manifests_are_not_run_dirs(self, tmp_path):
        """A browser-extension-style manifest.json must never be classified
        (let alone deleted) by gc."""
        ext = tmp_path / "extension"
        ext.mkdir()
        (ext / "manifest.json").write_text(
            json.dumps({"name": "ext", "version": "1.0", "manifest_version": 3})
        )
        (ext / "background.js").write_text("// precious\n")
        _make_run(tmp_path / "real", name="fig4")
        statuses = scan_runs(tmp_path, now=NOW)
        assert [s.path.name for s in statuses] == ["real"]
        collect, _ = gc_runs(tmp_path, stale_seconds=0, delete=True, now=NOW)
        assert ext.exists() and (ext / "background.js").exists()
        assert all(s.path != ext for s in collect)


class TestCollectable:
    def test_complete_runs_collect_by_default(self, tmp_path):
        _make_run(tmp_path / "r")
        (status,) = scan_runs(tmp_path, now=NOW)
        assert collectable(status)
        assert not collectable(status, completed=False)

    def test_incomplete_runs_need_stale_threshold(self, tmp_path):
        _make_run(tmp_path / "r", total=4, completed=1, mtime=NOW - 7200)
        (status,) = scan_runs(tmp_path, now=NOW)
        assert not collectable(status)  # resumable work is precious
        assert not collectable(status, stale_seconds=10_000)
        assert collectable(status, stale_seconds=3600)

    def test_unknown_total_never_counts_as_complete(self, tmp_path):
        run = tmp_path / "r"
        run.mkdir()
        (run / "manifest.json").write_text(json.dumps({"kind": "misc"}))
        (status,) = scan_runs(tmp_path, now=NOW)
        assert not collectable(status)


class TestLeaseAwareGc:
    def test_live_lease_blocks_collection(self, tmp_path):
        """A coordinator is serving this run to workers, possibly on
        other hosts."""
        run = _make_run(tmp_path / "r")  # complete, normally collectable
        _write_lease(run, heartbeat=NOW - 5, ttl=60)
        (status,) = scan_runs(tmp_path, now=NOW)
        assert status.active_leases == 1
        assert not collectable(status)
        assert not collectable(status, stale_seconds=1)
        assert "served by a live coordinator" in status.describe()
        collect, keep = gc_runs(tmp_path, delete=True, stale_seconds=1, now=NOW)
        assert collect == []
        assert run.exists()

    def test_expired_lease_does_not_block_collection(self, tmp_path):
        run = _make_run(tmp_path / "r")
        _write_lease(run, heartbeat=NOW - 7200, ttl=60)
        (status,) = scan_runs(tmp_path, now=NOW)
        assert status.active_leases == 0
        assert status.stale_leases == 1
        assert collectable(status)
        collect, _ = gc_runs(tmp_path, delete=True, now=NOW)
        assert [s.path for s in collect] == [run]
        assert not run.exists()

    def test_shard_records_count_toward_completion(self, tmp_path):
        """Distributed runs record into units-*.jsonl shards; gc must see
        them or it would misclassify finished multi-worker runs as stale."""
        run = tmp_path / "r"
        checkpoint = RunCheckpoint(run)
        checkpoint.initialize({"kind": "sweep", "units": 3}, resume=False)
        checkpoint.record("u0", 0)
        checkpoint.record("u1", 1, shard="w1")
        checkpoint.record("u2", 2, shard="w2")
        checkpoint.record("u2", 2, shard="w1")  # duplicate must not inflate
        import os

        for path in checkpoint.result_paths() + [checkpoint.manifest_path]:
            os.utime(path, (NOW, NOW))
        (status,) = scan_runs(tmp_path, now=NOW)
        assert status.completed_units == 3
        assert status.complete
        assert collectable(status)


class TestGcRuns:
    def test_dry_run_removes_nothing(self, tmp_path):
        run = _make_run(tmp_path / "done")
        collect, keep = gc_runs(tmp_path, now=NOW)
        assert [s.path for s in collect] == [run]
        assert keep == []
        assert run.exists()

    def test_delete_removes_only_collectable(self, tmp_path):
        done = _make_run(tmp_path / "done")
        fresh = _make_run(tmp_path / "fresh", total=4, completed=1, mtime=NOW)
        collect, keep = gc_runs(tmp_path, delete=True, now=NOW)
        assert [s.path for s in collect] == [done]
        assert [s.path for s in keep] == [fresh]
        assert not done.exists()
        assert fresh.exists()

    def test_stale_collection(self, tmp_path):
        stale = _make_run(tmp_path / "stale", total=4, completed=1, mtime=NOW - 10 * 3600)
        recent = _make_run(tmp_path / "recent", total=4, completed=1, mtime=NOW - 3600)
        collect, keep = gc_runs(
            tmp_path, completed=False, stale_seconds=5 * 3600, delete=True, now=NOW
        )
        assert [s.path for s in collect] == [stale]
        assert [s.path for s in keep] == [recent]
        assert not stale.exists() and recent.exists()

    def test_collectable_parent_with_kept_nested_run_is_pinned(self, tmp_path):
        """Removing a complete parent run must not destroy an incomplete
        (resumable) run checkpointed beneath it."""
        parent = _make_run(tmp_path / "panel")
        nested = _make_run(tmp_path / "panel" / "fig7", total=8, completed=2, mtime=NOW)
        collect, keep = gc_runs(tmp_path, delete=True, now=NOW)
        assert collect == []
        assert sorted(s.path.name for s in keep) == ["fig7", "panel"]
        assert parent.exists() and nested.exists()

    def test_torn_final_line_does_not_count_as_completed(self, tmp_path):
        run = _make_run(tmp_path / "r", total=3, completed=2)
        with (run / "units.jsonl").open("a") as fh:
            fh.write('{"key": "u2", "resu')  # killed mid-write
        (status,) = scan_runs(tmp_path, now=NOW)
        assert status.completed_units == 2
        assert not status.complete
        collect, _ = gc_runs(tmp_path, delete=True, now=NOW)
        assert collect == [] and run.exists()

    def test_nested_collectable_runs_removed_once(self, tmp_path):
        parent = _make_run(tmp_path / "panel")
        _make_run(tmp_path / "panel" / "pisa")
        collect, _ = gc_runs(tmp_path, delete=True, now=NOW)
        assert len(collect) == 2
        assert not parent.exists()


    def test_failed_deletions_are_not_reported_removed(self, tmp_path, monkeypatch):
        import shutil as _shutil

        run = _make_run(tmp_path / "stuck")
        monkeypatch.setattr(_shutil, "rmtree", lambda *a, **k: None)  # deletion fails
        collect, keep = gc_runs(tmp_path, delete=True, now=NOW)
        assert collect == []  # nothing actually went away
        assert [s.path for s in keep] == [run]
        assert keep[0].delete_failed
        assert run.exists()

    def test_failed_deletion_exits_nonzero_via_cli(self, tmp_path, capsys, monkeypatch):
        import shutil as _shutil

        from repro.__main__ import main

        _make_run(tmp_path / "stuck")
        monkeypatch.setattr(_shutil, "rmtree", lambda *a, **k: None)
        assert main(["runs", "gc", str(tmp_path), "--delete"]) == 1
        assert "FAILED to remove" in capsys.readouterr().out


class TestCli:
    def test_gc_dry_run_and_delete(self, tmp_path, capsys):
        from repro.__main__ import main

        _make_run(tmp_path / "done", name="fig4")
        _make_run(tmp_path / "fresh", total=4, completed=1)
        assert main(["runs", "gc", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "would remove" in out and "fig4" in out
        assert "kept" in out
        assert (tmp_path / "done").exists()

        assert main(["runs", "gc", str(tmp_path), "--delete"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert not (tmp_path / "done").exists()
        assert (tmp_path / "fresh").exists()

    def test_gc_empty_root(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["runs", "gc", str(tmp_path / "missing")]) == 0
        assert "no run directories" in capsys.readouterr().out
