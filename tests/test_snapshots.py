"""Snapshot + segmented-journal persistence (runtime/coordinator.py).

What makes the O(live) restart trustworthy:

* **rollover mechanics** — the journal rolls to ``coordinator.<seq>.jsonl``
  at the size threshold, each roll publishes an atomic
  ``snapshot.<seq>.json``, and reaping keeps exactly the newest two
  snapshots plus the segments they do not cover (the fallback chain);
* **restart equivalence** — a coordinator reconstructed from
  snapshot + tail segments holds the same completion set, lease table
  (including ownership tokens), and shard counts as one that never
  crashed, with every restored lease flagged until its first renewal;
* **corruption tolerance** — a torn final journal line, a torn or
  missing newest snapshot, a manifest-mismatched snapshot (reused run
  directory), and a missing freshly-rolled active segment all fall back
  without losing acked state (hypothesis property over scripted
  histories x corruption kinds);
* **warm standby** — :func:`standby_coordinator` watches a live primary
  without binding, takes over the same port when the primary goes away,
  and serves the replayed state (tokens survive, so a held lease keeps
  renewing across the handoff); with the port closed, the primary's
  advisory lease alone keeps it alive until the lease goes stale;
* **housekeeping** — fresh (non-resume) initialization deletes stale
  segments and snapshots with the shards, and ``runs gc`` counts
  segment/snapshot mtimes toward idle age so an actively-snapshotting
  run is not "stale".
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import RunCheckpoint
from repro.runtime.backends import BatchClaimRequest, BatchLeaseRequest, BatchRecordRequest
from repro.runtime.checkpoint import (
    journal_segment_path,
    journal_segments,
    journal_snapshots,
)
from repro.runtime.coordinator import (
    ADVISORY_LEASE_UNIT,
    Coordinator,
    _primary_alive,
    serve_coordinator,
    standby_coordinator,
)
from repro.runtime.distributed import (
    DEFAULT_LEASE_TTL,
    Lease,
    advisory_lease_path,
    write_advisory_lease,
)

UNITS = [f"u{i}" for i in range(8)]


def _manifest(units: list[str] | None = None) -> dict:
    units = UNITS if units is None else units
    return {"kind": "sweep", "spec": {"name": "snap"}, "units": len(units)}


def _init_run(run_dir: Path, units: list[str] | None = None) -> None:
    RunCheckpoint(run_dir).initialize(_manifest(units), resume=True)


def _coordinator(run_dir: Path, segment_bytes: int = 300, ttl: float = 60.0) -> Coordinator:
    return Coordinator(run_dir, ttl=ttl, unit_keys=UNITS, segment_bytes=segment_bytes)


def _claim(c: Coordinator, unit: str, worker: str = "w0"):
    return c.claim_batch(BatchClaimRequest(units=(unit,), worker=worker))


def _record(c: Coordinator, unit: str, token: str, worker: str = "w0") -> None:
    c.record_batch(
        BatchRecordRequest(units=(unit,), results=({"k": unit},), worker=worker, token=token)
    )


def _renew(c: Coordinator, unit: str, token: str, worker: str = "w0") -> bool:
    return c.renew_batch(BatchLeaseRequest(units=(unit,), worker=worker, token=token)).ok


def _state(c: Coordinator) -> tuple:
    """Comparable restart-invariant state: completion set, lease table
    (modulo heartbeat instant and the restored flag), shard counts."""
    leases = {
        unit: (entry.worker, entry.token, entry.ttl, entry.reclaimed)
        for unit, entry in c._leases.items()
    }
    return set(c._completed), leases, dict(c._shard_counts)


# ---------------------------------------------------------------------- #
# Rollover mechanics
# ---------------------------------------------------------------------- #
class TestRollover:
    def test_small_sweep_never_rolls(self, tmp_path):
        _init_run(tmp_path)
        c = _coordinator(tmp_path, segment_bytes=1 << 20)
        reply = _claim(c, "u0")
        _record(c, "u0", reply.token)
        c.close()
        assert journal_segments(tmp_path) == [(0, tmp_path / "coordinator.jsonl")]
        assert journal_snapshots(tmp_path) == []

    def test_rollover_publishes_snapshots_and_reaps(self, tmp_path):
        _init_run(tmp_path)
        c = _coordinator(tmp_path, segment_bytes=200)
        for unit in UNITS:
            reply = _claim(c, unit)
            _record(c, unit, reply.token)
        c.close()
        snapshots = journal_snapshots(tmp_path)
        segments = journal_segments(tmp_path)
        assert len(snapshots) == 2, "reaping must keep exactly the newest two snapshots"
        previous = snapshots[-2][0]
        assert all(seq > previous for seq, _ in segments), (
            "segments covered by the second-newest snapshot must be reaped"
        )
        # The newest snapshot plus the journal tail reconstructs the full
        # completion set (the last records may postdate the last roll).
        state = json.loads(snapshots[-1][1].read_text())
        assert set(state["completed"]) <= set(UNITS)
        restarted = _coordinator(tmp_path)
        assert set(restarted.completed_keys()) == set(UNITS)
        restarted.close()

    def test_roll_journal_is_an_explicit_lever(self, tmp_path):
        _init_run(tmp_path)
        c = _coordinator(tmp_path, segment_bytes=1 << 20)
        reply = _claim(c, "u0")
        _record(c, "u0", reply.token)
        published = c.roll_journal()
        c.close()
        assert published.is_file()
        assert journal_snapshots(tmp_path) == [(0, published)]
        # Appends after the roll land in segment 1, not the sealed one.
        c2 = _coordinator(tmp_path, segment_bytes=1 << 20)
        _claim(c2, "u1")
        c2.close()
        assert journal_segment_path(tmp_path, 1).is_file()


# ---------------------------------------------------------------------- #
# Restart equivalence + fallbacks
# ---------------------------------------------------------------------- #
class TestRestart:
    def _build_history(self, run_dir: Path, segment_bytes: int = 250) -> tuple:
        _init_run(run_dir)
        c = _coordinator(run_dir, segment_bytes=segment_bytes)
        held = {}
        for unit in UNITS[:6]:
            reply = _claim(c, unit)
            _record(c, unit, reply.token)
        for unit in UNITS[6:]:
            held[unit] = _claim(c, unit).token
        expected = _state(c)
        c.close()
        return expected, held

    def test_snapshot_restart_matches_never_crashed_state(self, tmp_path):
        expected, held = self._build_history(tmp_path)
        assert journal_snapshots(tmp_path), "history too small to roll; shrink segments"
        restarted = _coordinator(tmp_path)
        assert _state(restarted) == expected
        # Tokens survive, so the holder's renewal still lands.
        for unit, token in held.items():
            assert _renew(restarted, unit, token)
        restarted.close()

    def test_restored_flag_until_first_renewal(self, tmp_path):
        _, held = self._build_history(tmp_path)
        restarted = _coordinator(tmp_path)
        payload = restarted.status_payload()
        flags = {item["unit"]: item["restored"] for item in payload["active_leases"]}
        assert flags and all(flags.values()), "every replayed lease must be flagged"
        unit, token = next(iter(held.items()))
        assert _renew(restarted, unit, token)
        payload = restarted.status_payload()
        flags = {item["unit"]: item["restored"] for item in payload["active_leases"]}
        assert flags[unit] is False, "a real renewal proves the worker alive"
        assert all(v for u, v in flags.items() if u != unit)
        restarted.close()

    def test_results_hydrate_lazily_after_snapshot_restart(self, tmp_path):
        expected, _ = self._build_history(tmp_path)
        restarted = _coordinator(tmp_path)
        assert restarted._results_hydrated is False, (
            "a snapshot restart must not scan the shards eagerly"
        )
        results = restarted.results()
        assert set(results) == expected[0]
        assert results["u0"] == {"k": "u0"}
        restarted.close()

    def test_torn_newest_snapshot_falls_back(self, tmp_path):
        expected, _ = self._build_history(tmp_path)
        seq, newest = journal_snapshots(tmp_path)[-1]
        raw = newest.read_bytes()
        newest.write_bytes(raw[: len(raw) // 2])
        restarted = _coordinator(tmp_path)
        assert _state(restarted) == expected
        restarted.close()

    def test_mismatched_manifest_snapshot_is_refused(self, tmp_path):
        expected, _ = self._build_history(tmp_path)
        # Reused-directory scenario: the snapshot claims another
        # experiment's identity.  With its hash broken it must be
        # ignored; state still rebuilds from shards + journal.
        for _, path in journal_snapshots(tmp_path):
            state = json.loads(path.read_text())
            state["manifest_sha1"] = "0" * 40
            path.write_text(json.dumps(state))
        restarted = _coordinator(tmp_path)
        assert _state(restarted) == expected
        assert restarted._results_hydrated is True, (
            "with every snapshot refused, restart is the full-replay path"
        )
        restarted.close()

    def test_restart_appends_past_snapshot_covered_segments(self, tmp_path):
        expected, _ = self._build_history(tmp_path)
        snap_seq = journal_snapshots(tmp_path)[-1][0]
        restarted = _coordinator(tmp_path)
        assert restarted._segment_seq > snap_seq, (
            "appending into a snapshot-covered segment would hide events "
            "from the next restart"
        )
        restarted.close()


# ---------------------------------------------------------------------- #
# Hypothesis: scripted histories x corruption at the boundaries
# ---------------------------------------------------------------------- #
FATES = ("hold", "record", "release")
CORRUPTIONS = ("none", "torn_tail", "torn_snapshot", "drop_newest_snapshot", "drop_active")


@settings(max_examples=25, deadline=None)
@given(
    script=st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(UNITS) - 1), st.sampled_from(FATES)),
        min_size=1,
        max_size=16,
    ),
    segment_bytes=st.sampled_from((150, 400, 1 << 20)),
    corruption=st.sampled_from(CORRUPTIONS),
)
def test_restart_survives_boundary_corruption(script, segment_bytes, corruption):
    """Restart state == never-crashed state under every corruption a kill
    can leave at a snapshot/segment boundary.

    Every corruption here only damages artifacts whose loss the design
    tolerates (a torn unacked tail, a snapshot — always redundant with
    the journal chain, a freshly-rolled empty active segment); acked
    state must survive all of them, on histories that roll at arbitrary
    points of the op sequence.
    """
    with tempfile.TemporaryDirectory() as scratch:
        run_dir = Path(scratch) / "run"
        _init_run(run_dir)
        c = _coordinator(run_dir, segment_bytes=segment_bytes)
        for index, (unit_index, fate) in enumerate(script):
            unit = UNITS[unit_index]
            worker = f"w{index % 3}"
            reply = _claim(c, unit, worker=worker)
            if not reply.granted:
                continue
            if fate == "record":
                _record(c, unit, reply.token, worker=worker)
            elif fate == "release":
                c.release_batch(BatchLeaseRequest(units=(unit,), worker=worker, token=reply.token))
        if corruption == "drop_active":
            # The only active segment safe to lose is a freshly-rolled
            # (still empty, lazily-created) one.
            c.roll_journal()
        expected = _state(c)
        active = c._journal.path
        c.close()

        if corruption == "torn_tail":
            with active.open("ab") as fh:
                fh.write(b'{"event": "claim", "unit": "u0", "wor')
        elif corruption == "drop_active" and active.exists():
            active.unlink()
        elif corruption in ("torn_snapshot", "drop_newest_snapshot"):
            snapshots = journal_snapshots(run_dir)
            if snapshots:
                _, newest = snapshots[-1]
                if corruption == "drop_newest_snapshot":
                    newest.unlink()
                else:
                    raw = newest.read_bytes()
                    newest.write_bytes(raw[: max(len(raw) - 7, 0)])

        restarted = _coordinator(run_dir)
        assert _state(restarted) == expected
        restarted.close()


# ---------------------------------------------------------------------- #
# Warm standby (in-process; the subprocess SIGKILL path lives in
# test_coordinator.py and the CI smoke job)
# ---------------------------------------------------------------------- #
def _free_port() -> int:
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestStandby:
    def test_standby_requires_explicit_port(self, tmp_path):
        _init_run(tmp_path)
        with pytest.raises(ValueError):
            standby_coordinator(tmp_path, port=0, unit_keys=UNITS)

    def test_stop_event_ends_the_watch(self, tmp_path):
        _init_run(tmp_path)
        stop = threading.Event()
        stop.set()
        assert standby_coordinator(tmp_path, port=_free_port(), stop=stop) is None

    def test_primary_alive_follows_the_advisory_lease_while_the_port_is_closed(
        self, tmp_path
    ):
        """With nothing listening on the port, the advisory lease alone
        decides: a fresh one (or a freshly torn file) keeps the primary
        alive; a stale or absent one does not."""
        port = _free_port()
        path = advisory_lease_path(tmp_path)
        assert not _primary_alive(tmp_path, "127.0.0.1", port)
        now = time.time()
        lease = Lease(
            unit=ADVISORY_LEASE_UNIT,
            worker="coordinator-1",
            acquired_at=now,
            heartbeat=now,
            ttl=2.0,
        )
        write_advisory_lease(tmp_path, lease)
        assert _primary_alive(tmp_path, "127.0.0.1", port)
        old = now - 60
        write_advisory_lease(tmp_path, replace(lease, heartbeat=old))
        os.utime(path, (old, old))
        assert not _primary_alive(tmp_path, "127.0.0.1", port)
        path.write_text('{"unit": "__coord')  # torn, fresh mtime
        assert _primary_alive(tmp_path, "127.0.0.1", port)
        old = now - DEFAULT_LEASE_TTL - 1
        os.utime(path, (old, old))
        assert not _primary_alive(tmp_path, "127.0.0.1", port)
        path.unlink()
        assert not _primary_alive(tmp_path, "127.0.0.1", port)

    def test_takeover_serves_replayed_state_on_the_same_port(self, tmp_path):
        _init_run(tmp_path)
        port = _free_port()
        primary = serve_coordinator(
            tmp_path, port=port, ttl=1.0, unit_keys=UNITS, segment_bytes=250
        )
        primary_thread = threading.Thread(target=primary.serve_forever, daemon=True)
        primary_thread.start()
        c = primary.coordinator
        for unit in UNITS[:4]:
            _record(c, unit, _claim(c, unit).token)
        held_token = _claim(c, "u4").token

        stop = threading.Event()
        result: dict = {}

        def watch() -> None:
            result["server"] = standby_coordinator(
                tmp_path, port=port, ttl=1.0, unit_keys=UNITS, poll=0.1, stop=stop
            )

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            # While the primary lives (port open), the standby must wait.
            time.sleep(0.5)
            assert watcher.is_alive()

            primary.shutdown()
            primary.server_close()
            primary_thread.join(timeout=10)

            watcher.join(timeout=30)
            assert not watcher.is_alive(), "standby never took over"
            takeover = result["server"]
            assert takeover is not None
            try:
                assert takeover.server_address[1] == port, "must bind the primary's port"
                replayed = takeover.coordinator
                assert set(replayed.completed_keys()) == set(UNITS[:4])
                # The held lease survived with its token: the in-flight
                # worker's renewals keep working across the handoff.
                assert _renew(replayed, "u4", held_token)
            finally:
                takeover.server_close()
        finally:
            stop.set()
            if primary_thread.is_alive():
                primary.shutdown()
                primary.server_close()


# ---------------------------------------------------------------------- #
# Housekeeping: fresh init + runs gc
# ---------------------------------------------------------------------- #
class TestHousekeeping:
    def test_fresh_init_refuses_over_results_then_cleans_abandoned_chain(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointError

        _init_run(tmp_path)
        c = _coordinator(tmp_path, segment_bytes=200)
        for unit in UNITS:
            _record(c, unit, _claim(c, unit).token)
        c.close()
        assert journal_segments(tmp_path) and journal_snapshots(tmp_path)
        # With completed units on disk the refusal still wins — snapshots
        # do not weaken the don't-lose-checkpointed-work guarantee.
        with pytest.raises(CheckpointError):
            RunCheckpoint(tmp_path).initialize(
                {"kind": "sweep", "spec": {"name": "other"}, "units": 2}, resume=False
            )
        # An *abandoned* directory (journal chain but no recorded units):
        # a fresh run must not inherit the chain, or the new coordinator
        # would resurrect the old experiment's leases and completions.
        abandoned = tmp_path / "abandoned"
        _init_run(abandoned)
        c = Coordinator(abandoned, ttl=60.0, unit_keys=UNITS, segment_bytes=1 << 20)
        for unit in UNITS:
            _claim(c, unit)
        c.roll_journal()
        c.close()
        assert journal_segments(abandoned) and journal_snapshots(abandoned)
        RunCheckpoint(abandoned).initialize(
            {"kind": "sweep", "spec": {"name": "other"}, "units": 2}, resume=False
        )
        assert journal_segments(abandoned) == []
        assert journal_snapshots(abandoned) == []

    def test_gc_counts_snapshot_mtimes_toward_idle_age(self, tmp_path):
        import os

        from repro.runtime.gc import collectable, scan_runs

        _init_run(tmp_path)
        c = _coordinator(tmp_path, segment_bytes=200)
        for unit in UNITS[:4]:
            _record(c, unit, _claim(c, unit).token)
        c.close()
        assert journal_snapshots(tmp_path), "history too small to snapshot"
        # Age the manifest and every result shard far past staleness; the
        # journal artifacts stay fresh — the run is being coordinated.
        now = time.time()
        old = (now - 7200.0, now - 7200.0)
        os.utime(tmp_path / "manifest.json", old)
        for path in tmp_path.glob("units*.jsonl"):
            os.utime(path, old)
        fresh = scan_runs(tmp_path, now=now)
        assert len(fresh) == 1
        assert fresh[0].age_seconds < 1800.0, (
            "segment/snapshot mtimes must count toward idle age"
        )
        assert not collectable(fresh[0], stale_seconds=3600.0)
        # With the journal artifacts aged too, the run really is idle.
        for _, path in journal_segments(tmp_path) + journal_snapshots(tmp_path):
            os.utime(path, old)
        stale = scan_runs(tmp_path, now=now)[0]
        assert collectable(stale, stale_seconds=3600.0)
