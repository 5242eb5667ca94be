"""Tests for the worker side of multi-worker runs (src/repro/runtime/distributed.py).

The HTTP coordinator owns the only lease table (its own suite is
``tests/test_coordinator.py``).  This file pins what the rest of the
runtime promises around it:

* **the drain loop** — :func:`drain_units` against a live coordinator:
  exactly one execution per unit across concurrent workers, at batch 1
  and larger; a batch is recorded in ``/record-batch`` flushes (one per
  batch, plus one whenever a heartbeat interval has passed), and
  members count as done only once their flush is acked; a batch of one
  costs exactly one claim and one record request per unit; a worker
  exception hands its unit back at once; a dead worker's unit is
  re-granted after the coordinator's TTL; ``wait=False`` returns while
  a peer holds a live lease;
* **the advisory lease** — the one file under ``leases/`` a serving
  coordinator publishes, refreshes and removes (only while it names
  that coordinator), its unchanged path and five-field format, and the
  :func:`lease_seems_live` rule that ``runs gc``, ``sweep status``, a
  standby and fresh initialization share; the retired backend's
  per-unit lease files are ignored;
* **run-directory robustness** — torn / garbage trailing lines in
  ``units*.jsonl`` (what a killed writer leaves) are tolerated and
  logged, shards merge first-writer-wins, and a fresh initialization
  refuses to clobber results or a live lease;
* **plan reconstruction** — a run directory's manifest alone rebuilds
  its sweep (what ``repro sweep serve <run_dir>`` relies on), and
  manifests that cannot be rebuilt are refused;
* **bit-identity** — real ``repro sweep work`` processes draining a
  ``repro sweep serve`` coordinator, one SIGKILLed mid-unit (the
  ``REPRO_RUNTIME_UNIT_DELAY`` hook holds each unit open long enough to
  make "mid-unit" deterministic), merge bit-identically to
  ``run_sweep(spec, jobs=1)``; so does a worker SIGKILLed mid-batch
  before its first flush, whose finished members peers re-execute.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.observability.dashboard import parse_prometheus_text
from repro.pisa import AnnealingConfig, PISAConfig
from repro.runtime import RunCheckpoint, WorkUnit
from repro.runtime.backends import CoordinatorProtocolError, HttpWorkBackend
from repro.runtime.checkpoint import (
    CheckpointError,
    iter_result_records,
    safe_filename,
)
from repro.runtime.coordinator import (
    ADVISORY_LEASE_UNIT,
    _primary_alive,
    running_coordinator,
)
from repro.runtime.distributed import (
    DEFAULT_LEASE_TTL,
    Lease,
    advisory_lease_path,
    drain_units,
    inspect_run_dir,
    lease_seems_live,
    read_advisory_lease,
    run_units_coordinator,
    worker_identity,
    write_advisory_lease,
)
from repro.runtime.executor import run_units
from repro.runtime.gc import collectable, scan_runs
from repro.sweeps import (
    SourceSpec,
    SweepSpec,
    fig4_spec,
    load_run_plan,
    plan_sweep,
    run_sweep,
    work_coordinator,
)
from repro.utils.rng import spawn

TINY = PISAConfig(annealing=AnnealingConfig(max_iterations=10, alpha=0.8), restarts=2)
SCHEDULERS = ["HEFT", "CPoP", "MinMin"]  # 6 ordered pairs x 2 restarts = 12 units
REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def tiny_fig4_spec(seed: int = 0) -> SweepSpec:
    """The fig4 preset at test scale: same decomposition, tiny annealing."""
    return fig4_spec(schedulers=SCHEDULERS, config=TINY, seed=seed)


def tiny_benchmark_spec(seed: int = 1) -> SweepSpec:
    return SweepSpec(
        name="bench",
        mode="benchmark",
        schedulers=("HEFT", "CPoP"),
        source=SourceSpec("dataset", {"dataset": "chains"}),
        num_instances=4,
        sampling="sequential",
        seed=seed,
    )


def _ratios(result):
    return {pair: res.restart_ratios for pair, res in result.pairwise.results.items()}


@contextlib.contextmanager
def serving(run_dir: Path, keys: list[str], ttl: float = 30.0):
    """A coordinator over a minimal hand-rolled manifest for ``keys``,
    yielding ``(server, client)``."""
    RunCheckpoint(run_dir).initialize(
        {"kind": "sweep", "spec": {"name": "t"}, "units": len(keys)}, resume=True
    )
    with running_coordinator(run_dir, ttl=ttl, unit_keys=keys) as server:
        client = HttpWorkBackend(server.url, retry_timeout=10)
        try:
            yield server, client
        finally:
            client.close()


def _advisory(worker: str, heartbeat: float, ttl: float = 60.0) -> Lease:
    return Lease(
        unit=ADVISORY_LEASE_UNIT,
        worker=worker,
        acquired_at=heartbeat,
        heartbeat=heartbeat,
        ttl=ttl,
    )


def _drain(server, units, worker, **kwargs):
    """``drain_units`` as one worker with its own client."""
    backend = HttpWorkBackend(server.url, retry_timeout=10)
    try:
        return drain_units(units, worker, backend=backend, **kwargs)
    finally:
        backend.close()


# ---------------------------------------------------------------------- #
# Lease file format (property tests)
# ---------------------------------------------------------------------- #
_ids = st.text(
    st.characters(min_codepoint=33, max_codepoint=0x2FF), min_size=1, max_size=40
)
_times = st.floats(min_value=0, max_value=4e9, allow_nan=False, allow_infinity=False)
_ttls = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestLeaseFormat:
    @given(unit=_ids, worker=_ids, acquired=_times, heartbeat=_times, ttl=_ttls)
    def test_json_round_trip_is_lossless(self, unit, worker, acquired, heartbeat, ttl):
        lease = Lease(
            unit=unit, worker=worker, acquired_at=acquired, heartbeat=heartbeat, ttl=ttl
        )
        restored = Lease.from_dict(json.loads(json.dumps(lease.to_dict())))
        assert restored == lease

    @given(
        payload=st.one_of(
            st.none(),
            st.integers(),
            st.text(max_size=10),
            st.lists(st.integers(), max_size=3),
            st.dictionaries(st.sampled_from(["unit", "worker", "ttl"]), st.none(), max_size=2),
        )
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            Lease.from_dict(payload)


# ---------------------------------------------------------------------- #
# Races: advisory-lease publishes and the coordinator's expired leases
# ---------------------------------------------------------------------- #
class TestClaimRace:
    @given(contenders=st.integers(min_value=2, max_value=8))
    @settings(max_examples=15, deadline=None)
    def test_concurrent_claims_have_exactly_one_winner(self, contenders):
        """Coordinators starting at once over one run directory each
        publish the advisory lease: a reader racing them sees no file or
        a whole lease, never a torn one, and afterwards exactly one whole
        lease of one contender is left, with no temp file beside it."""
        with tempfile.TemporaryDirectory() as td:
            leases = [_advisory(f"w{i}", float(i)) for i in range(contenders)]
            barrier = threading.Barrier(contenders + 1, timeout=30)
            done = threading.Event()

            def attempt(i: int) -> None:
                barrier.wait()
                write_advisory_lease(td, leases[i])

            def watch() -> list:
                barrier.wait()
                seen = []
                while not done.is_set():
                    seen.append(read_advisory_lease(td))
                return seen

            with ThreadPoolExecutor(max_workers=contenders + 1) as pool:
                reader = pool.submit(watch)
                try:
                    list(pool.map(attempt, range(contenders)))
                finally:
                    done.set()
                seen = reader.result()
            assert all(found is None or found[1] in leases for found in seen)
            path, winner = read_advisory_lease(td)
            assert winner in leases
            assert [p.name for p in path.parent.iterdir()] == [path.name]

    @given(contenders=st.integers(min_value=2, max_value=6))
    @settings(max_examples=5, deadline=None)
    def test_concurrent_steals_of_a_stale_lease_have_exactly_one_winner(self, contenders):
        """A dead worker's expired lease is re-granted to exactly one of
        the workers racing for it, flagged as a reclaim."""
        with tempfile.TemporaryDirectory() as td:
            with serving(Path(td) / "run", ["u"], ttl=0.05) as (_, client):
                assert client.claim_batch(["u"], "dead") is not None
                time.sleep(0.1)  # the holder stays silent past its TTL
                barrier = threading.Barrier(contenders)

                def attempt(i: int):
                    barrier.wait()
                    try:
                        return client.claim_batch(["u"], f"w{i}")
                    finally:
                        client.close()  # this pool thread's own connection

                with ThreadPoolExecutor(max_workers=contenders) as pool:
                    results = list(pool.map(attempt, range(contenders)))
                winners = [batch for batch in results if batch is not None]
                assert len(winners) == 1
                assert winners[0].reclaimed_units == {"u"}


class TestLeaseLifecycle:
    def test_dead_lease_is_reclaimed_after_observed_ttl(self, tmp_path):
        """The coordinator judges a silent holder dead only once its own
        clock has watched a full TTL pass: a contender is refused before
        that and re-granted the unit, flagged as a reclaim, after."""
        with serving(tmp_path / "run", ["u0"], ttl=0.6) as (_, client):
            assert client.claim_batch(["u0"], "dead") is not None
            assert client.claim_batch(["u0"], "w1") is None
            time.sleep(0.8)
            stolen = client.claim_batch(["u0"], "w1")
            assert stolen is not None and stolen.reclaimed_units == {"u0"}

    def test_heartbeat_change_resets_the_staleness_watch(self, tmp_path):
        with serving(tmp_path / "run", ["u0"], ttl=0.6) as (_, client):
            slow = client.claim_batch(["u0"], "slow")
            time.sleep(0.4)
            assert client.renew_batch(slow) is not None  # just before the TTL lapses
            time.sleep(0.4)  # a full TTL since the claim, not since the beat
            assert client.claim_batch(["u0"], "w1") is None
            time.sleep(0.8)  # now silent past its TTL
            stolen = client.claim_batch(["u0"], "w1")
            assert stolen is not None and stolen.reclaimed_units == {"u0"}

    def test_torn_lease_is_respected_until_watched_for_a_full_ttl(self, tmp_path):
        """A torn advisory lease (an older coordinator wrote it in place
        and died mid-write) has no heartbeat: it counts as live until its
        mtime is a full default TTL old."""
        path = advisory_lease_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_text('{"unit": "__coord')  # torn write
        assert read_advisory_lease(tmp_path) == (path, None)
        now = time.time()
        assert lease_seems_live(None, path, now)
        status = inspect_run_dir(tmp_path, now=now)
        assert status.torn_leases == status.torn_live == 1
        old = now - DEFAULT_LEASE_TTL - 1
        os.utime(path, (old, old))
        assert not lease_seems_live(None, path, now)
        status = inspect_run_dir(tmp_path, now=now)
        assert status.torn_leases == 1 and status.torn_live == 0

    def test_renew_refreshes_heartbeat(self, tmp_path):
        """A serving coordinator refreshes its advisory lease every ttl/4
        (0.1 s here): the heartbeat on disk advances, nothing else
        changes, and a clean close removes the file."""
        run_dir = tmp_path / "run"
        with serving(run_dir, ["u0"], ttl=0.4):
            _, first = read_advisory_lease(run_dir)
            assert first == _advisory(f"coordinator-{os.getpid()}", first.heartbeat, 0.4)
            deadline = time.monotonic() + 5.0
            while (lease := read_advisory_lease(run_dir)[1]).heartbeat == first.heartbeat:
                assert time.monotonic() < deadline, "the advisory lease was never refreshed"
                time.sleep(0.02)
            assert lease.heartbeat > first.heartbeat
            assert lease == replace(first, heartbeat=lease.heartbeat)
        assert read_advisory_lease(run_dir) is None

    def test_release_by_a_robbed_worker_keeps_the_thiefs_lease(self, tmp_path):
        """A coordinator restarted after a SIGKILL replaces its dead
        predecessor's advisory lease; a predecessor that was only stalled
        must not remove its successor's live lease when it shuts down."""
        run_dir = tmp_path / "run"
        successor = _advisory("coordinator-successor", time.time())
        with serving(run_dir, ["u0"]):
            write_advisory_lease(run_dir, successor)
        assert read_advisory_lease(run_dir) == (advisory_lease_path(run_dir), successor)

    @pytest.mark.parametrize("claim_batch", [1, 4])
    def test_heartbeat_slower_than_ttl_rejected(self, tmp_path, claim_batch):
        """A heartbeat slower than the coordinator's TTL would let every
        live lease expire mid-unit; the first grant refuses it, and the
        whole refused batch goes straight back to the coordinator."""
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(4)]
        with serving(tmp_path / "run", [u.key for u in units], ttl=2.0) as (server, client):
            with pytest.raises(ValueError, match="smaller than the lease"):
                _drain(server, units, _square, heartbeat_interval=10, claim_batch=claim_batch)
            assert client.status()["active_leases"] == []
            assert client.completed_keys() == set()

    def test_renew_after_release_does_not_resurrect_the_lease(self, tmp_path):
        """A straggler refresh must not recreate a removed advisory lease:
        that phantom would block gc and fresh initialization for a full
        TTL.  The refresh is driven by hand; the 30 s TTL keeps the
        refresh thread out of the way."""
        run_dir = tmp_path / "run"
        path = advisory_lease_path(run_dir)
        with serving(run_dir, ["u0"]) as (server, _):
            path.unlink()
            server._refresh_advisory_lease()
            assert not path.exists()
        assert not path.exists()

    def test_renew_after_steal_reports_lost_ownership(self, tmp_path):
        """Once a successor has replaced the advisory lease, the old
        coordinator sees it no longer owns the file, and its refresh
        leaves the successor's lease untouched."""
        run_dir = tmp_path / "run"
        path = advisory_lease_path(run_dir)
        successor = _advisory("coordinator-successor", 1.0)
        with serving(run_dir, ["u0"]) as (server, _):
            assert server._owns_advisory_lease()
            write_advisory_lease(run_dir, successor)
            assert not server._owns_advisory_lease()
            server._refresh_advisory_lease()
            assert read_advisory_lease(run_dir) == (path, successor)
        assert read_advisory_lease(run_dir) == (path, successor)

    def test_advisory_lease_file_format_is_unchanged(self, tmp_path):
        """The advisory lease keeps its path and its five-field JSON, so
        older and newer versions read each other's files: a hand-written
        lease in the older coordinators' exact bytes is honoured by
        ``sweep status``, ``runs gc``, the fresh-initialization refusal
        and a standby's primary check, and a serving coordinator writes
        the same layout."""
        run_dir = tmp_path / "old"
        RunCheckpoint(run_dir).initialize({"kind": "sweep", "units": 1})
        path = run_dir / "leases" / "__coordinator__-5ed955a5.json"
        path.parent.mkdir()
        now = time.time()
        path.write_text(
            '{"unit": "__coordinator__", "worker": "coordinator-4242", '
            f'"acquired_at": {now!r}, "heartbeat": {now!r}, "ttl": 120.0}}\n'
        )
        status = inspect_run_dir(run_dir)
        assert status.active_leases == [_advisory("coordinator-4242", now, 120.0)]
        [scanned] = scan_runs(run_dir)
        assert scanned.active_leases == 1 and not collectable(scanned)
        assert _primary_alive(run_dir, "127.0.0.1", _free_port())
        with pytest.raises(CheckpointError, match="coordinator-4242"):
            RunCheckpoint(run_dir).initialize({"kind": "other"}, resume=False)

        served = tmp_path / "served"
        with serving(served, ["u0"]):
            assert [p.name for p in (served / "leases").iterdir()] == [path.name]
            written = json.loads((served / "leases" / path.name).read_text())
        assert list(written) == ["unit", "worker", "acquired_at", "heartbeat", "ttl"]
        assert written["unit"] == ADVISORY_LEASE_UNIT
        assert written["worker"] == f"coordinator-{os.getpid()}"

    def test_retired_per_unit_lease_files_are_ignored(self, tmp_path):
        """Per-unit ``leases/<unit>.json`` files of the retired
        shared-directory backend protect nothing, even fresh or torn:
        status and gc do not count them and a fresh initialization
        proceeds and deletes them."""
        run_dir = tmp_path / "run"
        RunCheckpoint(run_dir).initialize({"kind": "sweep", "units": 0})
        leases = run_dir / "leases"
        leases.mkdir()
        fresh = Lease(unit="u0", worker="old-w1", acquired_at=0.0, heartbeat=time.time(), ttl=120)
        (leases / f"{safe_filename('u0')}.json").write_text(json.dumps(fresh.to_dict()))
        (leases / f"{safe_filename('u1')}.json").write_text('{"unit": "u')  # torn
        status = inspect_run_dir(run_dir)
        assert status.active_leases == status.stale_leases == []
        assert status.torn_leases == 0
        [scanned] = scan_runs(run_dir)
        assert scanned.active_leases == scanned.stale_leases == 0
        assert collectable(scanned)
        RunCheckpoint(run_dir).initialize({"kind": "other"}, resume=False)
        assert not leases.exists()

    def test_worker_identity_is_stable_per_process_and_filesystem_safe(self):
        """One process is one worker: repeated calls must agree (its shard
        appends have to land under one id), while the random 32-bit
        suffix keeps hosts sharing a hostname+pid (container fleets, pid
        reuse) from colliding."""
        from repro.runtime import distributed

        a, b = worker_identity(), worker_identity()
        assert a == b
        suffix = a.rsplit("-", 1)[1]
        assert len(suffix) == 8  # 32 bits of hex
        int(suffix, 16)  # does not raise: it is the random suffix
        assert safe_filename(a)  # does not raise; names a valid shard
        # Another process draws its own suffix (simulated by resetting the
        # lazily-chosen one); hostname+pid equality alone must not collide.
        original = distributed._identity_suffix
        try:
            distributed._identity_suffix = None
            assert worker_identity() != a
        finally:
            distributed._identity_suffix = original


# ---------------------------------------------------------------------- #
# Shard/result file robustness (property tests)
# ---------------------------------------------------------------------- #
class TestResultFileRobustness:
    @given(
        n=st.integers(min_value=1, max_value=6),
        cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_resume_over_truncated_trailing_line(self, n, cut_fraction):
        """A killed writer's partial last line is tolerated, and appending
        after it never corrupts the new record (resume must not glue the
        fresh record onto the torn bytes)."""
        with tempfile.TemporaryDirectory() as td:
            checkpoint = RunCheckpoint(td)
            checkpoint.initialize({"kind": "t"})
            ends = {}
            for i in range(n):
                checkpoint.record(f"u{i}", i)
                ends[f"u{i}"] = checkpoint.units_path.stat().st_size
            blob = checkpoint.units_path.read_bytes()
            cut = int(len(blob) * cut_fraction)
            checkpoint.units_path.write_bytes(blob[:cut])

            completed = checkpoint.completed()  # must not raise
            survivors = {f"u{i}" for i in range(n) if ends[f"u{i}"] <= cut}
            assert survivors <= set(completed)
            assert set(completed) <= {f"u{i}" for i in range(n)}

            checkpoint.record("fresh", 99)
            completed = checkpoint.completed()
            assert completed["fresh"] == 99
            assert survivors <= set(completed)

    @given(n=st.integers(min_value=1, max_value=4), garbage=st.binary(max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_resume_over_garbage_trailing_bytes(self, n, garbage):
        from hypothesis import assume

        assume(b"key" not in garbage)
        with tempfile.TemporaryDirectory() as td:
            checkpoint = RunCheckpoint(td)
            checkpoint.initialize({"kind": "t"})
            for i in range(n):
                checkpoint.record(f"u{i}", i)
            with checkpoint.units_path.open("ab") as fh:
                fh.write(garbage)
            completed = checkpoint.completed()  # must not raise
            assert {f"u{i}": i for i in range(n)}.items() <= completed.items()

            checkpoint.record("fresh", 99)
            assert checkpoint.completed()["fresh"] == 99

    def test_garbage_lines_are_logged_not_fatal(self, tmp_path, caplog):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "t"})
        checkpoint.record("u0", 0)
        with checkpoint.units_path.open("a") as fh:
            fh.write('{"key": "u1", "resu')  # torn final line
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.runtime.checkpoint"):
            assert checkpoint.completed() == {"u0": 0}
        assert any("unparseable" in rec.message for rec in caplog.records)

    def test_shards_merge_and_dedupe_first_writer_wins(self, tmp_path, caplog):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "t"})
        checkpoint.record("u0", 1)
        checkpoint.record("u1", 2, shard="w1")
        checkpoint.record("u0", 999, shard="w1")  # late duplicate
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.runtime.checkpoint"):
            assert checkpoint.completed() == {"u0": 1, "u1": 2}
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_concurrent_attach_initialization_is_safe(self, tmp_path):
        """Racing `initialize(resume=True)` attaches must never destroy a
        winner's state: the manifest is published with an atomic exclusive
        link and the attach path deletes nothing."""
        manifest = {"kind": "sweep", "units": 2}
        barrier = threading.Barrier(4)
        errors = []

        def attach(i: int):
            checkpoint = RunCheckpoint(tmp_path / "run")
            barrier.wait()
            try:
                checkpoint.initialize(manifest, resume=True)
                # Immediately behave like a coordinator: claim and record.
                flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
                try:
                    os.close(os.open(tmp_path / "u0.claim", flags))
                except FileExistsError:
                    return
                checkpoint.record("u0", i, shard=f"w{i}")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(attach, range(4)))
        assert errors == []
        checkpoint = RunCheckpoint(tmp_path / "run")
        assert checkpoint.manifest() == manifest
        # Exactly one claimant recorded u0; nobody's shard was deleted.
        assert list(checkpoint.completed()) == ["u0"]

    def test_attach_with_mismatched_manifest_still_refused(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "sweep", "units": 2}, resume=True)
        with pytest.raises(CheckpointError, match="manifest"):
            RunCheckpoint(tmp_path / "run").initialize(
                {"kind": "sweep", "units": 3}, resume=True
            )

    def test_fresh_initialize_refuses_over_nonempty_shards(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "t"})
        checkpoint.record("u0", 1, shard="w1")
        with pytest.raises(CheckpointError, match="resume"):
            checkpoint.initialize({"kind": "t"}, resume=False)
        # resume keeps the shard records.
        checkpoint.initialize({"kind": "t"}, resume=True)
        assert checkpoint.completed() == {"u0": 1}

    def test_fresh_initialize_refuses_while_a_worker_holds_a_live_lease(self, tmp_path):
        """A serving coordinator may have recorded nothing yet, but
        overwriting the manifest under it would let its workers record
        results for a different experiment into this directory."""
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.initialize({"kind": "t"})
        write_advisory_lease(tmp_path, _advisory("coordinator-42", time.time()))
        with pytest.raises(CheckpointError, match="coordinator-42"):
            checkpoint.initialize({"kind": "other"}, resume=False)
        # Once the lease is dead (old heartbeat + old mtime), fresh
        # initialization proceeds and sweeps the husk.
        path = advisory_lease_path(tmp_path)
        old = time.time() - 3600
        write_advisory_lease(tmp_path, _advisory("dead", old, ttl=1.0))
        os.utime(path, (old, old))
        checkpoint.initialize({"kind": "other"}, resume=False)
        assert not path.parent.exists()


# ---------------------------------------------------------------------- #
# The drain loop (in-process workers against a live coordinator)
# ---------------------------------------------------------------------- #
def _square(unit: WorkUnit) -> int:
    return int(unit.payload) ** 2


def _draw(unit: WorkUnit) -> float:
    return float(unit.rng.random())


def _recorded_keys(run_dir: Path) -> list[str]:
    checkpoint = RunCheckpoint(run_dir)
    return [
        record["key"]
        for path in checkpoint.result_paths()
        for record in iter_result_records(path)
    ]


def _requests_served(client: HttpWorkBackend) -> dict[str, float]:
    """Requests the coordinator has answered so far, by endpoint."""
    series = parse_prometheus_text(client.metrics_text()).get(
        "coordinator_request_seconds_count", {}
    )
    return {dict(labels)["op"]: count for labels, count in series.items()}


class _RefusedFlush:
    """A backend delegating to ``inner`` whose ``refuse``-th
    ``record_batch`` call fails before anything is sent."""

    def __init__(self, inner: HttpWorkBackend, refuse: int) -> None:
        self.inner = inner
        self.refuse = refuse
        self.flushes = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def record_batch(self, batch, results) -> None:
        self.flushes += 1
        if self.flushes == self.refuse:
            raise CoordinatorProtocolError("flush refused")
        self.inner.record_batch(batch, results)


class TestDrainUnits:
    def test_single_worker_drains_everything(self, tmp_path):
        run_dir = tmp_path / "run"
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(5)]
        with serving(run_dir, [u.key for u in units]) as (server, client):
            stats = _drain(server, units, _square, worker_id="w1")
            assert client.results() == {f"u{i}": i * i for i in range(5)}
        assert stats.executed == 5 and stats.reclaimed == 0
        checkpoint = RunCheckpoint(run_dir)
        assert checkpoint.completed() == {f"u{i}": i * i for i in range(5)}
        # Results live in this worker's shard, not units.jsonl.
        assert not checkpoint.units_path.exists()
        assert checkpoint.result_paths() == [checkpoint.shard_path("w1")]

    def test_concurrent_workers_split_the_run_without_double_execution(self, tmp_path):
        run_dir = tmp_path / "run"
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(20)]
        with serving(run_dir, [u.key for u in units]) as (server, _):
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [
                    pool.submit(
                        _drain, server, units, _square, worker_id=f"w{i}", poll_interval=0.01
                    )
                    for i in range(3)
                ]
                all_stats = [f.result() for f in futures]
        assert sum(s.executed for s in all_stats) == 20
        assert RunCheckpoint(run_dir).completed() == {f"u{i}": i * i for i in range(20)}
        # Exactly once: no duplicate records across the three shards.
        assert sorted(_recorded_keys(run_dir)) == sorted(f"u{i}" for i in range(20))

    def test_no_wait_returns_while_peer_holds_a_live_lease(self, tmp_path):
        units = [WorkUnit(key="u0", payload=1)]
        with serving(tmp_path / "run", ["u0"]) as (server, client):
            assert client.claim_batch(["u0"], "peer") is not None
            stats = _drain(server, units, _square, worker_id="w1", wait=False)
            assert stats.executed == 0
            assert client.completed_keys() == set()

    def test_dead_workers_stale_lease_is_reclaimed_and_unit_executed(self, tmp_path):
        units = [WorkUnit(key="u0", payload=3)]
        with serving(tmp_path / "run", ["u0"], ttl=0.2) as (server, client):
            assert client.claim_batch(["u0"], "dead") is not None  # and never renewed
            # The drain loop polls until the coordinator's TTL lapses, then
            # the re-grant comes back flagged as a reclaim.
            stats = _drain(server, units, _square, worker_id="w1", poll_interval=0.05)
            assert stats.executed == 1 and stats.reclaimed == 1
            assert client.results() == {"u0": 9}

    def test_recorded_but_unreleased_unit_is_not_executed_twice(self, tmp_path):
        """A worker killed between recording and releasing leaves its
        unit done; the coordinator never grants it again."""
        executed = []

        def worker(unit):
            executed.append(unit.key)
            return 0

        units = [WorkUnit(key="u0", payload=0), WorkUnit(key="u1", payload=1)]
        with serving(tmp_path / "run", ["u0", "u1"], ttl=0.2) as (server, client):
            batch = client.claim_batch(["u0"], "dead")
            client.record_batch(batch, {"u0": 42})  # ...and dies before releasing
            time.sleep(0.3)  # well past the dead worker's TTL
            stats = _drain(server, units, worker, worker_id="w1")
            assert executed == ["u1"]
            assert stats.executed == 1
            assert client.results()["u0"] == 42  # the dead worker's record
            # Recording dropped the dead worker's lease: nothing lingers.
            assert client.status()["active_leases"] == []

    def test_duplicate_unit_keys_rejected(self):
        backend = HttpWorkBackend("http://127.0.0.1:1", retry_timeout=0.1)
        with pytest.raises(ValueError, match="unique"):
            drain_units(
                [WorkUnit(key="u", payload=1), WorkUnit(key="u", payload=2)],
                _square,
                backend=backend,
            )

    def test_invalid_claim_batch_rejected(self):
        backend = HttpWorkBackend("http://127.0.0.1:1", retry_timeout=0.1)
        with pytest.raises(ValueError, match="claim_batch"):
            drain_units(
                [WorkUnit(key="u", payload=1)], _square, backend=backend, claim_batch=0
            )

    def test_batched_workers_split_the_run_without_double_execution(self, tmp_path):
        run_dir = tmp_path / "run"
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(20)]
        with serving(run_dir, [u.key for u in units]) as (server, _):
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [
                    pool.submit(
                        _drain,
                        server,
                        units,
                        _square,
                        worker_id=f"w{i}",
                        poll_interval=0.01,
                        claim_batch=4,
                    )
                    for i in range(3)
                ]
                all_stats = [f.result() for f in futures]
        assert sum(s.executed for s in all_stats) == 20
        assert RunCheckpoint(run_dir).completed() == {f"u{i}": i * i for i in range(20)}
        assert sorted(_recorded_keys(run_dir)) == sorted(f"u{i}" for i in range(20))

    def test_batched_drain_keeps_finished_units_and_frees_the_rest_on_failure(
        self, tmp_path
    ):
        """A worker that dies mid-batch keeps what it already recorded
        (per-unit crash granularity) and releases the unfinished
        remainder immediately for peers."""
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(4)]

        def breaks_on_u2(unit):
            if unit.key == "u2":
                raise OSError("mid-batch failure")
            return int(unit.payload) ** 2

        with serving(tmp_path / "run", [u.key for u in units], ttl=3600) as (server, client):
            with pytest.raises(OSError, match="mid-batch"):
                _drain(server, units, breaks_on_u2, worker_id="w1", claim_batch=4)
            # u0/u1 were recorded before the failure and stay recorded...
            assert client.results() == {"u0": 0, "u1": 1}
            # ...and no lease lingers: a peer finishes the rest with no TTL wait.
            assert client.status()["active_leases"] == []
            stats = _drain(server, units, _square, worker_id="w2", claim_batch=4)
            assert stats.executed == 2 and stats.reclaimed == 0
            assert client.results() == {f"u{i}": i * i for i in range(4)}

    def test_each_batch_is_recorded_with_one_flush(self, tmp_path):
        """With the default heartbeat (ttl/4, far longer than a batch),
        every claimed batch costs one ``/record-batch`` request."""
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(12)]
        with serving(tmp_path / "run", [u.key for u in units]) as (server, client):
            stats = _drain(server, units, _square, worker_id="w1", claim_batch=4)
            served = _requests_served(client)
            assert client.results() == {f"u{i}": i * i for i in range(12)}
        assert stats.executed == 12
        assert served.get("/claim-batch") == 3
        assert served.get("/record-batch") == 3

    def test_batch_of_one_costs_one_claim_and_one_record_per_unit(self, tmp_path):
        """The default ``claim_batch=1`` speaks the same batch protocol:
        each unit is one ``/claim-batch`` and one ``/record-batch``, and
        the release that follows a fully recorded batch sends nothing."""
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(5)]
        with serving(tmp_path / "run", [u.key for u in units]) as (server, client):
            stats = _drain(server, units, _square, worker_id="w1")
            served = _requests_served(client)
            assert client.results() == {f"u{i}": i * i for i in range(5)}
        assert stats.executed == 5
        assert served.get("/claim-batch") == 5
        assert served.get("/record-batch") == 5
        for op in ("/claim", "/record", "/release", "/renew", "/release-batch", "other"):
            assert op not in served, op

    def test_short_heartbeat_flushes_each_member_before_the_next_starts(self, tmp_path):
        """Once a heartbeat interval has passed since the claim or the
        last flush, a finished member is flushed before the next one
        runs, bounding what a SIGKILL can lose."""
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(4)]
        recorded_at_start: dict[str, set[str]] = {}
        with serving(tmp_path / "run", [u.key for u in units]) as (server, client):

            def slow_square(unit):
                recorded_at_start[unit.key] = client.completed_keys()
                time.sleep(0.1)  # longer than the heartbeat interval
                return _square(unit)

            _drain(
                server, units, slow_square, worker_id="w1", claim_batch=4,
                heartbeat_interval=0.05,
            )
            assert client.results() == {f"u{i}": i * i for i in range(4)}
        order = list(recorded_at_start)
        assert sorted(order) == [u.key for u in units]
        for k, key in enumerate(order):
            assert recorded_at_start[key] == set(order[:k])

    def test_on_unit_fires_only_for_acked_members(self, tmp_path):
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(4)]
        fired: list[tuple[str, bool]] = []
        with serving(tmp_path / "run", [u.key for u in units], ttl=3600) as (server, client):
            backend = _RefusedFlush(HttpWorkBackend(server.url, retry_timeout=10), refuse=2)
            try:
                with pytest.raises(CoordinatorProtocolError, match="flush refused"):
                    drain_units(
                        units,
                        _square,
                        backend=backend,
                        worker_id="w1",
                        claim_batch=2,
                        on_unit=lambda key: fired.append((key, key in client.completed_keys())),
                    )
            finally:
                backend.close()
            # The first batch's flush was acked: its members fired, each
            # already recorded.  The refused flush's members never fired...
            assert fired == [("u0", True), ("u1", True)]
            assert client.results() == {"u0": 0, "u1": 1}
            # ...and were handed back with the batch, not stranded.
            assert client.status()["active_leases"] == []

    def test_failed_flush_on_the_failure_path_keeps_the_worker_exception(
        self, tmp_path, caplog
    ):
        units = [WorkUnit(key=f"u{i}", payload=i) for i in range(4)]

        def breaks_on_u2(unit):
            if unit.key == "u2":
                raise OSError("mid-batch failure")
            return _square(unit)

        with serving(tmp_path / "run", [u.key for u in units], ttl=3600) as (server, client):
            backend = _RefusedFlush(HttpWorkBackend(server.url, retry_timeout=10), refuse=1)
            try:
                with caplog.at_level(logging.WARNING, logger="repro.runtime.distributed"):
                    with pytest.raises(OSError, match="mid-batch failure"):
                        drain_units(
                            units, breaks_on_u2, backend=backend, worker_id="w1", claim_batch=4
                        )
            finally:
                backend.close()
            assert "could not record 2 finished unit(s)" in caplog.text
            # Nothing was recorded, and the whole batch went straight back
            # to peers.
            assert client.completed_keys() == set()
            assert client.status()["active_leases"] == []

    def test_worker_exception_releases_the_lease_immediately(self, tmp_path):
        """A Python-level failure must not strand the lease like a SIGKILL
        would: peers should be able to re-claim without waiting the TTL."""
        units = [WorkUnit(key="u0", payload=1)]

        def broken(unit):
            raise OSError("transient failure")

        with serving(tmp_path / "run", ["u0"], ttl=3600) as (server, client):
            with pytest.raises(OSError, match="transient"):
                _drain(server, units, broken, worker_id="w1")
            assert client.status()["active_leases"] == []
            # A healthy peer picks the unit up right away (no TTL wait).
            stats = _drain(server, units, _square, worker_id="w2")
            assert stats.executed == 1 and stats.reclaimed == 0
            assert client.results() == {"u0": 1}


class TestRunUnitsDistributedBackend:
    """``run_units_coordinator``: this process plus sibling processes
    drain through the coordinator."""

    def test_matches_local_backend_with_spawned_rngs(self, tmp_path):
        units = [WorkUnit(key=f"u{i}", rng=gen) for i, gen in enumerate(spawn(123, 6))]
        local = run_units(units, _draw, jobs=1)
        units2 = [WorkUnit(key=f"u{i}", rng=gen) for i, gen in enumerate(spawn(123, 6))]
        with serving(tmp_path / "run", [u.key for u in units2]) as (server, _):
            over_wire = run_units_coordinator(
                units2, _draw, server.url, jobs=2, poll_interval=0.01
            )
        assert local == over_wire

    def test_on_result_reports_peer_executed_units_as_cached(self, tmp_path):
        units = [WorkUnit(key="u0", payload=0), WorkUnit(key="u1", payload=3)]
        seen = []
        with serving(tmp_path / "run", ["u0", "u1"]) as (server, client):
            batch = client.claim_batch(["u0"], "peer")  # a peer already did u0
            client.record_batch(batch, {"u0": 0})
            run_units_coordinator(
                units,
                _square,
                server.url,
                worker_id="w1",
                on_result=lambda u, r, cached: seen.append((u.key, r, cached)),
            )
        assert seen == [("u0", 0, True), ("u1", 9, False)]


# ---------------------------------------------------------------------- #
# Manifest reconstruction (`repro sweep serve <run_dir>` without a spec)
# ---------------------------------------------------------------------- #
class TestWorkRunDir:
    def test_worker_reconstructs_sweep_from_manifest_alone(self, tmp_path):
        import numpy as np

        spec = tiny_benchmark_spec()
        run_dir = tmp_path / "run"
        plan = plan_sweep(spec)
        RunCheckpoint(run_dir).initialize(plan.manifest())
        # The directory alone defines the work: same units, same order.
        stored = load_run_plan(run_dir)
        assert [u.key for u in stored.units] == [u.key for u in plan.units]
        with running_coordinator(run_dir, unit_keys=[u.key for u in stored.units]) as server:
            # Worker 1 reconstructs the plan from the wire manifest and
            # drains it; worker 2 finds nothing left to do.
            plan1, stats1 = work_coordinator(server.url, worker_id="w1", poll_interval=0.05)
            assert stats1.executed == len(plan1.units) == 4
            _, stats2 = work_coordinator(server.url, worker_id="w2", poll_interval=0.05)
            assert stats2.executed == 0
        # The merged run aggregates bit-identically to a plain local run.
        local = run_sweep(spec, jobs=1)
        merged = run_sweep(spec, run_dir=run_dir, resume=True, jobs=1)
        for scheduler in local.makespans:
            assert np.array_equal(local.makespans[scheduler], merged.makespans[scheduler])

    def test_uninitialized_directory_without_spec_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load_run_plan(tmp_path / "empty")

    def test_mismatched_spec_refused(self, tmp_path, capsys):
        """``sweep serve <run_dir> --spec`` validates the spec against a
        directory that already holds another sweep's manifest."""
        run_dir = tmp_path / "run"
        RunCheckpoint(run_dir).initialize(plan_sweep(tiny_benchmark_spec(seed=1)).manifest())
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(tiny_benchmark_spec(seed=2).to_json())
        assert main(["sweep", "serve", str(run_dir), "--spec", str(spec_path)]) == 2
        assert "manifest" in capsys.readouterr().err
        assert not (run_dir / "leases").exists()  # refused before serving

    def test_externally_seeded_manifest_refused(self, tmp_path):
        import numpy as np

        spec = tiny_benchmark_spec()
        run_dir = tmp_path / "run"
        run_sweep(spec, run_dir=run_dir, rng=np.random.default_rng(5))
        with pytest.raises(CheckpointError, match="external"):
            load_run_plan(run_dir)

    def test_non_sweep_manifest_refused(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "run")
        checkpoint.initialize({"kind": "pairwise", "units": 2})
        with pytest.raises(CheckpointError, match="sweep"):
            load_run_plan(tmp_path / "run")

    def test_local_run_sweep_rejects_distributed_options(self):
        """Forgetting backend='coordinator' while tuning the drain loop
        must fail loudly, not silently drop the options."""
        spec = tiny_benchmark_spec()
        with pytest.raises(ValueError, match="heartbeat_interval"):
            run_sweep(spec, heartbeat_interval=5)
        with pytest.raises(ValueError, match="poll_interval"):
            run_sweep(spec, poll_interval=0.1)
        with pytest.raises(ValueError, match="claim_batch"):
            run_sweep(spec, claim_batch=4)
        with pytest.raises(TypeError, match="lease_ttl"):
            run_sweep(spec, lease_ttl=5)
        for backend in ("rpc", "distributed"):
            with pytest.raises(ValueError, match="backend"):
                run_sweep(spec, backend=backend)


# ---------------------------------------------------------------------- #
# Fault injection: real worker processes, SIGKILL, reclaim, bit-identity
# ---------------------------------------------------------------------- #
def _env(delay: float | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if delay is not None:
        env["REPRO_RUNTIME_UNIT_DELAY"] = str(delay)
    else:
        env.pop("REPRO_RUNTIME_UNIT_DELAY", None)
    return env


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _start(args: list[str], delay: float | None = None) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", *args],
        env=_env(delay),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _start_worker(url: str, worker_id: str, delay: float | None = None) -> subprocess.Popen:
    return _start(
        ["work", "--coordinator", url, "--worker-id", worker_id,
         "--heartbeat", "0.4", "--poll", "0.05", "--retry", "60"],
        delay,
    )


def _wait_until(predicate, timeout: float, message: str) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for: {message}")


def _status(url: str) -> dict | None:
    client = HttpWorkBackend(url, retry_timeout=0.2, request_timeout=2)
    try:
        return client.status()
    except Exception:  # noqa: BLE001 - a coordinator still starting is expected
        return None
    finally:
        client.close()


def _holds_lease(url: str, worker_id: str) -> bool:
    status = _status(url)
    return status is not None and any(
        lease["worker"] == worker_id for lease in status["active_leases"]
    )


def _shard_lines(run_dir: Path, worker_id: str) -> int:
    shard = run_dir / f"units-{safe_filename(worker_id)}.jsonl"
    try:
        return len([line for line in shard.read_text().splitlines() if line.strip()])
    except OSError:
        return 0


class TestFaultInjection:
    """SIGKILL real workers mid-unit; survivors must finish the run and
    the merged result must be bit-identical to the serial one."""

    @pytest.mark.parametrize(
        "survivors,kill_after_units",
        [
            # 3 concurrent workers, one killed on its first unit and
            # reclaimed.
            (2, 0),
            # More workers, killed later: exercises a mid-run kill point
            # where the victim has already contributed results.
            (3, 2),
        ],
    )
    def test_kill_and_reclaim_is_bit_identical_to_serial(
        self, tmp_path, survivors, kill_after_units
    ):
        spec = tiny_fig4_spec()
        serial = run_sweep(spec, jobs=1)
        expected_keys = sorted(u.key for u in plan_sweep(spec).units)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        run_dir = tmp_path / "run"
        port = _free_port()
        url = f"http://127.0.0.1:{port}"

        coordinator = _start(
            ["serve", str(run_dir), "--spec", str(spec_path), "--port", str(port),
             "--ttl", "2"]
        )
        victim = None
        workers: list[subprocess.Popen] = []
        try:
            _wait_until(lambda: _status(url) is not None, 60, "coordinator to serve")
            victim = _start_worker(url, "victim", delay=0.6)
            # Let the victim make its configured progress, then start the
            # survivor fleet so the kill happens under real concurrency.
            _wait_until(
                lambda: _shard_lines(run_dir, "victim") >= kill_after_units
                and _holds_lease(url, "victim"),
                timeout=90,
                message=f"victim to complete {kill_after_units} unit(s) and claim another",
            )
            workers += [_start_worker(url, f"w{i}") for i in range(survivors)]
            _wait_until(
                lambda: _holds_lease(url, "victim"),
                timeout=90,
                message="victim to hold a lease at kill time",
            )
            os.kill(victim.pid, signal.SIGKILL)
            victim.communicate(timeout=30)
            # SIGKILL froze the victim mid-unit (the wait above makes that
            # near-certain): its lease sits in the coordinator's table until
            # the TTL lapses and a survivor is re-granted the unit.
            killed_mid_unit = _holds_lease(url, "victim")
            outputs = []
            for worker in workers:
                out, err = worker.communicate(timeout=240)
                assert worker.returncode == 0, err
                outputs.append(out)
            # Ctrl-C: a clean shutdown releases the advisory lease.
            coordinator.send_signal(signal.SIGINT)
            coordinator.communicate(timeout=60)
            assert coordinator.returncode == 0
        finally:
            for proc in [coordinator, victim, *workers]:
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.communicate(timeout=30)

        # Every unit executed and recorded exactly once.
        assert sorted(_recorded_keys(run_dir)) == expected_keys
        # The killed unit was reclaimed, and no lease file outlives the run.
        if killed_mid_unit:
            assert any("reclaimed" in out for out in outputs)
        assert not list((run_dir / "leases").glob("*.json"))

        # Merged result is bit-identical to the serial run.
        merged = run_sweep(spec, run_dir=run_dir, resume=True, jobs=1)
        assert _ratios(merged) == _ratios(serial)
        for pair, res in serial.pairwise.results.items():
            best = merged.pairwise.results[pair].best_instance
            assert best.task_graph == res.best_instance.task_graph
            assert best.network == res.best_instance.network

    def test_sigkill_before_a_flush_hands_finished_members_to_peers(self, tmp_path):
        """A worker SIGKILLed mid-batch loses the members it finished but
        had not flushed: the coordinator recorded none of its batch.
        After the TTL a peer re-executes them, every unit is recorded
        exactly once, and the results equal the serial ones."""
        keys = [f"u{i}" for i in range(8)]

        def spawned_units():
            return [WorkUnit(key=key, rng=gen) for key, gen in zip(keys, spawn(11, len(keys)))]

        serial = run_units(spawned_units(), _draw, jobs=1)
        # The heartbeat (1.5 s) outlasts the batch, so nothing is flushed
        # before the worker kills itself on the third member.
        victim = (
            "import os, signal, sys\n"
            "from repro.runtime import WorkUnit\n"
            "from repro.runtime.backends import HttpWorkBackend\n"
            "from repro.runtime.distributed import drain_units\n"
            "from repro.utils.rng import spawn\n"
            "started = []\n"
            "def worker(unit):\n"
            "    started.append(unit.key)\n"
            "    if len(started) == 3:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return float(unit.rng.random())\n"
            f"keys = {keys!r}\n"
            "units = [WorkUnit(key=k, rng=g) for k, g in zip(keys, spawn(11, len(keys)))]\n"
            "drain_units(units, worker, backend=HttpWorkBackend(sys.argv[1]),\n"
            "            worker_id='victim', claim_batch=4, heartbeat_interval=1.5)\n"
        )
        run_dir = tmp_path / "run"
        with serving(run_dir, keys, ttl=2.0) as (server, client):
            killed = subprocess.run(
                [sys.executable, "-c", victim, server.url],
                env=_env(),
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert killed.returncode == -signal.SIGKILL, killed.stderr
            # The victim still holds its whole batch, and none of it is
            # recorded: its two finished members died in the buffer.
            held = client.status()["active_leases"]
            assert sorted(lease["unit"] for lease in held) == keys[:4]
            assert {lease["worker"] for lease in held} == {"victim"}
            assert client.completed_keys() == set()
            assert _shard_lines(run_dir, "victim") == 0

            stats = _drain(
                server, spawned_units(), _draw, worker_id="peer", claim_batch=4,
                poll_interval=0.05,
            )
            assert stats.executed == 8 and stats.reclaimed == 4
            assert client.results() == serial
        assert sorted(_recorded_keys(run_dir)) == keys

    def test_status_reports_progress_and_stale_lease(self, tmp_path):
        spec = tiny_benchmark_spec()
        run_dir = tmp_path / "run"
        plan = plan_sweep(spec)
        RunCheckpoint(run_dir).initialize(plan.manifest())
        with running_coordinator(run_dir, unit_keys=[u.key for u in plan.units]) as server:
            work_coordinator(server.url, worker_id="w1", poll_interval=0.05)
        # Fabricate a dead coordinator's leftover advisory lease on a
        # completed run.
        dead = _advisory("dead", 0.0, ttl=1.0)
        write_advisory_lease(run_dir, dead)
        old = time.time() - 3600
        os.utime(advisory_lease_path(run_dir), (old, old))
        status = inspect_run_dir(run_dir)
        assert status.complete
        assert status.completed_units == status.total_units == 4
        assert status.shard_counts == {
            "units.jsonl": 0,
            RunCheckpoint(run_dir).shard_path("w1").name: 4,
        }
        assert status.active_leases == []
        assert status.stale_leases == [dead]
