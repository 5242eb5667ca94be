"""Tests for the HTTP coordinator backend (runtime/coordinator.py + backends.py).

What makes no-shared-filesystem draining trustworthy:

* **wire robustness** — every request/reply payload round-trips
  losslessly through JSON, and malformed payloads are rejected at the
  edge by the validating parsers both sides share;
* **mutual exclusion** — however many workers race ``POST
  /claim-batch`` for one unit, exactly one is granted (the lease table
  mutates under one lock on one coordinator);
* **token fencing** — an expired lease is re-granted under a fresh
  token, and the superseded holder's renew/release are rejected as
  stale instead of clobbering the new holder;
* **lossless restart** — a SIGKILLed coordinator rebuilds completed
  results from its shard files and in-flight leases from the
  write-ahead journal, tolerating the torn trailing line the kill left,
  and still recovers journals written in the retired per-unit format;
* **bit-identity** — the acceptance property: a fig4-preset sweep
  drained by two ``--coordinator`` workers, with one worker SIGKILLed
  mid-unit *and* the coordinator SIGKILLed and restarted mid-sweep,
  merges bit-identically to ``run_sweep(spec, jobs=1)``.

Every in-process coordinator, client and subprocess a test opens is
closed or reaped before it ends, so the suite runs clean under ``python
-X dev -W error``.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.dashboard import parse_prometheus_text
from repro.pisa import AnnealingConfig, PISAConfig
from repro.runtime import RunCheckpoint
from repro.runtime.backends import (
    BatchAckReply,
    BatchClaimReply,
    BatchClaimRequest,
    BatchLeaseRequest,
    BatchRecordReply,
    BatchRecordRequest,
    CoordinatorError,
    CoordinatorProtocolError,
    HttpWorkBackend,
)
from repro.runtime.checkpoint import CheckpointError
from repro.runtime.coordinator import (
    JOURNAL_NAME,
    Coordinator,
    UnknownUnitError,
    running_coordinator,
)
from repro.runtime.distributed import COMPLETION_GRACE, DEFAULT_POLL_INTERVAL, drain_units
from repro.sweeps import (
    SourceSpec,
    SweepSpec,
    fig4_spec,
    plan_sweep,
    run_sweep,
    work_coordinator,
)

TINY = PISAConfig(annealing=AnnealingConfig(max_iterations=10, alpha=0.8), restarts=2)
SCHEDULERS = ["HEFT", "CPoP", "MinMin"]  # 6 ordered pairs x 2 restarts = 12 units
REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def tiny_fig4_spec(seed: int = 0) -> SweepSpec:
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


def init_run_dir(run_dir: Path, spec: SweepSpec):
    """Initialize ``run_dir`` for ``spec`` and return its plan."""
    plan = plan_sweep(spec)
    RunCheckpoint(run_dir).initialize(plan.manifest(), resume=True)
    return plan


def make_coordinator(run_dir: Path, units: list[str], ttl: float = 30.0) -> Coordinator:
    """A coordinator over a minimal hand-rolled manifest.  Opening it
    again over the same directory is a restart: the manifest matches, so
    initialization resumes.  The caller closes it."""
    RunCheckpoint(run_dir).initialize(
        {"kind": "sweep", "spec": {"name": "t"}, "units": len(units)}, resume=True
    )
    return Coordinator(run_dir, ttl=ttl, unit_keys=units)


@pytest.fixture
def coordinators():
    """:func:`make_coordinator` whose every coordinator — first start
    and restarts alike — is closed at teardown.  An unclosed one leaves
    its journal segment open."""
    with contextlib.ExitStack() as stack:

        def open_coordinator(run_dir: Path, units: list[str], ttl: float = 30.0):
            return stack.enter_context(
                contextlib.closing(make_coordinator(run_dir, units, ttl=ttl))
            )

        yield open_coordinator


def _claim(coordinator: Coordinator, units, worker: str) -> BatchClaimReply:
    return coordinator.claim_batch(BatchClaimRequest(units=tuple(units), worker=worker))


def _lease(units, worker: str, token: str) -> BatchLeaseRequest:
    return BatchLeaseRequest(units=tuple(units), worker=worker, token=token)


def _record(coordinator: Coordinator, results: dict, worker: str, token: str):
    return coordinator.record_batch(
        BatchRecordRequest(
            units=tuple(results), results=tuple(results.values()), worker=worker, token=token
        )
    )


def _requests_served(url: str) -> dict[str, float]:
    """Requests the coordinator at ``url`` has answered, by endpoint."""
    with urllib.request.urlopen(f"{url}/metrics") as response:
        families = parse_prometheus_text(response.read().decode())
    series = families.get("coordinator_request_seconds_count", {})
    return {dict(labels)["op"]: count for labels, count in series.items()}


def _drain(url: str, units, worker, **kwargs):
    """``drain_units`` as one worker with its own client, closed by the
    thread that used it (connections are per-thread)."""
    backend = HttpWorkBackend(url, retry_timeout=10)
    try:
        return drain_units(units, worker, backend=backend, **kwargs)
    finally:
        backend.close()


def _ratios(result):
    return {pair: res.restart_ratios for pair, res in result.pairwise.results.items()}


def _square_payload(unit):
    return int(unit.payload) ** 2


# ---------------------------------------------------------------------- #
# Wire payloads (property tests)
# ---------------------------------------------------------------------- #
_ids = st.text(
    st.characters(min_codepoint=33, max_codepoint=0x2FF), min_size=1, max_size=40
)
_ttls = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)


class TestWirePayloads:
    @given(
        payload=st.one_of(
            st.none(),
            st.integers(),
            st.text(max_size=10),
            st.lists(st.integers(), max_size=3),
            st.dictionaries(
                st.sampled_from(["unit", "worker", "token", "granted", "ok"]),
                st.none(),
                max_size=2,
            ),
        )
    )
    def test_malformed_payloads_rejected(self, payload):
        for parser in (
            BatchClaimRequest,
            BatchClaimReply,
            BatchLeaseRequest,
            BatchAckReply,
            BatchRecordRequest,
            BatchRecordReply,
        ):
            with pytest.raises(ValueError):
                parser.from_dict(payload)

    def test_granted_claim_reply_requires_token_and_ttl(self):
        with pytest.raises(ValueError, match="token"):
            BatchClaimReply.from_dict({"granted": ["a"], "token": "", "ttl": 1.0})
        with pytest.raises(ValueError, match="ttl"):
            BatchClaimReply.from_dict({"granted": ["a"], "token": "t", "ttl": 0})

    @given(units=st.lists(_ids, min_size=1, max_size=6, unique=True), worker=_ids)
    def test_batch_claim_request_round_trip(self, units, worker):
        message = BatchClaimRequest(units=tuple(units), worker=worker)
        assert (
            BatchClaimRequest.from_dict(json.loads(json.dumps(message.to_dict())))
            == message
        )

    @given(units=st.lists(_ids, min_size=1, max_size=6, unique=True), worker=_ids, token=_ids)
    def test_batch_lease_request_round_trip(self, units, worker, token):
        message = BatchLeaseRequest(units=tuple(units), worker=worker, token=token)
        assert (
            BatchLeaseRequest.from_dict(json.loads(json.dumps(message.to_dict())))
            == message
        )

    @given(pool=st.lists(_ids, max_size=8, unique=True), token=_ids, ttl=_ttls)
    def test_batch_claim_reply_round_trip(self, pool, token, ttl):
        # Split the pool so the invariants hold by construction:
        # reclaimed is a subset of granted, completed is disjoint from it.
        granted = tuple(pool[: len(pool) // 2])
        message = BatchClaimReply(
            granted=granted,
            token=token if granted else "",
            ttl=ttl if granted else 0.0,
            reclaimed=granted[::2],
            completed=tuple(pool[len(pool) // 2 :]),
        )
        assert (
            BatchClaimReply.from_dict(json.loads(json.dumps(message.to_dict())))
            == message
        )

    @given(ok=st.booleans(), stale=st.lists(_ids, max_size=4, unique=True))
    def test_batch_ack_reply_round_trip(self, ok, stale):
        message = BatchAckReply(ok=ok, stale=tuple(stale))
        assert (
            BatchAckReply.from_dict(json.loads(json.dumps(message.to_dict()))) == message
        )

    @given(
        records=st.dictionaries(_ids, _json_values, min_size=1, max_size=4),
        worker=_ids,
        token=_ids,
    )
    def test_batch_record_request_round_trip(self, records, worker, token):
        message = BatchRecordRequest(
            units=tuple(records),
            results=tuple(records.values()),
            worker=worker,
            token=token,
        )
        assert (
            BatchRecordRequest.from_dict(json.loads(json.dumps(message.to_dict())))
            == message
        )

    @given(ok=st.booleans(), duplicates=st.lists(_ids, max_size=4, unique=True))
    def test_batch_record_reply_round_trip(self, ok, duplicates):
        message = BatchRecordReply(ok=ok, duplicates=tuple(duplicates))
        assert (
            BatchRecordReply.from_dict(json.loads(json.dumps(message.to_dict())))
            == message
        )

    def test_batch_payload_invariants_enforced(self):
        with pytest.raises(ValueError, match="subset"):
            BatchClaimReply.from_dict(
                {"granted": ["a"], "token": "t", "ttl": 1.0, "reclaimed": ["b"]}
            )
        with pytest.raises(ValueError, match="disjoint"):
            BatchClaimReply.from_dict(
                {"granted": ["a"], "token": "t", "ttl": 1.0, "completed": ["a"]}
            )
        with pytest.raises(ValueError, match="unique"):
            BatchClaimRequest.from_dict({"units": ["a", "a"], "worker": "w"})
        with pytest.raises(ValueError, match="parallel"):
            BatchRecordRequest.from_dict(
                {"units": ["a", "b"], "results": [1], "worker": "w", "token": "t"}
            )


# ---------------------------------------------------------------------- #
# Coordinator state machine (no HTTP)
# ---------------------------------------------------------------------- #
class TestCoordinatorState:
    def test_claim_renew_record_release_lifecycle(self, tmp_path, coordinators):
        coordinator = coordinators(tmp_path / "run", ["u0", "u1"])
        grant = _claim(coordinator, ["u0"], "w1")
        assert grant.granted == ("u0",) and grant.token and grant.ttl == 30.0
        assert grant.reclaimed == () and grant.completed == ()
        lease = _lease(["u0"], "w1", grant.token)
        assert coordinator.renew_batch(lease).ok
        ack = _record(coordinator, {"u0": 42}, "w1", grant.token)
        assert ack.ok and ack.duplicates == ()
        # Recording dropped the lease: the release that follows a batch
        # has nothing left to hand back, and acknowledges idempotently.
        release = coordinator.release_batch(lease)
        assert release.ok and release.stale == ()
        assert coordinator.completed_keys() == ["u0"]
        assert coordinator.results() == {"u0": 42}
        # The result is durable in a normal per-worker shard.
        assert RunCheckpoint(tmp_path / "run").completed() == {"u0": 42}

    def test_held_unit_denied_to_others_until_release(self, tmp_path, coordinators):
        coordinator = coordinators(tmp_path / "run", ["u0"])
        grant = _claim(coordinator, ["u0"], "w1")
        denied = _claim(coordinator, ["u0"], "w2")
        assert denied.granted == () and denied.completed == ()
        coordinator.release_batch(_lease(["u0"], "w1", grant.token))
        assert _claim(coordinator, ["u0"], "w2").granted == ("u0",)

    def test_completed_unit_claim_reports_completed(self, tmp_path, coordinators):
        coordinator = coordinators(tmp_path / "run", ["u0"])
        grant = _claim(coordinator, ["u0"], "w1")
        _record(coordinator, {"u0": 1}, "w1", grant.token)
        reply = _claim(coordinator, ["u0"], "w2")
        assert reply.granted == () and reply.completed == ("u0",)

    def test_expired_lease_regranted_with_fresh_token_and_stale_fencing(
        self, tmp_path, coordinators
    ):
        coordinator = coordinators(tmp_path / "run", ["u0"], ttl=0.05)
        old = _claim(coordinator, ["u0"], "w1")
        time.sleep(0.1)
        stolen = _claim(coordinator, ["u0"], "w2")
        assert stolen.granted == stolen.reclaimed == ("u0",)
        assert stolen.token != old.token
        # The superseded holder's renew and release are rejected as stale.
        old_lease = _lease(["u0"], "w1", old.token)
        renew = coordinator.renew_batch(old_lease)
        assert not renew.ok and renew.stale == ("u0",)
        release = coordinator.release_batch(old_lease)
        assert release.stale == ("u0",)
        # The thief's lease survives untouched.
        assert coordinator.renew_batch(_lease(["u0"], "w2", stolen.token)).ok

    def test_renew_keeps_a_lease_alive_past_its_ttl(self, tmp_path, coordinators):
        coordinator = coordinators(tmp_path / "run", ["u0"], ttl=0.15)
        grant = _claim(coordinator, ["u0"], "w1")
        lease = _lease(["u0"], "w1", grant.token)
        for _ in range(4):
            time.sleep(0.05)
            assert coordinator.renew_batch(lease).ok
        assert _claim(coordinator, ["u0"], "w2").granted == ()

    def test_release_of_vanished_lease_is_idempotent(self, tmp_path, coordinators):
        coordinator = coordinators(tmp_path / "run", ["u0"])
        grant = _claim(coordinator, ["u0"], "w1")
        lease = _lease(["u0"], "w1", grant.token)
        assert coordinator.release_batch(lease).ok
        again = coordinator.release_batch(lease)  # retry after a lost reply
        assert again.ok and again.stale == ()

    def test_duplicate_record_dropped_first_writer_wins(self, tmp_path, coordinators):
        coordinator = coordinators(tmp_path / "run", ["u0"])
        grant = _claim(coordinator, ["u0"], "w1")
        _record(coordinator, {"u0": 1}, "w1", grant.token)
        ack = _record(coordinator, {"u0": 999}, "w2", "stale")
        assert ack.ok and ack.duplicates == ("u0",)
        assert coordinator.results() == {"u0": 1}
        assert coordinator.status_payload()["duplicate_records"] == 1

    def test_stale_token_record_accepted_when_unit_unrecorded(self, tmp_path, coordinators):
        """A robbed worker that finishes first still contributes its
        (bit-identical) result, and the unit can never be claimed again
        afterwards."""
        coordinator = coordinators(tmp_path / "run", ["u0"], ttl=0.05)
        old = _claim(coordinator, ["u0"], "w1")
        time.sleep(0.1)
        _claim(coordinator, ["u0"], "w2")  # thief mid-run
        ack = _record(coordinator, {"u0": 7}, "w1", old.token)
        assert ack.ok and ack.duplicates == ()
        assert coordinator.results() == {"u0": 7}
        reply = _claim(coordinator, ["u0"], "w3")
        assert reply.granted == () and reply.completed == ("u0",)

    def test_unknown_unit_rejected(self, tmp_path, coordinators):
        coordinator = coordinators(tmp_path / "run", ["u0"])
        with pytest.raises(UnknownUnitError):
            _claim(coordinator, ["ghost"], "w1")
        with pytest.raises(UnknownUnitError):
            _record(coordinator, {"ghost": 1}, "w1", "t")

    def test_uninitialized_run_dir_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            Coordinator(tmp_path / "empty")

    def test_status_payload_schema(self, tmp_path, coordinators):
        coordinator = coordinators(tmp_path / "run", ["u0", "u1"])
        grant = _claim(coordinator, ["u0"], "w1")
        _record(coordinator, {"u0": 1}, "w1", grant.token)
        _claim(coordinator, ["u1"], "w2")
        payload = coordinator.status_payload()
        assert payload["backend"] == "coordinator"
        assert payload["schema"] == 1
        assert payload["completed_units"] == 1 and payload["total_units"] == 2
        assert not payload["complete"]
        assert [lease["unit"] for lease in payload["active_leases"]] == ["u1"]
        assert payload["stale_leases"] == []
        assert sum(payload["shard_counts"].values()) == 1
        json.dumps(payload)  # the payload is pure JSON


class TestBatchedClaims:
    """The batch protocol's invariants: one token and one journal record
    per grant, partial grants, token fencing and first-writer-wins
    recording member by member."""

    def test_batch_claim_partitions_free_held_completed(self, tmp_path, coordinators):
        coordinator = coordinators(tmp_path / "run", ["u0", "u1", "u2", "u3"])
        done = _claim(coordinator, ["u0"], "w1")
        _record(coordinator, {"u0": 1}, "w1", done.token)
        _claim(coordinator, ["u1"], "w2")  # live peer

        reply = _claim(coordinator, ["u0", "u1", "u2", "u3"], "w3")
        assert sorted(reply.granted) == ["u2", "u3"]  # u1: held, omitted
        assert reply.completed == ("u0",)
        assert reply.reclaimed == ()
        assert reply.token and reply.ttl == 30.0

    def test_one_journal_record_per_batch_claim(self, tmp_path, coordinators):
        run_dir = tmp_path / "run"
        units = [f"u{i}" for i in range(6)]
        coordinator = coordinators(run_dir, units)
        journal = run_dir / JOURNAL_NAME
        before = len(journal.read_text().splitlines()) if journal.exists() else 0
        reply = _claim(coordinator, units, "w1")
        assert sorted(reply.granted) == units
        events = [json.loads(line) for line in journal.read_text().splitlines()]
        assert len(events) == before + 1
        assert events[-1]["event"] == "claim"
        assert sorted(events[-1]["units"]) == units
        assert events[-1]["token"] == reply.token

    def test_partial_batch_expiry_regrants_only_unfinished_units(
        self, tmp_path, coordinators
    ):
        coordinator = coordinators(tmp_path / "run", ["u0", "u1", "u2"], ttl=0.05)
        batch = _claim(coordinator, ["u0", "u1", "u2"], "w1")
        # w1 flushes u0 mid-batch (each flush drops only its members)...
        _record(coordinator, {"u0": 0}, "w1", batch.token)
        time.sleep(0.1)  # ...then goes silent past the ttl.
        steal = _claim(coordinator, ["u0", "u1", "u2"], "w2")
        assert sorted(steal.granted) == ["u1", "u2"]  # only the unfinished remainder
        assert sorted(steal.reclaimed) == ["u1", "u2"]
        assert steal.completed == ("u0",)
        # The dead holder's token is fenced out of what it lost.
        stale = coordinator.renew_batch(_lease(["u1", "u2"], "w1", batch.token))
        assert not stale.ok and sorted(stale.stale) == ["u1", "u2"]

    def test_holder_batch_reclaim_folds_into_fresh_token(self, tmp_path, coordinators):
        """A retry after a lost reply: the holder re-claims its own units
        and gets them all back under one fresh token; the old token is
        superseded, not left as a second live grant."""
        coordinator = coordinators(tmp_path / "run", ["u0", "u1"])
        first = _claim(coordinator, ["u0", "u1"], "w1")
        second = _claim(coordinator, ["u0", "u1"], "w1")
        assert sorted(second.granted) == ["u0", "u1"]
        assert second.token != first.token
        assert second.reclaimed == ()  # self-fold is not a steal
        old = coordinator.renew_batch(_lease(["u0", "u1"], "w1", first.token))
        assert not old.ok
        fresh = coordinator.renew_batch(_lease(["u0", "u1"], "w1", second.token))
        assert fresh.ok and fresh.stale == ()

    def test_renew_batch_reports_recorded_members_as_stale(self, tmp_path, coordinators):
        coordinator = coordinators(tmp_path / "run", ["u0", "u1"])
        batch = _claim(coordinator, ["u0", "u1"], "w1")
        _record(coordinator, {"u0": 0}, "w1", batch.token)
        ack = coordinator.renew_batch(_lease(["u0", "u1"], "w1", batch.token))
        assert ack.ok and ack.stale == ("u0",)

    def test_release_batch_idempotent_and_token_fenced(self, tmp_path, coordinators):
        coordinator = coordinators(tmp_path / "run", ["u0", "u1"], ttl=0.05)
        batch = _claim(coordinator, ["u0", "u1"], "w1")
        time.sleep(0.1)
        steal = _claim(coordinator, ["u0"], "w2")
        assert steal.granted == ("u0",)
        # w1's release covers what it still owns; the stolen member is
        # reported stale and left with its new holder.
        ack = coordinator.release_batch(_lease(["u0", "u1"], "w1", batch.token))
        assert ack.ok and ack.stale == ("u0",)
        assert coordinator.renew_batch(_lease(["u0"], "w2", steal.token)).ok
        # Releasing again (retry after a lost reply) acknowledges idempotently.
        again = coordinator.release_batch(_lease(["u1"], "w1", batch.token))
        assert again.ok
        # u1 is free again.
        assert _claim(coordinator, ["u1"], "w3").granted == ("u1",)

    def test_duplicate_batch_record_first_writer_wins(self, tmp_path, coordinators):
        coordinator = coordinators(tmp_path / "run", ["u0", "u1"])
        batch = _claim(coordinator, ["u0", "u1"], "w1")
        first = _record(coordinator, {"u0": 1, "u1": 2}, "w1", batch.token)
        assert first.ok and first.duplicates == ()
        # The identical flush retried after a lost reply (or a robbed
        # peer's late flush) acks as duplicates without overwriting.
        again = _record(coordinator, {"u0": 7, "u1": 8}, "w2", "stale")
        assert again.ok and sorted(again.duplicates) == ["u0", "u1"]
        assert coordinator.results() == {"u0": 1, "u1": 2}

    def test_batch_record_with_stale_token_accepted_when_unrecorded(
        self, tmp_path, coordinators
    ):
        """A robbed worker that finishes first contributes its
        bit-identical results rather than wasting them, and the listed
        leases are dropped."""
        coordinator = coordinators(tmp_path / "run", ["u0", "u1"], ttl=0.05)
        batch = _claim(coordinator, ["u0", "u1"], "w1")
        time.sleep(0.1)
        _claim(coordinator, ["u0", "u1"], "w2")
        late = _record(coordinator, {"u0": 1, "u1": 2}, "w1", batch.token)
        assert late.ok and late.duplicates == ()
        assert coordinator.results() == {"u0": 1, "u1": 2}
        assert _claim(coordinator, ["u0"], "w3").completed == ("u0",)

    def test_restart_restores_batch_leases_and_flushed_records(
        self, tmp_path, coordinators
    ):
        run_dir = tmp_path / "run"
        units = ["u0", "u1", "u2"]
        first = coordinators(run_dir, units)
        batch = _claim(first, units, "w1")
        _record(first, {"u0": 5}, "w1", batch.token)
        # "SIGKILL": no shutdown handshake.
        restarted = coordinators(run_dir, units)
        assert restarted.results() == {"u0": 5}
        # The unfinished remainder survives under the same batch token...
        ack = restarted.renew_batch(_lease(["u1", "u2"], "w1", batch.token))
        assert ack.ok and ack.stale == ()
        # ...and peers cannot steal it.
        assert _claim(restarted, ["u1", "u2"], "w2").granted == ()

    @given(cut=st.integers(min_value=0, max_value=600))
    @settings(max_examples=25, deadline=None)
    def test_resume_over_truncated_journal_with_batches(self, cut):
        """Group-commit durability: whatever prefix of the journal a
        crash leaves behind, flushed results (the shards' truth) survive
        in full and leases are at worst forgotten — never wedged."""
        import tempfile

        with tempfile.TemporaryDirectory() as td, contextlib.ExitStack() as stack:
            run_dir = Path(td) / "run"
            units = ["u0", "u1", "u2"]
            first = stack.enter_context(contextlib.closing(make_coordinator(run_dir, units)))
            batch = _claim(first, units, "w1")
            _record(first, {"u0": 1, "u1": 2}, "w1", batch.token)
            journal = run_dir / JOURNAL_NAME
            blob = journal.read_bytes()
            journal.write_bytes(blob[: min(cut, len(blob))])

            restarted = stack.enter_context(
                contextlib.closing(make_coordinator(run_dir, units))
            )
            assert restarted.results() == {"u0": 1, "u1": 2}
            # u2 is either still leased to w1 (the claim line survived) or
            # claimable; the flushed units can never be re-granted.
            reply = _claim(restarted, units, "w2")
            assert sorted(reply.completed) == ["u0", "u1"]
            assert reply.granted in ((), ("u2",))


class TestCoordinatorRecovery:
    def test_restart_restores_results_and_leases(self, tmp_path, coordinators):
        run_dir = tmp_path / "run"
        units = ["u0", "u1", "u2"]
        first = coordinators(run_dir, units)
        done = _claim(first, ["u0"], "w1")
        _record(first, {"u0": 5}, "w1", done.token)
        inflight = _claim(first, ["u1"], "w2")
        # "SIGKILL": drop the object without any shutdown handshake.
        restarted = coordinators(run_dir, units)
        assert restarted.completed_keys() == ["u0"]
        assert restarted.results() == {"u0": 5}
        # The in-flight lease survived under the same token: its holder's
        # renewals keep working across the restart...
        assert restarted.renew_batch(_lease(["u1"], "w2", inflight.token)).ok
        # ...and nobody else can steal the unit.
        assert _claim(restarted, ["u1"], "w3").granted == ()
        assert _claim(restarted, ["u2"], "w3").granted == ("u2",)

    def test_restart_drops_lease_left_on_completed_unit(self, tmp_path, coordinators):
        """A worker killed after its flush but before releasing leaves its
        unit done; restart must not resurrect the unit's claim as
        in-flight work — not even when the kill tore the record's
        journal line away and only the shard line survived."""
        run_dir = tmp_path / "run"
        first = coordinators(run_dir, ["u0"])
        grant = _claim(first, ["u0"], "w1")
        _record(first, {"u0": 1}, "w1", grant.token)
        journal = run_dir / JOURNAL_NAME
        for tear in (False, True):
            if tear:
                lines = journal.read_bytes().splitlines(keepends=True)
                assert json.loads(lines[-1])["event"] == "record"
                journal.write_bytes(b"".join(lines[:-1]))
            restarted = coordinators(run_dir, ["u0"])
            payload = restarted.status_payload()
            assert payload["complete"]
            assert payload["active_leases"] == [] and payload["stale_leases"] == []

    @given(cut=st.integers(min_value=0, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_resume_over_truncated_journal(self, cut):
        """A coordinator SIGKILLed mid-append leaves a torn journal line;
        restart must tolerate any truncation point: completed results (from
        the shards) survive in full, and at worst the torn lease is simply
        forgotten — i.e. claimable again, never wedged."""
        import tempfile

        with tempfile.TemporaryDirectory() as td, contextlib.ExitStack() as stack:
            run_dir = Path(td) / "run"
            first = stack.enter_context(
                contextlib.closing(make_coordinator(run_dir, ["u0", "u1"]))
            )
            done = _claim(first, ["u0"], "w1")
            _record(first, {"u0": 9}, "w1", done.token)
            _claim(first, ["u1"], "w2")
            journal = run_dir / JOURNAL_NAME
            blob = journal.read_bytes()
            journal.write_bytes(blob[: min(cut, len(blob))])

            restarted = stack.enter_context(
                contextlib.closing(make_coordinator(run_dir, ["u0", "u1"]))
            )
            assert restarted.results() == {"u0": 9}  # shards are the truth
            # u1 is either still leased by w2 (its claim line survived) or
            # forgotten (torn away) — in which case it is claimable.
            reply = _claim(restarted, ["u1"], "w3")
            assert reply.completed == ()  # held by w2 or free, never lost
            # u0 can never be re-granted: it is complete.
            assert _claim(restarted, ["u0"], "w3").completed == ("u0",)

    def test_journal_survives_append_after_torn_line(self, tmp_path, coordinators):
        """The shared torn-line repair: a fresh event appended after torn
        bytes must not be glued onto them."""
        run_dir = tmp_path / "run"
        first = coordinators(run_dir, ["u0", "u1"])
        _claim(first, ["u0"], "w1")
        journal = run_dir / JOURNAL_NAME
        with journal.open("ab") as fh:
            fh.write(b'{"event": "claim", "unit": "u1"')  # torn write
        second = coordinators(run_dir, ["u0", "u1"])
        grant = _claim(second, ["u1"], "w2")
        assert grant.granted == ("u1",)
        third = coordinators(run_dir, ["u0", "u1"])
        assert third.renew_batch(_lease(["u1"], "w2", grant.token)).ok

    def test_recovers_a_journal_written_in_the_per_unit_format(
        self, tmp_path, coordinators
    ):
        """Coordinators that served the retired per-unit endpoints
        journaled singular ``unit`` events.  Nothing writes those claims,
        releases or records any more, but ``sweep serve`` must still
        recover a run directory they left behind."""
        run_dir = tmp_path / "run"
        units = ["u0", "u1", "u2"]
        checkpoint = RunCheckpoint(run_dir)
        checkpoint.initialize(
            {"kind": "sweep", "spec": {"name": "t"}, "units": len(units)}, resume=True
        )
        checkpoint.record("u0", 5, shard="w1")  # u0's shard line
        events = [
            {"event": "claim", "unit": "u0", "worker": "w1", "token": "t0",
             "ttl": 30.0, "reclaimed": False},
            {"event": "record", "unit": "u0", "worker": "w1"},
            {"event": "claim", "unit": "u1", "worker": "w2", "token": "t1",
             "ttl": 30.0, "reclaimed": False},
            {"event": "release", "unit": "u1", "worker": "w2", "token": "t1"},
            {"event": "claim", "unit": "u2", "worker": "dead", "token": "t-dead",
             "ttl": 30.0, "reclaimed": False},
            {"event": "expire", "unit": "u2", "worker": "dead", "token": "t-dead"},
            {"event": "claim", "unit": "u2", "worker": "w3", "token": "t2",
             "ttl": 30.0, "reclaimed": True},
        ]
        (run_dir / JOURNAL_NAME).write_text(
            "".join(json.dumps(event) + "\n" for event in events)
        )

        restarted = coordinators(run_dir, units)
        assert restarted.completed_keys() == ["u0"]
        assert restarted.results() == {"u0": 5}
        payload = restarted.status_payload()
        assert payload["shard_counts"] == {checkpoint.shard_path("w1").name: 1}
        # Only u2's claim is still held, and it is flagged as replayed.
        [lease] = payload["active_leases"]
        assert (lease["unit"], lease["worker"], lease["restored"]) == ("u2", "w3", True)
        # Its holder's old token still renews through the batch request...
        ack = restarted.renew_batch(_lease(["u2"], "w3", "t2"))
        assert ack.ok and ack.stale == ()
        # ...a peer cannot take it, and the released u1 is free.
        assert _claim(restarted, ["u2"], "w4").granted == ()
        assert _claim(restarted, ["u1"], "w4").granted == ("u1",)


# ---------------------------------------------------------------------- #
# The HTTP face (live server, in-process)
# ---------------------------------------------------------------------- #
class TestHttpBackend:
    @given(contenders=st.integers(min_value=2, max_value=6))
    @settings(max_examples=5, deadline=None)
    def test_concurrent_claims_have_exactly_one_winner(self, contenders):
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            run_dir = Path(td) / "run"
            RunCheckpoint(run_dir).initialize(
                {"kind": "sweep", "spec": {"name": "t"}, "units": 1}, resume=True
            )
            with running_coordinator(run_dir, unit_keys=["u0"]) as server:
                backend = HttpWorkBackend(server.url, retry_timeout=10)
                barrier = threading.Barrier(contenders)

                def attempt(i: int):
                    barrier.wait()
                    try:
                        return backend.claim_batch(["u0"], f"w{i}")
                    finally:
                        backend.close()  # this pool thread's own connection

                with ThreadPoolExecutor(max_workers=contenders) as pool:
                    results = list(pool.map(attempt, range(contenders)))
                winners = [batch for batch in results if batch is not None]
                assert len(winners) == 1
                assert winners[0].units == ["u0"]
                assert winners[0].reclaimed_units == frozenset()

    def test_record_before_release_visible_to_peers(self, tmp_path):
        run_dir = tmp_path / "run"
        RunCheckpoint(run_dir).initialize(
            {"kind": "sweep", "spec": {"name": "t"}, "units": 2}, resume=True
        )
        with running_coordinator(run_dir, unit_keys=["u0", "u1"]) as server:
            backend = HttpWorkBackend(server.url, retry_timeout=10)
            try:
                batch = backend.claim_batch(["u0"], "w1")
                assert backend.completed_keys() == set()
                backend.record_batch(batch, {"u0": {"x": 1}})
                # Recorded before released: peers already see it done, and
                # nothing is left for the release to hand back.
                assert backend.completed_keys() == {"u0"}
                assert batch.units == []
                backend.release_batch(batch)
                assert backend.results() == {"u0": {"x": 1}}
            finally:
                backend.close()

    def test_renew_and_release_with_stale_token_rejected_over_http(self, tmp_path):
        run_dir = tmp_path / "run"
        RunCheckpoint(run_dir).initialize(
            {"kind": "sweep", "spec": {"name": "t"}, "units": 1}, resume=True
        )
        with running_coordinator(run_dir, ttl=0.05, unit_keys=["u0"]) as server:
            backend = HttpWorkBackend(server.url, retry_timeout=10)
            try:
                old = backend.claim_batch(["u0"], "w1")
                time.sleep(0.1)
                stolen = backend.claim_batch(["u0"], "w2")
                assert stolen is not None and stolen.reclaimed_units == {"u0"}
                assert backend.renew_batch(old) is None  # stale: rejected
                backend.release_batch(old)  # stale release: benign no-op...
                assert backend.renew_batch(stolen) is stolen  # ...thief unaffected
            finally:
                backend.close()

    def test_retired_per_unit_endpoints_answer_404_without_retry(self, tmp_path):
        """Every claim is a batch now: ``/claim``, ``/renew``, ``/release``
        and ``/record`` are gone.  A worker from before that change fails
        loudly at its first request instead of hanging: 4xx is never
        retried."""
        run_dir = tmp_path / "run"
        RunCheckpoint(run_dir).initialize(
            {"kind": "sweep", "spec": {"name": "t"}, "units": 1}, resume=True
        )
        with running_coordinator(run_dir, unit_keys=["u0"]) as server:
            for path in ("/claim", "/renew", "/release", "/record"):
                request = urllib.request.Request(
                    f"{server.url}{path}",
                    data=json.dumps({"unit": "u0", "worker": "w1"}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as refused:
                    urllib.request.urlopen(request)
                refused.value.close()
                assert refused.value.code == 404, path
            before = _requests_served(server.url).get("other", 0)
            backend = HttpWorkBackend(server.url, retry_timeout=30)
            try:
                start = time.monotonic()
                with pytest.raises(CoordinatorProtocolError, match="404"):
                    backend._request("/claim", {"unit": "u0", "worker": "w1"})
                assert time.monotonic() - start < 5
            finally:
                backend.close()
            # Unknown targets share the "other" series: one request, no retry.
            assert _requests_served(server.url)["other"] == before + 1

    def test_unreachable_coordinator_raises_after_bounded_retries(self):
        # Grab a port nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        backend = HttpWorkBackend(f"http://127.0.0.1:{port}", retry_timeout=0.3)
        start = time.monotonic()
        with pytest.raises(CoordinatorError, match="unreachable"):
            backend.completed_keys()
        assert time.monotonic() - start < 10

    def test_drain_units_over_http_backend(self, tmp_path):
        from repro.runtime import WorkUnit

        run_dir = tmp_path / "run"
        keys = [f"u{i}" for i in range(8)]
        RunCheckpoint(run_dir).initialize(
            {"kind": "sweep", "spec": {"name": "t"}, "units": len(keys)}, resume=True
        )
        units = [WorkUnit(key=k, payload=i) for i, k in enumerate(keys)]

        with running_coordinator(run_dir, unit_keys=keys) as server:
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [
                    pool.submit(
                        _drain,
                        server.url,
                        units,
                        _square_payload,
                        worker_id=f"w{i}",
                        poll_interval=0.01,
                    )
                    for i in range(3)
                ]
                stats_list = [f.result() for f in futures]
            assert sum(s.executed for s in stats_list) == len(keys)
            backend = HttpWorkBackend(server.url, retry_timeout=10)
            try:
                assert backend.results() == {f"u{i}": i * i for i in range(8)}
            finally:
                backend.close()
        # Exactly-once on disk too: no duplicate records across shards.
        merged = RunCheckpoint(run_dir).completed()
        assert merged == {f"u{i}": i * i for i in range(8)}

    def test_drain_units_batched_over_http_backend(self, tmp_path):
        """Several workers draining with claim_batch > 1: every unit
        exactly once, end to end."""
        from repro.runtime import WorkUnit

        run_dir = tmp_path / "run"
        keys = [f"u{i}" for i in range(14)]
        RunCheckpoint(run_dir).initialize(
            {"kind": "sweep", "spec": {"name": "t"}, "units": len(keys)}, resume=True
        )
        units = [WorkUnit(key=k, payload=i) for i, k in enumerate(keys)]

        with running_coordinator(run_dir, unit_keys=keys) as server:
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [
                    pool.submit(
                        _drain,
                        server.url,
                        units,
                        _square_payload,
                        worker_id=f"w{i}",
                        poll_interval=0.01,
                        claim_batch=3,
                    )
                    for i in range(3)
                ]
                stats_list = [f.result() for f in futures]
            assert sum(s.executed for s in stats_list) == len(keys)
            backend = HttpWorkBackend(server.url, retry_timeout=10)
            try:
                assert backend.results() == {f"u{i}": i * i for i in range(14)}
            finally:
                backend.close()
        merged = RunCheckpoint(run_dir).completed()
        assert merged == {f"u{i}": i * i for i in range(14)}

    def test_record_batch_flush_over_http(self, tmp_path):
        run_dir = tmp_path / "run"
        keys = ["u0", "u1", "u2"]
        RunCheckpoint(run_dir).initialize(
            {"kind": "sweep", "spec": {"name": "t"}, "units": len(keys)}, resume=True
        )
        with running_coordinator(run_dir, unit_keys=keys) as server:
            backend = HttpWorkBackend(server.url, retry_timeout=10)
            try:
                batch = backend.claim_batch(keys, "w1")
                assert sorted(batch.units) == keys
                backend.record_batch(batch, {"u0": 1, "u1": 2})
                # The flush dropped its members from the unfinished remainder.
                assert batch.units == ["u2"]
                assert backend.completed_keys() == {"u0", "u1"}
                backend.record_batch(batch, {"u2": 3})
                backend.release_batch(batch)  # empty remainder: no-op
                assert backend.results() == {"u0": 1, "u1": 2, "u2": 3}
            finally:
                backend.close()
        assert RunCheckpoint(run_dir).completed() == {"u0": 1, "u1": 2, "u2": 3}

    def test_persistent_connection_reused_across_requests(self, tmp_path):
        run_dir = tmp_path / "run"
        RunCheckpoint(run_dir).initialize(
            {"kind": "sweep", "spec": {"name": "t"}, "units": 1}, resume=True
        )
        with running_coordinator(run_dir, unit_keys=["u0"]) as server:
            backend = HttpWorkBackend(server.url, retry_timeout=10)
            backend.completed_keys()
            conn = backend._local.conn
            assert conn is not None  # kept alive after the round trip
            backend.completed_keys()
            assert backend._local.conn is conn  # same socket, no re-handshake
            backend.close()
            assert backend._local.conn is None

            throwaway = HttpWorkBackend(server.url, retry_timeout=10, persistent=False)
            throwaway.completed_keys()
            assert getattr(throwaway._local, "conn", None) is None

    def test_backoff_probe_returns_early_when_port_comes_back(self):
        """The jittered-backoff early-out: a pause is cut short the
        moment the coordinator's port accepts connections again, so a
        restarted coordinator is rejoined promptly instead of after the
        full pause."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        backend = HttpWorkBackend(f"http://127.0.0.1:{port}", retry_timeout=10)

        def open_late():
            time.sleep(0.3)
            listener.listen(1)

        opener = threading.Thread(target=open_late)
        start = time.monotonic()
        opener.start()
        try:
            came_back = backend._wait_or_probe(5.0)
        finally:
            opener.join()
            listener.close()
        elapsed = time.monotonic() - start
        assert came_back, "probe never saw the port come back"
        assert elapsed < 2.5, f"probe took {elapsed:.2f}s to notice a 0.3s restart"


# ---------------------------------------------------------------------- #
# Sweeps over the coordinator (programmatic API)
# ---------------------------------------------------------------------- #
class TestCoordinatorSweep:
    def test_work_coordinator_reconstructs_plan_from_wire_manifest(self, tmp_path):
        import numpy as np

        spec = tiny_benchmark_spec()
        run_dir = tmp_path / "run"
        plan = init_run_dir(run_dir, spec)
        with running_coordinator(run_dir, unit_keys=[u.key for u in plan.units]) as server:
            plan2, stats = work_coordinator(server.url, worker_id="w1", poll_interval=0.05)
            assert stats.executed == len(plan.units) == 4
            assert [u.key for u in plan2.units] == [u.key for u in plan.units]
            # run_sweep over the coordinator is now a pure read; results
            # travel the wire, not the filesystem.
            merged = run_sweep(spec, backend="coordinator", coordinator=server.url)
        local = run_sweep(spec, jobs=1)
        for scheduler in local.makespans:
            assert np.array_equal(local.makespans[scheduler], merged.makespans[scheduler])

    def test_run_sweep_coordinator_jobs_matches_serial_pisa(self, tmp_path):
        spec = tiny_fig4_spec()
        serial = run_sweep(spec, jobs=1)
        run_dir = tmp_path / "run"
        plan = init_run_dir(run_dir, spec)
        with running_coordinator(run_dir, unit_keys=[u.key for u in plan.units]) as server:
            over_wire = run_sweep(
                spec,
                backend="coordinator",
                coordinator=server.url,
                jobs=2,
                poll_interval=0.05,
            )
        assert _ratios(over_wire) == _ratios(serial)
        for pair, res in serial.pairwise.results.items():
            best = over_wire.pairwise.results[pair].best_instance
            assert best.task_graph == res.best_instance.task_graph
            assert best.network == res.best_instance.network

    def test_run_sweep_coordinator_validations(self, tmp_path):
        import numpy as np

        spec = tiny_benchmark_spec()
        with pytest.raises(CheckpointError, match="coordinator URL"):
            run_sweep(spec, backend="coordinator")
        with pytest.raises(CheckpointError, match="run_dir"):
            run_sweep(
                spec,
                backend="coordinator",
                coordinator="http://localhost:1",
                run_dir=tmp_path / "x",
            )
        with pytest.raises(ValueError, match="rng"):
            run_sweep(
                spec,
                backend="coordinator",
                coordinator="http://localhost:1",
                rng=np.random.default_rng(1),
            )
        with pytest.raises(TypeError, match="lease_ttl"):
            # The coordinator owns the TTL (`sweep serve --ttl`); run_sweep
            # has no worker-side lease knob at all.
            run_sweep(
                spec,
                backend="coordinator",
                coordinator="http://localhost:1",
                lease_ttl=5,
            )
        with pytest.raises(ValueError, match="coordinator"):
            run_sweep(spec, coordinator="http://localhost:1")  # local backend
        with pytest.raises(ValueError, match="retry_timeout"):
            run_sweep(spec, retry_timeout=5)

    def test_run_sweep_refuses_mismatched_coordinator(self, tmp_path):
        run_dir = tmp_path / "run"
        plan = init_run_dir(run_dir, tiny_benchmark_spec(seed=1))
        with running_coordinator(run_dir, unit_keys=[u.key for u in plan.units]) as server:
            with pytest.raises(CheckpointError, match="different sweep"):
                run_sweep(
                    tiny_benchmark_spec(seed=2),
                    backend="coordinator",
                    coordinator=server.url,
                )

    def test_gc_never_collects_a_directory_a_live_coordinator_serves(self, tmp_path):
        """Coordinator workers leave no lease files, so the server itself
        holds a renewed advisory lease — lease-aware gc must refuse the
        directory while the coordinator lives and collect it afterwards."""
        from repro.runtime.gc import gc_runs

        spec = tiny_benchmark_spec()
        root = tmp_path / "runs"
        run_dir = root / "run"
        plan = init_run_dir(run_dir, spec)
        with running_coordinator(run_dir, unit_keys=[u.key for u in plan.units]) as server:
            work_coordinator(server.url, worker_id="w1", poll_interval=0.05)
            collect, keep = gc_runs(root, completed=True)
            assert collect == []
            assert [s.path for s in keep] == [run_dir]
            assert keep[0].complete and keep[0].active_leases >= 1
        # Clean shutdown releases the advisory lease: now collectable.
        collect, keep = gc_runs(root, completed=True)
        assert [s.path for s in collect] == [run_dir]

    def test_heartbeat_thread_survives_protocol_errors(self, tmp_path):
        """A renew blowing up with a non-OSError (version-skewed
        coordinator, proxy garbage) must not kill the renewal thread —
        the next beat retries."""
        from repro.runtime.distributed import _renewing

        class FlakyBackend:
            def __init__(self):
                self.calls = 0

            def renew_batch(self, batch):
                self.calls += 1
                if self.calls == 1:
                    raise CoordinatorProtocolError("garbage ack")
                return batch

        backend = FlakyBackend()
        batch = type("B", (), {"units": ["u0"], "worker": "w1", "ttl": 1.0})()
        with _renewing(backend, batch, 0.02):
            time.sleep(0.15)
        assert backend.calls >= 2  # kept beating past the protocol error

    def test_status_schema_is_shared_between_backends(self, tmp_path):
        """The run-directory view (``sweep status <dir>``) and the live
        coordinator view (``GET /status``) of one run share a schema."""
        from repro.runtime.distributed import inspect_run_dir

        spec = tiny_benchmark_spec()
        coord_dir = tmp_path / "coord"
        plan = init_run_dir(coord_dir, spec)
        with running_coordinator(coord_dir, unit_keys=[u.key for u in plan.units]) as server:
            work_coordinator(server.url, worker_id="w1", poll_interval=0.05)
            client = HttpWorkBackend(server.url, retry_timeout=10)
            coord_payload = client.status()
            client.close()
        fs_payload = inspect_run_dir(coord_dir).to_payload()

        assert set(fs_payload) == set(coord_payload)
        for key in ("schema", "kind", "name", "complete", "total_units", "completed_units"):
            assert fs_payload[key] == coord_payload[key], key
        assert fs_payload["backend"] == "filesystem"
        assert coord_payload["backend"] == "coordinator"

    def test_entry_points_close_their_coordinator_clients(self, tmp_path, monkeypatch):
        """``run_sweep(backend="coordinator")`` and ``work_coordinator``
        close every client they open — the manifest check, the drain
        backend, and the connection each heartbeat thread opened to
        renew — so the garbage collector finds no open socket to warn
        about."""
        import gc
        import warnings

        spec = tiny_benchmark_spec()
        # Units outlasting the heartbeat (ttl/4 = 0.05 s) make every beat
        # thread renew, and so open its own connection, at least once.
        monkeypatch.setenv("REPRO_RUNTIME_UNIT_DELAY", "0.15")
        gc.collect()  # earlier tests' garbage must not count here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for entry in ("run_sweep", "work_coordinator"):
                run_dir = tmp_path / entry
                plan = init_run_dir(run_dir, spec)
                keys = [u.key for u in plan.units]
                with running_coordinator(run_dir, ttl=0.2, unit_keys=keys) as server:
                    if entry == "run_sweep":
                        run_sweep(
                            spec, backend="coordinator", coordinator=server.url, claim_batch=2
                        )
                    else:
                        work_coordinator(server.url, worker_id="w1", poll_interval=0.05)
            gc.collect()
        leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    def test_serve_finishes_a_run_dir_in_the_retired_shared_directory_layout(
        self, tmp_path
    ):
        """A run directory the removed shared-directory backend left half
        done stays usable: its per-worker shard merges, a dead worker's
        lease file blocks nothing, a coordinator drains the rest, and the
        merged result is bit-identical to a serial run."""
        import numpy as np

        from repro.runtime.checkpoint import safe_filename
        from repro.runtime.gc import scan_runs
        from repro.sweeps import load_run_plan

        spec = SweepSpec(
            name="migrate",
            mode="benchmark",
            schedulers=("HEFT", "CPoP"),
            source=SourceSpec("dataset", {"dataset": "chains"}),
            num_instances=6,
            sampling="sequential",
            seed=4,
        )
        run_dir = tmp_path / "run"
        plan = plan_sweep(spec)
        checkpoint = RunCheckpoint(run_dir, encode=plan.encode, decode=plan.decode)
        checkpoint.initialize(plan.manifest())
        for unit in plan.units[:3]:
            checkpoint.record(unit.key, plan.worker(unit), shard="old-w1")
        (run_dir / "leases").mkdir()
        old = time.time() - 3600
        dead_unit = plan.units[3].key
        dead = run_dir / "leases" / f"{safe_filename(dead_unit)}.json"
        dead.write_text(
            json.dumps(
                {
                    "unit": dead_unit,
                    "worker": "old-w2",
                    "acquired_at": old,
                    "heartbeat": old,
                    "ttl": 120,
                }
            )
        )
        os.utime(dead, (old, old))

        # What `sweep serve <run_dir>` does: the plan comes from the manifest.
        keys = [u.key for u in load_run_plan(run_dir).units]
        with running_coordinator(run_dir, unit_keys=keys) as server:
            _, stats = work_coordinator(server.url, worker_id="w3", poll_interval=0.05)
        assert stats.executed == 3 and stats.reclaimed == 0

        merged = run_sweep(spec, run_dir=run_dir, resume=True)
        serial = run_sweep(spec, jobs=1)
        for scheduler in serial.makespans:
            assert np.array_equal(serial.makespans[scheduler], merged.makespans[scheduler])
        [status] = scan_runs(run_dir)
        assert status.complete and status.completed_units == 6
        assert status.active_leases == 0


# ---------------------------------------------------------------------- #
# Fault injection: subprocess workers + coordinator, SIGKILL both
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
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _start_serve(
    run_dir: Path,
    port: int,
    spec_path: Path | None,
    ttl: float = 2.0,
    extra: list[str] | None = None,
):
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        "serve",
        str(run_dir),
        "--port",
        str(port),
        "--ttl",
        str(ttl),
    ]
    if spec_path is not None:
        cmd += ["--spec", str(spec_path)]
    if extra:
        cmd += extra
    return subprocess.Popen(
        cmd, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def _start_worker(
    url: str, worker_id: str, delay: float | None = None, batch: int | None = None
):
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        "work",
        "--coordinator",
        url,
        "--worker-id",
        worker_id,
        "--heartbeat",
        "0.4",
        "--poll",
        "0.05",
        "--retry",
        "60",
    ]
    if batch is not None:
        cmd += ["--batch", str(batch)]
    return subprocess.Popen(
        cmd, env=_env(delay), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def _wait_until(predicate, timeout: float, message: str) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for: {message}")


def _status(url: str) -> dict | None:
    client = HttpWorkBackend(url, retry_timeout=0.2, request_timeout=2)
    try:
        return client.status()
    except Exception:  # noqa: BLE001 - a down coordinator is an expected state here
        return None
    finally:
        client.close()


def _reap(*procs: subprocess.Popen | None) -> None:
    """Kill whatever still runs and close every pipe, so no process or
    pipe outlives the test."""
    for proc in procs:
        if proc is None:
            continue
        if proc.poll() is None:
            proc.kill()
        proc.communicate(timeout=30)


class TestFaultInjection:
    """The acceptance scenario pinned by PR 5 and re-pinned here with
    batching enabled: a fig4-preset sweep drained by two batched
    ``--coordinator`` workers, one SIGKILLed mid-batch, the coordinator
    SIGKILLed and restarted mid-sweep — merged results bit-identical to
    ``run_sweep(spec, jobs=1)``."""

    def test_kill_worker_and_coordinator_bit_identical_to_serial(self, tmp_path):
        spec = tiny_fig4_spec()
        serial = run_sweep(spec, jobs=1)
        expected_keys = sorted(
            f"{t}|{b}|r{r}"
            for t in SCHEDULERS
            for b in SCHEDULERS
            if t != b
            for r in range(TINY.restarts)
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        run_dir = tmp_path / "run"
        port = _free_port()
        url = f"http://127.0.0.1:{port}"

        coordinator = _start_serve(run_dir, port, spec_path, ttl=2.0)
        workers: list[subprocess.Popen] = []
        restarted = None
        try:
            _wait_until(lambda: _status(url) is not None, 60, "coordinator to serve")

            # The victim holds each unit open 0.6s (fault-injection delay),
            # the survivor 0.2s — slow enough that both kills land mid-sweep.
            # Both drain with claim_batch=3, so the victim's SIGKILL lands
            # mid-batch and only its unfinished members are re-granted.
            victim = _start_worker(url, "victim", delay=0.6, batch=3)
            workers.append(victim)
            _wait_until(
                lambda: any(
                    lease["worker"] == "victim"
                    for lease in (_status(url) or {}).get("active_leases", [])
                ),
                60,
                "victim to claim a unit",
            )
            survivor = _start_worker(url, "survivor", delay=0.2, batch=3)
            workers.append(survivor)

            # Kill the victim mid-unit: its lease must expire on the
            # coordinator's clock and be re-granted to the survivor.
            os.kill(victim.pid, signal.SIGKILL)
            victim.communicate(timeout=30)

            # Let the survivor make real progress, then SIGKILL the
            # coordinator mid-sweep and restart it on the same port.
            _wait_until(
                lambda: (_status(url) or {}).get("completed_units", 0) >= 2,
                120,
                "some units to complete before the coordinator dies",
            )
            assert not (_status(url) or {}).get("complete"), (
                "coordinator kill must land mid-sweep; slow the workers down"
            )
            os.kill(coordinator.pid, signal.SIGKILL)
            coordinator.communicate(timeout=30)

            restarted = _start_serve(run_dir, port, spec_path=None, ttl=2.0)
            _wait_until(lambda: _status(url) is not None, 60, "coordinator to restart")

            out, err = survivor.communicate(timeout=240)
            assert survivor.returncode == 0, err
            # The survivor reclaimed the victim's mid-unit lease.
            assert "reclaimed" in out or "reclaimed" in err
        finally:
            _reap(coordinator, restarted, *workers)

        # Every unit recorded exactly once across the coordinator's shards.
        recorded = []
        for shard in run_dir.glob("units-*.jsonl"):
            recorded += [
                json.loads(line)["key"]
                for line in shard.read_text().splitlines()
                if line.strip()
            ]
        assert sorted(recorded) == expected_keys

        # The merged result is bit-identical to the serial run.
        merged = run_sweep(spec, run_dir=run_dir, resume=True, jobs=1)
        assert _ratios(merged) == _ratios(serial)
        for pair, res in serial.pairwise.results.items():
            best = merged.pairwise.results[pair].best_instance
            assert best.task_graph == res.best_instance.task_graph
            assert best.network == res.best_instance.network

    def test_standby_takeover_bit_identical_to_serial(self, tmp_path):
        """Warm-standby HA end to end: batched workers drain a fig4
        sweep, the primary coordinator is SIGKILLed mid-batch, the
        standby replays the snapshot/segment chain and binds the same
        port, and the workers' reconnect probes rejoin it — the merged
        report must still be bit-identical to ``run_sweep(spec, jobs=1)``.
        """
        spec = tiny_fig4_spec()
        serial = run_sweep(spec, jobs=1)
        expected_keys = sorted(
            f"{t}|{b}|r{r}"
            for t in SCHEDULERS
            for b in SCHEDULERS
            if t != b
            for r in range(TINY.restarts)
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        run_dir = tmp_path / "run"
        port = _free_port()
        url = f"http://127.0.0.1:{port}"

        # A small segment threshold so the primary has published real
        # snapshots by the time it dies — the takeover replay is the
        # snapshot path, not a full-history replay.
        primary = _start_serve(
            run_dir, port, spec_path, ttl=2.0, extra=["--segment-bytes", "2000"]
        )
        standby = None
        workers: list[subprocess.Popen] = []
        try:
            _wait_until(lambda: _status(url) is not None, 60, "primary to serve")
            standby = _start_serve(
                run_dir, port, spec_path=None, ttl=2.0, extra=["--standby"]
            )

            workers = [
                _start_worker(url, f"w{i}", delay=0.3, batch=3) for i in range(2)
            ]
            _wait_until(
                lambda: (_status(url) or {}).get("completed_units", 0) >= 2,
                120,
                "progress before the primary dies",
            )
            assert not (_status(url) or {}).get("complete"), (
                "primary kill must land mid-sweep; slow the workers down"
            )
            assert standby.poll() is None, "standby died while the primary lived"

            os.kill(primary.pid, signal.SIGKILL)
            primary.communicate(timeout=30)

            # The standby must take over the same port and keep serving
            # the same run (workers rejoin via their reconnect probes).
            _wait_until(lambda: _status(url) is not None, 60, "standby to take over")
            assert standby.poll() is None

            for worker in workers:
                out, err = worker.communicate(timeout=240)
                assert worker.returncode == 0, err
            _wait_until(
                lambda: bool((_status(url) or {}).get("complete")),
                60,
                "takeover coordinator to see the sweep complete",
            )
        finally:
            _reap(primary, standby, *workers)

        # Every unit recorded exactly once across the shards.
        recorded = []
        for shard in run_dir.glob("units-*.jsonl"):
            recorded += [
                json.loads(line)["key"]
                for line in shard.read_text().splitlines()
                if line.strip()
            ]
        assert sorted(recorded) == expected_keys

        merged = run_sweep(spec, run_dir=run_dir, resume=True, jobs=1)
        assert _ratios(merged) == _ratios(serial)

    def test_sigkill_under_load_loses_no_acked_flush(self, tmp_path):
        """Group commit's contract under fire: four workers hammering
        batched claims and record flushes while the coordinator is
        SIGKILLed mid-load.  Acks follow durability, so after a restart
        every flush acked before the kill must still be there.

        The segment threshold is tiny, so the kill also lands amid
        journal rollovers and snapshot publishes — the restart must
        reconstruct from whatever snapshot/segment chain the kill left.
        """
        run_dir = tmp_path / "run"
        keys = [f"u{i}" for i in range(600)]
        RunCheckpoint(run_dir).initialize(
            {"kind": "sweep", "spec": {"name": "t"}, "units": len(keys)}, resume=True
        )
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        script = (
            "import sys\n"
            "from repro.runtime.coordinator import serve_coordinator\n"
            f"keys = [f'u{{i}}' for i in range({len(keys)})]\n"
            f"server = serve_coordinator(sys.argv[1], port={port}, ttl=30.0, "
            "unit_keys=keys, segment_bytes=1500)\n"
            "server.serve_forever()\n"
        )
        coordinator = subprocess.Popen(
            [sys.executable, "-c", script, str(run_dir)],
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        acked: list[str] = []
        acked_lock = threading.Lock()

        def hammer(wid: str, shard: list[str]) -> None:
            backend = HttpWorkBackend(url, retry_timeout=1.0, request_timeout=5)
            try:
                for start in range(0, len(shard), 4):
                    batch = backend.claim_batch(shard[start : start + 4], wid)
                    if batch is None:
                        continue
                    results = {k: {"k": k} for k in batch.units}
                    backend.record_batch(batch, results)
                    with acked_lock:
                        acked.extend(results)  # only after the ack came back
                    time.sleep(0.002)  # keep the kill landing mid-load
            except Exception:  # noqa: BLE001 - the kill is the expected ending
                return  # anything unacked is fair game
            finally:
                backend.close()
        threads = [
            threading.Thread(target=hammer, args=(f"w{i}", keys[i::4])) for i in range(4)
        ]
        try:
            _wait_until(lambda: _status(url) is not None, 60, "coordinator to serve")
            for thread in threads:
                thread.start()
            _wait_until(lambda: len(acked) >= 40, 60, "real load before the kill")
            os.kill(coordinator.pid, signal.SIGKILL)
            coordinator.communicate(timeout=30)
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            _reap(coordinator)

        with acked_lock:
            flushed = set(acked)
        assert flushed, "no flush was acked before the kill"
        # The tiny threshold must actually have exercised the rollover
        # machinery under load before the kill.
        from repro.runtime.checkpoint import journal_segments, journal_snapshots

        assert len(journal_segments(run_dir)) >= 1
        assert journal_snapshots(run_dir), (
            "no snapshot was published before the kill; the restart below "
            "would not exercise the snapshot path"
        )
        with contextlib.closing(Coordinator(run_dir, ttl=30.0, unit_keys=keys)) as restarted:
            survived = set(restarted.results())
        missing = flushed - survived
        assert not missing, f"{len(missing)} acked unit(s) lost by the kill"

    def test_cli_status_json_against_live_coordinator(self, tmp_path):
        """`repro sweep status --coordinator --json` emits the shared
        schema (the dashboard seed)."""
        spec = tiny_benchmark_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        run_dir = tmp_path / "run"
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        coordinator = _start_serve(run_dir, port, spec_path)
        try:
            _wait_until(lambda: _status(url) is not None, 60, "coordinator to serve")
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "sweep",
                    "status",
                    "--coordinator",
                    url,
                    "--json",
                ],
                env=_env(),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
            payload = json.loads(result.stdout)
            assert payload["backend"] == "coordinator"
            assert payload["total_units"] == 4
            assert payload["completed_units"] == 0
        finally:
            _reap(coordinator)


class TestServeUntilComplete:
    def test_late_read_after_the_last_record_is_answered(self, tmp_path):
        """``sweep serve --until-complete`` keeps serving for
        ``COMPLETION_GRACE`` after the last record: a worker's closing
        read half a second later is answered instead of refused (which
        would strand it for its whole retry budget), and the server
        still exits 0 by itself."""
        assert COMPLETION_GRACE >= 4 * DEFAULT_POLL_INTERVAL
        spec = tiny_fig4_spec()
        keys = [u.key for u in plan_sweep(spec).units]
        assert len(keys) == 12
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        coordinator = _start_serve(
            tmp_path / "run", port, spec_path, extra=["--until-complete"]
        )
        try:
            _wait_until(lambda: _status(url) is not None, 60, "coordinator to serve")
            backend = HttpWorkBackend(url, retry_timeout=10)
            try:
                batch = backend.claim_batch(keys, "w1")
                assert sorted(batch.units) == sorted(keys)
                backend.record_batch(batch, {key: 0 for key in keys})
            finally:
                backend.close()
            time.sleep(0.5)
            late = HttpWorkBackend(url, retry_timeout=0.5)
            try:
                assert late.completed_keys() == set(keys)
            finally:
                late.close()
            out, err = coordinator.communicate(timeout=60)
            assert coordinator.returncode == 0, err
            assert "run complete (12 units)" in out
        finally:
            _reap(coordinator)
