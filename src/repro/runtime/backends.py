"""Work backends: the claim/renew/release/record/completed seam.

:func:`repro.runtime.distributed.drain_units` coordinates workers
through five operations — *which units are done*, *claim a batch*,
*keep it alive*, *record finished members*, *let the rest go*.  This
module makes that seam an explicit protocol (:class:`WorkBackend`, which
tests substitute through) with one transport, :class:`HttpWorkBackend`:
a JSON-over-HTTP client for the coordinator served by ``repro sweep
serve`` (:mod:`repro.runtime.coordinator`).  No shared filesystem is
required: the coordinator owns the lease table, judges TTL staleness on
its single clock, and stores results; the client only needs to reach
its port.

The wire protocol is defined here as typed request/reply payloads
(:class:`BatchClaimRequest` … :class:`BatchRecordReply`) with validating
``from_dict`` parsers used by *both* sides — the server parses requests
through them and the client parses replies through them, so a malformed
message is rejected at the edge instead of corrupting state.

Every client request is **idempotent**, which is what makes bounded
retry safe when a response is lost (a coordinator SIGKILLed between
applying a request and replying): a re-sent claim by the current holder
folds its units into a fresh token, a re-sent record of a completed unit
is acknowledged as a duplicate, a re-sent release of a vanished lease is
a no-op.  Transient failures (connection refused while the coordinator
restarts, 5xx, timeouts) are retried with exponential backoff up to
``retry_timeout`` seconds; protocol violations (4xx) raise
:class:`CoordinatorProtocolError` immediately.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

__all__ = [
    "DEFAULT_RETRY_TIMEOUT",
    "WorkBackend",
    "HttpWorkBackend",
    "CoordinatorError",
    "CoordinatorProtocolError",
    "CoordinatorBatchLease",
    "BatchClaimRequest",
    "BatchClaimReply",
    "BatchLeaseRequest",
    "BatchAckReply",
    "BatchRecordRequest",
    "BatchRecordReply",
]

#: Seconds an :class:`HttpWorkBackend` keeps retrying transient errors
#: before giving up.  Long enough to ride out a coordinator kill +
#: restart; short enough that a permanently-gone coordinator surfaces as
#: an error, not a hang.
DEFAULT_RETRY_TIMEOUT = 60.0
#: Per-request socket timeout (seconds).
DEFAULT_REQUEST_TIMEOUT = 10.0


class CoordinatorError(OSError):
    """The coordinator stayed unreachable past the retry budget.

    Subclasses :class:`OSError` so the drain loop's transient-failure
    handling (heartbeat threads retry next beat) treats it like any other
    dropped connection.
    """


class CoordinatorProtocolError(RuntimeError):
    """The coordinator understood the request and refused it (4xx) — a
    version mismatch, a foreign run directory, or a malformed payload.
    Never retried: re-sending the same request cannot help."""


# ---------------------------------------------------------------------- #
# The protocol
# ---------------------------------------------------------------------- #
@runtime_checkable
class WorkBackend(Protocol):
    """What :func:`~repro.runtime.distributed.drain_units` needs from a
    coordination transport.

    One request leases up to N units under one ownership token (a batch
    of one is the smallest claim).  Batch lease objects are
    backend-specific and treated as opaque by the drain loop except for
    four attributes every batch must expose: ``units`` (the members not
    yet recorded, shrinking as flushes are acknowledged), ``ttl``
    (seconds of heartbeat silence before peers may reclaim), ``worker``,
    and ``reclaimed_units`` (the members this claim stole from a dead
    worker's stale leases).  A claim of an already-completed unit must
    be refused atomically: the drain loop executes every granted member
    without re-checking.
    """

    def completed_keys(self) -> set[str]:
        """The unit keys recorded so far, by any worker."""
        ...

    def claim_batch(self, unit_keys: Any, worker: str) -> Any | None:
        """Try to claim every key in ``unit_keys`` at once; the grant may
        be partial (held/completed units are skipped).  ``None`` if
        nothing was grantable."""
        ...

    def renew_batch(self, batch: Any) -> Any | None:
        """Refresh the heartbeat of a batch's unrecorded units; ``None``
        if ownership of *all* of them was lost."""
        ...

    def release_batch(self, batch: Any) -> None:
        """Give up the unrecorded remainder of a batch."""
        ...

    def record_batch(self, batch: Any, results: Any) -> None:
        """Durably record finished members (``{unit_key: result}``) in
        one flush and release their claims — the only record path of a
        batch.  Members leave ``batch.units`` only once the flush is
        acknowledged, so until then they keep being renewed and a failed
        flush hands them back with :meth:`release_batch`.  Durability is
        flush-grained: a worker killed before a flush loses its buffered
        results, which peers re-execute after the TTL."""
        ...


# ---------------------------------------------------------------------- #
# Wire payloads (shared by client and server)
# ---------------------------------------------------------------------- #
def _require_str(data: dict, key: str) -> str:
    value = data.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"{key} must be a non-empty string, got {value!r}")
    return value


def _require_bool(data: dict, key: str) -> bool:
    value = data.get(key)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be a boolean, got {value!r}")
    return value


def _payload_dict(data: Any, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} payload must be an object, got {type(data).__name__}")
    return data


def _require_str_list(
    data: dict, key: str, *, allow_empty: bool = False, unique: bool = True
) -> tuple[str, ...]:
    value = data.get(key, [] if allow_empty else None)
    if not isinstance(value, list) or (not value and not allow_empty):
        raise ValueError(f"{key} must be a non-empty array of strings, got {value!r}")
    out: list[str] = []
    for item in value:
        if not isinstance(item, str) or not item:
            raise ValueError(f"{key} entries must be non-empty strings, got {item!r}")
        out.append(item)
    if unique and len(set(out)) != len(out):
        raise ValueError(f"{key} entries must be unique, got {out!r}")
    return tuple(out)


@dataclass(frozen=True)
class BatchClaimRequest:
    """``POST /claim-batch`` body: one worker asking for up to N units."""

    units: tuple[str, ...]
    worker: str

    def to_dict(self) -> dict:
        return {"units": list(self.units), "worker": self.worker}

    @classmethod
    def from_dict(cls, data: Any) -> "BatchClaimRequest":
        data = _payload_dict(data, "batch claim request")
        return cls(
            units=_require_str_list(data, "units"),
            worker=_require_str(data, "worker"),
        )


@dataclass(frozen=True)
class BatchClaimReply:
    """``POST /claim-batch`` reply.

    ``granted`` lists the units now leased to the worker — possibly a
    strict subset of the request (live peers hold the rest) — all under
    one ownership ``token`` and one journal record.  ``reclaimed`` is
    the subset of ``granted`` that stole a dead worker's stale leases;
    ``completed`` lists requested units that were already recorded.
    """

    granted: tuple[str, ...]
    token: str = ""
    ttl: float = 0.0
    reclaimed: tuple[str, ...] = ()
    completed: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "granted": list(self.granted),
            "token": self.token,
            "ttl": self.ttl,
            "reclaimed": list(self.reclaimed),
            "completed": list(self.completed),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "BatchClaimReply":
        data = _payload_dict(data, "batch claim reply")
        if "granted" not in data:
            raise ValueError("batch claim reply must carry a granted array")
        granted = _require_str_list(data, "granted", allow_empty=True)
        token = data.get("token", "")
        if not isinstance(token, str) or (granted and not token):
            raise ValueError(f"token must be a string (non-empty when granted), got {token!r}")
        try:
            ttl = float(data.get("ttl", 0.0))
        except (TypeError, ValueError):
            raise ValueError(f"ttl must be a number, got {data.get('ttl')!r}") from None
        if granted and ttl <= 0:
            raise ValueError(f"granted batch claim must carry a positive ttl, got {ttl}")
        reclaimed = _require_str_list(data, "reclaimed", allow_empty=True)
        completed = _require_str_list(data, "completed", allow_empty=True)
        if not set(reclaimed) <= set(granted):
            raise ValueError(f"reclaimed {reclaimed!r} must be a subset of granted {granted!r}")
        if set(completed) & set(granted):
            raise ValueError(f"completed {completed!r} must be disjoint from granted {granted!r}")
        return cls(granted=granted, token=token, ttl=ttl, reclaimed=reclaimed, completed=completed)


@dataclass(frozen=True)
class BatchLeaseRequest:
    """``POST /renew-batch`` and ``POST /release-batch`` body: the
    unrecorded remainder of a held batch, proven by its token."""

    units: tuple[str, ...]
    worker: str
    token: str

    def to_dict(self) -> dict:
        return {"units": list(self.units), "worker": self.worker, "token": self.token}

    @classmethod
    def from_dict(cls, data: Any) -> "BatchLeaseRequest":
        data = _payload_dict(data, "batch lease request")
        return cls(
            units=_require_str_list(data, "units"),
            worker=_require_str(data, "worker"),
            token=_require_str(data, "token"),
        )


@dataclass(frozen=True)
class BatchAckReply:
    """Reply to batch renew/release.  ``ok`` means at least one listed
    unit is still owned by the presented token; ``stale`` lists the
    units that no longer are (recorded, expired, or re-granted)."""

    ok: bool
    stale: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"ok": self.ok, "stale": list(self.stale)}

    @classmethod
    def from_dict(cls, data: Any) -> "BatchAckReply":
        data = _payload_dict(data, "batch ack reply")
        return cls(
            ok=_require_bool(data, "ok"),
            stale=_require_str_list(data, "stale", allow_empty=True),
        )


@dataclass(frozen=True)
class BatchRecordRequest:
    """``POST /record-batch`` body: several finished units' (encoded)
    results under one batch token — one request, one journal record,
    one group commit for the whole flush.  ``units`` and ``results``
    are parallel arrays."""

    units: tuple[str, ...]
    results: tuple[Any, ...]
    worker: str
    token: str

    def to_dict(self) -> dict:
        return {
            "units": list(self.units),
            "results": list(self.results),
            "worker": self.worker,
            "token": self.token,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "BatchRecordRequest":
        data = _payload_dict(data, "batch record request")
        units = _require_str_list(data, "units")
        results = data.get("results")
        if not isinstance(results, list) or len(results) != len(units):
            raise ValueError(
                f"results must be an array parallel to units "
                f"({len(units)} entries), got {results!r}"
            )
        return cls(
            units=units,
            results=tuple(results),
            worker=_require_str(data, "worker"),
            token=_require_str(data, "token"),
        )


@dataclass(frozen=True)
class BatchRecordReply:
    """``POST /record-batch`` reply.  ``ok`` acknowledges the whole
    flush as durable; ``duplicates`` lists units that were already
    recorded, whose results were dropped (first writer wins)."""

    ok: bool
    duplicates: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"ok": self.ok, "duplicates": list(self.duplicates)}

    @classmethod
    def from_dict(cls, data: Any) -> "BatchRecordReply":
        data = _payload_dict(data, "batch record reply")
        return cls(
            ok=_require_bool(data, "ok"),
            duplicates=_require_str_list(data, "duplicates", allow_empty=True),
        )


@dataclass
class CoordinatorBatchLease:
    """A batch of claims granted under one token, held client-side.

    ``units`` is the unrecorded remainder: :meth:`HttpWorkBackend.
    record_batch` drops each flushed member once the coordinator acks,
    so renewals and the final release cover only what is not yet
    recorded."""

    worker: str
    token: str
    ttl: float
    units: list[str]
    reclaimed_units: frozenset[str] = frozenset()

    def drop(self, unit_key: str) -> None:
        if unit_key in self.units:
            self.units.remove(unit_key)


# ---------------------------------------------------------------------- #
# HTTP transport
# ---------------------------------------------------------------------- #
class _TransientError(Exception):
    """A retryable transport failure (unreachable, reset, timeout, 5xx).

    ``retry_now`` marks failures on a *reused* keep-alive connection:
    the server most likely closed it while idle, so the retry should go
    out immediately on a fresh connection instead of backing off."""

    def __init__(self, message: str, *, retry_now: bool = False) -> None:
        super().__init__(message)
        self.retry_now = retry_now


class HttpWorkBackend:
    """A :class:`WorkBackend` speaking JSON to a ``repro sweep serve``
    coordinator — multi-host draining with no shared filesystem.

    Each thread keeps one ``http.client.HTTPConnection`` alive across
    requests (HTTP/1.1 keep-alive), so the steady-state cost per request
    is one round trip, not one TCP handshake plus one round trip.  A
    connection that dies mid-request is dropped and the request retried
    on a fresh one — safe because every request is idempotent.
    Connections are per-thread (``threading.local``) because the drain
    loop's heartbeat thread shares this backend with the main thread and
    ``HTTPConnection`` is not thread-safe.

    Parameters
    ----------
    url:
        The coordinator's base URL (``http://host:port``).
    encode:
        Unit-result encoder applied before ``POST /record-batch`` (the
        same codec a :class:`RunCheckpoint` would hold); ``None`` records
        results as-is (they must be JSON-serializable).
    retry_timeout:
        Seconds to keep retrying transient failures (connection refused,
        5xx, timeouts) before raising :class:`CoordinatorError`.  This
        is what lets workers ride out a coordinator kill + restart
        without losing their place.  Backoff is exponential with jitter,
        and each pause probes the coordinator's port so a restarted
        coordinator is rejoined promptly instead of after the full pause.
        The same probe makes warm-standby failover (``repro sweep serve
        --standby``) transparent: the standby replays snapshot+journal
        and binds the *same* port, so from here a takeover is
        indistinguishable from a restart — lease tokens survive the
        journal, so in-flight batches keep renewing and recording
        against the new primary without re-claiming.
    persistent:
        ``False`` closes the connection after every round trip — the
        pre-batching wire behavior, kept for benchmark baselines and as
        an escape hatch for middleboxes that mishandle keep-alive.
    """

    def __init__(
        self,
        url: str,
        *,
        encode: Any | None = None,
        retry_timeout: float | None = None,
        request_timeout: float | None = None,
        persistent: bool = True,
    ) -> None:
        self.url = url.rstrip("/")
        if not self.url.startswith(("http://", "https://")):
            raise ValueError(f"coordinator url must be http(s)://host:port, got {url!r}")
        self._encode = encode
        self.retry_timeout = float(
            DEFAULT_RETRY_TIMEOUT if retry_timeout is None else retry_timeout
        )
        self.request_timeout = float(
            DEFAULT_REQUEST_TIMEOUT if request_timeout is None else request_timeout
        )
        self.persistent = bool(persistent)
        split = urllib.parse.urlsplit(self.url)
        self._secure = split.scheme == "https"
        self._address = (split.hostname or "localhost", split.port or (443 if self._secure else 80))
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _new_connection(self) -> http.client.HTTPConnection:
        cls = http.client.HTTPSConnection if self._secure else http.client.HTTPConnection
        return cls(self._address[0], self._address[1], timeout=self.request_timeout)

    def _drop_connection(self, conn: http.client.HTTPConnection | None = None) -> None:
        held = getattr(self._local, "conn", None)
        self._local.conn = None
        for candidate in (held, conn):
            if candidate is not None:
                try:
                    candidate.close()  # idempotent: closing twice is fine
                except OSError:
                    pass

    def close(self) -> None:
        """Close the calling thread's persistent connection, if any.

        Connections are per-thread, so every thread that issued requests
        closes its own; the drain loop's heartbeat thread does so on exit.
        """
        self._drop_connection()

    def _roundtrip(self, path: str, body: bytes | None, *, raw: bool = False) -> Any:
        conn = getattr(self._local, "conn", None)
        reused = conn is not None
        if conn is None:
            conn = self._new_connection()
        try:
            conn.request(
                "GET" if body is None else "POST",
                path,
                body=body,
                headers={} if body is None else {"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            status, reason = resp.status, resp.reason
            response_body = resp.read()
        except (http.client.HTTPException, ConnectionError, TimeoutError, OSError) as exc:
            self._drop_connection(conn)
            raise _TransientError(f"{type(exc).__name__}: {exc}", retry_now=reused) from exc
        if self.persistent and not resp.will_close:
            self._local.conn = conn
        else:
            self._drop_connection(conn)
        if 400 <= status < 500:
            raise CoordinatorProtocolError(
                f"coordinator rejected {path}: {_error_detail(status, reason, response_body)}"
            )
        if status >= 500:
            raise _TransientError(f"{status} {reason}")
        if raw:
            # Non-JSON endpoints (GET /metrics serves Prometheus text).
            return response_body.decode(errors="replace")
        try:
            return json.loads(response_body)
        except json.JSONDecodeError as exc:
            raise CoordinatorProtocolError(
                f"coordinator at {self.url} returned non-JSON for {path}: {exc}"
            ) from None

    def _request(self, path: str, payload: dict | None = None, *, raw: bool = False) -> Any:
        """One round-trip with bounded retry on transient failures."""
        body = None if payload is None else json.dumps(payload).encode()
        deadline = time.monotonic() + self.retry_timeout
        backoff = 0.05
        last: Exception | None = None
        while True:
            try:
                return self._roundtrip(path, body, raw=raw)
            except _TransientError as exc:
                last = exc
                if exc.retry_now:
                    continue  # stale keep-alive: next attempt opens fresh, no pause
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CoordinatorError(
                    f"coordinator at {self.url} unreachable after "
                    f"{self.retry_timeout:.0f}s of retries (last error: {last})"
                )
            pause = min(backoff * random.uniform(0.5, 1.5), remaining)
            backoff = min(backoff * 2.0, 1.0)
            self._wait_or_probe(pause)

    def _wait_or_probe(self, pause: float) -> bool:
        """Wait out a backoff pause, probing the coordinator's port in
        50 ms slices.  Returns early (``True``) the moment the port
        accepts a TCP connection, so a coordinator that restarts two
        seconds into a ten-second pause is rejoined in milliseconds."""
        deadline = time.monotonic() + pause
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            window = min(remaining, 0.05)
            started = time.monotonic()
            try:
                probe = socket.create_connection(self._address, timeout=window)
            except OSError:
                leftover = window - (time.monotonic() - started)
                if leftover > 0:  # instant refusal: pace the loop ourselves
                    time.sleep(min(leftover, max(0.0, deadline - time.monotonic())))
            else:
                probe.close()
                return True

    # ------------------------------------------------------------------ #
    def completed_keys(self) -> set[str]:
        reply = self._request("/completed")
        keys = reply.get("keys") if isinstance(reply, dict) else None
        if not isinstance(keys, list):
            raise CoordinatorProtocolError(
                f"coordinator /completed reply malformed: {reply!r}"
            )
        return set(keys)

    # ------------------------------------------------------------------ #
    # Leases: one round trip per batch, whatever its size
    # ------------------------------------------------------------------ #
    def claim_batch(self, unit_keys, worker: str) -> CoordinatorBatchLease | None:
        payload = BatchClaimRequest(units=tuple(unit_keys), worker=worker).to_dict()
        reply = BatchClaimReply.from_dict(self._request("/claim-batch", payload))
        if not reply.granted:
            return None
        return CoordinatorBatchLease(
            worker=worker,
            token=reply.token,
            ttl=reply.ttl,
            units=list(reply.granted),
            reclaimed_units=frozenset(reply.reclaimed),
        )

    def renew_batch(self, batch: CoordinatorBatchLease) -> CoordinatorBatchLease | None:
        units = tuple(batch.units)
        if not units:
            return batch  # everything recorded; nothing left to keep alive
        payload = BatchLeaseRequest(units=units, worker=batch.worker, token=batch.token)
        ack = BatchAckReply.from_dict(self._request("/renew-batch", payload.to_dict()))
        return batch if ack.ok else None

    def release_batch(self, batch: CoordinatorBatchLease) -> None:
        units = tuple(batch.units)
        if not units:
            return
        payload = BatchLeaseRequest(units=units, worker=batch.worker, token=batch.token)
        self._request("/release-batch", payload.to_dict())  # stale members: benign

    def record_batch(self, batch: CoordinatorBatchLease, results) -> None:
        units = tuple(results)
        if not units:
            return
        encoded = [
            results[u] if self._encode is None else self._encode(results[u])
            for u in units
        ]
        payload = BatchRecordRequest(
            units=units, results=tuple(encoded), worker=batch.worker, token=batch.token
        )
        ack = BatchRecordReply.from_dict(self._request("/record-batch", payload.to_dict()))
        if not ack.ok:
            raise CoordinatorProtocolError(
                f"coordinator refused to record batch of {len(units)} unit(s)"
            )
        for unit in units:
            batch.drop(unit)

    # ------------------------------------------------------------------ #
    # Read-side endpoints (status, manifests, final results)
    # ------------------------------------------------------------------ #
    def manifest(self) -> dict:
        reply = self._request("/manifest")
        if not isinstance(reply, dict):
            raise CoordinatorProtocolError(f"coordinator /manifest reply malformed: {reply!r}")
        return reply

    def status(self) -> dict:
        reply = self._request("/status")
        if not isinstance(reply, dict):
            raise CoordinatorProtocolError(f"coordinator /status reply malformed: {reply!r}")
        return reply

    def results(self) -> dict[str, Any]:
        reply = self._request("/results")
        results = reply.get("results") if isinstance(reply, dict) else None
        if not isinstance(results, dict):
            raise CoordinatorProtocolError(f"coordinator /results reply malformed: {reply!r}")
        return results

    def metrics_text(self) -> str:
        """The coordinator's ``GET /metrics`` body (Prometheus text
        exposition format, not JSON) — what ``repro sweep top`` polls."""
        text = self._request("/metrics", raw=True)
        if not isinstance(text, str):
            raise CoordinatorProtocolError(f"coordinator /metrics reply malformed: {text!r}")
        return text


def _error_detail(status: int, reason: str, raw: bytes) -> str:
    """The coordinator's ``{"error": ...}`` detail, or the bare status."""
    try:
        body = json.loads(raw)
        if isinstance(body, dict) and isinstance(body.get("error"), str):
            return f"{status} {body['error']}"
    except ValueError:
        pass
    return f"{status} {reason}"
