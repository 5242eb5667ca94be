"""JSON-lines checkpointing for interruptible experiment runs.

A *run directory* holds an identity file plus one or more result files:

``manifest.json``
    The run's identity: what experiment, which schedulers/configs, how
    many units.  A resumed run must present an identical manifest — a
    mismatch means the checkpoint belongs to a different experiment and
    silently mixing results would corrupt the sweep.
``units.jsonl``
    One JSON object per *completed* work unit: ``{"key": ..., "result":
    ...}``.  Records are appended and flushed as units finish, so an
    interrupted run loses at most the units that were in flight.
``units-<worker>.jsonl``
    Per-worker result *shards*: the HTTP coordinator
    (:mod:`repro.runtime.coordinator`) appends each result to the shard
    of the worker that recorded it.  :meth:`RunCheckpoint.completed`
    merges ``units.jsonl`` and every shard, deduplicating on unit key
    (first-recorded wins; duplicates are logged, and are bit-identical
    anyway because every unit owns a deterministic RNG stream).

A killed writer can leave a *torn* final line (the process died
mid-``write``).  Torn and otherwise unparseable lines are skipped — and
logged — on load, and :meth:`RunCheckpoint.record` repairs a missing
trailing newline before appending, so a resumed run never glues a fresh
record onto a torn one (which would silently lose the fresh result).

Results are encoded/decoded through caller-supplied functions so the
executor stays agnostic of what a unit produces; PISA units, for
example, serialize the adversarial instance via
:meth:`~repro.core.instance.ProblemInstance.to_dict` and drop the
per-iteration annealing history (summary statistics survive the round
trip, trajectories do not).
"""

from __future__ import annotations

import json
import logging
import os
import re
import secrets
import shutil
import time
from collections.abc import Callable, Iterator
from hashlib import sha1
from pathlib import Path
from typing import Any

__all__ = [
    "CheckpointError",
    "RunCheckpoint",
    "iter_jsonl",
    "iter_result_records",
    "journal_segment_path",
    "journal_segments",
    "journal_snapshots",
    "result_file_paths",
    "safe_filename",
    "snapshot_path",
]

logger = logging.getLogger(__name__)

#: Glob matching per-worker result shards next to ``units.jsonl``.
SHARD_GLOB = "units-*.jsonl"

#: Coordinator journal segment naming.  Segment 0 is the bare
#: ``coordinator.jsonl`` (every pre-segmentation run directory is a
#: valid one-segment chain); rolled segments are
#: ``coordinator.000001.jsonl``, ``coordinator.000002.jsonl``, ...
#: A ``snapshot.<seq>.json`` captures the coordinator's full state as
#: of the *end* of segment ``<seq>``, so restart = newest valid
#: snapshot + replay of the segments after it.  The path layout lives
#: here (below the coordinator) so ``runs gc`` and fresh-initialization
#: can be segment-aware without importing the coordinator.
JOURNAL_SEGMENT_0 = "coordinator.jsonl"
_SEGMENT_RE = re.compile(r"^coordinator\.(\d{6})\.jsonl$")
_SNAPSHOT_RE = re.compile(r"^snapshot\.(\d{6})\.json$")


def journal_segment_path(run_dir: str | Path, seq: int) -> Path:
    """The path of coordinator journal segment ``seq`` in ``run_dir``."""
    run_dir = Path(run_dir)
    if seq == 0:
        return run_dir / JOURNAL_SEGMENT_0
    return run_dir / f"coordinator.{seq:06d}.jsonl"


def journal_segments(run_dir: str | Path) -> list[tuple[int, Path]]:
    """Existing journal segments of ``run_dir`` as ``(seq, path)``, ascending."""
    run_dir = Path(run_dir)
    out: list[tuple[int, Path]] = []
    legacy = run_dir / JOURNAL_SEGMENT_0
    if legacy.is_file():
        out.append((0, legacy))
    for path in run_dir.glob("coordinator.*.jsonl"):
        match = _SEGMENT_RE.match(path.name)
        if match and path.is_file():
            out.append((int(match.group(1)), path))
    return sorted(out)


def snapshot_path(run_dir: str | Path, seq: int) -> Path:
    """The snapshot covering all events of journal segments ``<= seq``."""
    return Path(run_dir) / f"snapshot.{seq:06d}.json"


def journal_snapshots(run_dir: str | Path) -> list[tuple[int, Path]]:
    """Existing coordinator snapshots as ``(seq, path)``, ascending."""
    out: list[tuple[int, Path]] = []
    for path in Path(run_dir).glob("snapshot.*.json"):
        match = _SNAPSHOT_RE.match(path.name)
        if match and path.is_file():
            out.append((int(match.group(1)), path))
    return sorted(out)


class CheckpointError(ValueError):
    """A run directory refused an operation (manifest mismatch, missing
    ``resume=True`` over completed units).  Subclasses :class:`ValueError`
    for backward compatibility; callers that want to treat checkpoint
    refusals as user errors (the CLI) can catch this specifically without
    swallowing unrelated ``ValueError``\\ s from experiment code."""


def _identity(value: Any) -> Any:
    return value


def safe_filename(text: str) -> str:
    """A filesystem-safe, collision-free name for an arbitrary string.

    Unit keys (``"HEFT|CPoP|r2"``) and worker ids become lease/shard file
    names; anything outside ``[A-Za-z0-9._-]`` is replaced and a short
    digest of the original keeps distinct inputs distinct.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", text)[:80]
    return f"{safe}-{sha1(text.encode()).hexdigest()[:8]}"


def result_file_paths(run_dir: str | Path) -> list[Path]:
    """Every result file of ``run_dir``: ``units.jsonl`` + sorted shards.

    The order is the deduplication order of :meth:`RunCheckpoint.completed`
    — deterministic, so "first writer wins" means the same record on every
    read.
    """
    run_dir = Path(run_dir)
    paths = []
    units = run_dir / RunCheckpoint.UNITS_NAME
    if units.is_file():
        paths.append(units)
    paths += sorted(p for p in run_dir.glob(SHARD_GLOB) if p.is_file())
    return paths


def iter_jsonl(path: Path, *, log: bool = True, what: str = "record") -> Iterator[Any]:
    """Yield the parseable JSON values of one JSON-lines file, tolerating
    what killed writers leave behind.

    A torn final line (or mid-file garbage from a corrupted filesystem) is
    skipped — with a warning naming ``what`` when ``log`` is set — instead
    of raising ``json.JSONDecodeError``.  This is the one torn-line-repair
    reader behind result shards *and* the coordinator journal, so the two
    recovery paths can never diverge in what they tolerate.
    """
    try:
        # errors="replace": corrupted bytes become unparseable lines that
        # fall into the skip-and-log path below instead of crashing resume.
        text = path.read_text(errors="replace")
    except OSError:
        return
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            if log:
                logger.warning(
                    "%s:%d: skipping unparseable %s line "
                    "(torn write from an interrupted run)",
                    path,
                    lineno,
                    what,
                )
            continue


def iter_result_records(path: Path, *, log: bool = True) -> Iterator[dict]:
    """Yield the well-formed ``{"key": ..., "result": ...}`` records of one
    result file, tolerating what killed writers leave behind.

    A torn or malformed line is skipped — with a warning when ``log`` is
    set — instead of raising: the unit it belonged to is simply not
    completed and will be re-executed on resume.
    """
    for record in iter_jsonl(path, log=log, what="checkpoint"):
        if not isinstance(record, dict) or "key" not in record or "result" not in record:
            if log:
                logger.warning(
                    "%s: skipping malformed checkpoint record (no unit key/result)",
                    path,
                )
            continue
        yield record


class RunCheckpoint:
    """Append-only checkpoint of completed work units in a run directory."""

    MANIFEST_NAME = "manifest.json"
    UNITS_NAME = "units.jsonl"

    def __init__(
        self,
        run_dir: str | Path,
        encode: Callable[[Any], Any] | None = None,
        decode: Callable[[Any], Any] | None = None,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        # ``None`` stays ``None`` so checkpoints with module-level codecs
        # (or none) pickle cleanly across process boundaries.
        self._encode = encode
        self._decode = decode

    @property
    def encode(self) -> Callable[[Any], Any] | None:
        """The result encoder this checkpoint applies on record (or None)."""
        return self._encode

    @property
    def decode(self) -> Callable[[Any], Any] | None:
        """The result decoder this checkpoint applies on load (or None)."""
        return self._decode

    @property
    def manifest_path(self) -> Path:
        return self.run_dir / self.MANIFEST_NAME

    @property
    def units_path(self) -> Path:
        return self.run_dir / self.UNITS_NAME

    def shard_path(self, worker_id: str) -> Path:
        """The result shard holding ``worker_id``'s records."""
        return self.run_dir / f"units-{safe_filename(worker_id)}.jsonl"

    def result_paths(self) -> list[Path]:
        """Existing result files, in deduplication order."""
        return result_file_paths(self.run_dir)

    def _has_results(self) -> bool:
        for path in self.result_paths():
            try:
                if path.stat().st_size > 0:
                    return True
            except OSError:
                continue
        return False

    # ------------------------------------------------------------------ #
    def initialize(self, manifest: dict, resume: bool = False) -> None:
        """Write (fresh run) or validate (resume) the run manifest.

        A resumed run requires the stored manifest to match ``manifest``
        exactly and keeps the completed-unit records.  A fresh run
        refuses to start over a directory that already holds completed
        units — hours of checkpointed work must never vanish because
        ``resume`` was forgotten; pass ``resume=True`` or use a new
        directory.

        ``resume=True`` over an *uninitialized* directory initializes it,
        which makes initialization idempotent: any number of processes can
        race to attach to one run directory — the manifest is published
        with an atomic exclusive link, exactly one racer wins, and the
        losers validate the winner's (identical) manifest.  The
        attach path never deletes anything: by the time a loser notices
        it lost, the winner may already hold leases and shard records.
        """
        if resume:
            if self._validate_stored(manifest):
                return
            if self._has_results():
                # Results without a manifest is a damaged run — unless a
                # concurrent winner published the manifest after our first
                # look; re-check before refusing.
                if self._validate_stored(manifest):
                    return
                raise CheckpointError(
                    f"cannot resume from {self.run_dir}: unit results exist but "
                    "manifest.json is missing"
                )
            if not self._publish_manifest(manifest):
                # Lost the initialization race: validate the winner's.
                if not self._validate_stored(manifest):
                    raise CheckpointError(
                        f"cannot resume from {self.run_dir}: manifest appeared and "
                        "vanished mid-initialization"
                    )
            return
        if self._has_results():
            raise CheckpointError(
                f"run directory {self.run_dir} already holds completed units; "
                "pass resume=True (--resume) to continue it, or point the run "
                "at a fresh directory"
            )
        holder = self._live_lease_holder()
        if holder is not None:
            raise CheckpointError(
                f"run directory {self.run_dir} is served by a live coordinator "
                f"(advisory lease held by {holder!r}); a fresh run over it would "
                "let its workers record results for a different experiment — "
                "stop the coordinator or use another directory"
            )
        self._write_manifest(manifest)
        self.units_path.write_text("")
        # A fresh run over a previously-abandoned directory must not
        # inherit its (empty — the refusal above covers non-empty) shards,
        # its ``leases/`` (a dead coordinator's advisory lease, or the
        # retired backend's per-unit files), its telemetry shards, or the
        # previous sweep's coordinator journal chain — replaying another
        # experiment's journal segments or snapshot into a fresh
        # coordinator would resurrect its leases and completion set, and
        # stale telemetry would misreport this run's fleet.
        stale: list[Path] = list(self.run_dir.glob(SHARD_GLOB))
        stale += list(self.run_dir.glob("telemetry-*.jsonl"))
        stale += [path for _, path in journal_segments(self.run_dir)]
        stale += [path for _, path in journal_snapshots(self.run_dir)]
        for path in stale:
            try:
                path.unlink()
            except OSError:
                pass
        leases = self.run_dir / "leases"
        if leases.is_dir():
            shutil.rmtree(leases, ignore_errors=True)

    def _live_lease_holder(self) -> str | None:
        """The holder named by this directory's advisory lease while a
        coordinator serving it seems live, else ``None``.

        Imported lazily: :mod:`repro.runtime.distributed` depends on this
        module, so the dependency must not be circular at import time.
        """
        from repro.runtime.distributed import lease_seems_live, read_advisory_lease

        advisory = read_advisory_lease(self.run_dir)
        if advisory is None:
            return None
        path, lease = advisory
        if not lease_seems_live(lease, path, time.time()):
            return None
        return lease.worker if lease is not None else "<torn lease>"

    def _validate_stored(self, manifest: dict) -> bool:
        """True if a stored manifest exists and matches; raises on mismatch."""
        if not self.manifest_path.exists():
            return False
        stored = self.manifest()
        if stored != manifest:
            raise CheckpointError(
                f"cannot resume from {self.run_dir}: checkpoint manifest does not "
                f"match this run (stored {stored!r}, expected {manifest!r})"
            )
        return True

    def _manifest_tmp_path(self) -> Path:
        # pid alone is not unique across hosts sharing the directory; a
        # random suffix keeps two same-pid workers from tearing each
        # other's temp file mid-publish.
        suffix = f"{os.getpid()}.{secrets.token_hex(4)}"
        return self.manifest_path.with_name(f"{self.MANIFEST_NAME}.tmp.{suffix}")

    def _write_manifest(self, manifest: dict) -> None:
        # Atomic replace: a concurrent worker reading the manifest must
        # never observe a torn half-written file.
        tmp = self._manifest_tmp_path()
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.manifest_path)

    def _publish_manifest(self, manifest: dict) -> bool:
        """Atomically create the manifest; False if another racer won.

        ``os.link`` is the portable exclusive-publish primitive (atomic on
        POSIX and, unlike ``O_EXCL`` + write, never exposes a torn file):
        the content is fully written to a temp file first and the link
        either appears whole or not at all.
        """
        tmp = self._manifest_tmp_path()
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        try:
            os.link(tmp, self.manifest_path)
            return True
        except FileExistsError:
            return False
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass

    def manifest(self) -> dict | None:
        """The stored manifest, or None for an uninitialized directory."""
        if not self.manifest_path.exists():
            return None
        return json.loads(self.manifest_path.read_text())

    # ------------------------------------------------------------------ #
    def completed(self) -> dict[str, Any]:
        """Decoded results of every completed unit, keyed by unit key.

        Merges ``units.jsonl`` with every per-worker shard.  A unit
        recorded more than once (a worker presumed dead that woke up after
        its lease was reclaimed) keeps its first-recorded result — the
        duplicate is logged, and is bit-identical anyway because units own
        deterministic RNG streams.
        """
        decode = self._decode if self._decode is not None else _identity
        out: dict[str, Any] = {}
        for path in self.result_paths():
            for record in iter_result_records(path):
                key = record["key"]
                if key in out:
                    logger.warning(
                        "%s: duplicate record for unit %r ignored (first writer wins)",
                        path,
                        key,
                    )
                    continue
                out[key] = decode(record["result"])
        return out

    def record(self, key: str, result: Any, shard: str | None = None) -> None:
        """Append one completed unit; flushed immediately so an interrupt
        after this call never loses the unit.

        With ``shard``, the record goes to that worker's ``units-*.jsonl``
        shard instead of ``units.jsonl`` (how the coordinator records).  If a previously killed writer left the
        file without a trailing newline, a repair newline is inserted first
        — appending straight after torn bytes would corrupt *this* record
        too, silently losing a successfully executed unit.
        """
        encode = self._encode if self._encode is not None else _identity
        path = self.units_path if shard is None else self.shard_path(shard)
        append_jsonl_many(path, [{"key": key, "result": encode(result)}])

    def record_many(self, items, shard: str | None = None) -> None:
        """Append several completed units (``(key, result)`` pairs) under
        one open+flush — the batched-record flush path.  Durability is
        group-grained: an interrupt can lose the whole group but never
        tear an individual line (same torn-tail repair as :meth:`record`).
        """
        encode = self._encode if self._encode is not None else _identity
        path = self.units_path if shard is None else self.shard_path(shard)
        append_jsonl_many(
            path, ({"key": key, "result": encode(result)} for key, result in items)
        )


def append_jsonl_many(path: Path, objs) -> None:
    """Append JSON lines under one open+flush; a no-op for an empty iterable.

    If a previously killed writer left the file without a trailing
    newline, a repair newline is inserted first — appending straight
    after torn bytes would corrupt the first new line too.
    """
    lines = [json.dumps(obj) for obj in objs]
    if not lines:
        return
    with path.open("ab") as fh:
        if fh.tell() > 0 and not _ends_with_newline(path):
            fh.write(b"\n")
        fh.write(("\n".join(lines) + "\n").encode())
        fh.flush()


def _ends_with_newline(path: Path) -> bool:
    try:
        with path.open("rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) == b"\n"
    except OSError:
        return True
