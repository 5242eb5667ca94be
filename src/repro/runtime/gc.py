"""Garbage collection for checkpoint run directories.

Long sweeps leave run directories behind (``manifest.json`` +
``units.jsonl``); completed ones are dead weight once their results are
consumed, and interrupted ones go stale when nobody resumes them.  This
module scans a directory tree for run directories, classifies them, and
(optionally) removes the collectable ones.  The CLI front end is
``repro runs gc`` — dry-run by default, ``--delete`` to actually remove.

A directory is a *run directory* iff it contains a ``manifest.json``
that parses to an object with a string ``"kind"`` field (every runtime
manifest has one), or an unreadable ``manifest.json`` next to unit
results (``units.jsonl`` or ``units-*.jsonl`` shards — a damaged run).
A bare ``manifest.json`` of some other tool (a browser extension, a web
app) matches neither rule, so ``gc`` never classifies — let alone
deletes — unrelated directories.  The unit count recorded by the runtime
manifests (``"units"``) is compared with the distinct completed records
across ``units.jsonl`` *and* every per-worker shard to decide
completeness; manifests lacking a unit count are never treated as
complete (only as stale).

gc is **lease-aware**: a run directory whose advisory lease
(``leases/__coordinator__-5ed955a5.json``, which a serving coordinator
holds and refreshes) seems live by
:func:`~repro.runtime.distributed.lease_seems_live` is being served —
its workers may be executing units on other hosts — so such
directories are never collected, whatever their age or completeness
looks like from here.  An expired advisory lease (a crashed
coordinator's leftover) does not protect a directory, but it does count
toward its idle age.  Any other file under ``leases/`` (the retired
shared-directory backend's per-unit leases) is ignored.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from repro.runtime.checkpoint import (
    RunCheckpoint,
    journal_segments,
    journal_snapshots,
    result_file_paths,
)
from repro.runtime.distributed import advisory_lease_path, inspect_run_dir

__all__ = ["RunStatus", "scan_runs", "collectable", "gc_runs"]


@dataclass
class RunStatus:
    """One run directory's identity and progress."""

    path: Path
    kind: str | None  # manifest "kind" ("sweep", "pairwise", ...)
    name: str | None  # sweep spec name, when the manifest is a spec
    total_units: int | None  # expected units, when the manifest records it
    completed_units: int  # distinct unit keys across units.jsonl + shards
    age_seconds: float  # since the run directory last changed
    active_leases: int = 0  # 1 while a live coordinator's advisory lease is fresh
    stale_leases: int = 0  # 1 for a dead coordinator's expired or torn one
    delete_failed: bool = False  # rmtree was attempted but the dir survived

    @property
    def complete(self) -> bool:
        return self.total_units is not None and self.completed_units >= self.total_units

    def describe(self) -> str:
        label = self.name or self.kind or "run"
        if self.total_units is not None:
            progress = f"{self.completed_units}/{self.total_units} units"
            state = "complete" if self.complete else "incomplete"
        else:
            progress = f"{self.completed_units} units"
            state = "unknown total"
        hours = self.age_seconds / 3600.0
        out = f"{self.path} [{label}] {state}, {progress}, idle {hours:.1f}h"
        if self.active_leases:
            out += ", served by a live coordinator"
        return out


def _status(run_dir: Path, now: float) -> RunStatus | None:
    """Inspect one run directory; None if it vanished or is not ours.

    ``None`` for directories whose ``manifest.json`` does not look like a
    runtime manifest (no string ``"kind"``) and that have no unit
    results — some other tool's manifest, never to be touched.

    The inspection itself (manifest identity, deduplicated completed
    count across shards, lease liveness) is
    :func:`repro.runtime.distributed.inspect_run_dir` — the same snapshot
    ``repro sweep status`` renders, so the two tools cannot drift apart.
    gc adds only the is-this-ours gate and the idle-age computation.
    """
    snapshot = inspect_run_dir(run_dir, now=now)
    result_paths = result_file_paths(run_dir)
    if snapshot.kind is None and not result_paths:
        # No runtime manifest and no unit results: some other tool's
        # directory (or vanished mid-scan) — never to be touched.
        return None
    mtimes = []
    # Coordinator journal segments and snapshots are part of the run's
    # resumable state: a coordinator actively rolling its journal keeps
    # the directory's idle age at ~0 even between result-shard flushes,
    # and a freshly snapshotted-but-unconsumed run is not "stale".
    journal_paths = [path for _, path in journal_segments(run_dir)]
    journal_paths += [path for _, path in journal_snapshots(run_dir)]
    for path in [
        run_dir / RunCheckpoint.MANIFEST_NAME,
        *result_paths,
        advisory_lease_path(run_dir),
        *journal_paths,
    ]:
        try:
            mtimes.append(path.stat().st_mtime)
        except OSError:
            pass
    if not mtimes:
        return None  # everything vanished mid-scan
    return RunStatus(
        path=run_dir,
        kind=snapshot.kind,
        name=snapshot.name,
        total_units=snapshot.total_units,
        completed_units=snapshot.completed_units,
        age_seconds=max(now - max(mtimes), 0.0),
        active_leases=snapshot.live_lease_count,
        stale_leases=len(snapshot.stale_leases) + (snapshot.torn_leases - snapshot.torn_live),
    )


def scan_runs(root: str | Path, now: float | None = None) -> list[RunStatus]:
    """All run directories under ``root`` (``root`` itself included)."""
    root = Path(root)
    now = time.time() if now is None else now
    if not root.exists():
        return []
    out = []
    candidates = [root] if (root / RunCheckpoint.MANIFEST_NAME).is_file() else []
    candidates += [
        p.parent for p in sorted(root.rglob(RunCheckpoint.MANIFEST_NAME)) if p.is_file()
    ]
    seen = set()
    for run_dir in candidates:
        if run_dir in seen:
            continue
        seen.add(run_dir)
        status = _status(run_dir, now)
        if status is not None:
            out.append(status)
    return out


def collectable(
    status: RunStatus, *, completed: bool = True, stale_seconds: float | None = None
) -> bool:
    """Whether ``status`` should be garbage-collected.

    ``completed`` collects finished runs; ``stale_seconds`` additionally
    collects *incomplete* runs idle longer than the threshold (``None``
    never collects incomplete runs — resuming them is the point of the
    checkpoint layer).  A run with a live advisory lease is never
    collectable: a coordinator is serving it, and workers — possibly on
    other hosts — are executing its units right now.
    """
    if status.active_leases > 0:
        return False
    if status.complete:
        return completed
    return stale_seconds is not None and status.age_seconds > stale_seconds


def gc_runs(
    root: str | Path,
    *,
    completed: bool = True,
    stale_seconds: float | None = None,
    delete: bool = False,
    now: float | None = None,
) -> tuple[list[RunStatus], list[RunStatus]]:
    """Scan ``root`` and return ``(collect, keep)`` run lists.

    With ``delete=True`` the collectable run directories are removed
    (``shutil.rmtree``); the default is a dry run that only reports.
    A collectable run directory nested inside another collectable one is
    reported but not removed separately (its parent's removal covers it),
    and a collectable directory that *contains* a kept run is kept too —
    removing it would destroy the nested resumable checkpoint.
    """
    statuses = scan_runs(root, now=now)
    collect = [
        s for s in statuses
        if collectable(s, completed=completed, stale_seconds=stale_seconds)
    ]
    keep = [s for s in statuses if s not in collect]
    # A kept run nested under a collectable one pins its ancestors.
    pinned = [
        s for s in collect
        if any(s.path in kept.path.parents for kept in keep)
    ]
    collect = [s for s in collect if s not in pinned]
    keep += pinned
    if delete:
        removed_roots: list[Path] = []
        # Shallowest first, so a parent's rmtree covers its nested runs.
        for status in sorted(collect, key=lambda s: len(s.path.parts)):
            if any(root_path in status.path.parents for root_path in removed_roots):
                continue
            shutil.rmtree(status.path, ignore_errors=True)
            removed_roots.append(status.path)
        # Report honestly: a directory that survived rmtree (permissions,
        # read-only mount) was not removed, whatever we intended.  Failed
        # removals move to ``keep`` flagged ``delete_failed`` so callers
        # can distinguish them from deliberately kept runs.
        failed = [s for s in collect if s.path.exists()]
        if failed:
            collect = [s for s in collect if s not in failed]
            for status in failed:
                status.delete_failed = True
            keep += failed
    return collect, keep
