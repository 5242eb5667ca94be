"""Parallel experiment runtime: work units, process pools, checkpoints.

The paper's headline sweeps (Fig. 4's 210 scheduler pairs x 5 restarts,
the Figs. 10-19 per-application panels, the Figs. 7/8 family samples)
decompose into independent *work units*, each carrying its own spawned
RNG stream; :func:`repro.sweeps.plan_sweep` builds them from a spec.
``run_units`` (``executor.py``) executes such unit collections on this
host, serially or over a process pool, streams results back as they
complete, and checkpoints finished units to a JSON-lines run directory
so interrupted sweeps resume instead of restarting.  Multi-host runs
drain through the HTTP coordinator (``coordinator.py``), which owns the
lease table and the run directory; workers speak to it through the
``WorkBackend`` seam (``backends.py``) from the drain loop in
``distributed.py`` (``run_units_coordinator``), with no shared
filesystem.  See README.md in this directory for the work-unit /
checkpoint / coordination model.
"""

from repro.runtime.backends import (
    CoordinatorError,
    CoordinatorProtocolError,
    HttpWorkBackend,
    WorkBackend,
)
from repro.runtime.checkpoint import CheckpointError, RunCheckpoint
from repro.runtime.coordinator import (
    Coordinator,
    CoordinatorHTTPServer,
    running_coordinator,
    serve_coordinator,
)
from repro.runtime.distributed import (
    DEFAULT_LEASE_TTL,
    STATUS_SCHEMA_VERSION,
    Lease,
    RunDirStatus,
    WorkerStats,
    drain_units,
    inspect_run_dir,
    render_status_payload,
    run_units_coordinator,
    worker_identity,
)
from repro.runtime.executor import default_jobs, run_units
from repro.runtime.gc import RunStatus, gc_runs, scan_runs
from repro.runtime.pairwise import (
    PairwiseUnitResult,
    aggregate_pair_sweep,
    decode_unit_result,
    encode_unit_result,
    pair_sweep_units,
    run_pairwise,
    run_pairwise_unit,
    run_pisa_restarts,
    unit_key,
)
from repro.runtime.units import WorkUnit

__all__ = [
    "WorkUnit",
    "RunCheckpoint",
    "CheckpointError",
    "run_units",
    "default_jobs",
    "run_pairwise",
    "pair_sweep_units",
    "aggregate_pair_sweep",
    "run_pairwise_unit",
    "run_pisa_restarts",
    "PairwiseUnitResult",
    "encode_unit_result",
    "decode_unit_result",
    "unit_key",
    "RunStatus",
    "scan_runs",
    "gc_runs",
    "DEFAULT_LEASE_TTL",
    "STATUS_SCHEMA_VERSION",
    "Lease",
    "RunDirStatus",
    "WorkerStats",
    "drain_units",
    "inspect_run_dir",
    "render_status_payload",
    "run_units_coordinator",
    "worker_identity",
    "WorkBackend",
    "HttpWorkBackend",
    "CoordinatorError",
    "CoordinatorProtocolError",
    "Coordinator",
    "CoordinatorHTTPServer",
    "serve_coordinator",
    "running_coordinator",
]
