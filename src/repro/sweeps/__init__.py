"""Declarative sweeps: one serializable spec + one runner for every experiment.

The paper's experiments — and any scenario a user can imagine — are all
instances of one operation: *sweep scheduler pairs (or a scheduler set)
over an instance source with restarts/samples*.  This package makes that
operation a first-class value:

* :class:`SweepSpec` / :class:`SourceSpec` (``spec.py``) — the frozen,
  JSON-round-trippable definition, schema-validated with actionable
  errors;
* :func:`run_sweep` (``runner.py``) — the single execution entry point
  on the :mod:`repro.runtime` work-unit executor, with the spec itself
  as the checkpoint manifest;
* ``presets.py`` — the paper figures as named specs (``repro sweep show
  fig4``).

CLI: ``repro sweep init`` scaffolds a spec file, ``repro sweep run
spec.json --jobs 8 --run-dir runs/my-sweep [--resume]`` executes it.
"""

from repro.sweeps.presets import (
    fig4_spec,
    fig7_spec,
    fig8_spec,
    fig10_19_bench_spec,
    fig10_19_pisa_spec,
    list_named_specs,
    named_spec,
)
from repro.sweeps.runner import (
    SweepPlan,
    SweepResult,
    load_run_plan,
    plan_from_manifest,
    plan_sweep,
    render_report,
    run_sweep,
    work_coordinator,
)
from repro.sweeps.sources import ResolvedSource, resolve_source
from repro.sweeps.spec import SPEC_VERSION, SourceSpec, SpecError, SweepSpec

__all__ = [
    "SPEC_VERSION",
    "SweepSpec",
    "SourceSpec",
    "SpecError",
    "run_sweep",
    "SweepResult",
    "SweepPlan",
    "plan_sweep",
    "plan_from_manifest",
    "load_run_plan",
    "work_coordinator",
    "render_report",
    "resolve_source",
    "ResolvedSource",
    "named_spec",
    "list_named_specs",
    "fig4_spec",
    "fig7_spec",
    "fig8_spec",
    "fig10_19_pisa_spec",
    "fig10_19_bench_spec",
]
