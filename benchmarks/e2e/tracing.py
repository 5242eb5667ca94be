"""Per-layer self-time tracing, installed from outside the program.

The benchmark's ``--trace`` reps wrap each layer's public functions at
the names callers actually bind, so no code under ``src/`` changes:

* module functions (``compile_instance``, ``evaluate_batch``,
  ``simulate_schedule``, the sweep planners/aggregators, the runtime's
  unit loops and unit workers) are replaced in *every* ``repro.*``
  module that holds them, which covers ``from x import f`` call sites;
* methods (``PISA.run_restart``, ``PerturbationSet.perturb``/``plan``,
  ``CompiledInstance.apply_delta``, ``RunCheckpoint.record`` and every
  registered scheduler's ``schedule``) are replaced on their class.

Each wrapper pushes a frame on one in-memory stack and, on exit, charges
its elapsed time minus the time its wrapped children took to its layer,
so nested calls are never double-counted: the layers' self times plus
the unattributed residual add up to the traced window.  Wrappers keep
``__module__``/``__qualname__`` (``functools.wraps``), so the process
pool still pickles unit workers by reference.

Forked pool children inherit the wrappers.  The wrapped pool-child
initializer resets the inherited stack and registers a
``multiprocessing.util.Finalize`` hook that dumps the child's totals to
``<dump_dir>/trace-<pid>.json`` on exit (pool children never run
``atexit``).  Under the ``spawn`` start method children would re-import
unwrapped modules; the benchmark runs with the default ``fork``.

The stack is not thread-safe; no wrapped function runs off the main
thread in the benchmark's workloads (heartbeat threads only renew
leases).
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: Module functions wrapped wherever a ``repro.*`` module binds them,
#: as ``(defining module, name, layer)``.
FUNCTIONS = (
    ("repro.core.compiled", "compile_instance", "compiled.compile"),
    ("repro.core.batched", "evaluate_batch", "batched.evaluate"),
    ("repro.core.dynamic.simulator", "simulate_schedule", "dynamic.replay"),
    ("repro.sweeps.sources", "resolve_source", "sweeps.plan"),
    ("repro.sweeps.runner", "plan_sweep", "sweeps.plan"),
    ("repro.sweeps.runner", "_pisa_pairs", "sweeps.plan"),
    ("repro.sweeps.runner", "_dynamic_units", "sweeps.plan"),
    ("repro.sweeps.runner", "_spawn_sample_units", "sweeps.plan"),
    ("repro.sweeps.runner", "_instance_sample_units", "sweeps.plan"),
    ("repro.runtime.pairwise", "pair_sweep_units", "sweeps.plan"),
    ("repro.runtime.pairwise", "aggregate_pair_sweep", "sweeps.aggregate"),
    ("repro.sweeps.runner", "_aggregate_dynamic", "sweeps.aggregate"),
    ("repro.sweeps.runner", "_aggregate_benchmark", "sweeps.aggregate"),
    ("repro.sweeps.runner", "_aggregate_plan", "sweeps.aggregate"),
    ("repro.runtime.executor", "run_units", "runtime"),
    ("repro.runtime.executor", "_timed_call", "runtime"),
    ("repro.runtime.distributed", "run_units_coordinator", "runtime"),
    ("repro.runtime.pairwise", "run_pairwise_unit", "runtime"),
    ("repro.sweeps.runner", "sample_unit", "runtime"),
    ("repro.sweeps.runner", "dynamic_unit", "runtime"),
)

#: Methods wrapped on their class, as ``(module, class, method, layer)``.
METHODS = (
    ("repro.pisa.pisa", "PISA", "run_restart", "pisa.anneal"),
    ("repro.pisa.perturbations", "PerturbationSet", "perturb", "pisa.perturb"),
    ("repro.pisa.perturbations", "PerturbationSet", "plan", "pisa.plan"),
    ("repro.core.compiled", "CompiledInstance", "apply_delta", "compiled.delta"),
    ("repro.runtime.checkpoint", "RunCheckpoint", "record", "checkpoint"),
)


class Tracer:
    """Self time, call counts and extra counters of one process."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.compile_base: dict[str, int] = {}
        self.started = perf_counter()

    def reset(self) -> None:
        """Forget everything (in place: wrappers hold these containers)."""
        from repro.core.compiled import compile_stats

        self.stack.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.compile_base = compile_stats()
        self.started = perf_counter()

    def wrap(self, layer: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` charging its self time to ``layer``.

        ``after(tracer, result)`` runs outside the timed region, for
        counters read off the result.
        """
        stack, self_s, calls = self.stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def snapshot(self, window_s: float) -> dict[str, Any]:
        """This process's totals over a traced window of ``window_s``."""
        from repro.core.compiled import compile_stats

        now = compile_stats()
        return {
            "pid": os.getpid(),
            "window_s": window_s,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "compile": {k: now[k] - self.compile_base.get(k, 0) for k in now},
        }


def _count_candidates(tracer: Tracer, evaluation) -> None:
    tracer.counts["batched.candidates"] += len(evaluation.target.makespans)


def _count_events(tracer: Tracer, result) -> None:
    tracer.counts["dynamic.events"] += len(result.events)


_AFTER = {"batched.evaluate": _count_candidates, "dynamic.replay": _count_events}


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer, dump_dir: Path) -> None:
    """Wrap every layer of the already-imported ``repro`` package.

    Pool children forked after this call dump their totals into
    ``dump_dir`` when they exit.
    """
    import importlib

    import repro.schedulers  # noqa: F401  (registers every scheduler)
    from repro.core.scheduler import scheduler_registry

    for module_name, name, layer in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, name)
        _replace_everywhere(original, tracer.wrap(layer, original, _AFTER.get(layer)))
    for module_name, cls_name, method, layer in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, tracer.wrap(layer, getattr(cls, method)))
    for name, cls in scheduler_registry().items():
        cls.schedule = tracer.wrap(f"schedulers.{name}", cls.schedule)

    executor = importlib.import_module("repro.runtime.executor")
    child_init = executor._pool_child_init

    @functools.wraps(child_init)
    def traced_child_init(*args, **kwargs):
        from multiprocessing import util

        child_init(*args, **kwargs)
        tracer.reset()

        def dump() -> None:
            path = dump_dir / f"trace-{os.getpid()}.json"
            path.write_text(json.dumps(tracer.snapshot(perf_counter() - tracer.started)))

        util.Finalize(None, dump, exitpriority=5)

    executor._pool_child_init = traced_child_init


def load_dumps(dump_dir: Path) -> list[dict[str, Any]]:
    """The totals every traced pool child wrote into ``dump_dir``."""
    return [json.loads(p.read_text()) for p in sorted(dump_dir.glob("trace-*.json"))]


#: Layer -> the metric its summed self time is reported as.
SELF_TIME_METRICS = {
    "sweeps.plan": "sweeps.plan_s",
    "sweeps.aggregate": "sweeps.aggregate_s",
    "runtime": "runtime.self_s",
    "checkpoint": "checkpoint.record_s",
    "pisa.anneal": "pisa.anneal_self_s",
    "pisa.perturb": "pisa.perturb_s",
    "pisa.plan": "pisa.plan_s",
    "compiled.compile": "compiled.compile_s",
    "compiled.delta": "compiled.delta_s",
    "batched.evaluate": "batched.evaluate_s",
    "dynamic.replay": "dynamic.replay_s",
}


def layer_metrics(processes: list[dict[str, Any]], schedulers: list[str]) -> dict[str, float]:
    """Fold per-process totals into the per-layer metrics.

    ``trace.total_s`` is the sum of every traced process's window: the
    sweep's wall time for single-process workloads, and that plus each
    pool child's lifetime on the pool workload.  The layers' self times
    plus ``unattributed_s`` equal it by construction.
    """
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    counts: defaultdict[str, float] = defaultdict(float)
    compiled: defaultdict[str, int] = defaultdict(int)
    total = 0.0
    for proc in processes:
        total += proc["window_s"]
        for table, into in (
            (proc["self_s"], self_s),
            (proc["calls"], calls),
            (proc["counts"], counts),
            (proc["compile"], compiled),
        ):
            for key, value in table.items():
                into[key] += value

    out = {metric: self_s[layer] for layer, metric in SELF_TIME_METRICS.items()}
    sched_s = {name: self_s[f"schedulers.{name}"] for name in schedulers}
    out.update(
        {
            "pisa.restarts": calls["pisa.anneal"],
            "pisa.perturb_calls": calls["pisa.plan"],
            "compiled.calls": calls["compiled.compile"],
            "compiled.full": compiled["full"],
            "compiled.delta": compiled["delta"],
            "compiled.cache_hits": compiled["cache_hits"],
            "compiled.hit_ratio": (
                compiled["cache_hits"] / calls["compiled.compile"]
                if calls["compiled.compile"]
                else 0.0
            ),
            "batched.calls": calls["batched.evaluate"],
            "batched.candidates": counts["batched.candidates"],
            "schedulers.calls": sum(calls[f"schedulers.{name}"] for name in schedulers),
            "schedulers.self_s": sum(sched_s.values()),
            "dynamic.replays": calls["dynamic.replay"],
            "dynamic.events": counts["dynamic.events"],
            "dynamic.events_per_s": (
                counts["dynamic.events"] / self_s["dynamic.replay"]
                if self_s["dynamic.replay"]
                else 0.0
            ),
        }
    )
    out.update({f"schedulers.{name}.self_s": s for name, s in sched_s.items()})
    unattributed = total - sum(self_s.values())
    out.update(
        {
            "trace.total_s": total,
            "trace.processes": len(processes),
            "unattributed_s": unattributed,
            "unattributed_frac": unattributed / total if total else 0.0,
        }
    )
    return out
