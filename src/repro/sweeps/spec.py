"""The declarative sweep specification: one serializable experiment definition.

Every experiment in this repository — the Fig. 4 all-pairs adversarial
heatmap, the Figs. 10-19 application panels, the Figs. 7/8 family
samples, and any user-defined scenario — is an instance of one abstract
operation: *run a sweep over scheduler pairs (or a scheduler set) x an
instance source x restarts/samples*.  A :class:`SweepSpec` captures that
operation as a frozen, JSON-serializable value:

* ``mode="pisa"`` — one adversarial annealing search per (target,
  baseline) pair x restart (Sections VI/VII).  With a ``dynamics``
  field the objective becomes the *robustness gap* (see
  :mod:`repro.pisa.robustness`).
* ``mode="benchmark"`` — schedule ``num_instances`` sampled instances
  with every scheduler and compare makespan distributions (Section V).
* ``mode="dynamic"`` — schedule ``num_instances`` sampled instances
  with every scheduler, then replay each schedule under the spec's
  ``dynamics`` (:class:`~repro.core.dynamic.DynamicsSpec`) and compare
  realized makespans and degradation against the static plans.

Specs round-trip losslessly through JSON (:meth:`SweepSpec.to_json` /
:meth:`SweepSpec.from_json`), are schema-validated on load with
path-annotated, actionable error messages (:class:`SpecError`), and are
executed by :func:`repro.sweeps.run_sweep`, which also writes the spec
into the run directory as the checkpoint manifest — the spec *is* the
run's identity.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.dynamic.spec import DynamicsError, DynamicsSpec
from repro.pisa.annealing import AnnealingConfig
from repro.pisa.constraints import SearchConstraints
from repro.pisa.pisa import PISAConfig

__all__ = ["SPEC_VERSION", "SpecError", "SourceSpec", "SweepSpec"]

#: Version tag written into every serialized spec; bumped on breaking
#: format changes so stale spec files fail with a clear message.
SPEC_VERSION = 1

MODES = ("pisa", "benchmark", "dynamic")
SAMPLINGS = ("spawn", "sequential")
SOURCE_KINDS = ("chains", "workflow", "dataset", "family")

_REQUIRED = object()


class SpecError(ValueError):
    """A sweep spec failed validation; the message names the offending field."""


def _fail(path: str, message: str) -> None:
    raise SpecError(f"{path}: {message}")


def _type_name(value: Any) -> str:
    return type(value).__name__


def _take(
    data: dict,
    key: str,
    path: str,
    *,
    types: type | tuple[type, ...],
    default: Any = _REQUIRED,
    choices: tuple | None = None,
):
    """Pop ``data[key]``, type-check it, and apply defaults/choices."""
    if key not in data:
        if default is _REQUIRED:
            _fail(path, f"missing required field {key!r}")
        return default
    value = data.pop(key)
    # bool is an int subclass; reject it where an int/float is expected.
    if isinstance(value, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        _fail(f"{path}.{key}", f"expected {_expected_types(types)}, got bool")
    if not isinstance(value, types):
        _fail(f"{path}.{key}", f"expected {_expected_types(types)}, got {_type_name(value)}")
    if choices is not None and value not in choices:
        _fail(
            f"{path}.{key}",
            f"must be one of {', '.join(repr(c) for c in choices)}, got {value!r}",
        )
    return value


def _expected_types(types: type | tuple[type, ...]) -> str:
    if not isinstance(types, tuple):
        types = (types,)
    return " or ".join(t.__name__ for t in types)


def _reject_unknown(data: dict, path: str, known: tuple[str, ...]) -> None:
    if not data:
        return
    unknown = sorted(data)
    hints = []
    for key in unknown:
        close = difflib.get_close_matches(key, known, n=1)
        hints.append(f"{key!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))
    _fail(path, f"unknown field(s): {', '.join(hints)}; valid fields: {', '.join(known)}")


def _scheduler_list(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        _fail(path, f"expected a list of scheduler names, got {_type_name(value)}")
    out: list[str] = []
    for i, item in enumerate(value):
        if not isinstance(item, str) or not item:
            _fail(f"{path}[{i}]", f"scheduler names must be non-empty strings, got {item!r}")
        if item in out:
            _fail(f"{path}[{i}]", f"duplicate scheduler {item!r}")
        out.append(item)
    return tuple(out)


# ---------------------------------------------------------------------- #
# Instance sources
# ---------------------------------------------------------------------- #
#: Per-kind option schema: name -> (types, default) with _REQUIRED defaults.
_SOURCE_SCHEMAS: dict[str, dict[str, tuple]] = {
    "chains": {
        "min_nodes": ((int,), 3),
        "max_nodes": ((int,), 5),
        "min_tasks": ((int,), 3),
        "max_tasks": ((int,), 5),
    },
    "workflow": {
        "workflow": ((str,), _REQUIRED),
        "ccr": ((int, float), _REQUIRED),
        "trace_seed": ((int,), 0),
        "min_nodes": ((int,), 4),
        "max_nodes": ((int,), 8),
    },
    "dataset": {
        "dataset": ((str,), _REQUIRED),
        "params": ((dict,), None),
    },
    "family": {
        "family": ((str,), _REQUIRED),
    },
}


@dataclass(frozen=True)
class SourceSpec:
    """Where a sweep's problem instances come from.

    ``kind`` selects the generator; ``options`` parameterize it and are
    normalized (defaults filled in) at construction:

    ``chains``
        The paper's random chain initial instances (Section VI); options
        ``min_nodes/max_nodes/min_tasks/max_tasks``.
    ``workflow``
        The Section VII application-specific space; options ``workflow``
        (recipe name), ``ccr``, ``trace_seed``, ``min_nodes/max_nodes``.
        Forces the trace-scaled perturbation set and empty constraints.
    ``dataset``
        A registered dataset generator (Table II names); options
        ``dataset`` and optional generator ``params``.  Benchmark mode
        only, sequential sampling.
    ``family``
        A registered instance family (``fig7``, ``fig8``, or
        user-registered); option ``family``.  Samples benchmark-mode
        distributions or seeds PISA initial instances.
    """

    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized = self._validate(self.kind, dict(self.options), path="source")
        object.__setattr__(self, "options", normalized)

    @staticmethod
    def _validate(kind: str, options: dict, path: str) -> dict:
        if kind not in _SOURCE_SCHEMAS:
            _fail(
                f"{path}.kind",
                f"unknown instance source {kind!r}; valid kinds: {', '.join(SOURCE_KINDS)}",
            )
        schema = _SOURCE_SCHEMAS[kind]
        out: dict = {}
        for name, (types, default) in schema.items():
            out[name] = _take(options, name, path, types=types, default=default)
        _reject_unknown(options, path, ("kind", *schema))
        if kind == "chains":
            for low, high in (("min_nodes", "max_nodes"), ("min_tasks", "max_tasks")):
                if out[low] < 1:
                    _fail(f"{path}.{low}", f"must be >= 1, got {out[low]}")
                if out[high] < out[low]:
                    _fail(f"{path}.{high}", f"must be >= {low} ({out[low]}), got {out[high]}")
        elif kind == "workflow":
            out["ccr"] = float(out["ccr"])
            if out["ccr"] <= 0:
                _fail(f"{path}.ccr", f"must be positive, got {out['ccr']}")
            if out["min_nodes"] < 1:
                _fail(f"{path}.min_nodes", f"must be >= 1, got {out['min_nodes']}")
            if out["max_nodes"] < out["min_nodes"]:
                _fail(
                    f"{path}.max_nodes",
                    f"must be >= min_nodes ({out['min_nodes']}), got {out['max_nodes']}",
                )
        elif kind == "dataset" and out["params"] is not None:
            for key in out["params"]:
                if not isinstance(key, str):
                    _fail(f"{path}.params", f"parameter names must be strings, got {key!r}")
        return out

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name, value in self.options.items():
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Any, path: str = "source") -> "SourceSpec":
        if not isinstance(data, dict):
            _fail(path, f"expected an object, got {_type_name(data)}")
        data = dict(data)
        kind = _take(data, "kind", path, types=str, choices=SOURCE_KINDS)
        try:
            return cls(kind=kind, options=data)
        except SpecError as exc:
            # __post_init__ validates with the bare "source" prefix;
            # re-anchor the message at the caller's path (e.g. the file).
            message = str(exc)
            if message.startswith("source"):
                message = path + message[len("source"):]
            raise SpecError(message) from None


# ---------------------------------------------------------------------- #
# Annealing / PISA config (de)serialization
# ---------------------------------------------------------------------- #
def _config_to_dict(config: PISAConfig) -> dict:
    ann = config.annealing
    return {
        "restarts": config.restarts,
        "keep_history": config.keep_history,
        "annealing": {
            "t_max": ann.t_max,
            "t_min": ann.t_min,
            "max_iterations": ann.max_iterations,
            "alpha": ann.alpha,
            "acceptance": ann.acceptance,
        },
    }


def _config_from_dict(data: Any, path: str) -> PISAConfig:
    if not isinstance(data, dict):
        _fail(path, f"expected an object, got {_type_name(data)}")
    data = dict(data)
    restarts = _take(data, "restarts", path, types=int, default=PISAConfig().restarts)
    # Full per-iteration annealing histories for the Fig. 5/6-style
    # trajectory analyses; ratios are identical either way, so sweeps
    # default to the lean history-off work units.
    keep_history = _take(data, "keep_history", path, types=bool, default=False)
    ann_data = _take(data, "annealing", path, types=dict, default=None)
    _reject_unknown(data, path, ("restarts", "keep_history", "annealing"))
    if ann_data is None:
        annealing = AnnealingConfig()
    else:
        ann_data = dict(ann_data)
        ann_path = f"{path}.annealing"
        defaults = AnnealingConfig()
        kwargs = {
            "t_max": _take(ann_data, "t_max", ann_path, types=(int, float), default=defaults.t_max),
            "t_min": _take(ann_data, "t_min", ann_path, types=(int, float), default=defaults.t_min),
            "max_iterations": _take(
                ann_data, "max_iterations", ann_path, types=int,
                default=defaults.max_iterations,
            ),
            "alpha": _take(ann_data, "alpha", ann_path, types=(int, float), default=defaults.alpha),
            "acceptance": _take(
                ann_data, "acceptance", ann_path, types=str, default=defaults.acceptance,
                choices=("paper", "metropolis"),
            ),
        }
        _reject_unknown(ann_data, ann_path, tuple(kwargs))
        try:
            annealing = AnnealingConfig(
                t_max=float(kwargs["t_max"]),
                t_min=float(kwargs["t_min"]),
                max_iterations=kwargs["max_iterations"],
                alpha=float(kwargs["alpha"]),
                acceptance=kwargs["acceptance"],
            )
        except ValueError as exc:
            _fail(ann_path, str(exc))
    try:
        return PISAConfig(annealing=annealing, restarts=restarts, keep_history=keep_history)
    except ValueError as exc:
        _fail(path, str(exc))
        raise AssertionError  # pragma: no cover - _fail always raises


def _constraints_to_value(constraints: SearchConstraints | None) -> Any:
    if constraints is None:
        return "auto"
    return {
        "fixed_node_speeds": constraints.fixed_node_speeds,
        "fixed_link_strengths": constraints.fixed_link_strengths,
    }


def _constraints_from_value(data: Any, path: str) -> SearchConstraints | None:
    if data == "auto" or data is None:
        return None
    if not isinstance(data, dict):
        _fail(path, f'expected "auto" or an object, got {_type_name(data)}')
    data = dict(data)
    fixed_nodes = _take(data, "fixed_node_speeds", path, types=bool, default=False)
    fixed_links = _take(data, "fixed_link_strengths", path, types=bool, default=False)
    _reject_unknown(data, path, ("fixed_node_speeds", "fixed_link_strengths"))
    return SearchConstraints(fixed_node_speeds=fixed_nodes, fixed_link_strengths=fixed_links)


# ---------------------------------------------------------------------- #
# The spec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep: schedulers x instance source x restarts/samples.

    Parameters
    ----------
    name:
        Identifies the sweep (checkpoint keys, reports, run manifests).
    mode:
        ``"pisa"`` (adversarial pair search) or ``"benchmark"``
        (makespan-distribution comparison).
    schedulers:
        Scheduler names.  PISA mode sweeps every ordered pair of them
        (unless ``pairs`` is given); benchmark mode schedules every
        instance with each of them.
    pairs:
        Explicit ordered (target, baseline) pairs — PISA mode only,
        mutually exclusive with ``schedulers``.
    source:
        The instance source (:class:`SourceSpec`).
    config:
        PISA annealing + restart parameters (PISA mode).  Includes the
        opt-in ``keep_history`` flag: sweeps default to lean history-off
        work units, and trajectory analyses (Figs. 5/6) set
        ``config.keep_history = true`` to record and checkpoint every
        :class:`~repro.pisa.annealing.AnnealingStep`.
    constraints:
        ``None`` derives the Section VI homogeneity constraints from
        each pair's scheduler names ("auto"); an explicit
        :class:`SearchConstraints` overrides that (the Section VII
        app-specific sweeps pass an explicitly empty one).
    num_instances:
        Samples per sweep (benchmark mode).
    sampling:
        ``"spawn"`` gives every sample its own spawned RNG stream
        (jobs-invariant; the Figs. 7/8 protocol); ``"sequential"`` draws
        instances serially from one generator (the Figs. 10-19 benchmark
        rows and dataset sources).
    seed:
        Root seed of the sweep's RNG spawn tree.
    description:
        Free-form human note; carried through serialization.
    dynamics:
        The replay conditions (:class:`~repro.core.dynamic.DynamicsSpec`).
        Required in ``dynamic`` mode.  Optional in ``pisa`` mode, where
        it switches the annealing objective from the static makespan
        ratio to the robustness gap (target beats baseline statically
        but loses under these dynamics).  Rejected in ``benchmark`` mode.
    """

    name: str
    mode: str = "pisa"
    schedulers: tuple[str, ...] = ()
    pairs: tuple[tuple[str, str], ...] | None = None
    source: SourceSpec = field(default_factory=lambda: SourceSpec("chains"))
    config: PISAConfig = field(default_factory=PISAConfig)
    constraints: SearchConstraints | None = None
    num_instances: int = 10
    sampling: str = "spawn"
    seed: int = 0
    description: str = ""
    dynamics: DynamicsSpec | None = None

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            _fail("name", f"must be a non-empty string, got {self.name!r}")
        if self.mode not in MODES:
            _fail("mode", f"must be one of {', '.join(repr(m) for m in MODES)}, got {self.mode!r}")
        object.__setattr__(self, "schedulers", _scheduler_list(self.schedulers, "schedulers"))
        if self.pairs is not None:
            object.__setattr__(self, "pairs", self._normalize_pairs(self.pairs))
        if not isinstance(self.source, SourceSpec):
            _fail("source", f"must be a SourceSpec, got {_type_name(self.source)}")
        if isinstance(self.seed, np.integer):
            object.__setattr__(self, "seed", int(self.seed))
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            _fail("seed", f"must be an integer, got {self.seed!r}")
        if isinstance(self.num_instances, np.integer):
            object.__setattr__(self, "num_instances", int(self.num_instances))
        if self.sampling not in SAMPLINGS:
            _fail(
                "sampling",
                f"must be one of {', '.join(repr(s) for s in SAMPLINGS)}, got {self.sampling!r}",
            )
        if self.dynamics is not None and not isinstance(self.dynamics, DynamicsSpec):
            _fail("dynamics", f"must be a DynamicsSpec, got {_type_name(self.dynamics)}")
        if self.mode == "pisa":
            self._validate_pisa()
        elif self.mode == "dynamic":
            self._validate_dynamic()
        else:
            self._validate_benchmark()

    @staticmethod
    def _normalize_pairs(pairs) -> tuple[tuple[str, str], ...]:
        if not isinstance(pairs, (list, tuple)):
            _fail("pairs", f"expected a list of [target, baseline] pairs, got {_type_name(pairs)}")
        out = []
        for i, pair in enumerate(pairs):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                _fail(f"pairs[{i}]", f"expected a [target, baseline] pair, got {pair!r}")
            target, baseline = pair
            if not isinstance(target, str) or not isinstance(baseline, str):
                _fail(f"pairs[{i}]", f"scheduler names must be strings, got {pair!r}")
            if target == baseline:
                _fail(f"pairs[{i}]", f"target and baseline must differ, got {target!r} twice")
            if (target, baseline) in out:
                _fail(f"pairs[{i}]", f"duplicate pair [{target!r}, {baseline!r}]")
            out.append((target, baseline))
        if not out:
            _fail("pairs", "must list at least one [target, baseline] pair")
        return tuple(out)

    def _validate_pisa(self) -> None:
        if self.pairs is not None and self.schedulers:
            _fail(
                "pairs",
                "give either `schedulers` (sweeps every ordered pair) or explicit "
                "`pairs`, not both",
            )
        if self.pairs is None and len(self.schedulers) < 2:
            _fail(
                "schedulers",
                f"PISA mode needs at least 2 schedulers (or explicit `pairs`), "
                f"got {len(self.schedulers)}",
            )
        if self.source.kind == "dataset":
            _fail(
                "source.kind",
                'dataset sources hold fixed instances; PISA mode needs a generative '
                'source ("chains", "workflow", or "family")',
            )
        # Refuse fields the mode would silently ignore — a user who sets
        # them expects an effect.
        if self.num_instances != 10:
            _fail(
                "num_instances",
                "has no effect in PISA mode (work is pairs x config.restarts); "
                "remove it or leave it at the default",
            )
        if self.sampling != "spawn":
            _fail(
                "sampling",
                "has no effect in PISA mode (restarts always spawn their own "
                "streams); remove it or leave it at the default",
            )

    def _validate_benchmark(self) -> None:
        if self.pairs is not None:
            _fail("pairs", "explicit pairs are a PISA-mode concept; benchmark mode "
                           "compares all `schedulers` on shared instances")
        if not self.schedulers:
            _fail("schedulers", "benchmark mode needs at least 1 scheduler")
        if not isinstance(self.num_instances, int) or isinstance(self.num_instances, bool):
            _fail("num_instances", f"must be an integer, got {self.num_instances!r}")
        if self.num_instances < 1:
            _fail("num_instances", f"must be >= 1, got {self.num_instances}")
        if self.source.kind == "dataset" and self.sampling != "sequential":
            _fail(
                "sampling",
                'dataset sources generate instances sequentially; set sampling to '
                '"sequential"',
            )
        if self.config != PISAConfig():
            _fail(
                "config",
                "has no effect in benchmark mode (no annealing runs); remove it",
            )
        if self.constraints is not None:
            _fail(
                "constraints",
                "have no effect in benchmark mode (no search to constrain); "
                'remove them or use "auto"',
            )
        if self.dynamics is not None:
            _fail(
                "dynamics",
                'has no effect in benchmark mode (static makespans only); use '
                'mode "dynamic" to replay schedules under dynamics',
            )

    def _validate_dynamic(self) -> None:
        if self.pairs is not None:
            _fail("pairs", "explicit pairs are a PISA-mode concept; dynamic mode "
                           "replays all `schedulers` on shared instances")
        if not self.schedulers:
            _fail("schedulers", "dynamic mode needs at least 1 scheduler")
        if not isinstance(self.num_instances, int) or isinstance(self.num_instances, bool):
            _fail("num_instances", f"must be an integer, got {self.num_instances!r}")
        if self.num_instances < 1:
            _fail("num_instances", f"must be >= 1, got {self.num_instances}")
        if self.source.kind == "dataset" and self.sampling != "sequential":
            _fail(
                "sampling",
                'dataset sources generate instances sequentially; set sampling to '
                '"sequential"',
            )
        if self.config != PISAConfig():
            _fail(
                "config",
                "has no effect in dynamic mode (no annealing runs); remove it",
            )
        if self.constraints is not None:
            _fail(
                "constraints",
                "have no effect in dynamic mode (no search to constrain); "
                'remove them or use "auto"',
            )
        if self.dynamics is None:
            _fail(
                "dynamics",
                'dynamic mode replays schedules under a dynamics spec; add a '
                '"dynamics" object (e.g. {"contention": "fair"})',
            )

    # ------------------------------------------------------------------ #
    # The ordered pair list this spec sweeps (PISA mode).
    # ------------------------------------------------------------------ #
    def resolved_pairs(self) -> list[tuple[str, str]]:
        """(target, baseline) pairs in execution order."""
        if self.mode != "pisa":
            raise SpecError(f"spec {self.name!r} is a {self.mode} sweep; it has no pairs")
        if self.pairs is not None:
            return list(self.pairs)
        return [
            (target, baseline)
            for target in self.schedulers
            for baseline in self.schedulers
            if target != baseline
        ]

    def scheduler_names(self) -> list[str]:
        """All scheduler names the sweep touches, in matrix order."""
        if self.schedulers:
            return list(self.schedulers)
        seen: dict[str, None] = {}
        for target, baseline in self.pairs or ():
            seen.setdefault(target, None)
            seen.setdefault(baseline, None)
        return list(seen)

    def with_seed(self, seed: int) -> "SweepSpec":
        """A copy of this spec with a different root seed."""
        return replace(self, seed=seed)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """The lossless JSON-ready form of this spec."""
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "description": self.description,
            "mode": self.mode,
            "schedulers": list(self.schedulers),
            "pairs": [list(p) for p in self.pairs] if self.pairs is not None else None,
            "source": self.source.to_dict(),
            "config": _config_to_dict(self.config),
            "constraints": _constraints_to_value(self.constraints),
            "num_instances": self.num_instances,
            "sampling": self.sampling,
            "seed": self.seed,
            "dynamics": self.dynamics.to_dict() if self.dynamics is not None else None,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + ("\n" if indent else "")

    @classmethod
    def from_dict(cls, data: Any, where: str = "spec") -> "SweepSpec":
        """Build a validated spec from a plain dict; raises :class:`SpecError`."""
        if not isinstance(data, dict):
            _fail(where, f"expected a JSON object, got {_type_name(data)}")
        data = dict(data)
        version = _take(data, "version", where, types=int, default=SPEC_VERSION)
        if version != SPEC_VERSION:
            _fail(
                f"{where}.version",
                f"unsupported spec version {version} (this build reads version "
                f"{SPEC_VERSION})",
            )
        name = _take(data, "name", where, types=str)
        description = _take(data, "description", where, types=str, default="")
        mode = _take(data, "mode", where, types=str, default="pisa", choices=MODES)
        schedulers = _scheduler_list(
            _take(data, "schedulers", where, types=(list, tuple), default=()),
            f"{where}.schedulers",
        )
        raw_pairs = data.pop("pairs", None)
        source_data = _take(data, "source", where, types=dict, default=None)
        config_data = _take(data, "config", where, types=dict, default=None)
        constraints_value = data.pop("constraints", "auto")
        num_instances = _take(data, "num_instances", where, types=int, default=10)
        sampling = _take(data, "sampling", where, types=str, default="spawn", choices=SAMPLINGS)
        seed = _take(data, "seed", where, types=int, default=0)
        dynamics_data = data.pop("dynamics", None)
        _reject_unknown(
            data,
            where,
            (
                "version", "name", "description", "mode", "schedulers", "pairs",
                "source", "config", "constraints", "num_instances", "sampling", "seed",
                "dynamics",
            ),
        )
        dynamics = None
        if dynamics_data is not None:
            try:
                dynamics = DynamicsSpec.from_dict(dynamics_data, path=f"{where}.dynamics")
            except DynamicsError as exc:
                raise SpecError(str(exc)) from None
        source = (
            SourceSpec.from_dict(source_data, path=f"{where}.source")
            if source_data is not None
            else SourceSpec("chains")
        )
        config = (
            _config_from_dict(config_data, f"{where}.config")
            if config_data is not None
            else PISAConfig()
        )
        constraints = _constraints_from_value(constraints_value, f"{where}.constraints")
        try:
            return cls(
                name=name,
                mode=mode,
                schedulers=schedulers,
                pairs=raw_pairs,
                source=source,
                config=config,
                constraints=constraints,
                num_instances=num_instances,
                sampling=sampling,
                seed=seed,
                description=description,
                dynamics=dynamics,
            )
        except SpecError as exc:
            raise SpecError(f"{where}.{exc}" if not str(exc).startswith(where) else str(exc)) from None

    @classmethod
    def from_json(cls, text: str, where: str = "spec") -> "SweepSpec":
        """Parse + validate a JSON spec string; raises :class:`SpecError`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{where}: not valid JSON ({exc})") from None
        return cls.from_dict(data, where=where)

    @classmethod
    def load(cls, path: str | Path) -> "SweepSpec":
        """Read and validate a spec file; errors name the file."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise SpecError(f"cannot read sweep spec {path}: {exc}") from None
        return cls.from_json(text, where=str(path))
