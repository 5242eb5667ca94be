"""Declarative dynamics configuration: what the replay deviates from the plan.

A :class:`DynamicsSpec` is a frozen, JSON-round-trippable description of
the runtime conditions a static schedule is replayed under:

* ``contention`` — how concurrent transfers share a link's strength
  (``"none"``: every transfer sees the full strength; ``"fair"``:
  processor sharing; ``"fifo"``: exclusive use in arrival order);
* ``error`` — multiplicative runtime-estimate error on task durations,
  drawn per task (:meth:`NoiseSpec.draw`);
* ``slowdown`` — a multiplicative factor per node, drawn per node;
* ``failures`` — how many nodes fail, when (as a fraction of the static
  makespan), and what happens to their unfinished tasks.

The spec is instance-agnostic: it never names concrete tasks or nodes, so
one spec applies to every instance of a sweep.  All stochastic choices are
resolved from the RNG stream handed to
:func:`repro.core.dynamic.simulate_schedule` in a documented, fixed order
(see that module's docstring), which is what keeps replays bit-reproducible.

The all-defaults spec (``DynamicsSpec()``) is the *degenerate* case: exact
durations, contention off, no failures — replaying under it reproduces the
static :class:`~repro.core.simulator.ScheduleBuilder` timings bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.utils.distributions import clipped_gaussian_array

__all__ = [
    "CONTENTION_MODES",
    "NOISE_KINDS",
    "FAILURE_FATES",
    "FAILURE_PICKS",
    "DynamicsError",
    "NoiseSpec",
    "FailureSpec",
    "DynamicsSpec",
]

CONTENTION_MODES = ("none", "fair", "fifo")
NOISE_KINDS = ("none", "uniform", "gaussian")
FAILURE_FATES = ("stall", "reassign")
FAILURE_PICKS = ("most-loaded", "random")


class DynamicsError(ValueError):
    """A dynamics spec failed validation; the message names the field."""


def _fail(path: str, message: str) -> None:
    raise DynamicsError(f"{path}: {message}")


def _number(data: dict, key: str, path: str, default: float) -> float:
    if key not in data:
        return default
    value = data.pop(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {type(value).__name__}")
    return float(value)


def _reject_unknown(data: dict, path: str, known: tuple[str, ...]) -> None:
    if data:
        _fail(
            path,
            f"unknown field(s): {', '.join(map(repr, sorted(data)))}; "
            f"valid fields: {', '.join(known)}",
        )


@dataclass(frozen=True)
class NoiseSpec:
    """A multiplicative noise distribution (duration error / node slowdown).

    ``kind="none"`` is the exact (factor 1.0, no draw) case.
    ``kind="uniform"`` draws factors from ``U[low, high]``.
    ``kind="gaussian"`` draws from a Gaussian centred on 1.0 with standard
    deviation ``std``, clipped to ``[low, high]`` (so factors stay positive
    and bounded).
    """

    kind: str = "none"
    low: float = 0.5
    high: float = 2.0
    std: float = 0.2

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            _fail("kind", f"must be one of {', '.join(map(repr, NOISE_KINDS))}, got {self.kind!r}")
        for name in ("low", "high", "std"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                _fail(name, f"expected a number, got {type(value).__name__}")
            value = float(value)
            if not math.isfinite(value):
                _fail(name, f"must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.kind != "none":
            if self.low <= 0:
                _fail("low", f"factors must stay positive; low must be > 0, got {self.low}")
            if self.high < self.low:
                _fail("high", f"must be >= low ({self.low}), got {self.high}")
        if self.kind == "gaussian" and self.std < 0:
            _fail("std", f"must be >= 0, got {self.std}")

    @property
    def active(self) -> bool:
        return self.kind != "none"

    def draw(self, gen: np.random.Generator | None, n: int) -> list[float]:
        """``n`` factors from one vectorized call, or ``n`` ones without a draw.

        The floats and the generator's final state are bit-identical to
        ``n`` successive scalar draws (``UniformRV(low, high).sample`` or
        ``ClippedGaussianRV(1.0, std, low, high).sample``): numpy fills a
        ``size=n`` request element by element from the same stream.
        """
        if self.kind == "uniform":
            return gen.uniform(self.low, self.high, size=n).tolist()
        if self.kind == "gaussian":
            return clipped_gaussian_array(gen, 1.0, self.std, n, self.low, self.high).tolist()
        return [1.0] * n

    def to_dict(self) -> dict:
        if self.kind == "none":
            return {"kind": "none"}
        out = {"kind": self.kind, "low": self.low, "high": self.high}
        if self.kind == "gaussian":
            out["std"] = self.std
        return out

    @classmethod
    def from_dict(cls, data: Any, path: str = "noise") -> "NoiseSpec":
        if not isinstance(data, dict):
            _fail(path, f"expected an object, got {type(data).__name__}")
        data = dict(data)
        kind = data.pop("kind", "none")
        if kind not in NOISE_KINDS:
            _fail(f"{path}.kind", f"must be one of {', '.join(map(repr, NOISE_KINDS))}, got {kind!r}")
        defaults = cls()
        kwargs = {
            "low": _number(data, "low", path, defaults.low),
            "high": _number(data, "high", path, defaults.high),
            "std": _number(data, "std", path, defaults.std),
        }
        _reject_unknown(data, path, ("kind", "low", "high", "std"))
        try:
            return cls(kind=kind, **kwargs)
        except DynamicsError as exc:
            _fail(path, str(exc))
            raise AssertionError  # pragma: no cover - _fail always raises


@dataclass(frozen=True)
class FailureSpec:
    """Node failures: how many, when, and the fate of their tasks.

    ``count`` nodes fail simultaneously at ``at * static_makespan`` (the
    makespan of the schedule being replayed; failures are skipped when
    that makespan is not finite and positive).  ``pick`` chooses the
    victims: ``"most-loaded"`` (largest total planned busy time, the
    adversarial choice) or ``"random"`` (drawn from the replay RNG).
    ``fate`` decides what happens to tasks the dead node never finished:
    ``"stall"`` (they never complete; the makespan is infinite) or
    ``"reassign"`` (they restart from scratch on the fastest surviving
    node, re-fetching their inputs at failure time).
    """

    count: int = 0
    at: float = 0.5
    fate: str = "stall"
    pick: str = "most-loaded"

    def __post_init__(self) -> None:
        if isinstance(self.count, bool) or not isinstance(self.count, int):
            _fail("count", f"expected an integer, got {type(self.count).__name__}")
        if self.count < 0:
            _fail("count", f"must be >= 0, got {self.count}")
        if isinstance(self.at, bool) or not isinstance(self.at, (int, float)):
            _fail("at", f"expected a number, got {type(self.at).__name__}")
        object.__setattr__(self, "at", float(self.at))
        if not math.isfinite(self.at):
            _fail("at", f"must be finite, got {self.at}")
        if not 0.0 <= self.at:
            _fail("at", f"must be >= 0, got {self.at}")
        if self.fate not in FAILURE_FATES:
            _fail("fate", f"must be one of {', '.join(map(repr, FAILURE_FATES))}, got {self.fate!r}")
        if self.pick not in FAILURE_PICKS:
            _fail("pick", f"must be one of {', '.join(map(repr, FAILURE_PICKS))}, got {self.pick!r}")

    @property
    def active(self) -> bool:
        return self.count > 0

    def to_dict(self) -> dict:
        if not self.active:
            return {"count": 0}
        return {"count": self.count, "at": self.at, "fate": self.fate, "pick": self.pick}

    @classmethod
    def from_dict(cls, data: Any, path: str = "failures") -> "FailureSpec":
        if not isinstance(data, dict):
            _fail(path, f"expected an object, got {type(data).__name__}")
        data = dict(data)
        defaults = cls()
        count = data.pop("count", 0)
        if isinstance(count, bool) or not isinstance(count, int):
            _fail(f"{path}.count", f"expected an integer, got {type(count).__name__}")
        at = _number(data, "at", path, defaults.at)
        fate = data.pop("fate", defaults.fate)
        pick = data.pop("pick", defaults.pick)
        _reject_unknown(data, path, ("count", "at", "fate", "pick"))
        try:
            return cls(count=count, at=at, fate=fate, pick=pick)
        except DynamicsError as exc:
            _fail(path, str(exc))
            raise AssertionError  # pragma: no cover - _fail always raises


@dataclass(frozen=True)
class DynamicsSpec:
    """The full dynamics configuration of a replay (see module docstring).

    ``samples`` is the experiment-protocol knob: how many independent
    realizations a sweep unit (or the robustness-gap energy) replays per
    schedule.  Replays across schedulers share per-sample seeds, so two
    schedulers experience the *same* noise/failures in sample ``i``
    (common random numbers).
    """

    contention: str = "none"
    error: NoiseSpec = field(default_factory=NoiseSpec)
    slowdown: NoiseSpec = field(default_factory=NoiseSpec)
    failures: FailureSpec = field(default_factory=FailureSpec)
    samples: int = 1

    def __post_init__(self) -> None:
        if self.contention not in CONTENTION_MODES:
            _fail(
                "contention",
                f"must be one of {', '.join(map(repr, CONTENTION_MODES))}, "
                f"got {self.contention!r}",
            )
        if not isinstance(self.error, NoiseSpec):
            _fail("error", f"must be a NoiseSpec, got {type(self.error).__name__}")
        if not isinstance(self.slowdown, NoiseSpec):
            _fail("slowdown", f"must be a NoiseSpec, got {type(self.slowdown).__name__}")
        if not isinstance(self.failures, FailureSpec):
            _fail("failures", f"must be a FailureSpec, got {type(self.failures).__name__}")
        if isinstance(self.samples, bool) or not isinstance(self.samples, int):
            _fail("samples", f"expected an integer, got {type(self.samples).__name__}")
        if self.samples < 1:
            _fail("samples", f"must be >= 1, got {self.samples}")

    @property
    def is_static(self) -> bool:
        """True when replaying under this spec reproduces the plan exactly."""
        return (
            self.contention == "none"
            and not self.error.active
            and not self.slowdown.active
            and not self.failures.active
        )

    @property
    def needs_rng(self) -> bool:
        """True when a replay under this spec draws random numbers."""
        return (
            self.error.active
            or self.slowdown.active
            or (self.failures.active and self.failures.pick == "random")
        )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "contention": self.contention,
            "error": self.error.to_dict(),
            "slowdown": self.slowdown.to_dict(),
            "failures": self.failures.to_dict(),
            "samples": self.samples,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + ("\n" if indent else "")

    @classmethod
    def from_dict(cls, data: Any, path: str = "dynamics") -> "DynamicsSpec":
        if not isinstance(data, dict):
            _fail(path, f"expected an object, got {type(data).__name__}")
        data = dict(data)
        contention = data.pop("contention", "none")
        error = data.pop("error", None)
        slowdown = data.pop("slowdown", None)
        failures = data.pop("failures", None)
        samples = data.pop("samples", 1)
        _reject_unknown(
            data, path, ("contention", "error", "slowdown", "failures", "samples")
        )
        try:
            return cls(
                contention=contention,
                error=(
                    NoiseSpec.from_dict(error, f"{path}.error")
                    if error is not None
                    else NoiseSpec()
                ),
                slowdown=(
                    NoiseSpec.from_dict(slowdown, f"{path}.slowdown")
                    if slowdown is not None
                    else NoiseSpec()
                ),
                failures=(
                    FailureSpec.from_dict(failures, f"{path}.failures")
                    if failures is not None
                    else FailureSpec()
                ),
                samples=samples,
            )
        except DynamicsError as exc:
            message = str(exc)
            if not message.startswith(path):
                message = f"{path}.{message}"
            raise DynamicsError(message) from None

    @classmethod
    def from_json(cls, text: str, path: str = "dynamics") -> "DynamicsSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DynamicsError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(data, path)
