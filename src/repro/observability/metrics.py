"""Thread-safe metrics registry with Prometheus text exposition.

Stdlib-only (no ``prometheus_client``): the runtime needs exactly three
instrument kinds — labeled counters, gauges, and fixed-bucket
histograms — and one output format, the Prometheus text exposition
format (version 0.0.4) that ``GET /metrics`` on the coordinator serves
and any Prometheus-compatible scraper ingests.

Design constraints, in order:

* **Hot-path cheap.**  ``inc``/``observe`` is one lock acquire and a
  dict update.  Label resolution (``labels(...)``) returns a child
  handle that callers cache, so steady-state recording never re-hashes
  label tuples.  The coordinator records per-op latency on every HTTP
  request and fsync latency inside the group-commit leader; the
  benchmark gate in ``benchmarks/bench_runtime.py`` bounds the total
  telemetry overhead on the coordinator scaling curve at ≤5%.
* **Thread-safe.**  Instruments are written from coordinator executor
  threads, the asyncio loop, and the group-commit leader.  Each
  instrument owns one lock; there is no global registry lock on the
  record path.
* **Inert.**  Nothing here touches RNG streams or result bytes —
  metrics are observations about work, never inputs to it.

Registries are instances, not module globals, so the coordinator owns
one per ``Coordinator`` (a standby promotes with a fresh registry seeded
from recovered state — see ``Coordinator._recover``).  Workers keep no
registry: what they did is in their trace spans
(:mod:`repro.observability.trace`).
"""

from __future__ import annotations

import threading
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Seconds buckets wide enough for both sub-millisecond fsyncs and
#: multi-second unit executions.
DEFAULT_LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name: {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name may not start with a digit: {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _render_labels(labelnames: tuple[str, ...], labelvalues: tuple[str, ...], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Instrument:
    """Shared plumbing: name/help/labels, child table, one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Iterable[str] = ()) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _validate_name(label)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, *labelvalues: object, **labelkw: object) -> "_Instrument":
        """Resolve (and memoize) the child for one label combination."""
        if labelkw:
            if labelvalues:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                labelvalues = tuple(labelkw[name] for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc} for metric {self.name}") from None
        values = tuple(str(v) for v in labelvalues)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name} expects labels {self.labelnames}, got {values!r}"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._make_child(values)
                self._children[values] = child
            return child  # type: ignore[return-value]

    def _make_child(self, labelvalues: tuple[str, ...]) -> object:
        raise NotImplementedError

    def _samples(self) -> list[str]:
        raise NotImplementedError

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        lines.extend(self._samples())
        return "\n".join(lines)


class Counter(_Instrument):
    """Monotonically increasing count, optionally labeled."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    class _Child:
        __slots__ = ("_parent", "_labelvalues", "value")

        def __init__(self, parent: "Counter", labelvalues: tuple[str, ...]) -> None:
            self._parent = parent
            self._labelvalues = labelvalues
            self.value = 0.0

        def inc(self, amount: float = 1.0) -> None:
            if amount < 0:
                raise ValueError("counters only go up")
            with self._parent._lock:
                self.value += amount

    def _make_child(self, labelvalues: tuple[str, ...]) -> "Counter._Child":
        return Counter._Child(self, labelvalues)

    def inc(self, amount: float = 1.0) -> None:
        if self.labelnames:
            raise ValueError(f"metric {self.name} is labeled; call .labels(...) first")
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def value(self, *labelvalues: object) -> float:
        if labelvalues:
            return self.labels(*labelvalues).value  # type: ignore[union-attr]
        with self._lock:
            return self._value

    def _samples(self) -> list[str]:
        with self._lock:
            if self.labelnames:
                return [
                    f"{self.name}{_render_labels(self.labelnames, values)} "
                    f"{_format_value(child.value)}"
                    for values, child in sorted(self._children.items())
                ]
            return [f"{self.name} {_format_value(self._value)}"]


class Gauge(_Instrument):
    """A value that can go up and down, optionally labeled."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    class _Child:
        __slots__ = ("_parent", "_labelvalues", "value")

        def __init__(self, parent: "Gauge", labelvalues: tuple[str, ...]) -> None:
            self._parent = parent
            self._labelvalues = labelvalues
            self.value = 0.0

        def set(self, value: float) -> None:
            with self._parent._lock:
                self.value = float(value)

        def inc(self, amount: float = 1.0) -> None:
            with self._parent._lock:
                self.value += amount

        def dec(self, amount: float = 1.0) -> None:
            with self._parent._lock:
                self.value -= amount

    def _make_child(self, labelvalues: tuple[str, ...]) -> "Gauge._Child":
        return Gauge._Child(self, labelvalues)

    def set(self, value: float) -> None:
        if self.labelnames:
            raise ValueError(f"metric {self.name} is labeled; call .labels(...) first")
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def value(self, *labelvalues: object) -> float:
        if labelvalues:
            return self.labels(*labelvalues).value  # type: ignore[union-attr]
        with self._lock:
            return self._value

    def _samples(self) -> list[str]:
        with self._lock:
            if self.labelnames:
                return [
                    f"{self.name}{_render_labels(self.labelnames, values)} "
                    f"{_format_value(child.value)}"
                    for values, child in sorted(self._children.items())
                ]
            return [f"{self.name} {_format_value(self._value)}"]


class Histogram(_Instrument):
    """Fixed-bucket histogram (cumulative ``le`` buckets + sum + count)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot: > max bound (+Inf)
        self._sum = 0.0
        self._count = 0

    class _Child:
        __slots__ = ("_parent", "_labelvalues", "counts", "sum", "count")

        def __init__(self, parent: "Histogram", labelvalues: tuple[str, ...]) -> None:
            self._parent = parent
            self._labelvalues = labelvalues
            self.counts = [0] * (len(parent.bounds) + 1)
            self.sum = 0.0
            self.count = 0

        def observe(self, value: float) -> None:
            parent = self._parent
            with parent._lock:
                self.counts[parent._bucket_index(value)] += 1
                self.sum += value
                self.count += 1

    def _make_child(self, labelvalues: tuple[str, ...]) -> "Histogram._Child":
        return Histogram._Child(self, labelvalues)

    def _bucket_index(self, value: float) -> int:
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                return i
        return len(self.bounds)

    def observe(self, value: float) -> None:
        if self.labelnames:
            raise ValueError(f"metric {self.name} is labeled; call .labels(...) first")
        with self._lock:
            self._counts[self._bucket_index(value)] += 1
            self._sum += value
            self._count += 1

    def count(self, *labelvalues: object) -> int:
        if labelvalues:
            return self.labels(*labelvalues).count  # type: ignore[union-attr]
        with self._lock:
            return self._count

    def total(self, *labelvalues: object) -> float:
        if labelvalues:
            return self.labels(*labelvalues).sum  # type: ignore[union-attr]
        with self._lock:
            return self._sum

    def _render_series(
        self, labelvalues: tuple[str, ...], counts: list[int], total: float, count: int
    ) -> list[str]:
        lines = []
        cumulative = 0
        for bound, n in zip(self.bounds, counts):
            cumulative += n
            le = _format_value(bound)
            labels = _render_labels(self.labelnames, labelvalues, f'le="{le}"')
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
        cumulative += counts[-1]
        labels = _render_labels(self.labelnames, labelvalues, 'le="+Inf"')
        lines.append(f"{self.name}_bucket{labels} {cumulative}")
        suffix = _render_labels(self.labelnames, labelvalues)
        lines.append(f"{self.name}_sum{suffix} {_format_value(total)}")
        lines.append(f"{self.name}_count{suffix} {count}")
        return lines

    def _samples(self) -> list[str]:
        with self._lock:
            if self.labelnames:
                lines: list[str] = []
                for values, child in sorted(self._children.items()):
                    lines.extend(
                        self._render_series(values, child.counts, child.sum, child.count)
                    )
                return lines
            return self._render_series((), self._counts, self._sum, self._count)


class MetricsRegistry:
    """A named collection of instruments with one text-exposition output.

    ``counter``/``gauge``/``histogram`` are get-or-create: re-registering
    the same name returns the existing instrument (and raises if the kind
    or labels differ — two call sites silently sharing a name with
    different schemas is a bug worth failing loudly on).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls: type, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with a different schema"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    def render_prometheus(self) -> str:
        """The full registry in Prometheus text exposition format 0.0.4."""
        with self._lock:
            instruments = [self._instruments[name] for name in sorted(self._instruments)]
        return "\n".join(i.render() for i in instruments) + "\n" if instruments else ""
