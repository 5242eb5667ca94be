"""The task graph ``G = (T, D)`` of Section II.

A task graph is a directed acyclic graph whose nodes are *tasks* with a
compute cost ``c(t) > 0`` (we allow ``c(t) >= 0``; the paper's clipped
Gaussians can produce exact zeros) and whose edges are *dependencies*
``(t, t')`` carrying the size ``c(t, t')`` of the data exchanged between the
two tasks.  An edge ``(t, t')`` means task ``t'`` cannot start before it has
received the output of ``t``.

Three insertion-ordered dicts hold the structure, with no graph library:
task costs ``{t: c(t)}``, successors ``{t: {t': c(t, t')}}`` and
predecessors ``{t': {t: None}}``.  Compiled ids, PISA's random draws and the
schedulers' tie-breaks all follow these orders, so they are part of the
contract:

* :attr:`TaskGraph.tasks` is insertion order; re-adding a task updates its
  cost in place.
* :attr:`TaskGraph.dependencies` lists edges by source task (in task
  order), then by that task's successors in insertion order.  Removing an
  edge and adding it back moves it to the end of its source's successors;
  re-adding an existing edge updates its data size in place.
* :meth:`TaskGraph.predecessors` follows the order edges into a task were
  added — except on a :meth:`TaskGraph.copy`, which rebuilds every
  predecessor dict in :attr:`TaskGraph.dependencies` order.

They equal ``networkx.DiGraph``'s iteration orders, copies included, which
``tests/test_task_graph.py`` checks side by side; :meth:`TaskGraph.to_networkx`
exports to networkx on demand.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Mapping
from types import MappingProxyType

from repro.core.exceptions import InvalidInstanceError
from repro.utils.topo import is_dag_after_edge, topological_order

__all__ = ["TaskGraph"]

Task = Hashable


class TaskGraph:
    """A weighted DAG of tasks and data dependencies.

    Examples
    --------
    >>> tg = TaskGraph()
    >>> tg.add_task("A", 1.7)
    >>> tg.add_task("B", 1.2)
    >>> tg.add_dependency("A", "B", 0.6)
    >>> tg.cost("A"), tg.data_size("A", "B")
    (1.7, 0.6)
    """

    def __init__(self) -> None:
        self._cost: dict[Task, float] = {}
        self._succ: dict[Task, dict[Task, float]] = {}
        self._pred: dict[Task, dict[Task, None]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter; bumped by every structural or weight change.

        :func:`repro.core.compiled.compile_instance` keys its per-instance
        compilation cache on this, so stale timing tables are impossible.
        """
        return self._version

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_task(self, task: Task, cost: float) -> None:
        """Add a task with compute cost ``c(t) = cost`` (must be >= 0)."""
        self._check_weight(cost, f"cost of task {task!r}")
        if task not in self._cost:
            self._succ[task] = {}
            self._pred[task] = {}
        self._cost[task] = float(cost)
        self._version += 1

    def add_dependency(self, src: Task, dst: Task, data_size: float) -> None:
        """Add dependency ``src -> dst`` with data size ``c(src, dst)``.

        Both endpoints must already be tasks and the edge must not create a
        cycle.  Re-adding an existing dependency updates its data size.
        """
        self._check_weight(data_size, f"data size of dependency {src!r}->{dst!r}")
        if src not in self._cost or dst not in self._cost:
            raise InvalidInstanceError(
                f"both endpoints of dependency {src!r}->{dst!r} must be existing tasks"
            )
        if src == dst:
            raise InvalidInstanceError(f"self-dependency {src!r}->{src!r} is not allowed")
        if not is_dag_after_edge(self._succ, src, dst):
            raise InvalidInstanceError(
                f"dependency {src!r}->{dst!r} would create a cycle"
            )
        self._succ[src][dst] = float(data_size)
        self._pred[dst][src] = None
        self._version += 1

    def remove_dependency(self, src: Task, dst: Task) -> None:
        """Remove the dependency ``src -> dst`` (used by PISA's perturbations)."""
        if not self.has_dependency(src, dst):
            raise InvalidInstanceError(f"no dependency {src!r}->{dst!r} to remove")
        del self._succ[src][dst]
        del self._pred[dst][src]
        self._version += 1

    @classmethod
    def from_dicts(
        cls,
        costs: Mapping[Task, float],
        data_sizes: Mapping[tuple[Task, Task], float],
    ) -> "TaskGraph":
        """Build a task graph from ``{task: cost}`` and ``{(src, dst): size}``."""
        tg = cls()
        for task, cost in costs.items():
            tg.add_task(task, cost)
        for (src, dst), size in data_sizes.items():
            tg.add_dependency(src, dst, size)
        return tg

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def tasks(self) -> tuple[Task, ...]:
        """All tasks, in insertion order."""
        return tuple(self._cost)

    @property
    def dependencies(self) -> tuple[tuple[Task, Task], ...]:
        """All dependency edges ``(src, dst)``: grouped by source task in
        task order, each source's successors in insertion order."""
        return tuple((u, v) for u, succs in self._succ.items() for v in succs)

    @property
    def successor_map(self) -> Mapping[Task, Mapping[Task, float]]:
        """Read-only ``{task: {successor: data size}}``, in task order.

        The successor map the :mod:`repro.utils.topo` helpers walk.
        """
        return MappingProxyType(self._succ)

    def __len__(self) -> int:
        return len(self._cost)

    def __contains__(self, task: Task) -> bool:
        return task in self._cost

    @property
    def num_dependencies(self) -> int:
        return sum(len(succs) for succs in self._succ.values())

    def has_dependency(self, src: Task, dst: Task) -> bool:
        """True if ``src -> dst`` is a dependency."""
        succs = self._succ.get(src)
        return succs is not None and dst in succs

    def cost(self, task: Task) -> float:
        """Compute cost ``c(t)`` of a task."""
        try:
            return self._cost[task]
        except KeyError:
            raise InvalidInstanceError(f"unknown task {task!r}") from None

    def data_size(self, src: Task, dst: Task) -> float:
        """Data size ``c(t, t')`` of a dependency."""
        try:
            return self._succ[src][dst]
        except KeyError:
            raise InvalidInstanceError(f"unknown dependency {src!r}->{dst!r}") from None

    def set_cost(self, task: Task, cost: float) -> None:
        self._check_weight(cost, f"cost of task {task!r}")
        if task not in self._cost:
            raise InvalidInstanceError(f"unknown task {task!r}")
        self._cost[task] = float(cost)
        self._version += 1

    def set_data_size(self, src: Task, dst: Task, data_size: float) -> None:
        self._check_weight(data_size, f"data size of dependency {src!r}->{dst!r}")
        if not self.has_dependency(src, dst):
            raise InvalidInstanceError(f"unknown dependency {src!r}->{dst!r}")
        self._succ[src][dst] = float(data_size)
        self._version += 1

    def predecessors(self, task: Task) -> tuple[Task, ...]:
        """Tasks whose output ``task`` requires."""
        try:
            return tuple(self._pred[task])
        except KeyError:
            raise InvalidInstanceError(f"unknown task {task!r}") from None

    def successors(self, task: Task) -> tuple[Task, ...]:
        """Tasks that require the output of ``task``."""
        try:
            return tuple(self._succ[task])
        except KeyError:
            raise InvalidInstanceError(f"unknown task {task!r}") from None

    @property
    def source_tasks(self) -> tuple[Task, ...]:
        """Tasks with no dependencies (entry tasks)."""
        return tuple(t for t, preds in self._pred.items() if not preds)

    @property
    def sink_tasks(self) -> tuple[Task, ...]:
        """Tasks no other task depends on (exit tasks)."""
        return tuple(t for t, succs in self._succ.items() if not succs)

    def topological_order(self) -> list[Task]:
        """Deterministic (lexicographic) topological order of the tasks."""
        return topological_order(self._succ)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def total_cost(self) -> float:
        """Sum of all task compute costs (FastestNode's serial workload)."""
        return float(sum(self._cost.values()))

    def mean_cost(self) -> float:
        """Average task compute cost; 0.0 for an empty graph."""
        n = len(self)
        return self.total_cost() / n if n else 0.0

    def mean_data_size(self) -> float:
        """Average dependency data size; 0.0 if there are no dependencies."""
        m = self.num_dependencies
        if m == 0:
            return 0.0
        return float(sum(size for _, _, size in self.iter_dependencies())) / m

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def copy(self) -> "TaskGraph":
        """An independent copy; its predecessor dicts follow
        :attr:`dependencies` order (see the module docstring)."""
        clone = TaskGraph()
        clone._cost = dict(self._cost)
        clone._succ = {t: dict(succs) for t, succs in self._succ.items()}
        clone._pred = {t: {} for t in self._cost}
        for u, v in self.dependencies:
            clone._pred[v][u] = None
        return clone

    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` with ``weight`` attributes.

        Imports networkx on first use; nothing else in the package needs it.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for task, cost in self._cost.items():
            graph.add_node(task, weight=cost)
        for src, dst, size in self.iter_dependencies():
            graph.add_edge(src, dst, weight=size)
        return graph

    def validate(self) -> None:
        """Check acyclicity and weight invariants; raise on violation."""
        try:
            self.topological_order()
        except ValueError:
            raise InvalidInstanceError("task graph contains a cycle") from None
        for task, cost in self._cost.items():
            self._check_weight(cost, f"cost of task {task!r}")
        for src, dst, size in self.iter_dependencies():
            self._check_weight(size, f"data size of dependency {src!r}->{dst!r}")

    def to_dict(self) -> dict:
        """JSON-serializable representation (tasks, costs, dependencies)."""
        return {
            "tasks": [{"name": t, "cost": self.cost(t)} for t in self.tasks],
            "dependencies": [
                {"src": u, "dst": v, "data_size": self.data_size(u, v)}
                for u, v in self.dependencies
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TaskGraph":
        tg = cls()
        for entry in payload["tasks"]:
            tg.add_task(entry["name"], entry["cost"])
        for entry in payload["dependencies"]:
            tg.add_dependency(entry["src"], entry["dst"], entry["data_size"])
        return tg

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return (
            set(self.tasks) == set(other.tasks)
            and set(self.dependencies) == set(other.dependencies)
            and all(math.isclose(self.cost(t), other.cost(t)) for t in self.tasks)
            and all(
                math.isclose(self.data_size(u, v), other.data_size(u, v))
                for u, v in self.dependencies
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskGraph(tasks={len(self)}, dependencies={self.num_dependencies})"

    @staticmethod
    def _check_weight(value: float, what: str) -> None:
        value = float(value)
        if math.isnan(value) or value < 0:
            raise InvalidInstanceError(f"{what} must be a non-negative number, got {value}")

    # Convenience iterator over (src, dst, data_size)
    def iter_dependencies(self) -> Iterable[tuple[Task, Task, float]]:
        for u, succs in self._succ.items():
            for v, size in succs.items():
                yield u, v, size
