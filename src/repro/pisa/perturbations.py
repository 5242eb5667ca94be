"""PISA's perturbation operators (Section VI).

Each iteration of the annealer perturbs the current problem instance by
selecting, uniformly at random, one of six operators:

1. **Change Network Node Weight** — pick a node uniformly, move its weight
   by U(-1/10, 1/10), clipped into [0, 1].
2. **Change Network Edge Weight** — the same for a (non-self) link.
3. **Change Task Weight** — the same for a task cost.
4. **Change Dependency Weight** — the same for a dependency data size.
5. **Add Dependency** — pick a task ``t`` uniformly, add ``t -> t'`` to a
   uniformly random ``t'`` with ``(t, t') not in D`` such that no cycle is
   created.
6. **Remove Dependency** — remove a uniformly random dependency.

Operators are objects so the application-specific variant (Section VII)
can re-parameterize the weight ranges and drop the structural operators.
Operators never mutate their input; they return a perturbed copy.

Implementation notes
--------------------
* Node *speeds* have a tiny positive floor (the related-machines model
  divides by them); the paper's nominal floor is 0.
* A new dependency's weight is drawn U(low, high) — the paper does not
  specify it; U over the same range its weight perturbations use is the
  natural choice.
* When an operator has no legal move (e.g. Remove Dependency on an empty
  edge set), it reports itself inapplicable and the selector skips it.

Plan / materialize split
------------------------
Every operator exposes two equivalent surfaces:

* :meth:`Perturbation.apply` — the classic form: copy, mutate, return.
* :meth:`Perturbation.plan` — draw *exactly the same* random numbers but
  defer the copy: the returned :class:`PlannedMove` records the move (as
  a structured :class:`Delta` when it is a single weight change) and
  materializes the perturbed instance only on demand.

The :class:`Delta` is what makes a candidate cheap to score: when the
parent already holds a current compilation, :meth:`PlannedMove.materialize`
binds :meth:`repro.core.compiled.CompiledInstance.apply_delta` of it to
the copy, so the candidate's schedules reuse the parent's tables instead
of recompiling.  ``apply`` is implemented as ``plan(...).materialize(...)``,
so the two paths cannot drift.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.compiled import current_compilation
from repro.core.instance import ProblemInstance
from repro.utils.topo import is_dag_after_edge

__all__ = [
    "Delta",
    "PlannedMove",
    "Perturbation",
    "ChangeNetworkNodeWeight",
    "ChangeNetworkEdgeWeight",
    "ChangeTaskWeight",
    "ChangeDependencyWeight",
    "AddDependency",
    "RemoveDependency",
    "PerturbationSet",
    "default_perturbations",
]

#: Speeds must stay strictly positive under the related-machines model.
MIN_NODE_SPEED = 1e-6

#: Delta kinds understood by ``CompiledInstance.apply_delta``.
DELTA_KINDS = ("task_weight", "dep_weight", "node_speed", "link_strength")


@dataclass(frozen=True)
class Delta:
    """One weight change: the cell a perturbation touched and its new value.

    ``kind`` selects the table (see :data:`DELTA_KINDS`); ``key`` names
    the cell in graph terms — ``(task,)``, ``(src, dst)``, ``(node,)`` or
    ``(u, v)``.  Structural moves (add/remove dependency) have no delta:
    they change table *shapes*, so they recompile from scratch.
    """

    kind: str
    key: tuple
    value: float


def apply_delta_mutation(instance: ProblemInstance, delta: Delta) -> None:
    """Mutate ``instance`` in place per ``delta`` (the canonical setters)."""
    if delta.kind == "task_weight":
        instance.task_graph.set_cost(delta.key[0], delta.value)
    elif delta.kind == "dep_weight":
        instance.task_graph.set_data_size(delta.key[0], delta.key[1], delta.value)
    elif delta.kind == "node_speed":
        instance.network.set_speed(delta.key[0], delta.value)
    elif delta.kind == "link_strength":
        instance.network.set_strength(delta.key[0], delta.key[1], delta.value)
    else:  # pragma: no cover - Delta construction is internal
        raise ValueError(f"unknown delta kind {delta.kind!r}")


@dataclass(frozen=True)
class PlannedMove:
    """A perturbation whose randomness is already drawn but whose copy is not.

    ``delta`` is the structured description when the move is a single
    weight change (``None`` for structural moves and the identity move).
    :meth:`materialize` produces the perturbed copy — bit-identical to
    what :meth:`Perturbation.apply` would have returned under the same
    generator state, because ``apply`` *is* ``plan().materialize()``.
    """

    op_name: str
    delta: Delta | None = None
    mutate: Callable[[ProblemInstance], None] | None = field(default=None, compare=False)

    def materialize(self, parent: ProblemInstance) -> ProblemInstance:
        out = parent.copy()
        if self.delta is not None:
            apply_delta_mutation(out, self.delta)
            # A weight move off a compiled parent derives the copy's
            # compilation from the parent's instead of recompiling it;
            # an uncompiled parent is never compiled just to perturb it.
            compiled = current_compilation(parent)
            if compiled is not None:
                compiled.apply_delta(self.delta, instance=out)
        elif self.mutate is not None:
            self.mutate(out)
        return out


class Perturbation(ABC):
    """One atomic instance-space move."""

    name: str = ""

    @abstractmethod
    def applicable(self, instance: ProblemInstance) -> bool:
        """Can this operator do anything on ``instance``?"""

    @abstractmethod
    def plan(self, instance: ProblemInstance, rng: np.random.Generator) -> PlannedMove:
        """Draw the move without copying ``instance`` (see module docs)."""

    def apply(self, instance: ProblemInstance, rng: np.random.Generator) -> ProblemInstance:
        """Return a perturbed *copy* of ``instance``."""
        return self.plan(instance, rng).materialize(instance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@dataclass(repr=False)
class _WeightPerturbation(Perturbation):
    """Shared implementation of the four weight-nudging operators.

    ``low``/``high`` bound the weight; ``step`` is the half-width of the
    uniform nudge (paper default: 1/10 on the [0, 1] range).
    """

    low: float = 0.0
    high: float = 1.0
    step: float = 0.1

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"low ({self.low}) must not exceed high ({self.high})")
        if self.step <= 0:
            raise ValueError("step must be positive")

    def _nudge(self, value: float, rng: np.random.Generator, floor: float | None = None) -> float:
        delta = float(rng.uniform(-self.step, self.step))
        lo = self.low if floor is None else max(self.low, floor)
        return float(min(max(value + delta, lo), self.high))


class ChangeNetworkNodeWeight(_WeightPerturbation):
    """Nudge one node speed (floored slightly above 0)."""

    name = "change_network_node_weight"

    def applicable(self, instance: ProblemInstance) -> bool:
        return len(instance.network) > 0

    def plan(self, instance: ProblemInstance, rng: np.random.Generator) -> PlannedMove:
        nodes = instance.network.nodes
        node = nodes[int(rng.integers(len(nodes)))]
        value = self._nudge(instance.network.speed(node), rng, floor=MIN_NODE_SPEED)
        return PlannedMove(self.name, delta=Delta("node_speed", (node,), value))


class ChangeNetworkEdgeWeight(_WeightPerturbation):
    """Nudge one (non-self) link strength; zero is allowed."""

    name = "change_network_edge_weight"

    def applicable(self, instance: ProblemInstance) -> bool:
        return len(instance.network.links) > 0

    def plan(self, instance: ProblemInstance, rng: np.random.Generator) -> PlannedMove:
        links = instance.network.links
        u, v = links[int(rng.integers(len(links)))]
        value = self._nudge(instance.network.strength(u, v), rng)
        return PlannedMove(self.name, delta=Delta("link_strength", (u, v), value))


class ChangeTaskWeight(_WeightPerturbation):
    """Nudge one task cost; zero is allowed."""

    name = "change_task_weight"

    def applicable(self, instance: ProblemInstance) -> bool:
        return len(instance.task_graph) > 0

    def plan(self, instance: ProblemInstance, rng: np.random.Generator) -> PlannedMove:
        tasks = instance.task_graph.tasks
        task = tasks[int(rng.integers(len(tasks)))]
        value = self._nudge(instance.task_graph.cost(task), rng)
        return PlannedMove(self.name, delta=Delta("task_weight", (task,), value))


class ChangeDependencyWeight(_WeightPerturbation):
    """Nudge one dependency data size; zero is allowed."""

    name = "change_dependency_weight"

    def applicable(self, instance: ProblemInstance) -> bool:
        return instance.task_graph.num_dependencies > 0

    def plan(self, instance: ProblemInstance, rng: np.random.Generator) -> PlannedMove:
        deps = instance.task_graph.dependencies
        src, dst = deps[int(rng.integers(len(deps)))]
        value = self._nudge(instance.task_graph.data_size(src, dst), rng)
        return PlannedMove(self.name, delta=Delta("dep_weight", (src, dst), value))


@dataclass(repr=False)
class AddDependency(Perturbation):
    """Add an acyclicity-preserving dependency with a U(low, high) weight."""

    low: float = 0.0
    high: float = 1.0

    name = "add_dependency"

    def applicable(self, instance: ProblemInstance) -> bool:
        return len(instance.task_graph) >= 2

    def plan(self, instance: ProblemInstance, rng: np.random.Generator) -> PlannedMove:
        tg = instance.task_graph
        tasks = list(tg.tasks)
        # Paper: pick t uniformly, then a uniformly random legal t'.  If t
        # has no legal partner, fall through to the next candidate source
        # (in random order) so the operator is a no-op only when the graph
        # admits no new edge at all.  All draws read the parent graph only
        # (legality is a structural question, identical on any copy).
        succ = tg.successor_map
        order = list(rng.permutation(len(tasks)))
        for src_idx in order:
            src = tasks[src_idx]
            partners = [
                dst
                for dst in tasks
                if dst != src
                and not tg.has_dependency(src, dst)
                and is_dag_after_edge(succ, src, dst)
            ]
            if partners:
                dst = partners[int(rng.integers(len(partners)))]
                weight = float(rng.uniform(self.low, self.high))

                def mutate(out: ProblemInstance, _s=src, _d=dst, _w=weight) -> None:
                    out.task_graph.add_dependency(_s, _d, _w)

                return PlannedMove(self.name, mutate=mutate)
        return PlannedMove(self.name)  # complete DAG: nothing to add


class RemoveDependency(Perturbation):
    """Remove a uniformly random dependency."""

    name = "remove_dependency"

    def applicable(self, instance: ProblemInstance) -> bool:
        return instance.task_graph.num_dependencies > 0

    def plan(self, instance: ProblemInstance, rng: np.random.Generator) -> PlannedMove:
        deps = instance.task_graph.dependencies
        src, dst = deps[int(rng.integers(len(deps)))]

        def mutate(out: ProblemInstance, _s=src, _d=dst) -> None:
            out.task_graph.remove_dependency(_s, _d)

        return PlannedMove(self.name, mutate=mutate)


class PerturbationSet:
    """A uniform mixture of perturbation operators (the PERTURB function).

    ``perturb`` picks uniformly among the operators that are *applicable*
    to the instance at hand — the paper's "randomly selecting (with equal
    probability) one of the following perturbations", restricted to legal
    moves.
    """

    def __init__(self, operators: list[Perturbation]) -> None:
        if not operators:
            raise ValueError("PerturbationSet needs at least one operator")
        self.operators = list(operators)

    def perturb(self, instance: ProblemInstance, rng: np.random.Generator) -> ProblemInstance:
        return self.plan(instance, rng).materialize(instance)

    def plan(self, instance: ProblemInstance, rng: np.random.Generator) -> PlannedMove:
        """Draw one move (same RNG stream as :meth:`perturb`) without copying.

        The identity move (no applicable operator) materializes to a plain
        copy, matching what :meth:`perturb` always returned in that case.
        """
        candidates = [op for op in self.operators if op.applicable(instance)]
        if not candidates:
            return PlannedMove("identity")
        op = candidates[int(rng.integers(len(candidates)))]
        return op.plan(instance, rng)

    def without(self, *names: str) -> "PerturbationSet":
        """A copy of this set minus the named operators (Section VII)."""
        remaining = [op for op in self.operators if op.name not in names]
        return PerturbationSet(remaining)

    @property
    def names(self) -> list[str]:
        return [op.name for op in self.operators]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerturbationSet({self.names})"


def default_perturbations() -> PerturbationSet:
    """The six operators of Section VI with the paper's parameters."""
    return PerturbationSet(
        [
            ChangeNetworkNodeWeight(),
            ChangeNetworkEdgeWeight(),
            ChangeTaskWeight(),
            ChangeDependencyWeight(),
            AddDependency(),
            RemoveDependency(),
        ]
    )
