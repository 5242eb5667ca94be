"""Problem instances: a ``(Network, TaskGraph)`` pair.

A problem instance is the unit everything else operates on: schedulers map
an instance to a schedule, datasets are collections of instances, and PISA
searches the space of instances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.exceptions import InvalidInstanceError
from repro.core.network import Network
from repro.core.task_graph import TaskGraph

__all__ = ["ProblemInstance"]


@dataclass
class ProblemInstance:
    """A network/task-graph pair ``(N, G)``.

    Attributes
    ----------
    network:
        The compute network ``N``.
    task_graph:
        The task graph ``G``.
    name:
        Optional human-readable label (dataset name + index, PISA iteration,
        ...).  Ignored by equality.
    """

    network: Network
    task_graph: TaskGraph
    name: str = field(default="", compare=False)

    def __getstate__(self) -> dict:
        # The compiled-kernel cache (repro.core.compiled) is a derived,
        # per-process artifact; recompiling on the far side is cheaper
        # than shipping numpy tables through pickle.
        state = dict(self.__dict__)
        state.pop("_compiled_cache", None)
        return state

    def copy(self, name: str | None = None) -> "ProblemInstance":
        """Deep-copy the instance (PISA perturbations mutate copies)."""
        return ProblemInstance(
            network=self.network.copy(),
            task_graph=self.task_graph.copy(),
            name=self.name if name is None else name,
        )

    def with_name(self, name: str) -> "ProblemInstance":
        return replace(self, name=name)

    def validate(self) -> None:
        """Validate both halves of the instance, then the pair.

        Infinite task costs and infinite node speeds are each legal, but
        not together: a task of cost ``inf`` on a node of speed ``inf``
        would run for ``c(t)/s(v) = inf/inf``, which is undefined.  Such
        an instance raises :class:`InvalidInstanceError` naming the first
        infinite-cost task and the first infinite-speed node.
        """
        self.network.validate()
        self.task_graph.validate()
        speed, cost = self.network.speed, self.task_graph.cost
        node = next((v for v in self.network.nodes if math.isinf(speed(v))), None)
        if node is None:
            return
        task = next((t for t in self.task_graph.tasks if math.isinf(cost(t))), None)
        if task is not None:
            raise InvalidInstanceError(
                f"execution time of task {task!r} on node {node!r} is undefined "
                "(infinite cost over infinite speed)"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def mean_execution_time(self) -> float:
        """Average task execution time over all (task, node) pairs.

        ``avg_t avg_v c(t)/s(v)`` — the denominator of the CCR.
        """
        tasks = self.task_graph.tasks
        nodes = self.network.nodes
        if not tasks or not nodes:
            return 0.0
        inv_speed = sum(1.0 / self.network.speed(v) for v in nodes) / len(nodes)
        return self.task_graph.mean_cost() * inv_speed

    def mean_communication_time(self) -> float:
        """Average dependency communication time over all node pairs.

        ``avg_(t,t') avg_(u!=v) c(t,t')/s(u,v)``; zero when the task graph
        has no dependencies, and zero when all links are infinitely strong
        (the shared-filesystem convention of the Chameleon networks).
        """
        deps = self.task_graph.num_dependencies
        links = self.network.links
        if deps == 0 or not links:
            return 0.0
        inv_strengths = []
        for u, v in links:
            s = self.network.strength(u, v)
            inv_strengths.append(0.0 if math.isinf(s) else (math.inf if s == 0 else 1.0 / s))
        mean_inv = sum(inv_strengths) / len(inv_strengths)
        if mean_inv == 0.0:
            return 0.0  # all links infinitely strong: free even for infinite data
        return self.task_graph.mean_data_size() * mean_inv

    def ccr(self) -> float:
        """Communication-to-computation ratio (Section IV-A, Section VII).

        Average communication time divided by average execution time.
        """
        comp = self.mean_execution_time()
        comm = self.mean_communication_time()
        if comp == 0.0:
            return math.inf if comm > 0 else 0.0
        return comm / comp

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "network": self.network.to_dict(),
            "task_graph": self.task_graph.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProblemInstance":
        return cls(
            network=Network.from_dict(payload["network"]),
            task_graph=TaskGraph.from_dict(payload["task_graph"]),
            name=payload.get("name", ""),
        )

    def save(self, path: str | Path) -> None:
        """Write the instance as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "ProblemInstance":
        """Read an instance written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (
            f"ProblemInstance({label} tasks={len(self.task_graph)},"
            f" nodes={len(self.network)})"
        )
