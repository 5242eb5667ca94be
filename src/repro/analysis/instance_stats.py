"""Descriptive statistics of problem instances.

Section VI-B's case study works by *inspecting* the instances PISA finds
("CPoP succeeds in this instance because it prioritizes tasks that are on
the critical path...").  These statistics quantify the structural levers
that analysis keeps reaching for: how parallel the graph is, how dominant
the critical path is, how heterogeneous the network is, and how
communication-bound the instance is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.instance import ProblemInstance
from repro.core.simulator import mean_exec_time
from repro.utils.topo import longest_path_length

__all__ = ["InstanceStats", "instance_stats"]


@dataclass(frozen=True)
class InstanceStats:
    """Structural profile of one problem instance."""

    num_tasks: int
    num_dependencies: int
    num_nodes: int
    #: Longest path length in *hops* (number of tasks on it).
    depth: int
    #: max level width / depth — >1 means more parallel than serial.
    parallelism: float
    #: Average-time critical path / total average work: 1.0 = pure chain,
    #: -> 0 for embarrassingly parallel graphs.
    critical_path_dominance: float
    #: Communication-to-computation ratio of the instance.
    ccr: float
    #: max/min node speed (1.0 = homogeneous nodes).
    speed_heterogeneity: float
    #: max/min finite link strength (1.0 = homogeneous links; inf if a
    #: zero-strength link coexists with a positive one).
    strength_heterogeneity: float

    def as_row(self) -> dict:
        return {
            "tasks": self.num_tasks,
            "deps": self.num_dependencies,
            "nodes": self.num_nodes,
            "depth": self.depth,
            "parallelism": round(self.parallelism, 3),
            "cp_dominance": round(self.critical_path_dominance, 3),
            "ccr": round(self.ccr, 3) if math.isfinite(self.ccr) else "inf",
            "speed_het": round(self.speed_heterogeneity, 3),
            "strength_het": (
                round(self.strength_heterogeneity, 3)
                if math.isfinite(self.strength_heterogeneity)
                else "inf"
            ),
        }


def instance_stats(instance: ProblemInstance) -> InstanceStats:
    """Compute the structural profile of ``instance``."""
    tg, net = instance.task_graph, instance.network
    n = len(tg)

    if n == 0:
        depth = 0
        parallelism = 0.0
        cp_dominance = 0.0
    else:
        # Level = longest hop-distance from any source.
        level: dict = {}
        for task in tg.topological_order():
            level[task] = 1 + max((level[p] for p in tg.predecessors(task)), default=0)
        depth = max(level.values())
        widths = np.bincount(list(level.values()))
        parallelism = float(widths.max()) / depth

        mean_execs = {t: mean_exec_time(instance, t) for t in tg.tasks}
        total = sum(mean_execs.values())
        cp = longest_path_length(tg.successor_map, mean_execs)
        cp_dominance = cp / total if total > 0 else (1.0 if n else 0.0)

    speeds = [net.speed(v) for v in net.nodes]
    speed_het = max(speeds) / min(speeds) if speeds else 1.0

    finite = [
        net.strength(u, v)
        for u, v in net.links
        if math.isfinite(net.strength(u, v))
    ]
    if not finite:
        strength_het = 1.0
    elif min(finite) == 0.0:
        strength_het = math.inf if max(finite) > 0 else 1.0
    else:
        strength_het = max(finite) / min(finite)

    return InstanceStats(
        num_tasks=n,
        num_dependencies=tg.num_dependencies,
        num_nodes=len(net),
        depth=depth,
        parallelism=parallelism,
        critical_path_dominance=cp_dominance,
        ccr=instance.ccr(),
        speed_heterogeneity=speed_het,
        strength_heterogeneity=strength_het,
    )
