"""Hypothesis strategies for random problem instances.

Random DAGs are built from an upper-triangular adjacency over a random
task order (guaranteeing acyclicity by construction); networks are
complete graphs with positive speeds.  Ranges mirror the paper's weight
scales (clipped Gaussians in [0, 2], PISA's [0, 1] searches).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro import Network, ProblemInstance, TaskGraph

__all__ = ["task_graphs", "networks", "instances"]

#: Weight strategies (finite, non-negative; zero allowed per the paper).
_costs = st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False)
_sizes = st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False)
_speeds = st.floats(min_value=0.05, max_value=2.0, allow_nan=False, allow_infinity=False)
_strengths = st.floats(min_value=0.05, max_value=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def task_graphs(draw, min_tasks: int = 1, max_tasks: int = 6) -> TaskGraph:
    n = draw(st.integers(min_tasks, max_tasks))
    names = [f"t{i}" for i in range(n)]
    tg = TaskGraph()
    for name in names:
        tg.add_task(name, draw(_costs))
    # Upper-triangular adjacency: edge i->j only for i < j (acyclic).
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                tg.add_dependency(names[i], names[j], draw(_sizes))
    return tg


@st.composite
def networks(
    draw,
    min_nodes: int = 1,
    max_nodes: int = 4,
    strengths: st.SearchStrategy[float] = _strengths,
) -> Network:
    """Complete networks; link strengths come from ``strengths``
    (positive by default — the dynamics suites rely on that)."""
    n = draw(st.integers(min_nodes, max_nodes))
    names = [f"v{i}" for i in range(n)]
    net = Network()
    for name in names:
        net.add_node(name, draw(_speeds))
    for i in range(n):
        for j in range(i + 1, n):
            net.set_strength(names[i], names[j], draw(strengths))
    return net


@st.composite
def instances(
    draw,
    min_tasks: int = 1,
    max_tasks: int = 6,
    min_nodes: int = 1,
    max_nodes: int = 4,
) -> ProblemInstance:
    return ProblemInstance(
        network=draw(networks(min_nodes, max_nodes)),
        task_graph=draw(task_graphs(min_tasks, max_tasks)),
        name="hypothesis",
    )
