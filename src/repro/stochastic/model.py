"""Stochastic problem instances and schedule-robustness evaluation.

A :class:`StochasticInstance` carries a :class:`RandomVariable` for every
task cost, dependency data size, node speed, and link strength.  Two
operations connect it back to the deterministic world of the paper:

* ``expected()`` — the deterministic instance built from the means; this
  is what an offline scheduler plans against;
* ``realize(rng)`` — one sampled deterministic instance (what actually
  happens at run time).

``evaluate_robustness`` closes the loop: plan a schedule on the expected
instance, then *replay its decisions* (same task-to-node mapping, same
per-node execution order) on sampled realizations and measure the
realized makespans — the standard "static schedule under uncertainty"
evaluation (cf. Canon et al.'s robustness study, reference [11] of the
paper).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.dynamic import simulate_schedule
from repro.core.exceptions import InvalidInstanceError
from repro.core.instance import ProblemInstance
from repro.core.network import Network
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler
from repro.core.task_graph import TaskGraph
from repro.stochastic.variables import Deterministic, RandomVariable
from repro.utils.rng import as_generator

__all__ = ["StochasticInstance", "replay_schedule", "evaluate_robustness", "RobustnessReport"]

#: Sampled speeds must stay positive (related machines divide by them).
_MIN_SPEED = 1e-9


def _lift(value: RandomVariable | float) -> RandomVariable:
    return value if isinstance(value, RandomVariable) else Deterministic(float(value))


@dataclass
class StochasticInstance:
    """A problem instance whose weights are random variables.

    Construct from mappings keyed exactly like the deterministic model:
    ``task_costs[task]``, ``data_sizes[(src, dst)]``, ``speeds[node]``,
    ``strengths[(u, v)]`` (unordered pairs).  Plain floats are accepted
    anywhere and lifted to :class:`Deterministic`.
    """

    task_costs: dict = field(default_factory=dict)
    data_sizes: dict = field(default_factory=dict)
    speeds: dict = field(default_factory=dict)
    strengths: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        self.task_costs = {t: _lift(v) for t, v in self.task_costs.items()}
        self.data_sizes = {e: _lift(v) for e, v in self.data_sizes.items()}
        self.speeds = {n: _lift(v) for n, v in self.speeds.items()}
        self.strengths = {e: _lift(v) for e, v in self.strengths.items()}
        for (src, dst) in self.data_sizes:
            if src not in self.task_costs or dst not in self.task_costs:
                raise InvalidInstanceError(f"dependency {src!r}->{dst!r} references unknown task")
        for (u, v) in self.strengths:
            if u not in self.speeds or v not in self.speeds:
                raise InvalidInstanceError(f"link {u!r}-{v!r} references unknown node")

    @classmethod
    def from_instance(
        cls,
        instance: ProblemInstance,
        jitter: Mapping | None = None,
        name: str | None = None,
    ) -> "StochasticInstance":
        """Lift a deterministic instance; optionally override weights with
        random variables via ``jitter`` (same keys as the constructor
        mappings, flattened: tasks, (src, dst), nodes, (u, v))."""
        jitter = dict(jitter or {})
        tg, net = instance.task_graph, instance.network
        return cls(
            task_costs={t: jitter.get(t, tg.cost(t)) for t in tg.tasks},
            data_sizes={
                (u, v): jitter.get((u, v), tg.data_size(u, v)) for u, v in tg.dependencies
            },
            speeds={n: jitter.get(n, net.speed(n)) for n in net.nodes},
            strengths={
                (u, v): jitter.get((u, v), net.strength(u, v)) for u, v in net.links
            },
            name=name if name is not None else instance.name,
        )

    # ------------------------------------------------------------------ #
    def _build(self, costs, sizes, speeds, strengths) -> ProblemInstance:
        tg = TaskGraph()
        for task, cost in costs.items():
            tg.add_task(task, cost)
        for (src, dst), size in sizes.items():
            tg.add_dependency(src, dst, size)
        net = Network()
        for node, speed in speeds.items():
            net.add_node(node, max(speed, _MIN_SPEED))
        for (u, v), s in strengths.items():
            net.set_strength(u, v, s)
        return ProblemInstance(net, tg, name=self.name)

    def expected(self) -> ProblemInstance:
        """The deterministic expected-value instance (what planners see)."""
        return self._build(
            {t: v.mean for t, v in self.task_costs.items()},
            {e: v.mean for e, v in self.data_sizes.items()},
            {n: v.mean for n, v in self.speeds.items()},
            {e: v.mean for e, v in self.strengths.items()},
        )

    def realize(self, rng: int | np.random.Generator | None = None) -> ProblemInstance:
        """One sampled realization."""
        gen = as_generator(rng)
        return self._build(
            {t: v.sample(gen) for t, v in self.task_costs.items()},
            {e: v.sample(gen) for e, v in self.data_sizes.items()},
            {n: v.sample(gen) for n, v in self.speeds.items()},
            {e: v.sample(gen) for e, v in self.strengths.items()},
        )


def replay_schedule(schedule: Schedule, instance: ProblemInstance) -> Schedule:
    """Re-execute a schedule's *decisions* on (possibly different) weights.

    Keeps the task-to-node mapping and the per-node execution order of
    ``schedule`` but recomputes every start time under ``instance``'s
    weights with earliest-start semantics.  Tasks run in the original
    global start-time order (ties by ``str(task)``), which is a linear
    extension of the precedence order whenever ``schedule`` was valid for
    a same-structure instance.

    Implemented as a degenerate replay through the discrete-event
    simulator (:func:`repro.core.dynamic.simulate_schedule` with the
    all-defaults spec): bit-identical to the historical
    ``ScheduleBuilder`` recommit loop, and the single replay engine for
    both this robustness evaluation and the dynamics sweeps.
    """
    return simulate_schedule(schedule, instance).schedule()


@dataclass(frozen=True)
class RobustnessReport:
    """Realized-makespan statistics of a planned schedule under sampling."""

    scheduler: str
    planned_makespan: float
    samples: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def degradation(self) -> float:
        """mean realized / planned makespan (1.0 = plan held exactly)."""
        if self.planned_makespan == 0:
            return 1.0 if self.mean == 0 else float("inf")
        return self.mean / self.planned_makespan


def evaluate_robustness(
    scheduler: Scheduler,
    stochastic: StochasticInstance,
    samples: int = 100,
    rng: int | np.random.Generator | None = None,
) -> RobustnessReport:
    """Plan on the expected instance, replay on ``samples`` realizations."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    gen = as_generator(rng)
    expected = stochastic.expected()
    planned = scheduler.schedule(expected)
    makespans = []
    for _ in range(samples):
        realization = stochastic.realize(gen)
        realized = replay_schedule(planned, realization)
        realized.validate(realization)
        makespans.append(realized.makespan)
    arr = np.asarray(makespans)
    return RobustnessReport(
        scheduler=scheduler.name,
        planned_makespan=planned.makespan,
        samples=samples,
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )
