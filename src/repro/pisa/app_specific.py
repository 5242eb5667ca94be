"""Application-specific PISA (Section VII).

For realistic scenarios, PISA is restricted to searching over in-family
problem instances of a known application:

* Initial instances are WfCommons-style workflows with networks sampled
  from the distribution fitted to the execution-trace machine speeds, and
  **homogeneous** link strengths pinned so that the instance's average CCR
  equals a target value in {1/5, 1/2, 1, 2, 5} (Section VII-A).
* The PERTURB implementation is adapted: the weight perturbations are
  re-scaled to the ranges observed in the execution trace data, the
  network-edge perturbation is removed (links are homogeneous and fixed by
  the CCR), and Add/Remove Dependency are removed so the task-graph
  structure stays representative of the real application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.instance import ProblemInstance
from repro.core.network import Network
from repro.datasets.base import Dataset
from repro.datasets.traces import ExecutionTrace
from repro.datasets.workflows import get_recipe
from repro.pisa.constraints import SearchConstraints
from repro.pisa.perturbations import (
    ChangeDependencyWeight,
    ChangeNetworkNodeWeight,
    ChangeTaskWeight,
    PerturbationSet,
)
from repro.pisa.pisa import PISA, PISAConfig, PISAResult, PairwiseResult
from repro.utils.rng import as_generator

__all__ = ["PAPER_CCRS", "AppSpecificSpace", "app_specific_pairwise"]

#: The five CCRs of Section VII: 1/5, 1/2, 1, 2, 5.
PAPER_CCRS = (0.2, 0.5, 1.0, 2.0, 5.0)


@dataclass
class AppSpecificSpace:
    """The restricted search space for one (workflow, CCR) experiment.

    Parameters
    ----------
    workflow:
        Recipe name (e.g. ``"srasearch"``).
    ccr:
        Target average communication-to-computation ratio; the homogeneous
        link strength of every generated network is chosen per-instance so
        the instance's CCR equals this value.
    trace:
        The execution trace to fit distributions/ranges from; defaults to
        the recipe's synthetic trace with ``trace_seed``.
    min_nodes / max_nodes:
        Network size range (the paper does not fix it; Chameleon-scale).
    """

    workflow: str
    ccr: float
    trace: ExecutionTrace | None = None
    trace_seed: int = 0
    min_nodes: int = 4
    max_nodes: int = 8
    _recipe: object = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ccr) and self.ccr > 0):
            raise ValueError(f"ccr must be positive and finite, got {self.ccr}")
        self._recipe = get_recipe(self.workflow)
        if self.trace is None:
            self.trace = self._recipe.trace(self.trace_seed)

    # ------------------------------------------------------------------ #
    # Instance generation
    # ------------------------------------------------------------------ #
    def initial_instance(self, rng: int | np.random.Generator | None = None) -> ProblemInstance:
        """One in-family instance with the target CCR."""
        gen = as_generator(rng)
        tg = self._recipe.build_task_graph(gen, self.trace)

        speed_model = self.trace.speed_model()
        n = int(gen.integers(self.min_nodes, self.max_nodes + 1))
        speeds = {f"v{i + 1}": max(float(speed_model.sample(gen)), 1e-9) for i in range(n)}

        # Homogeneous strength sigma such that the instance CCR hits target:
        #   ccr = (mean_data / sigma) / mean_exec  =>  sigma = mean_data/(ccr*mean_exec)
        mean_inv_speed = sum(1.0 / s for s in speeds.values()) / n
        mean_exec = tg.mean_cost() * mean_inv_speed
        mean_data = tg.mean_data_size()
        if mean_exec <= 0 or mean_data <= 0:
            sigma = float("inf")
        else:
            sigma = mean_data / (self.ccr * mean_exec)
        net = Network.from_speeds(speeds, default_strength=sigma)
        return ProblemInstance(net, tg, name=f"{self.workflow}(ccr={self.ccr})")

    def dataset(self, num_instances: int, rng=None) -> Dataset:
        """A benchmarking dataset drawn from the same space (Figs. 10-19
        top rows)."""
        gen = as_generator(rng)
        ds = Dataset(name=f"{self.workflow}_ccr{self.ccr}")
        for i in range(num_instances):
            ds.add(self.initial_instance(gen).with_name(f"{self.workflow}[{i}]"))
        return ds

    # ------------------------------------------------------------------ #
    # Restricted PERTURB (Section VII-A)
    # ------------------------------------------------------------------ #
    def perturbations(self) -> PerturbationSet:
        """Trace-scaled weight perturbations; structure and links frozen."""
        speed_lo, speed_hi = self.trace.speed_range
        rt_lo, rt_hi = self.trace.runtime_range
        io_lo, io_hi = self.trace.output_size_range
        return PerturbationSet(
            [
                ChangeNetworkNodeWeight(
                    low=max(speed_lo, 1e-9),
                    high=speed_hi,
                    step=max((speed_hi - speed_lo) / 10.0, 1e-12),
                ),
                ChangeTaskWeight(
                    low=rt_lo, high=rt_hi, step=max((rt_hi - rt_lo) / 10.0, 1e-12)
                ),
                ChangeDependencyWeight(
                    low=io_lo, high=io_hi, step=max((io_hi - io_lo) / 10.0, 1e-12)
                ),
            ]
        )

    # ------------------------------------------------------------------ #
    # PISA drivers
    # ------------------------------------------------------------------ #
    def pisa(
        self,
        target: str,
        baseline: str,
        config: PISAConfig | None = None,
    ) -> PISA:
        """A PISA search restricted to this space.

        The Section VI homogeneity constraints are replaced by this
        space's own restrictions (none of the Section VII schedulers are
        constrained anyway).
        """
        return PISA(
            target,
            baseline,
            perturbations=self.perturbations(),
            config=config,
            initial_factory=self.initial_instance,
            constraints=SearchConstraints(),
        )

    def run_pair(
        self,
        target: str,
        baseline: str,
        config: PISAConfig | None = None,
        rng=None,
    ) -> PISAResult:
        return self.pisa(target, baseline, config).run(rng)


def app_specific_pairwise(
    space: AppSpecificSpace,
    schedulers: list[str],
    config: PISAConfig | None = None,
    rng: int | np.random.Generator | None = None,
    progress=None,
    jobs: int = 1,
) -> PairwiseResult:
    """The PISA half of one Figs. 10-19 panel: all ordered pairs in-family.

    Runs on the work-unit runtime: one unit per (pair, restart), each on
    its own spawned RNG stream, optionally fanned out over ``jobs``
    worker processes (see :func:`repro.pisa.pisa.pairwise_comparison`).
    A checkpointed, resumable panel goes through
    :func:`repro.sweeps.fig10_19_pisa_spec` and
    :func:`repro.sweeps.run_sweep`.
    """
    from repro.runtime.pairwise import run_pairwise

    return run_pairwise(
        schedulers,
        config=config,
        rng=rng,
        perturbations=space.perturbations(),
        initial_factory=space.initial_instance,
        constraints=SearchConstraints(),
        progress=progress,
        jobs=jobs,
    )
