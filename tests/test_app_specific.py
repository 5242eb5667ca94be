"""Tests for the application-specific PISA variant (Section VII)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pisa import AnnealingConfig, PISAConfig
from repro.pisa.app_specific import PAPER_CCRS, AppSpecificSpace, app_specific_pairwise

FAST = PISAConfig(
    annealing=AnnealingConfig(max_iterations=20, alpha=0.85), restarts=1
)


class TestSpaceBasics:
    def test_paper_ccrs(self):
        assert PAPER_CCRS == (0.2, 0.5, 1.0, 2.0, 5.0)

    def test_invalid_ccr(self):
        with pytest.raises(ValueError):
            AppSpecificSpace("blast", ccr=0.0)
        for ccr in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                AppSpecificSpace("blast", ccr=ccr)

    def test_unknown_workflow(self):
        from repro import DatasetError

        with pytest.raises(DatasetError):
            AppSpecificSpace("nonexistent", ccr=1.0)

    @pytest.mark.parametrize("ccr", PAPER_CCRS)
    def test_initial_instance_hits_target_ccr(self, ccr):
        space = AppSpecificSpace("blast", ccr=ccr, trace_seed=0)
        inst = space.initial_instance(rng=0)
        assert inst.ccr() == pytest.approx(ccr, rel=1e-9)

    def test_initial_instance_in_family(self):
        space = AppSpecificSpace("srasearch", ccr=1.0, trace_seed=0)
        inst = space.initial_instance(rng=1)
        inst.validate()
        # srasearch structures have a single finalize sink.
        assert len(inst.task_graph.sink_tasks) == 1

    def test_homogeneous_links(self):
        space = AppSpecificSpace("blast", ccr=0.5, trace_seed=0)
        inst = space.initial_instance(rng=2)
        strengths = {inst.network.strength(u, v) for u, v in inst.network.links}
        assert len(strengths) == 1

    def test_dataset(self):
        space = AppSpecificSpace("blast", ccr=2.0, trace_seed=0)
        ds = space.dataset(4, rng=3)
        assert len(ds) == 4
        ds.validate()
        for inst in ds:
            assert inst.ccr() == pytest.approx(2.0, rel=1e-9)


class TestRestrictedPerturbations:
    def test_only_three_operators(self):
        space = AppSpecificSpace("blast", ccr=1.0, trace_seed=0)
        names = space.perturbations().names
        assert sorted(names) == [
            "change_dependency_weight",
            "change_network_node_weight",
            "change_task_weight",
        ]

    def test_ranges_scaled_to_trace(self):
        space = AppSpecificSpace("blast", ccr=1.0, trace_seed=0)
        trace = space.trace
        ops = {op.name: op for op in space.perturbations().operators}
        rt_lo, rt_hi = trace.runtime_range
        assert ops["change_task_weight"].low == rt_lo
        assert ops["change_task_weight"].high == rt_hi
        io_lo, io_hi = trace.output_size_range
        assert ops["change_dependency_weight"].low == io_lo
        assert ops["change_dependency_weight"].high == io_hi

    def test_structure_frozen_during_search(self):
        """The restricted PERTURB never edits graph structure."""
        space = AppSpecificSpace("blast", ccr=1.0, trace_seed=0)
        inst = space.initial_instance(rng=0)
        pset = space.perturbations()
        gen = np.random.default_rng(0)
        current = inst
        for _ in range(60):
            current = pset.perturb(current, gen)
        assert set(current.task_graph.dependencies) == set(inst.task_graph.dependencies)
        assert set(current.task_graph.tasks) == set(inst.task_graph.tasks)

    def test_weights_stay_in_trace_ranges(self):
        space = AppSpecificSpace("bwa", ccr=1.0, trace_seed=1)
        inst = space.initial_instance(rng=0)
        pset = space.perturbations()
        gen = np.random.default_rng(1)
        current = inst
        for _ in range(100):
            current = pset.perturb(current, gen)
        rt_lo, rt_hi = space.trace.runtime_range
        # Perturbed costs are clipped into the observed range; unperturbed
        # ones keep their sampled values (which come from the same fit).
        for t in current.task_graph.tasks:
            cost = current.task_graph.cost(t)
            if cost != inst.task_graph.cost(t):
                assert rt_lo <= cost <= rt_hi


class TestSearch:
    def test_run_pair(self):
        space = AppSpecificSpace("blast", ccr=1.0, trace_seed=0)
        result = space.run_pair("MinMin", "CPoP", config=FAST, rng=0)
        assert result.target == "MinMin"
        assert result.best_ratio > 0
        # The found instance is still in-family (blast fork-join shape).
        types = result.best_instance.task_graph
        assert len(types.source_tasks) == 1

    def test_pairwise(self):
        space = AppSpecificSpace("blast", ccr=0.2, trace_seed=0)
        result = app_specific_pairwise(space, ["HEFT", "FastestNode"], config=FAST, rng=0)
        assert ("HEFT", "FastestNode") in result.results
        assert ("FastestNode", "HEFT") in result.results

    def test_deterministic(self):
        space = AppSpecificSpace("blast", ccr=1.0, trace_seed=0)
        a = space.run_pair("HEFT", "CPoP", config=FAST, rng=9)
        b = space.run_pair("HEFT", "CPoP", config=FAST, rng=9)
        assert a.best_ratio == b.best_ratio
