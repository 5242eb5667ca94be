"""Tests for the PISA driver: constraints, restarts, pairwise matrix."""

from __future__ import annotations

import math

import pytest

from repro import InvalidInstanceError
from repro.pisa import (
    PISA,
    AnnealingConfig,
    PISAConfig,
    SearchConstraints,
    apply_initial_constraints,
    combined_constraints,
    constrain_perturbations,
    constraints_for,
    default_perturbations,
    pairwise_comparison,
    random_chain_instance,
)

FAST = PISAConfig(
    annealing=AnnealingConfig(max_iterations=30, alpha=0.9), restarts=2
)


class TestInitialInstances:
    def test_chain_shape(self):
        inst = random_chain_instance(rng=0)
        tg = inst.task_graph
        assert 3 <= len(tg) <= 5
        assert 3 <= len(inst.network) <= 5
        # A chain: one source, one sink, everyone else 1-in-1-out.
        assert len(tg.source_tasks) == 1
        assert len(tg.sink_tasks) == 1
        assert tg.num_dependencies == len(tg) - 1

    def test_weights_in_unit_range(self):
        inst = random_chain_instance(rng=1)
        assert all(0 <= inst.task_graph.cost(t) <= 1 for t in inst.task_graph.tasks)
        assert all(
            0 <= inst.network.strength(u, v) <= 1 for u, v in inst.network.links
        )
        assert all(0 < inst.network.speed(v) <= 1 for v in inst.network.nodes)

    def test_deterministic(self):
        a = random_chain_instance(rng=5)
        b = random_chain_instance(rng=5)
        assert a.task_graph == b.task_graph and a.network == b.network


class TestConstraints:
    def test_per_scheduler_constraints(self):
        assert constraints_for("ETF") == SearchConstraints(True, False)
        assert constraints_for("BIL") == SearchConstraints(False, True)
        assert constraints_for("FCP") == SearchConstraints(True, True)
        assert constraints_for("FLB") == SearchConstraints(True, True)
        assert constraints_for("GDL") == SearchConstraints(False, True)
        assert constraints_for("HEFT") == SearchConstraints(False, False)

    def test_combined(self):
        assert combined_constraints("ETF", "GDL") == SearchConstraints(True, True)
        assert combined_constraints("HEFT", "CPoP") == SearchConstraints(False, False)

    def test_apply_initial(self):
        inst = random_chain_instance(rng=0)
        out = apply_initial_constraints(inst, SearchConstraints(True, True))
        assert all(out.network.speed(v) == 1.0 for v in out.network.nodes)
        assert all(out.network.strength(u, v) == 1.0 for u, v in out.network.links)
        # Task weights untouched.
        assert out.task_graph == inst.task_graph

    def test_constrain_perturbations(self):
        pset = constrain_perturbations(
            default_perturbations(), SearchConstraints(True, True)
        )
        assert "change_network_node_weight" not in pset.names
        assert "change_network_edge_weight" not in pset.names
        assert len(pset.operators) == 4


class TestPISA:
    def test_energy_is_makespan_ratio(self):
        pisa = PISA("HEFT", "CPoP", config=FAST)
        inst = random_chain_instance(rng=2)
        from repro import get_scheduler

        expected = (
            get_scheduler("HEFT").schedule(inst).makespan
            / get_scheduler("CPoP").schedule(inst).makespan
        )
        assert pisa.energy(inst) == pytest.approx(expected)

    def test_energy_refuses_an_undefined_execution_time(self):
        """An inf cost on an inf-speed node: validate()'s error, not a
        NaN makespan ratio."""
        inst = random_chain_instance(rng=2)
        inst.task_graph.set_cost(inst.task_graph.tasks[0], math.inf)
        inst.network.set_speed(inst.network.nodes[0], math.inf)
        with pytest.raises(InvalidInstanceError) as refused:
            PISA("HEFT", "CPoP", config=FAST).energy(inst)
        with pytest.raises(InvalidInstanceError) as canonical:
            inst.validate()
        assert str(refused.value) == str(canonical.value)

    def test_run_returns_restarts(self):
        result = PISA("HEFT", "CPoP", config=FAST).run(rng=0)
        assert len(result.restart_results) == 2
        assert result.best_ratio == max(result.restart_ratios)
        assert result.target == "HEFT" and result.baseline == "CPoP"

    def test_best_instance_achieves_ratio(self):
        result = PISA("MinMin", "MaxMin", config=FAST).run(rng=1)
        pisa = PISA("MinMin", "MaxMin", config=FAST)
        assert pisa.energy(result.best_instance) == pytest.approx(result.best_ratio)

    def test_deterministic_under_seed(self):
        a = PISA("HEFT", "CPoP", config=FAST).run(rng=7)
        b = PISA("HEFT", "CPoP", config=FAST).run(rng=7)
        assert a.best_ratio == b.best_ratio

    def test_constrained_pair_freezes_network(self):
        """With FCP in the pair, node speeds and link strengths stay 1."""
        result = PISA("FCP", "HEFT", config=FAST).run(rng=3)
        inst = result.best_instance
        assert all(inst.network.speed(v) == 1.0 for v in inst.network.nodes)
        assert all(
            inst.network.strength(u, v) == 1.0 for u, v in inst.network.links
        )

    def test_explicit_constraints_override(self):
        pisa = PISA(
            "FCP", "HEFT", config=FAST, constraints=SearchConstraints(False, False)
        )
        assert "change_network_node_weight" in pisa.perturbations.names

    def test_scheduler_instances_accepted(self):
        from repro.schedulers import CPoPScheduler, HEFTScheduler

        result = PISA(HEFTScheduler(), CPoPScheduler(), config=FAST).run(rng=0)
        assert result.target == "HEFT"

    def test_finds_adversarial_instance_for_heft_vs_fastestnode(self):
        """The paper's headline: instances exist where HEFT badly loses to
        the trivial FastestNode baseline.  Even a short search gets > 1."""
        config = PISAConfig(
            annealing=AnnealingConfig(max_iterations=150, alpha=0.97), restarts=3
        )
        result = PISA("HEFT", "FastestNode", config=config).run(rng=4)
        assert result.best_ratio > 1.1


class TestPairwise:
    def test_matrix_shape(self):
        schedulers = ["HEFT", "CPoP", "FastestNode"]
        result = pairwise_comparison(schedulers, config=FAST, rng=0)
        assert set(result.results) == {
            (a, b) for a in schedulers for b in schedulers if a != b
        }

    def test_worst_case_row(self):
        schedulers = ["HEFT", "CPoP"]
        result = pairwise_comparison(schedulers, config=FAST, rng=0)
        worst = result.worst_case_row()
        assert worst["HEFT"] == result.ratio("HEFT", "CPoP")
        assert worst["CPoP"] == result.ratio("CPoP", "HEFT")

    def test_progress_callback(self):
        calls = []
        pairwise_comparison(
            ["HEFT", "CPoP"],
            config=FAST,
            rng=0,
            progress=lambda t, b, r: calls.append((t, b, r)),
        )
        assert len(calls) == 2
