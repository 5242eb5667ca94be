"""Tests for the genetic-algorithm adversarial finder (GISA)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.pisa import GeneticConfig, GeneticInstanceFinder, SearchConstraints

FAST = GeneticConfig(population_size=8, generations=6)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"generations": 0},
            {"elite": 8, "population_size": 8},
            {"tournament_k": 0},
            {"crossover_rate": 1.5},
            {"mutations_per_child": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GeneticConfig(**kwargs)


class TestSearch:
    def test_run_basic(self):
        finder = GeneticInstanceFinder("HEFT", "CPoP", config=FAST)
        result = finder.run(rng=0)
        assert result.target == "HEFT"
        assert result.baseline == "CPoP"
        assert result.best_ratio > 0
        assert len(result.generation_best) == FAST.generations

    def test_generation_best_monotone(self):
        result = GeneticInstanceFinder("HEFT", "FastestNode", config=FAST).run(rng=1)
        seq = result.generation_best
        assert seq == sorted(seq)

    def test_best_instance_achieves_ratio(self):
        finder = GeneticInstanceFinder("MinMin", "MaxMin", config=FAST)
        result = finder.run(rng=2)
        assert finder.energy(result.best_instance) == pytest.approx(result.best_ratio)

    def test_deterministic(self):
        a = GeneticInstanceFinder("HEFT", "CPoP", config=FAST).run(rng=5)
        b = GeneticInstanceFinder("HEFT", "CPoP", config=FAST).run(rng=5)
        assert a.best_ratio == b.best_ratio

    def test_population_shares_name_sets(self):
        """Crossover requires all individuals to share task/node names;
        the found instance's names match a fresh seed instance's."""
        finder = GeneticInstanceFinder("HEFT", "CPoP", config=FAST)
        result = finder.run(rng=3)
        inst = result.best_instance
        assert nx.is_directed_acyclic_graph(inst.task_graph.to_networkx())
        inst.validate()

    def test_constraints_applied(self):
        finder = GeneticInstanceFinder("FCP", "HEFT", config=FAST)
        result = finder.run(rng=4)
        inst = result.best_instance
        assert all(inst.network.speed(v) == 1.0 for v in inst.network.nodes)
        assert all(inst.network.strength(u, v) == 1.0 for u, v in inst.network.links)

    def test_explicit_constraints(self):
        finder = GeneticInstanceFinder(
            "FCP", "HEFT", config=FAST, constraints=SearchConstraints(False, False)
        )
        assert "change_network_node_weight" in finder.perturbations.names

    def test_finds_adversarial_instance(self):
        """Like PISA, GISA finds instances where HEFT loses to FastestNode."""
        config = GeneticConfig(population_size=16, generations=25)
        result = GeneticInstanceFinder("HEFT", "FastestNode", config=config).run(rng=6)
        assert result.best_ratio > 1.05
