"""Tests for the random-graph datasets (in_trees, out_trees, chains)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.datasets.random_graphs import (
    chains_dataset,
    in_tree_task_graph,
    in_trees_dataset,
    out_tree_task_graph,
    out_trees_dataset,
    parallel_chains_task_graph,
    random_network,
    random_weight,
)


class TestRandomWeight:
    def test_range(self):
        rng = np.random.default_rng(0)
        samples = [random_weight(rng) for _ in range(2000)]
        assert all(0.0 <= s <= 2.0 for s in samples)
        # Clipped N(1, 1/3): mean close to 1.
        assert 0.9 < float(np.mean(samples)) < 1.1


class TestRandomNetwork:
    def test_size_range(self):
        rng = np.random.default_rng(1)
        sizes = {len(random_network(rng)) for _ in range(50)}
        assert sizes <= {3, 4, 5}
        assert len(sizes) > 1  # actually varies

    def test_complete_and_valid(self):
        net = random_network(np.random.default_rng(2))
        net.validate()

    def test_speeds_positive(self):
        for seed in range(20):
            net = random_network(np.random.default_rng(seed))
            assert all(net.speed(v) > 0 for v in net.nodes)


class TestTrees:
    def test_in_tree_orientation(self):
        """In-trees point toward the root: the root is the unique sink."""
        tg = in_tree_task_graph(np.random.default_rng(3))
        assert len(tg.sink_tasks) == 1
        assert len(tg.source_tasks) >= 2

    def test_out_tree_orientation(self):
        tg = out_tree_task_graph(np.random.default_rng(3))
        assert len(tg.source_tasks) == 1
        assert len(tg.sink_tasks) >= 2

    def test_tree_is_a_tree(self):
        tg = out_tree_task_graph(np.random.default_rng(4))
        assert tg.num_dependencies == len(tg) - 1
        assert nx.is_tree(tg.to_networkx().to_undirected())

    def test_level_and_branching_ranges(self):
        """Levels 2-4, branching 2-3 => sizes between 3 and 40 tasks."""
        sizes = set()
        for seed in range(40):
            tg = in_tree_task_graph(np.random.default_rng(seed))
            sizes.add(len(tg))
        # smallest: 2 levels branching 2 = 3; largest: 4 levels branching 3 = 40
        assert min(sizes) >= 3
        assert max(sizes) <= 40

    def test_weights_in_clip_range(self):
        tg = in_tree_task_graph(np.random.default_rng(5))
        assert all(0 <= tg.cost(t) <= 2 for t in tg.tasks)
        assert all(0 <= tg.data_size(u, v) <= 2 for u, v in tg.dependencies)


class TestParallelChains:
    def test_fork_join_shape(self):
        tg = parallel_chains_task_graph(np.random.default_rng(6))
        assert tg.source_tasks == ("src",)
        assert tg.sink_tasks == ("snk",)

    def test_chain_count_and_length(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            tg = parallel_chains_task_graph(rng)
            num_chains = len(tg.successors("src"))
            assert 2 <= num_chains <= 5
            interior = len(tg) - 2
            assert interior % num_chains == 0
            assert 2 <= interior // num_chains <= 5

    def test_interior_is_chains(self):
        tg = parallel_chains_task_graph(np.random.default_rng(8))
        for t in tg.tasks:
            if t in ("src", "snk"):
                continue
            assert len(tg.predecessors(t)) == 1
            assert len(tg.successors(t)) == 1


@pytest.mark.parametrize(
    "generator", [in_trees_dataset, out_trees_dataset, chains_dataset]
)
class TestDatasetGenerators:
    def test_count_and_validity(self, generator):
        ds = generator(num_instances=5, rng=0)
        assert len(ds) == 5
        ds.validate()

    def test_instances_named(self, generator):
        ds = generator(num_instances=3, rng=0)
        assert all(inst.name for inst in ds)

    def test_deterministic_under_seed(self, generator):
        a = generator(num_instances=3, rng=42)
        b = generator(num_instances=3, rng=42)
        for x, y in zip(a, b):
            assert x.task_graph == y.task_graph
            assert x.network == y.network

    def test_different_seeds_differ(self, generator):
        a = generator(num_instances=3, rng=1)
        b = generator(num_instances=3, rng=2)
        assert any(
            x.task_graph != y.task_graph or x.network != y.network
            for x, y in zip(a, b)
        )
