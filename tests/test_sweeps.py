"""Tests for the declarative sweep API (src/repro/sweeps/).

The properties that make a spec trustworthy as *the* experiment
definition:

* **lossless round trip** — ``SweepSpec.from_json(spec.to_json())``
  reconstructs the exact spec, for arbitrary valid specs (property
  test);
* **actionable validation** — malformed specs fail with the offending
  JSON path and a hint, never a stack trace from deep inside a sweep;
* **equivalence** — the spec path produces bit-identical results to the
  pre-spec entry points (``pairwise_comparison``, ``run_family``,
  ``benchmark_dataset``) for the same seed;
* **spec-as-manifest** — a run directory records the spec, resuming
  validates against it, and an interrupted sweep resumes to the same
  result.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarking.harness import benchmark_dataset
from repro.datasets import generate_dataset
from repro.pisa import AnnealingConfig, PISAConfig, pairwise_comparison
from repro.pisa.constraints import SearchConstraints
from repro.sweeps import (
    SourceSpec,
    SpecError,
    SweepSpec,
    fig4_spec,
    list_named_specs,
    named_spec,
    run_sweep,
)
from repro.utils.rng import as_generator

FAST = PISAConfig(annealing=AnnealingConfig(max_iterations=25, alpha=0.9), restarts=2)
TINY = PISAConfig(annealing=AnnealingConfig(max_iterations=12, alpha=0.8), restarts=1)


def _ratios(pairwise):
    return {pair: res.restart_ratios for pair, res in pairwise.results.items()}


# ---------------------------------------------------------------------- #
# Round-trip property tests
# ---------------------------------------------------------------------- #
_names = st.text(
    st.characters(min_codepoint=33, max_codepoint=0x2FF), min_size=1, max_size=20
)
_seeds = st.integers(min_value=0, max_value=2**63 - 1)
_scheduler_sets = st.permutations(["HEFT", "CPoP", "FastestNode", "MaxMin"]).flatmap(
    lambda names: st.integers(2, len(names)).map(lambda k: tuple(names[:k]))
)


@st.composite
def _sources(draw, for_mode: str) -> SourceSpec:
    kinds = ["chains", "workflow", "family"]
    if for_mode == "benchmark":
        kinds.append("dataset")
    kind = draw(st.sampled_from(kinds))
    if kind == "chains":
        lo = draw(st.integers(1, 4))
        return SourceSpec(
            "chains",
            {
                "min_nodes": lo,
                "max_nodes": draw(st.integers(lo, 6)),
                "min_tasks": lo,
                "max_tasks": draw(st.integers(lo, 6)),
            },
        )
    if kind == "workflow":
        return SourceSpec(
            "workflow",
            {
                "workflow": draw(st.sampled_from(["blast", "srasearch", "montage"])),
                "ccr": draw(
                    st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False)
                ),
                "trace_seed": draw(_seeds),
            },
        )
    if kind == "dataset":
        return SourceSpec("dataset", {"dataset": draw(st.sampled_from(["chains", "blast"]))})
    return SourceSpec("family", {"family": draw(st.sampled_from(["fig7", "fig8"]))})


@st.composite
def sweep_specs(draw) -> SweepSpec:
    mode = draw(st.sampled_from(["pisa", "benchmark"]))
    source = draw(_sources(mode))
    schedulers: tuple[str, ...] = ()
    pairs = None
    if mode == "pisa" and draw(st.booleans()):
        base = draw(_scheduler_sets)
        pairs = tuple(
            (t, b) for t in base for b in base if t != b and draw(st.booleans())
        ) or ((base[0], base[1]),)
    else:
        schedulers = draw(_scheduler_sets)
    if mode == "pisa":
        # config/constraints are PISA-mode fields; num_instances/sampling
        # are benchmark-mode fields (rejected elsewhere — see
        # TestValidationErrors for the cross-mode rules).
        t_min = draw(st.floats(0.01, 1.0, allow_nan=False))
        config = PISAConfig(
            annealing=AnnealingConfig(
                t_max=t_min * draw(st.floats(1.0, 100.0, allow_nan=False)),
                t_min=t_min,
                max_iterations=draw(st.integers(0, 1000)),
                alpha=draw(st.floats(0.01, 0.99, allow_nan=False)),
                acceptance=draw(st.sampled_from(["paper", "metropolis"])),
            ),
            restarts=draw(st.integers(1, 5)),
            keep_history=draw(st.booleans()),
        )
        constraints = draw(
            st.sampled_from(
                [None, SearchConstraints(), SearchConstraints(True, False),
                 SearchConstraints(True, True)]
            )
        )
        num_instances, sampling = 10, "spawn"
    else:
        config, constraints = PISAConfig(), None
        num_instances = draw(st.integers(1, 1000))
        sampling = "sequential" if source.kind == "dataset" else draw(
            st.sampled_from(["spawn", "sequential"])
        )
    return SweepSpec(
        name=draw(_names),
        mode=mode,
        schedulers=schedulers,
        pairs=pairs,
        source=source,
        config=config,
        constraints=constraints,
        num_instances=num_instances,
        sampling=sampling,
        seed=draw(_seeds),
        description=draw(st.text(max_size=40)),
    )


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(spec=sweep_specs())
    def test_json_round_trip_is_lossless(self, spec):
        restored = SweepSpec.from_json(spec.to_json())
        assert restored == spec

    @settings(max_examples=40, deadline=None)
    @given(spec=sweep_specs())
    def test_dict_round_trip_is_lossless(self, spec):
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_defaults_round_trip(self):
        spec = SweepSpec(name="s", schedulers=("HEFT", "CPoP"))
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_keep_history_round_trips_and_defaults_off(self):
        spec = SweepSpec(name="s", schedulers=("HEFT", "CPoP"))
        assert spec.config.keep_history is False
        trajectory = SweepSpec(
            name="s",
            schedulers=("HEFT", "CPoP"),
            config=PISAConfig(keep_history=True),
        )
        restored = SweepSpec.from_json(trajectory.to_json())
        assert restored.config.keep_history is True
        assert restored == trajectory

    def test_load_reads_files(self, tmp_path):
        spec = SweepSpec(name="s", schedulers=("HEFT", "CPoP"))
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert SweepSpec.load(path) == spec


# ---------------------------------------------------------------------- #
# Schema validation errors
# ---------------------------------------------------------------------- #
class TestValidationErrors:
    def _base(self, **overrides) -> dict:
        data = SweepSpec(name="s", schedulers=("HEFT", "CPoP")).to_dict()
        data.update(overrides)
        return data

    def test_missing_name(self):
        data = self._base()
        del data["name"]
        with pytest.raises(SpecError, match="missing required field 'name'"):
            SweepSpec.from_dict(data)

    def test_unknown_field_suggests_close_match(self):
        with pytest.raises(SpecError, match="did you mean 'sampling'"):
            SweepSpec.from_dict(self._base(samping="spawn"))

    def test_bad_mode_lists_choices(self):
        with pytest.raises(SpecError, match="'pisa', 'benchmark'"):
            SweepSpec.from_dict(self._base(mode="adversarial"))

    def test_pisa_needs_two_schedulers(self):
        with pytest.raises(SpecError, match="at least 2 schedulers"):
            SweepSpec.from_dict(self._base(schedulers=["HEFT"]))

    def test_pairs_and_schedulers_are_exclusive(self):
        with pytest.raises(SpecError, match="not both"):
            SweepSpec.from_dict(self._base(pairs=[["HEFT", "CPoP"]]))

    def test_pair_target_must_differ_from_baseline(self):
        with pytest.raises(SpecError, match=r"pairs\[0\].*differ"):
            SweepSpec.from_dict(self._base(schedulers=[], pairs=[["HEFT", "HEFT"]]))

    def test_benchmark_rejects_pairs(self):
        with pytest.raises(SpecError, match="PISA-mode concept"):
            SweepSpec.from_dict(
                self._base(mode="benchmark", schedulers=[], pairs=[["HEFT", "CPoP"]])
            )

    def test_pisa_rejects_dataset_source(self):
        with pytest.raises(SpecError, match="generative"):
            SweepSpec.from_dict(self._base(source={"kind": "dataset", "dataset": "chains"}))

    def test_dataset_source_requires_sequential_sampling(self):
        with pytest.raises(SpecError, match='"sequential"'):
            SweepSpec.from_dict(
                self._base(
                    mode="benchmark",
                    source={"kind": "dataset", "dataset": "chains"},
                    sampling="spawn",
                )
            )

    def test_workflow_source_requires_ccr(self):
        with pytest.raises(SpecError, match="missing required field 'ccr'"):
            SweepSpec.from_dict(self._base(source={"kind": "workflow", "workflow": "blast"}))

    def test_negative_ccr_names_the_path(self):
        with pytest.raises(SpecError, match=r"source\.ccr.*positive"):
            SweepSpec.from_dict(
                self._base(source={"kind": "workflow", "workflow": "blast", "ccr": -1})
            )

    @pytest.mark.parametrize("ccr", [float("inf"), float("nan")])
    def test_non_finite_ccr_names_the_path(self, ccr):
        with pytest.raises(SpecError, match=r"source\.ccr.*finite"):
            SweepSpec.from_dict(
                self._base(source={"kind": "workflow", "workflow": "blast", "ccr": ccr})
            )

    @pytest.mark.parametrize("field", ["t_max", "t_min"])
    def test_non_finite_temperature_names_the_path(self, field):
        data = self._base()
        data["config"]["annealing"][field] = float("nan")
        # A spec file may spell it as JSON's non-standard NaN literal.
        text = json.dumps(data)
        assert "NaN" in text
        with pytest.raises(SpecError, match=r"config\.annealing.*finite"):
            SweepSpec.from_json(text)

    def test_bad_alpha_names_the_path(self):
        data = self._base()
        data["config"]["annealing"]["alpha"] = 1.5
        with pytest.raises(SpecError, match=r"config\.annealing.*alpha"):
            SweepSpec.from_dict(data)

    def test_unknown_source_kind_lists_kinds(self):
        with pytest.raises(SpecError, match="'chains', 'workflow', 'dataset', 'family'"):
            SweepSpec.from_dict(self._base(source={"kind": "random"}))

    def test_version_mismatch(self):
        with pytest.raises(SpecError, match="version"):
            SweepSpec.from_dict(self._base(version=99))

    def test_bad_json_names_the_source(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            SweepSpec.from_json("{oops", where="my.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read sweep spec"):
            SweepSpec.load(tmp_path / "nope.json")

    def test_wrong_type_reports_expected(self):
        with pytest.raises(SpecError, match="expected int, got str"):
            SweepSpec.from_dict(self._base(seed="zero"))

    def test_num_instances_must_be_positive(self):
        with pytest.raises(SpecError, match="num_instances.*>= 1"):
            SweepSpec.from_dict(self._base(mode="benchmark", num_instances=0))

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(SpecError, match=r"pairs\[1\].*duplicate"):
            SweepSpec.from_dict(
                self._base(schedulers=[], pairs=[["HEFT", "CPoP"], ["HEFT", "CPoP"]])
            )

    def test_duplicate_schedulers_rejected(self):
        with pytest.raises(SpecError, match=r"schedulers\[2\].*duplicate"):
            SweepSpec.from_dict(self._base(schedulers=["HEFT", "CPoP", "HEFT"]))

    def test_source_option_errors_carry_the_file_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            '{"name": "x", "schedulers": ["HEFT", "CPoP"], '
            '"source": {"kind": "workflow"}}'
        )
        with pytest.raises(SpecError, match=r"spec\.json.*source.*'workflow'"):
            SweepSpec.load(path)

    def test_cross_mode_fields_rejected_not_ignored(self):
        with pytest.raises(SpecError, match="num_instances.*no effect in PISA"):
            SweepSpec.from_dict(self._base(num_instances=500))
        with pytest.raises(SpecError, match="sampling.*no effect in PISA"):
            SweepSpec.from_dict(self._base(sampling="sequential"))
        bench = self._base(mode="benchmark")
        bench["config"]["restarts"] = 4
        with pytest.raises(SpecError, match="config.*no effect in benchmark"):
            SweepSpec.from_dict(bench)
        with pytest.raises(SpecError, match="constraints.*no effect in benchmark"):
            SweepSpec.from_dict(
                self._base(mode="benchmark", constraints={"fixed_node_speeds": True})
            )

    def test_numpy_integer_seed_is_coerced(self):
        import numpy as np

        spec = SweepSpec(name="s", schedulers=("HEFT", "CPoP"), seed=np.int64(7))
        assert spec.seed == 7 and type(spec.seed) is int
        assert SweepSpec.from_json(spec.to_json()) == spec


# ---------------------------------------------------------------------- #
# Named specs
# ---------------------------------------------------------------------- #
class TestNamedSpecs:
    def test_all_names_build_and_round_trip(self):
        for name in list_named_specs():
            spec = named_spec(name, seed=3)
            assert SweepSpec.from_json(spec.to_json()) == spec

    def test_unknown_name_lists_available(self):
        with pytest.raises(SpecError, match="fig4"):
            named_spec("fig99")

    def test_fig4_sweeps_all_ordered_pairs(self):
        spec = fig4_spec()
        n = len(spec.schedulers)
        assert len(spec.resolved_pairs()) == n * (n - 1)


# ---------------------------------------------------------------------- #
# Runner: resolution errors
# ---------------------------------------------------------------------- #
class TestRunnerErrors:
    def test_unknown_scheduler(self):
        spec = SweepSpec(name="s", schedulers=("HEFT", "Hefty"), config=TINY)
        with pytest.raises(SpecError, match="unknown scheduler.*'Hefty'"):
            run_sweep(spec)

    def test_unknown_workflow(self):
        spec = SweepSpec(
            name="s",
            schedulers=("HEFT", "CPoP"),
            source=SourceSpec("workflow", {"workflow": "blorst", "ccr": 1.0}),
            config=TINY,
        )
        with pytest.raises(SpecError, match="unknown workflow 'blorst'"):
            run_sweep(spec)

    def test_unknown_family(self):
        spec = SweepSpec(
            name="s",
            mode="benchmark",
            schedulers=("HEFT",),
            source=SourceSpec("family", {"family": "fig99"}),
        )
        with pytest.raises(SpecError, match="unknown instance family 'fig99'"):
            run_sweep(spec)

    def test_unknown_dataset(self):
        spec = SweepSpec(
            name="s",
            mode="benchmark",
            schedulers=("HEFT",),
            source=SourceSpec("dataset", {"dataset": "nope"}),
            sampling="sequential",
        )
        with pytest.raises(SpecError, match="unknown dataset 'nope'"):
            run_sweep(spec)

    def test_unacceptable_dataset_params_rejected_before_any_work(self):
        spec = SweepSpec(
            name="s",
            mode="benchmark",
            schedulers=("HEFT",),
            source=SourceSpec(
                "dataset", {"dataset": "chains", "params": {"bogus_knob": 3}}
            ),
            sampling="sequential",
            num_instances=2,
        )
        with pytest.raises(SpecError, match="source.params.*bogus_knob"):
            run_sweep(spec)

    def test_dataset_params_are_forwarded(self):
        spec = SweepSpec(
            name="s",
            mode="benchmark",
            schedulers=("HEFT",),
            source=SourceSpec(
                "dataset",
                {"dataset": "etl", "params": {"network_kwargs": {"edge_range": [2, 3]}}},
            ),
            sampling="sequential",
            num_instances=1,
            seed=0,
        )
        result = run_sweep(spec)
        assert len(result.benchmark.per_instance) == 1


# ---------------------------------------------------------------------- #
# Equivalence with the pre-spec entry points
# ---------------------------------------------------------------------- #
class TestEquivalence:
    def test_fig4_slice_matches_old_driver_path(self):
        """The acceptance pin: old pairwise_comparison == new spec path."""
        schedulers = ["HEFT", "CPoP", "FastestNode"]
        old = pairwise_comparison(schedulers, config=FAST, rng=9)
        new = run_sweep(
            SweepSpec(name="slice", schedulers=tuple(schedulers), config=FAST, seed=9)
        )
        assert _ratios(new.pairwise) == _ratios(old)

    def test_fig4_slice_matches_at_jobs_2(self):
        schedulers = ["HEFT", "CPoP"]
        old = pairwise_comparison(schedulers, config=FAST, rng=4)
        new = run_sweep(
            SweepSpec(name="slice", schedulers=tuple(schedulers), config=FAST, seed=4),
            jobs=2,
        )
        assert _ratios(new.pairwise) == _ratios(old)

    def test_fig7_spec_matches_driver_fig7_half(self):
        """The driver's shared generator is fresh when fig7 samples, so
        the standalone fig7 spec reproduces it bit-for-bit.  (fig8 does
        NOT have this property — the driver threads the generator through
        fig7 first; see fig8_spec's docstring.)"""
        from repro.experiments.fig7_fig8_families import run as run_fig78
        from repro.sweeps import fig7_spec

        driver = run_fig78(num_instances=6, rng=2)
        spec = run_sweep(fig7_spec(num_instances=6, seed=2))
        for s, values in driver.fig7.makespans.items():
            assert np.array_equal(values, spec.makespans[s])

    def test_family_sweep_matches_run_family(self):
        from repro.experiments.fig7_fig8_families import fig7_instance, run_family

        old = run_family("fig7", fig7_instance, 8, rng=as_generator(6))
        new = run_sweep(
            SweepSpec(
                name="fig7",
                mode="benchmark",
                schedulers=("CPoP", "HEFT"),
                source=SourceSpec("family", {"family": "fig7"}),
                num_instances=8,
                seed=6,
            )
        )
        for s in old.makespans:
            assert np.array_equal(old.makespans[s], new.makespans[s])

    def test_dataset_sweep_matches_benchmark_dataset(self):
        schedulers = ["HEFT", "FastestNode"]
        dataset = generate_dataset("chains", num_instances=5, rng=as_generator(2))
        old = benchmark_dataset(schedulers, dataset)
        new = run_sweep(
            SweepSpec(
                name="chains-bench",
                mode="benchmark",
                schedulers=tuple(schedulers),
                source=SourceSpec("dataset", {"dataset": "chains"}),
                num_instances=5,
                sampling="sequential",
                seed=2,
            )
        )
        for s in schedulers:
            assert new.benchmark.ratios(s) == old.ratios(s)

    def test_workflow_source_defaults_to_empty_constraints(self):
        """Auto constraints must not homogenize a workflow space's
        CCR-pinned links; the source forces empty constraints (Section
        VII) unless the spec pins its own."""

        def _spec(constraints):
            return SweepSpec(
                name="w",
                pairs=(("BIL", "CPoP"),),  # BIL is link-constrained under Section VI
                source=SourceSpec("workflow", {"workflow": "blast", "ccr": 1.0}),
                config=TINY,
                constraints=constraints,
                seed=3,
            )

        auto = run_sweep(_spec(None))
        empty = run_sweep(_spec(SearchConstraints()))
        frozen = run_sweep(_spec(SearchConstraints(fixed_link_strengths=True)))
        assert (
            auto.pairwise.results[("BIL", "CPoP")].restart_ratios
            == empty.pairwise.results[("BIL", "CPoP")].restart_ratios
        )
        # An explicit constraint still wins over the source default.
        inst = frozen.pairwise.results[("BIL", "CPoP")].best_instance
        strengths = {inst.network.strength(u, v) for u, v in inst.network.links}
        assert strengths == {1.0}

    def test_explicit_pairs_match_subset_of_full_sweep(self):
        full = run_sweep(
            SweepSpec(name="full", schedulers=("HEFT", "CPoP"), config=FAST, seed=1)
        )
        only = run_sweep(
            SweepSpec(name="full", pairs=(("HEFT", "CPoP"),), config=FAST, seed=1)
        )
        assert (
            only.pairwise.results[("HEFT", "CPoP")].restart_ratios
            == full.pairwise.results[("HEFT", "CPoP")].restart_ratios
        )


# ---------------------------------------------------------------------- #
# Spec-as-manifest checkpointing
# ---------------------------------------------------------------------- #
class TestSpecCheckpoint:
    def test_manifest_is_the_spec(self, tmp_path):
        import json

        spec = SweepSpec(name="s", schedulers=("HEFT", "CPoP"), config=TINY, seed=8)
        run_sweep(spec, run_dir=tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["kind"] == "sweep"
        assert SweepSpec.from_dict(manifest["spec"]) == spec

    def test_interrupted_pisa_sweep_resumes_identically(self, tmp_path):
        spec = SweepSpec(name="s", schedulers=("HEFT", "CPoP", "MinMin"), config=FAST, seed=5)
        run_dir = tmp_path / "run"
        full = run_sweep(spec, run_dir=run_dir)
        units = run_dir / "units.jsonl"
        lines = units.read_text().splitlines()
        units.write_text("\n".join(lines[:4]) + "\n")  # simulate a kill
        resumed = run_sweep(spec, run_dir=run_dir, resume=True)
        assert _ratios(resumed.pairwise) == _ratios(full.pairwise)
        assert len(units.read_text().splitlines()) == len(lines)

    def test_interrupted_benchmark_sweep_resumes_identically(self, tmp_path):
        spec = SweepSpec(
            name="fam",
            mode="benchmark",
            schedulers=("CPoP", "HEFT"),
            source=SourceSpec("family", {"family": "fig8"}),
            num_instances=6,
            seed=4,
        )
        run_dir = tmp_path / "run"
        full = run_sweep(spec, run_dir=run_dir)
        units = run_dir / "units.jsonl"
        units.write_text(units.read_text().splitlines()[0] + "\n")
        resumed = run_sweep(spec, run_dir=run_dir, resume=True)
        for s in full.makespans:
            assert np.array_equal(full.makespans[s], resumed.makespans[s])

    def test_resume_with_different_spec_rejected(self, tmp_path):
        spec = SweepSpec(name="s", schedulers=("HEFT", "CPoP"), config=TINY, seed=5)
        run_dir = tmp_path / "run"
        run_sweep(spec, run_dir=run_dir)
        with pytest.raises(ValueError, match="manifest"):
            run_sweep(spec.with_seed(6), run_dir=run_dir, resume=True)

    def test_externally_seeded_run_cannot_resume_from_spec_seed(self, tmp_path):
        """A run whose streams came from a threaded generator (the
        fig7_fig8 driver) must refuse a spec-seeded resume — silently
        mixing the two spawn trees would corrupt the sweep."""
        spec = SweepSpec(name="s", schedulers=("HEFT", "CPoP"), config=TINY, seed=5)
        run_dir = tmp_path / "run"
        run_sweep(spec, run_dir=run_dir, rng=as_generator(5))
        with pytest.raises(ValueError, match="manifest"):
            run_sweep(spec, run_dir=run_dir, resume=True)
        # Resuming with a generator at a *different* stream position is
        # refused too — the manifest fingerprints the exact rng state.
        with pytest.raises(ValueError, match="manifest"):
            run_sweep(spec, run_dir=run_dir, resume=True, rng=as_generator(6))
        advanced = as_generator(5)
        advanced.spawn(1)  # same seed, wrong spawn position
        with pytest.raises(ValueError, match="manifest"):
            run_sweep(spec, run_dir=run_dir, resume=True, rng=advanced)
        # Resuming with an identically-positioned generator is fine.
        run_sweep(spec, run_dir=run_dir, resume=True, rng=as_generator(5))

    def test_fresh_run_refuses_existing_units(self, tmp_path):
        spec = SweepSpec(name="s", schedulers=("HEFT", "CPoP"), config=TINY, seed=5)
        run_dir = tmp_path / "run"
        run_sweep(spec, run_dir=run_dir)
        with pytest.raises(ValueError, match="resume"):
            run_sweep(spec, run_dir=run_dir)


# ---------------------------------------------------------------------- #
# Multi-worker sweeps over the HTTP coordinator (same results)
# ---------------------------------------------------------------------- #
def _over_coordinator(spec, run_dir, **kwargs):
    """``run_sweep`` drained through a coordinator serving ``run_dir``
    (what ``repro sweep serve <run_dir> --spec`` sets up)."""
    from repro.runtime import RunCheckpoint
    from repro.runtime.coordinator import running_coordinator
    from repro.sweeps import plan_sweep

    plan = plan_sweep(spec)
    RunCheckpoint(run_dir).initialize(plan.manifest(), resume=True)
    with running_coordinator(run_dir, unit_keys=[u.key for u in plan.units]) as server:
        return run_sweep(spec, backend="coordinator", coordinator=server.url, **kwargs)


class TestDistributedBackend:
    def test_pisa_distributed_matches_local(self, tmp_path):
        spec = SweepSpec(name="d", schedulers=("HEFT", "CPoP", "MinMin"), config=FAST, seed=3)
        local = run_sweep(spec, jobs=1)
        distributed = _over_coordinator(
            spec, tmp_path / "run", jobs=2, poll_interval=0.01, claim_batch=3
        )
        assert _ratios(local.pairwise) == _ratios(distributed.pairwise)
        for pair, res in local.pairwise.results.items():
            best = distributed.pairwise.results[pair].best_instance
            assert best.task_graph == res.best_instance.task_graph
            assert best.network == res.best_instance.network

    def test_benchmark_distributed_matches_local(self, tmp_path):
        spec = SweepSpec(
            name="d",
            mode="benchmark",
            schedulers=("CPoP", "HEFT"),
            source=SourceSpec("family", {"family": "fig7"}),
            num_instances=6,
            seed=2,
        )
        local = run_sweep(spec, jobs=1)
        distributed = _over_coordinator(spec, tmp_path / "run", jobs=2, poll_interval=0.01)
        for s in local.makespans:
            assert np.array_equal(local.makespans[s], distributed.makespans[s])

    def test_sequential_sampling_reconstructs_identically(self, tmp_path):
        """Sequential (dataset-style) sampling draws instances from one
        generator; a worker rebuilding the plan from the coordinator's
        manifest must land on the same instances."""
        spec = SweepSpec(
            name="d",
            mode="benchmark",
            schedulers=("HEFT",),
            source=SourceSpec("dataset", {"dataset": "chains"}),
            num_instances=4,
            sampling="sequential",
            seed=9,
        )
        local = run_sweep(spec, jobs=1)
        distributed = _over_coordinator(spec, tmp_path / "run")
        assert np.array_equal(local.makespans["HEFT"], distributed.makespans["HEFT"])

    def test_progress_fires_once_per_pair_after_completion(self, tmp_path):
        spec = SweepSpec(name="d", schedulers=("HEFT", "CPoP"), config=TINY, seed=1)
        calls = []
        _over_coordinator(
            spec, tmp_path / "run", progress=lambda t, b, r: calls.append((t, b))
        )
        assert sorted(calls) == [("CPoP", "HEFT"), ("HEFT", "CPoP")]

    def test_distributed_and_local_runs_share_the_manifest(self, tmp_path):
        """A directory a coordinator drained can be resumed/aggregated by
        the local backend: one manifest format, shards merged in."""
        spec = SweepSpec(name="d", schedulers=("HEFT", "CPoP"), config=TINY, seed=1)
        run_dir = tmp_path / "run"
        distributed = _over_coordinator(spec, run_dir)
        resumed = run_sweep(spec, run_dir=run_dir, resume=True, jobs=1)
        assert _ratios(distributed.pairwise) == _ratios(resumed.pairwise)
        with pytest.raises(ValueError, match="resume"):
            run_sweep(spec, run_dir=run_dir)  # fresh run still refused
