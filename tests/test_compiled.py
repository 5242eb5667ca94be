"""The array-compiled kernel's contract: bit-identical to the scalar code.

Three layers of evidence, strongest last:

1. **Table properties** (hypothesis): every entry of the compiled timing
   tables equals the reference ``exec_time``/``comm_time``/``mean_*``
   functions exactly — including the edge cases the conventions exist
   for (zero data, zero-strength links, infinite-strength links, a task
   talking to itself on one node).
2. **Query equivalence**: the batched ``est_all``/``eft_all`` sweeps
   agree element-for-element with the scalar queries, on both builder
   policies, mid-build.
3. **Schedule equivalence**: every registered scheduler produces the
   *identical* schedule on the compiled builder and on the frozen
   pre-compilation :class:`ReferenceScheduleBuilder`; a fixed-seed
   fig4-style sweep produces the identical ratio matrix; and everything
   matches the committed golden file generated by the pre-refactor code.
"""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InvalidInstanceError, Network, ProblemInstance, TaskGraph
from repro.core.compiled import (
    argmin_ranked,
    compile_instance,
    compile_stats,
    reset_compile_stats,
)
from repro.core.reference import ReferenceScheduleBuilder, use_reference_builder
from repro.core.scheduler import get_scheduler, list_schedulers
from repro.core.simulator import (
    ScheduleBuilder,
    comm_time,
    exec_time,
    mean_comm_time,
    mean_exec_time,
)
from repro.pisa import PISA, batch_energy, pairwise_comparison
from repro.schedulers import PAPER_SCHEDULERS
from repro.schedulers.common import upward_rank
from tests.equivalence import (
    FIG4_CONFIG,
    FIG4_SCHEDULERS,
    FIG4_SEED,
    GOLDEN_PATH,
    cases_for,
    compute_fig4_matrix,
    schedule_entries,
    standard_cases,
)
from tests.strategies import instances, networks, task_graphs


def edge_case_instance() -> ProblemInstance:
    """One instance exercising every comm_time convention at once.

    v1-v2 is a dead link (strength 0), v1-v3 is infinitely strong, v2-v3
    is ordinary; a->b carries zero data, a->c and b->c positive data.
    """
    tg = TaskGraph.from_dicts(
        {"a": 1.0, "b": 0.0, "c": 2.0},
        {("a", "b"): 0.0, ("a", "c"): 1.5, ("b", "c"): 0.75},
    )
    net = Network.from_speeds(
        {"v1": 1.0, "v2": 0.5, "v3": 2.0},
        strengths={
            ("v1", "v2"): 0.0,
            ("v1", "v3"): math.inf,
            ("v2", "v3"): 0.8,
        },
    )
    return ProblemInstance(net, tg, name="edge_cases")


def _assert_tables_match(inst: ProblemInstance) -> None:
    """Every table entry equals the scalar reference exactly; no entry is
    NaN, since a NaN equals nothing."""
    compiled = compile_instance(inst)
    tasks, nodes = compiled.tasks, compiled.nodes
    for t in tasks:
        tid = compiled.task_id[t]
        assert compiled.mean_exec(t) == mean_exec_time(inst, t)
        for v in nodes:
            vid = compiled.node_id[v]
            assert compiled.exec_tbl[tid, vid] == exec_time(inst, t, v)
            assert compiled.exec_list[tid][vid] == exec_time(inst, t, v)
    for u, v in inst.task_graph.dependencies:
        uid, vid = compiled.task_id[u], compiled.task_id[v]
        assert compiled.mean_comm(u, v) == mean_comm_time(inst, u, v)
        for nu in nodes:
            row = compiled.comm_row(compiled.data[(uid, vid)], compiled.node_id[nu])
            for nv in nodes:
                expected = comm_time(inst, u, v, nu, nv)
                assert (
                    compiled.comm(uid, vid, compiled.node_id[nu], compiled.node_id[nv])
                    == expected
                )
                # comm_row's only divergence is the diagonal, where the
                # infinite self-strength also divides to the exact 0.0.
                assert float(row[compiled.node_id[nv]]) == expected


class TestCompiledTables:
    def test_edge_case_conventions(self):
        _assert_tables_match(edge_case_instance())

    def test_single_node_network(self):
        tg = TaskGraph.from_dicts({"a": 1.0, "b": 2.0}, {("a", "b"): 3.0})
        net = Network.from_speeds({"only": 0.5})
        _assert_tables_match(ProblemInstance(net, tg))

    @settings(max_examples=60, deadline=None)
    @given(instances(min_tasks=1, max_tasks=6, min_nodes=1, max_nodes=4))
    def test_tables_match_reference(self, inst):
        _assert_tables_match(inst)

    @settings(max_examples=30, deadline=None)
    @given(
        instances(min_tasks=2, max_tasks=5, min_nodes=2, max_nodes=3),
        st.sampled_from([0.0, math.inf]),
        st.sampled_from([0.0, math.inf]),
    )
    def test_tables_match_on_degenerate_links(self, inst, strength, data_size):
        nodes = inst.network.nodes
        inst.network.set_strength(nodes[0], nodes[1], strength)
        deps = inst.task_graph.dependencies
        if deps:
            inst.task_graph.set_data_size(*deps[0], data_size)
        _assert_tables_match(inst)

    def test_infinite_data_size(self):
        """validate() accepts data_size=inf; inf/inf must not leak NaN."""
        tg = TaskGraph.from_dicts(
            {"a": 1.0, "b": 1.0}, {("a", "b"): math.inf}
        )
        net = Network.from_speeds(
            {"v1": 1.0, "v2": 1.0, "v3": 1.0},
            default_strength=1.0,
            strengths={("v1", "v2"): math.inf},
        )
        inst = ProblemInstance(net, tg, name="inf_data")
        _assert_tables_match(inst)
        new = ScheduleBuilder(inst, insertion=False)
        ref = ReferenceScheduleBuilder(inst, insertion=False)
        new.commit("a", "v1")
        ref.commit("a", "v1")
        drt_row = new.est_all("b")
        for vid, node in enumerate(inst.network.nodes):
            assert drt_row[vid] == ref.est("b", node)
        # Same node and the infinite v1-v2 link transfer for free; the
        # ordinary v1-v3 link never delivers infinite data.
        assert new.data_ready_time("b", "v1") == 1.0
        assert new.data_ready_time("b", "v2") == 1.0
        assert math.isinf(new.data_ready_time("b", "v3"))

    def test_infinite_cost_on_infinite_speed_node(self):
        """inf cost / inf speed is an undefined execution time (NaN), so
        validate() refuses the instance, and compiling and both builders
        refuse it with the same canonical error before any query.

        The first instance has a dead link (est('b', 'v1') would be inf),
        the second a live one (b would start at 2.0 and end at NaN).
        """
        tg = TaskGraph.from_dicts({"a": 1.0, "b": math.inf}, {("a", "b"): 1.0})
        dead = Network.from_speeds(
            {"v0": 1.0, "v1": math.inf}, strengths={("v0", "v1"): 0.0}
        )
        live = Network.from_speeds({"v0": 1.0, "v1": math.inf}, default_strength=1.0)
        message = (
            "execution time of task 'b' on node 'v1' is undefined "
            "(infinite cost over infinite speed)"
        )
        for net in (dead, live):
            inst = ProblemInstance(net, tg.copy(), name="nan_exec")
            for refuse in (
                inst.validate,
                lambda: compile_instance(inst),
                lambda: ScheduleBuilder(inst, insertion=False),
                lambda: ReferenceScheduleBuilder(inst, insertion=False),
            ):
                with pytest.raises(InvalidInstanceError) as info:
                    refuse()
                assert str(info.value) == message
            assert "_compiled_cache" not in inst.__dict__

    def test_infinite_data_bil_matches_reference(self):
        tg = TaskGraph.from_dicts(
            {"a": 1.0, "b": 2.0, "c": 1.0},
            {("a", "b"): math.inf, ("a", "c"): 1.0},
        )
        net = Network.from_speeds(
            {"v1": 1.0, "v2": 2.0},
            strengths={("v1", "v2"): math.inf},
        )
        inst = ProblemInstance(net, tg, name="inf_data_bil")
        compiled_entries = schedule_entries("BIL", inst)
        with use_reference_builder():
            reference_entries = schedule_entries("BIL", inst)
        assert compiled_entries == reference_entries

    def test_infinite_data_over_only_infinite_links_costs_nothing(self):
        """Infinite data crosses an infinitely strong link in time 0, so
        when every link is infinitely strong the mean communication time
        is 0, not ``inf * 0.0`` (NaN), and the ranks built on it stay
        finite on both builders."""
        tg = TaskGraph.from_dicts(
            {"a": 1.0, "b": 2.0, "c": 1.0},
            {("a", "b"): math.inf, ("a", "c"): 1.0},
        )
        net = Network.from_speeds(
            {"v1": 1.0, "v2": 2.0},
            strengths={("v1", "v2"): math.inf},
        )
        inst = ProblemInstance(net, tg, name="inf_data_free_links")
        inst.validate()
        assert mean_comm_time(inst, "a", "b") == 0.0
        assert compile_instance(inst).mean_comm("a", "b") == 0.0
        assert inst.mean_communication_time() == 0.0
        assert inst.ccr() == 0.0
        ranks = upward_rank(inst)
        assert all(math.isfinite(rank) for rank in ranks.values())
        with use_reference_builder():
            assert upward_rank(inst) == ranks


class TestCompileCache:
    def test_compile_is_cached(self):
        inst = edge_case_instance()
        assert compile_instance(inst) is compile_instance(inst)

    def test_mutation_invalidates(self):
        inst = edge_case_instance()
        before = compile_instance(inst)
        inst.task_graph.set_cost("a", 5.0)
        after = compile_instance(inst)
        assert after is not before
        assert after.exec_tbl[after.task_id["a"], after.node_id["v1"]] == 5.0

    def test_network_mutation_invalidates(self):
        inst = edge_case_instance()
        before = compile_instance(inst)
        inst.network.set_speed("v1", 4.0)
        assert compile_instance(inst) is not before

    def test_copy_does_not_share_cache(self):
        inst = edge_case_instance()
        compile_instance(inst)
        clone = inst.copy()
        assert getattr(clone, "_compiled_cache", None) is None
        clone.task_graph.set_cost("a", 9.0)
        assert compile_instance(inst).cost[0] == 1.0
        assert compile_instance(clone).cost[0] == 9.0

    def test_pickle_drops_cache(self):
        inst = edge_case_instance()
        compile_instance(inst)
        revived = pickle.loads(pickle.dumps(inst))
        assert getattr(revived, "_compiled_cache", None) is None
        assert revived == inst


class TestBatchQueries:
    @settings(max_examples=40, deadline=None)
    @given(
        instances(min_tasks=1, max_tasks=6, min_nodes=1, max_nodes=4),
        st.booleans(),
    )
    def test_est_eft_all_match_scalar(self, inst, insertion):
        builder = ScheduleBuilder(inst, insertion=insertion)
        nodes = inst.network.nodes
        for i, task in enumerate(inst.task_graph.topological_order()):
            est_row = builder.est_all(task)
            eft_row = builder.eft_all(task)
            avail_row = builder.node_available_all()
            for vid, node in enumerate(nodes):
                assert est_row[vid] == builder.est(task, node)
                assert eft_row[vid] == builder.eft(task, node)
                assert avail_row[vid] == builder.node_available(node)
            builder.commit(task, nodes[i % len(nodes)])

    def test_ready_tasks_and_makespan_incremental(self):
        inst = standard_cases()[2]
        new = ScheduleBuilder(inst, insertion=False)
        ref = ReferenceScheduleBuilder(inst, insertion=False)
        nodes = inst.network.nodes
        for i, task in enumerate(inst.task_graph.topological_order()):
            assert new.ready_tasks() == ref.ready_tasks()
            assert new.makespan() == ref.makespan()
            new.commit(task, nodes[i % len(nodes)])
            ref.commit(task, nodes[i % len(nodes)])
        assert new.makespan() == ref.makespan()
        assert new.ready_tasks() == [] and ref.ready_tasks() == []

    def test_argmin_helpers(self):
        values = np.array([2.0, 1.0, 1.0, 3.0])
        # Tie-break order: index 2 sorts before index 1.
        order = np.array([0, 2, 3, 1])
        assert argmin_ranked(values, order) == 2  # tie broken by order
        assert argmin_ranked(np.array([math.inf, math.inf]), np.array([1, 0])) == 1


class TestScheduleEquivalence:
    @pytest.mark.parametrize("name", list_schedulers())
    def test_scheduler_bit_identical_to_reference(self, name):
        for inst in cases_for(name):
            compiled_entries = schedule_entries(name, inst)
            with use_reference_builder():
                reference_entries = schedule_entries(name, inst)
            assert compiled_entries == reference_entries, (
                f"{name} diverged from the pre-compilation builder on {inst.name}"
            )

    def test_matches_pre_refactor_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        for name, per_instance in golden["schedules"].items():
            fresh = {
                inst.name: schedule_entries(name, inst) for inst in cases_for(name)
            }
            assert fresh == per_instance, f"{name} drifted from the committed golden"

    def test_fig4_sweep_matches_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert compute_fig4_matrix() == golden["fig4"]

    def test_fig4_sweep_matches_reference_builder(self):
        compiled_run = pairwise_comparison(
            FIG4_SCHEDULERS[:3], config=FIG4_CONFIG, rng=FIG4_SEED
        )
        with use_reference_builder():
            reference_run = pairwise_comparison(
                FIG4_SCHEDULERS[:3], config=FIG4_CONFIG, rng=FIG4_SEED
            )
        for pair, result in compiled_run.results.items():
            assert reference_run.results[pair].restart_ratios == result.restart_ratios


#: Instances for the order-exact property: the default positive-strength
#: networks, networks whose links may be dead (0.0) or free (inf), and
#: ones with infinite costs and speeds, which both builders must refuse
#: alike where an infinite cost meets an infinite speed (inf / inf is an
#: undefined execution time).
_degenerate_strengths = st.one_of(
    st.sampled_from([0.0, math.inf]), st.floats(min_value=0.05, max_value=2.0)
)
_order_exact_instances = st.one_of(
    instances(min_tasks=1, max_tasks=7, min_nodes=1, max_nodes=4),
    st.builds(
        lambda net, tg: ProblemInstance(net, tg, name="hypothesis-degenerate-links"),
        networks(min_nodes=1, max_nodes=4, strengths=_degenerate_strengths),
        task_graphs(min_tasks=1, max_tasks=7),
    ),
    st.builds(
        lambda net, tg: ProblemInstance(net, tg, name="hypothesis-inf-weights"),
        networks(
            min_nodes=1,
            max_nodes=4,
            strengths=_degenerate_strengths,
            speeds=st.one_of(st.just(math.inf), st.floats(min_value=0.05, max_value=2.0)),
        ),
        task_graphs(
            min_tasks=1,
            max_tasks=7,
            costs=st.one_of(
                st.sampled_from([0.0, math.inf]), st.floats(min_value=0.0, max_value=2.0)
            ),
        ),
    ),
)

#: Schedulers whose reference runs touch no compiled kernel (the rank
#: helpers, priority orders and topological walks all go through the
#: hook use_reference_builder swaps).  BIL, FCP, FLB and GDL read
#: compiled tables directly and compile even there.
_COMPILE_FREE_REFERENCE = [
    "CPoP", "Duplex", "ETF", "Ensemble", "FastestNode", "HEFT",
    "MCT", "MET", "MaxMin", "MinMin", "OLB", "WBA",
]


def _schedule_or_error(scheduler, inst):
    """``scheduler``'s schedule of ``inst``, or the exception it raised."""
    try:
        return scheduler.schedule(inst)
    except Exception as exc:
        return exc


class TestOrderExactEquivalence:
    """The handed-over Schedule is the reference's add()-built one, order
    included: same entries in the same iteration order, same node and
    task order, same makespan repr.  Entries compare by ``repr``, which
    is stricter than ``==``: it tells ``-0.0`` from ``0.0``."""

    @pytest.mark.parametrize("name", PAPER_SCHEDULERS)
    @settings(max_examples=40, deadline=None)
    @given(inst=_order_exact_instances)
    def test_schedule_order_exact_vs_reference(self, name, inst):
        scheduler = get_scheduler(name)
        fresh = _schedule_or_error(scheduler, inst)
        with use_reference_builder():
            reference = _schedule_or_error(scheduler, inst)
        if isinstance(fresh, Exception) or isinstance(reference, Exception):
            # A scheduler that refuses an instance refuses it on both
            # builders, with the same error.
            assert repr(fresh) == repr(reference)
            return
        assert [repr(e) for e in fresh] == [repr(e) for e in reference]
        assert fresh.nodes == reference.nodes
        assert fresh.tasks == reference.tasks
        assert repr(fresh.makespan) == repr(reference.makespan)

    @pytest.mark.parametrize("name", PAPER_SCHEDULERS)
    def test_nan_finish_time_does_not_win_the_eft_choice(self, name):
        """An infinite cost on an infinite-speed node would finish at NaN
        (inf / inf), where an argmin over finish times and the
        reference's min() over nodes disagree.  Such instances are
        refused instead: every scheduler raises validate()'s error on
        both builders.  The minimal cases: a(1) -> b(inf) over speeds 1
        and inf; a(inf) -> b(1) over speeds inf and 1; independent a(inf)
        and b(1) on one inf-speed node; a lone a(inf) on one."""
        cases = [
            ({"v0": 1.0, "v1": math.inf}, {"a": 1.0, "b": math.inf}, {("a", "b"): 1.0}),
            ({"v1": math.inf, "v0": 1.0}, {"a": math.inf, "b": 1.0}, {("a", "b"): 1.0}),
            ({"v1": math.inf}, {"a": math.inf, "b": 1.0}, {}),
            ({"v1": math.inf}, {"a": math.inf}, {}),
        ]
        scheduler = get_scheduler(name)
        for speeds, costs, deps in cases:
            net = Network.from_speeds(speeds, default_strength=1.0)
            inst = ProblemInstance(net, TaskGraph.from_dicts(costs, deps), name="nan-eft")
            with pytest.raises(InvalidInstanceError) as fresh:
                scheduler.schedule(inst)
            with use_reference_builder(), pytest.raises(InvalidInstanceError) as reference:
                scheduler.schedule(inst)
            task = next(t for t, cost in costs.items() if math.isinf(cost))
            assert str(fresh.value) == str(reference.value) == (
                f"execution time of task {task!r} on node 'v1' is undefined "
                "(infinite cost over infinite speed)"
            )

    @pytest.mark.parametrize("name", _COMPILE_FREE_REFERENCE)
    def test_reference_run_compiles_nothing(self, name):
        """Inside use_reference_builder() these schedulers are oracle-
        independent: no compile, delta or compile-cache hit, so the
        equivalence suites never compare the compiled code with itself."""
        cases = standard_cases()
        with use_reference_builder():
            reset_compile_stats()
            for inst in cases:
                get_scheduler(name).schedule(inst)
            stats = compile_stats()
        assert stats == {"full": 0, "delta": 0, "cache_hits": 0}


class TestBatchEnergy:
    def test_matches_scalar_energy(self):
        pisa = PISA("HEFT", "CPoP")
        population = standard_cases()
        energies = batch_energy(pisa.target, pisa.baseline, population)
        assert energies.dtype == np.float64
        assert list(energies) == [pisa.energy(inst) for inst in population]

    def test_accepts_names(self):
        population = standard_cases()[:2]
        named = batch_energy("HEFT", "CPoP", population)
        pisa = PISA("HEFT", "CPoP")
        assert list(named) == [pisa.energy(inst) for inst in population]
