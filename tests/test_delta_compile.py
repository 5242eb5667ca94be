"""Delta-compilation contract: ``apply_delta`` == a fresh compile.

The annealer scores weight-move candidates on tables built by
:meth:`CompiledInstance.apply_delta` instead of recompiling, so the
clone must be *bit-identical* to a fresh compile of the perturbed
instance — every table, list mirror, and scalar aggregate — for every
delta kind a perturbation can emit.  Hypothesis drives instances and
deltas; equality is exact (``==``), never approximate.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import (
    CompiledInstance,
    compile_instance,
    compile_stats,
    reset_compile_stats,
)
from repro.core.exceptions import InvalidInstanceError
from repro.pisa.perturbations import MIN_NODE_SPEED, Delta, PlannedMove, apply_delta_mutation

from tests.strategies import instances

#: Every array/list/scalar a delta clone could plausibly get wrong.
_COMPARED = (
    "cost",
    "cost_list",
    "speed",
    "exec_tbl",
    "exec_list",
    "strength",
    "strength_row_has_zero",
    "data",
    "pred_edges",
    "_mean_inv_speed",
    "_inv_strength_sum",
    "_links_have_zero",
)

_values = st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False)


def _assert_clone_equals_fresh(parent_inst, delta: Delta) -> None:
    parent = compile_instance(parent_inst)
    perturbed = parent_inst.copy()
    apply_delta_mutation(perturbed, delta)
    clone = parent.apply_delta(delta, instance=perturbed)
    assert clone is not None, f"apply_delta rejected a legal delta {delta}"
    assert compile_instance(perturbed) is clone  # bound as the copy's cache
    fresh = CompiledInstance(perturbed)

    for name in _COMPARED:
        got, want = getattr(clone, name), getattr(fresh, name)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape, name
            # Bit-exact: NaN-free by construction here, == suffices.
            assert (got == want).all(), f"{name} diverged for {delta}"
        else:
            assert got == want, f"{name} diverged for {delta}"
    # Structure is shared by construction; assert it anyway (cheap).
    assert clone.tasks == fresh.tasks
    assert clone.nodes == fresh.nodes
    assert clone.pred_ids == fresh.pred_ids


@settings(max_examples=60, deadline=None)
@given(inst=instances(min_tasks=1, max_tasks=6), value=_values, data=st.data())
def test_task_weight_delta_matches_fresh_compile(inst, value, data):
    tasks = inst.task_graph.tasks
    task = data.draw(st.sampled_from(list(tasks)))
    _assert_clone_equals_fresh(inst, Delta("task_weight", (task,), value))


@settings(max_examples=60, deadline=None)
@given(inst=instances(min_tasks=2, max_tasks=6), value=_values, data=st.data())
def test_dep_weight_delta_matches_fresh_compile(inst, value, data):
    deps = inst.task_graph.dependencies
    if not deps:
        return
    src, dst = data.draw(st.sampled_from(list(deps)))
    _assert_clone_equals_fresh(inst, Delta("dep_weight", (src, dst), value))


@settings(max_examples=60, deadline=None)
@given(
    inst=instances(min_tasks=1, max_tasks=5, min_nodes=1, max_nodes=4),
    value=st.floats(
        min_value=MIN_NODE_SPEED, max_value=2.0, allow_nan=False, allow_infinity=False
    ),
    data=st.data(),
)
def test_node_speed_delta_matches_fresh_compile(inst, value, data):
    node = data.draw(st.sampled_from(list(inst.network.nodes)))
    _assert_clone_equals_fresh(inst, Delta("node_speed", (node,), value))


@settings(max_examples=60, deadline=None)
@given(
    inst=instances(min_tasks=1, max_tasks=5, min_nodes=2, max_nodes=4),
    value=_values,
    data=st.data(),
)
def test_link_strength_delta_matches_fresh_compile(inst, value, data):
    links = inst.network.links
    if not links:
        return
    u, v = data.draw(st.sampled_from(list(links)))
    _assert_clone_equals_fresh(inst, Delta("link_strength", (u, v), value))


# --------------------------------------------------------------------- #
# Rejections and bookkeeping
# --------------------------------------------------------------------- #
def _tiny_instance():
    from repro import Network, ProblemInstance, TaskGraph

    tg = TaskGraph()
    tg.add_task("a", 1.0)
    tg.add_task("b", 0.5)
    tg.add_dependency("a", "b", 0.25)
    net = Network()
    net.add_node("x", 1.0)
    net.add_node("y", 2.0)
    net.set_strength("x", "y", 1.0)
    return ProblemInstance(net, tg, name="tiny")


@pytest.mark.parametrize(
    "delta",
    [
        Delta("task_weight", ("missing",), 1.0),
        Delta("task_weight", ("a",), -0.5),
        Delta("dep_weight", ("a", "missing"), 1.0),
        Delta("dep_weight", ("b", "a"), 1.0),  # not an edge
        Delta("node_speed", ("x",), 0.0),  # speeds must stay positive
        Delta("node_speed", ("missing",), 1.0),
        Delta("link_strength", ("x", "x"), 1.0),  # self-link
        Delta("link_strength", ("x", "y"), -1.0),
        Delta("no_such_kind", ("a",), 1.0),
    ],
)
def test_apply_delta_rejects_illegal(delta):
    inst = _tiny_instance()
    compiled = compile_instance(inst)
    copy = inst.copy()
    assert compiled.apply_delta(delta, instance=copy) is None
    assert "_compiled_cache" not in copy.__dict__  # left to a full compile


@pytest.mark.parametrize(
    "setup, delta",
    [
        (Delta("node_speed", ("y",), math.inf), Delta("task_weight", ("a",), math.inf)),
        (Delta("task_weight", ("b",), math.inf), Delta("node_speed", ("y",), math.inf)),
    ],
    ids=["task_weight", "node_speed"],
)
def test_apply_delta_refuses_an_undefined_execution_time(setup, delta):
    """An inf cost meeting an inf speed (inf / inf) is left to the full
    compile, which raises validate()'s canonical error."""
    inst = _tiny_instance()
    apply_delta_mutation(inst, setup)  # legal on its own
    compiled = compile_instance(inst)
    copy = inst.copy()
    apply_delta_mutation(copy, delta)
    assert compiled.apply_delta(delta, instance=copy) is None
    assert "_compiled_cache" not in copy.__dict__
    with pytest.raises(InvalidInstanceError) as refused:
        compile_instance(copy)
    assert str(refused.value).endswith("is undefined (infinite cost over infinite speed)")
    with pytest.raises(InvalidInstanceError) as canonical:
        copy.validate()
    assert str(refused.value) == str(canonical.value)


def test_compile_stats_counters():
    reset_compile_stats()
    inst = _tiny_instance()
    compiled = compile_instance(inst)  # full
    compile_instance(inst)  # cache hit
    clone = compiled.apply_delta(Delta("task_weight", ("a",), 0.75), instance=inst.copy())
    assert clone is not None
    stats = compile_stats()
    assert stats["full"] == 1
    assert stats["cache_hits"] == 1
    assert stats["delta"] == 1


def test_delta_clone_binds_to_the_copy():
    inst = _tiny_instance()
    compiled = compile_instance(inst)
    delta = Delta("task_weight", ("a",), 0.75)
    perturbed = inst.copy()
    apply_delta_mutation(perturbed, delta)
    clone = compiled.apply_delta(delta, instance=perturbed)
    assert clone.instance is perturbed
    assert clone.matches(perturbed)
    # The clone is the copy's compile cache; the parent keeps its own.
    assert compile_instance(perturbed) is clone
    assert compile_instance(inst) is compiled


def test_materialize_delta_compiles_off_a_compiled_parent():
    inst = _tiny_instance()
    compile_instance(inst)
    move = PlannedMove("change_task_weight", delta=Delta("task_weight", ("a",), 0.75))
    reset_compile_stats()
    out = move.materialize(inst)
    assert compile_instance(out).cost_list == [0.75, 0.5]
    assert compile_stats() == {"full": 0, "delta": 1, "cache_hits": 1}
