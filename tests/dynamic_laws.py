"""An independent checker for realized dynamic traces.

:func:`check_laws` reads only the problem instance, the
:class:`~repro.core.dynamic.DynamicsSpec`, the replay seed and the
:class:`~repro.core.dynamic.DynamicResult`; it never looks at the plan or
at the engine.  It asserts the laws of the replay model documented in
:mod:`repro.core.dynamic.simulator`:

* the event log is in time order, and a node runs one task at a time;
* a failed node starts and finishes nothing after its ``node-fail``
  (all victims fail at one time; random victims are the first
  ``count`` entries of the permutation drawn after the noise factors);
* a task starts after every predecessor finished and its output crossed
  the link: no earlier than ``end + data / strength``.  Under
  ``contention="none"`` the start is exactly the later of that arrival
  (over all predecessors) and the node's previous finish; under ``fifo``
  and ``fair`` the arrival is a lower bound (``fair`` within rounding);
* a transfer is issued at its producer's finish, from its producer's node;
* a realized duration is ``(cost / speed * error) * slow``, with the
  factors re-drawn from the seed in the documented order: slowdowns in
  node order, then errors in task order;
* the entries, ``makespan``, ``unfinished`` and ``failed_nodes`` agree
  with the event log.

The laws of reassigned tasks are not covered: a ``fate="reassign"``
replay can deadlock (the known defect in the simulator's docstring), and
its laws land with that fix.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.dynamic import DynamicResult, DynamicsSpec, NoiseSpec
from repro.core.instance import ProblemInstance

__all__ = ["check_laws"]

#: Relative slack for ``fair`` arrivals, whose remaining volumes are
#: advanced in several rounded steps.
_FAIR_SLACK = 1e-9


def _factors(noise: NoiseSpec, gen: np.random.Generator | None, n: int) -> list[float]:
    """``n`` factors of ``noise``, drawn as the spec documents."""
    if noise.kind == "uniform":
        return gen.uniform(noise.low, noise.high, size=n).tolist()
    if noise.kind == "gaussian":
        values = gen.normal(1.0, noise.std, size=n) if noise.std > 0 else np.ones(n)
        return np.clip(values, noise.low, noise.high).tolist()
    return [1.0] * n


def check_laws(
    instance: ProblemInstance,
    spec: DynamicsSpec,
    seed: int | None,
    result: DynamicResult,
) -> None:
    """Assert that ``result`` is a lawful replay under ``spec`` and ``seed``."""
    failures = spec.failures
    if failures.active and failures.fate == "reassign":
        raise ValueError("check_laws does not cover fate='reassign'")
    tg, net = instance.task_graph, instance.network
    tasks, nodes = tg.tasks, net.nodes
    task_of = {str(t): t for t in tasks}
    node_of = {str(v): v for v in nodes}

    gen = np.random.default_rng(seed) if spec.needs_rng else None
    slow = dict(zip(nodes, _factors(spec.slowdown, gen, len(nodes))))
    error = dict(zip(tasks, _factors(spec.error, gen, len(tasks))))

    started: dict = {}  # task -> (time, node)
    finished: dict = {}  # task -> (time, node)
    node_free: dict = {}  # task -> its node's previous finish when it started
    running = {v: None for v in nodes}
    last_finish = {v: 0.0 for v in nodes}
    failed: dict = {}  # node -> node-fail time
    lost = []
    now = 0.0
    for event in result.events:
        kind, time = event[0], event[1]
        assert time >= now, f"event log goes back in time at {event}"
        now = time
        if kind == "start":
            task, node = task_of[event[2]], node_of[event[3]]
            assert node not in failed, f"dead node starts a task: {event}"
            assert running[node] is None, f"{node!r} is running {running[node]!r}: {event}"
            assert task not in started, f"task starts twice: {event}"
            running[node] = task
            started[task] = (time, node)
            node_free[task] = last_finish[node]
        elif kind == "finish":
            task, node = task_of[event[2]], node_of[event[3]]
            assert node not in failed, f"dead node finishes a task: {event}"
            assert running[node] == task, f"{task!r} is not running on {node!r}: {event}"
            running[node] = None
            last_finish[node] = time
            finished[task] = (time, node)
        elif kind == "node-fail":
            node = node_of[event[2]]
            assert node not in failed, f"node fails twice: {event}"
            assert all(t == time for t in failed.values()), f"victims fail apart: {event}"
            failed[node] = time
        elif kind == "xfer-start":
            src, dst = task_of[event[2]], task_of[event[3]]
            src_node, dst_node = node_of[event[4]], node_of[event[5]]
            assert spec.contention != "none", f"link transfer without contention: {event}"
            assert finished.get(src) == (time, src_node), f"not at the producer's finish: {event}"
            assert src_node != dst_node, f"same-node transfer on a link: {event}"
            assert dst not in started, f"transfer toward a started task: {event}"
        elif kind == "xfer-arrive":
            assert spec.contention != "none", f"link arrival without contention: {event}"
        elif kind == "task-lost":
            assert failed and time in failed.values(), f"task lost without a failure: {event}"
            lost.append(task_of[event[2]])
        else:
            raise AssertionError(f"unexpected event kind: {event}")

    # Failures: how many victims, and which ones when they are random.
    if failed:
        assert failures.active, "a node failed under a spec without failures"
        assert len(failed) == min(failures.count, len(nodes)), sorted(map(str, failed))
        if failures.pick == "random":
            victims = gen.permutation(len(nodes)).tolist()[: failures.count]
            assert set(failed) == {nodes[v] for v in victims}, sorted(map(str, failed))

    # Durations: the realized factors re-drawn from the seed.
    for task, (end, node) in finished.items():
        start, start_node = started[task]
        assert start_node == node, f"{task!r} started on {start_node!r}, finished on {node!r}"
        duration = tg.cost(task) / net.speed(node) * error[task] * slow[node]
        assert end == start + duration, f"{task!r}: {end!r} != {start!r} + {duration!r}"

    # Precedence: every input arrived before the start.
    for task, (start, node) in started.items():
        arrivals = [node_free[task]]
        for pred in tg.predecessors(task):
            assert pred in finished, f"{task!r} starts before {pred!r} finished"
            end, pred_node = finished[pred]
            data = tg.data_size(pred, task)
            if pred_node == node or data == 0.0:
                arrival = end
            else:
                arrival = end + data / net.strength(pred_node, node)
            arrivals.append(arrival)
            if spec.contention == "fair":
                slack = _FAIR_SLACK * max(1.0, abs(arrival))
                assert start >= arrival - slack, f"{task!r} starts before {pred!r}'s data"
            else:
                assert start >= arrival, f"{task!r} starts before {pred!r}'s data"
        if spec.contention == "none":
            assert start == max(arrivals), f"{task!r} starts at {start!r}, not {max(arrivals)!r}"

    # The result's summary fields agree with the log.
    makespan = 0.0
    for task, entry in zip(tasks, result.entries):
        assert entry.task == task, f"entries out of task order at {entry}"
        if task in finished:
            assert (entry.start, entry.end, entry.node) == (*started[task][:1], *finished[task])
            if entry.end > makespan:
                makespan = entry.end
        else:
            assert (entry.start, entry.end) == (math.inf, math.inf), entry
            if task in started:
                assert entry.node == started[task][1], entry
            makespan = math.inf
    assert len(result.entries) == len(tasks)
    assert repr(result.makespan) == repr(makespan)
    assert result.unfinished == tuple(t for t in tasks if t not in finished)
    assert set(lost) <= set(result.unfinished), lost
    assert result.failed_nodes == tuple(v for v in nodes if v in failed)
