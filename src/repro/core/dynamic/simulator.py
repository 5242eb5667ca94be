"""Deterministic discrete-event replay of static schedules under dynamics.

:func:`simulate_schedule` takes a planned :class:`~repro.core.schedule.Schedule`
(the task-to-node mapping plus each node's execution order) and re-executes
it through an event queue under a :class:`~repro.core.dynamic.spec.DynamicsSpec`:
link bandwidth contention, runtime-estimate error, node slowdown, and node
failure.  It is the "what actually happens" half of the model; the static
:class:`~repro.core.simulator.ScheduleBuilder` is the "what the planner
assumed" half.

Event model
-----------
* A node executes its tasks strictly in the planned order (sorted by
  planned start time, ties by ``str(task)`` — the same order
  :func:`repro.stochastic.replay_schedule` has always used).  A task starts
  the moment its node is free *and* all of its inputs have arrived.
* When a task finishes, one transfer per successor is issued toward the
  successor's (current) node.  Same-node, zero-data, and infinite-strength
  transfers arrive instantly; positive data over a zero-strength link never
  arrives.  Otherwise the transfer occupies the link: under
  ``contention="none"`` it takes ``data / strength`` regardless of other
  traffic; under ``"fair"`` all concurrent transfers on a link share its
  strength equally (processor sharing); under ``"fifo"`` the link serves
  one transfer at a time in arrival order.
* Node failures hit all victims at ``failures.at`` times the planned
  makespan.  A completed task's output data survives its node (compute
  fails, storage does not), but unfinished tasks are affected: with
  ``fate="stall"`` they simply never complete; with ``fate="reassign"``
  they restart from scratch on the fastest surviving node, re-fetching
  every input at failure time.  In-flight transfers toward a dead or
  reassigned destination are cancelled (freeing fair-share capacity; a
  FIFO link finishes its current send before serving the next).

Known defect (reassign deadlock): rescued tasks join the *back* of the
rescue node's planned queue, which runs strictly in order, so a planned
task there that waits on a rescued predecessor blocks it forever (both
stay unfinished; the makespan is infinite).  A strict xfail in
``tests/test_dynamic.py`` pins the minimal case.  The fix changes
realized makespans, so it must ship with regenerated golden digests.

Engine
------
The replay runs on the dense integer ids of
:func:`~repro.core.compiled.compile_instance` — the same tables the plan
was built from, so in sweeps and the robustness-gap energy the compile is
a cache hit.  Run state is one list per task or node id, heap payloads
carry ids, a duration is ``exec_list[t][v]`` (the IEEE quotient
``cost / speed``), and names reach the event log through ``str()`` tables.
The event model, the ``seq`` numbering, the draw order and the float
operations are those of the dict-keyed engine it replaced;
``tests/test_dynamic_equivalence.py`` checks every result field against a
frozen copy of that engine.

A replay has two halves.  The *plan* (``_Plan``) is everything that does
not depend on the seed: the schedule checks, each task's node, the
per-node queues, the failure time and most-loaded victims, the per-edge
successor data, the name tables and one link key per node pair.  The
*sample* (``_Replay``) is the seed's draws and the run state: fresh lists,
with copies of the assignment and the queues, which a ``reassign``
failure rewrites.  Sweeps and the robustness-gap energy replay each
schedule ``samples`` times in a row, so :func:`simulate_schedule` keeps
the last plan in a one-entry cache keyed by

* the ``Schedule`` object and its length (:meth:`Schedule.add
  <repro.core.schedule.Schedule.add>`, its only mutator, always adds a
  task),
* the ``CompiledInstance`` object (``compile_instance`` returns a new one
  after any mutation of the instance), and
* an equal ``DynamicsSpec``.

The cache holds strong references, so an identity never matches a
recycled object; a plan is never written after it is built, and one that
fails its checks is not cached.  Every call still compiles (a cache hit)
and draws exactly as an uncached replay would.

Determinism rules
-----------------
The replay is a pure function of ``(schedule, instance, dynamics, rng)``:

* every queued event carries an integer sequence number assigned at push
  time; the heap orders by ``(time, seq)``, so simultaneous events resolve
  in creation order — never by hash or dict order;
* all iteration is over task-graph / network insertion order or planned
  queue order; no wall clock is ever read;
* random draws happen *up front*, in a fixed order — node slowdown factors
  (network node order), then task duration-error factors (task-graph
  order), then random failure victims — so the realized factors do not
  depend on event interleaving.  Draws are skipped entirely for inactive
  components, and a spec whose components are all inactive never touches
  the RNG.

Degenerate equivalence
----------------------
Under the all-defaults ``DynamicsSpec()`` (exact durations, contention
off, no failures) the realized entries are bit-identical to the planned
schedule for any schedule built through
:class:`~repro.core.simulator.ScheduleBuilder` earliest-start commits:
every arrival is computed with the same IEEE operations as the builder's
data-ready fold (``end + data / strength`` with the ``comm_time``
conventions), and a task's realized start is the exact float maximum of
its enabling event times.  ``tests/test_dynamic.py`` pins this for all
registered schedulers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from repro.core.compiled import CompiledInstance, compile_instance
from repro.core.dynamic.spec import DynamicsSpec
from repro.core.exceptions import SchedulingError
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule, ScheduledTask
from repro.utils.rng import as_generator

__all__ = ["DynamicResult", "simulate_schedule", "sample_seed_stream"]


def sample_seed_stream(rng, samples: int) -> list[int]:
    """Per-sample replay seeds drawn from one stream.

    Replaying two schedulers' schedules with the *same* seed list gives
    them common random numbers: identical duration-error factors,
    slowdowns, and failure picks per sample — the fair comparison
    protocol used by dynamic sweeps and the robustness-gap objective.
    """
    gen = as_generator(rng)
    return [int(s) for s in gen.integers(0, 2**63 - 1, size=samples)]


@dataclass(frozen=True)
class DynamicResult:
    """What one replay produced.

    ``entries`` holds one realized :class:`ScheduledTask` per task —
    reassigned tasks carry their rescue node; tasks that never complete
    carry infinite start/end.  ``events`` is the full ordered event log
    (tuples of ``(kind, time, *details)``), identical across reruns of
    the same ``(schedule, instance, dynamics, rng)``.
    """

    makespan: float
    entries: tuple[ScheduledTask, ...]
    events: tuple[tuple, ...]
    failed_nodes: tuple
    unfinished: tuple

    def schedule(self) -> Schedule:
        """The realized entries as a :class:`Schedule`."""
        out = Schedule()
        for entry in self.entries:
            out.add(entry.task, entry.node, entry.start, entry.end)
        return out


# ---------------------------------------------------------------------- #
# Link contention state
# ---------------------------------------------------------------------- #
# Heap event kinds.  The heap orders by (time, seq) alone; seq is unique,
# so a kind is never compared.
_FINISH, _ARRIVE, _FAIR_DONE, _FIFO_DONE, _FAIL = range(5)


class _Transfer:
    __slots__ = ("remaining", "dst_task", "dst_node", "version", "cancelled")

    def __init__(self, data: float, dst_task: int, dst_node: int) -> None:
        self.remaining = data
        self.dst_task = dst_task
        self.dst_node = dst_node
        self.version = 0
        self.cancelled = False


class _FairLink:
    """Processor sharing: active transfers split the strength equally.

    A link pushes its completion events straight onto its replay's heap,
    numbered by the replay's ``next_seq``.
    """

    __slots__ = ("strength", "active", "last_update", "heap", "next_seq")

    def __init__(self, strength: float, heap: list, next_seq) -> None:
        self.strength = strength
        self.active: list[_Transfer] = []
        self.last_update = 0.0
        self.heap = heap
        self.next_seq = next_seq

    def advance(self, now: float) -> None:
        elapsed = now - self.last_update
        if elapsed > 0.0 and self.active:
            rate = self.strength / len(self.active)
            for tr in self.active:
                left = tr.remaining - rate * elapsed
                # max(left, 0.0), NaN and -0.0 included
                tr.remaining = 0.0 if left < 0.0 else left
        self.last_update = now

    def reschedule(self, now: float) -> None:
        active = self.active
        if not active:
            return
        rate = self.strength / len(active)
        heap, next_seq = self.heap, self.next_seq
        for tr in active:
            tr.version += 1
            heappush(
                heap, (now + tr.remaining / rate, next_seq(), _FAIR_DONE, (self, tr, tr.version))
            )

    def add(self, now: float, tr: _Transfer) -> None:
        self.advance(now)
        self.active.append(tr)
        self.reschedule(now)

    def remove(self, now: float, tr: _Transfer) -> None:
        self.advance(now)
        self.active.remove(tr)
        self.reschedule(now)


class _FifoLink:
    """Exclusive use in arrival order: one transfer at a time, full strength."""

    __slots__ = ("strength", "serving", "queue", "heap", "next_seq")

    def __init__(self, strength: float, heap: list, next_seq) -> None:
        self.strength = strength
        self.serving: _Transfer | None = None
        self.queue: list[_Transfer] = []
        self.heap = heap
        self.next_seq = next_seq

    def serve(self, now: float, tr: _Transfer) -> None:
        self.serving = tr
        done = now + tr.remaining / self.strength
        heappush(self.heap, (done, self.next_seq(), _FIFO_DONE, (self, tr)))

    def add(self, now: float, tr: _Transfer) -> None:
        if self.serving is None:
            self.serve(now, tr)
        else:
            self.queue.append(tr)

    def pop_next(self, now: float) -> None:
        self.serving = None
        while self.queue:
            tr = self.queue.pop(0)
            if not tr.cancelled:
                self.serve(now, tr)
                return


# ---------------------------------------------------------------------- #
# The replay engine: a plan per schedule, a run per sample
# ---------------------------------------------------------------------- #
class _Plan:
    """What a replay derives from the schedule, instance and spec alone.

    Built once per distinct ``(schedule, compiled instance, spec)`` and
    shared by every sample replayed from it, so nothing here is written
    after construction: a :class:`_Replay` copies what it mutates.
    """

    __slots__ = (
        "tasks",
        "nodes",
        "assignment",
        "queues",
        "fail_time",
        "fail_count",
        "victims",
        "random_victims",
        "exec_list",
        "strength",
        "succ_edges",
        "pred_edges",
        "npreds",
        "speed",
        "task_names",
        "node_names",
        "link_keys",
    )

    def __init__(
        self, schedule: Schedule, compiled: CompiledInstance, dynamics: DynamicsSpec
    ) -> None:
        self.tasks = tasks = compiled.tasks
        self.nodes = nodes = compiled.nodes
        task_id, node_id = compiled.task_id, compiled.node_id

        planned = {entry.task: entry for entry in schedule}
        missing = [t for t in tasks if t not in planned]
        if missing:
            raise SchedulingError(
                f"schedule leaves instance tasks unscheduled: {sorted(map(str, missing))}"
            )
        if len(planned) > len(tasks):  # every task is planned: the rest are unknown
            extra = [t for t in planned if t not in task_id]
            raise SchedulingError(
                f"schedule contains unknown tasks: {sorted(map(str, extra))}"
            )
        assignment = [0] * len(tasks)
        for task, entry in planned.items():
            node = node_id.get(entry.node)
            if node is None:
                raise SchedulingError(f"schedule uses unknown node {entry.node!r}")
            assignment[task_id[task]] = node
        self.assignment = tuple(assignment)

        # Planned per-node execution order: global start-time order (ties
        # by str(task)), exactly replay_schedule's historical commit order.
        queues: list[list[int]] = [[] for _ in nodes]
        for entry in sorted(planned.values(), key=lambda e: (e.start, str(e.task))):
            tid = task_id[entry.task]
            queues[assignment[tid]].append(tid)
        self.queues = tuple(tuple(q) for q in queues)

        # Failure time and most-loaded victims; random victims are drawn
        # per sample, after the noise factors.
        static_makespan = schedule.makespan
        self.fail_time = math.inf
        self.fail_count = 0
        self.victims: tuple[int, ...] = ()
        self.random_victims = False
        failures = dynamics.failures
        if failures.active and math.isfinite(static_makespan) and static_makespan > 0.0:
            self.fail_time = failures.at * static_makespan
            self.fail_count = count = min(failures.count, len(nodes))
            if failures.pick == "random":
                self.random_victims = True
            else:  # most-loaded: largest planned busy time, ties by node order
                load = [0.0] * len(nodes)
                for entry in planned.values():
                    busy = math.inf if math.isinf(entry.end) else entry.end - entry.start
                    load[node_id[entry.node]] += busy
                order = sorted(range(len(nodes)), key=lambda v: -load[v])
                self.victims = tuple(order[:count])

        # Compiled tables, per-edge data and name tables.
        data = compiled.data
        self.exec_list = compiled.exec_list
        self.strength = compiled.strength.tolist()
        self.succ_edges = tuple(
            tuple((s, data[(t, s)]) for s in succs) for t, succs in enumerate(compiled.succ_ids)
        )
        self.pred_edges = compiled.pred_edges
        self.npreds = tuple(len(ps) for ps in compiled.pred_ids)
        self.speed = compiled.speed.tolist()
        self.task_names = [str(t) for t in tasks]
        self.node_names = names = [str(v) for v in nodes]
        # One contention link per node pair, keyed by the pair in name order.
        self.link_keys = [
            [(u, v) if names[u] <= names[v] else (v, u) for v in range(len(nodes))]
            for u in range(len(nodes))
        ]


class _Replay:
    """One sample of a plan: its up-front draws and its run state."""

    def __init__(self, plan: _Plan, dynamics: DynamicsSpec, rng) -> None:
        self.plan = plan
        n_tasks, n_nodes = len(plan.tasks), len(plan.nodes)

        # --- up-front draws, in the documented order -------------------- #
        gen = None
        if dynamics.needs_rng:
            if rng is None:
                raise SchedulingError(
                    "this DynamicsSpec draws random numbers; pass an explicit "
                    "rng (seed or Generator) so the replay is reproducible"
                )
            gen = as_generator(rng)
        # Inactive components yield 1.0 factors without drawing; x * 1.0
        # is exactly x, so durations need no branch.
        self.slow = dynamics.slowdown.draw(gen, n_nodes)
        self.error = dynamics.error.draw(gen, n_tasks)
        self.victims = plan.victims
        if plan.random_victims:
            self.victims = tuple(gen.permutation(n_nodes).tolist()[: plan.fail_count])
        self.contention = dynamics.contention
        self.reassign = dynamics.failures.fate == "reassign"

        # --- run state; on_fail rewrites assignment and queues ---------- #
        self.assignment = list(plan.assignment)
        self.queues = [list(queue) for queue in plan.queues]
        self.heap: list = []
        self.next_seq = itertools.count().__next__
        self.events: list[tuple] = []
        self.pending = list(plan.npreds)
        self.qpos = [0] * n_nodes
        self.busy = [False] * n_nodes
        self.dead = [False] * n_nodes
        self.stalled = [False] * n_tasks  # tasks that will never run (stall fate)
        self.start_time = [math.inf] * n_tasks
        self.end_time: list[float | None] = [None] * n_tasks  # None: not finished
        self.task_version = [0] * n_tasks
        self.links: dict = {}

    # ------------------------------------------------------------------ #
    def run(self) -> DynamicResult:
        plan = self.plan
        heap, next_seq = self.heap, self.next_seq
        if math.isfinite(plan.fail_time):
            heappush(heap, (plan.fail_time, next_seq(), _FAIL, self.victims))
        for node in range(len(plan.nodes)):
            self.try_dispatch(node, 0.0)
        events_append = self.events.append
        issue_transfer = self.issue_transfer
        assignment, queues, qpos = self.assignment, self.queues, self.qpos
        pending, stalled, busy, dead = self.pending, self.stalled, self.busy, self.dead
        start_time, end_time, task_version = self.start_time, self.end_time, self.task_version
        exec_list, error, slow = plan.exec_list, self.error, self.slow
        succ_edges = plan.succ_edges
        task_names, node_names = plan.task_names, plan.node_names
        isfinite = math.isfinite
        while heap:
            time, _seq, kind, payload = heappop(heap)
            if kind == _FINISH:
                task, node, version = payload
                if version != task_version[task]:
                    continue  # cancelled by a node failure
                end_time[task] = time
                events_append(("finish", time, task_names[task], node_names[node]))
                busy[node] = False
                qpos[node] += 1
                for succ, data in succ_edges[task]:
                    issue_transfer(time, task, node, succ, data)
            else:
                if kind == _ARRIVE:
                    task, node = payload
                elif kind == _FAIR_DONE:
                    link, tr, version = payload
                    if tr.version != version or tr.cancelled:
                        continue
                    link.remove(time, tr)
                    task, node = tr.dst_task, tr.dst_node
                    events_append(("xfer-arrive", time, task_names[task], node_names[node]))
                elif kind == _FIFO_DONE:
                    link, tr = payload
                    if not tr.cancelled:
                        task, node = tr.dst_task, tr.dst_node
                        events_append(("xfer-arrive", time, task_names[task], node_names[node]))
                        self.deliver(time, task, node)
                    link.pop_next(time)
                    continue
                else:
                    self.on_fail(time, payload)
                    continue
                # An input of ``task`` reached ``node``: ``deliver``, inlined.
                if assignment[task] != node or stalled[task]:
                    continue  # stale arrival: the task moved (or died) meanwhile
                pending[task] -= 1
                if pending[task]:
                    continue
            # ``node`` may start its next planned task: ``try_dispatch``, inlined.
            if dead[node] or busy[node]:
                continue
            queue = queues[node]
            pos = qpos[node]
            if pos >= len(queue):
                continue
            task = queue[pos]
            if stalled[task] or pending[task] > 0:
                continue
            busy[node] = True
            start_time[task] = time
            events_append(("start", time, task_names[task], node_names[node]))
            end = time + exec_list[task][node] * error[task] * slow[node]
            if isfinite(end):
                heappush(heap, (end, next_seq(), _FINISH, (task, node, task_version[task])))
            else:
                end_time[task] = math.inf
        return self.finalize()

    # ------------------------------------------------------------------ #
    def try_dispatch(self, node: int, now: float) -> None:
        """Start ``node``'s next planned task if it is free and its inputs are in."""
        if self.dead[node] or self.busy[node]:
            return
        queue = self.queues[node]
        pos = self.qpos[node]
        if pos >= len(queue):
            return
        task = queue[pos]
        if self.stalled[task] or self.pending[task] > 0:
            return
        self.busy[node] = True
        self.start_time[task] = now
        plan = self.plan
        self.events.append(("start", now, plan.task_names[task], plan.node_names[node]))
        end = now + plan.exec_list[task][node] * self.error[task] * self.slow[node]
        if math.isfinite(end):
            payload = (task, node, self.task_version[task])
            heappush(self.heap, (end, self.next_seq(), _FINISH, payload))
        else:
            # The task never terminates: it blocks its node forever, which
            # is exactly the static builder's `end = start + inf` entry.
            self.end_time[task] = math.inf

    def deliver(self, time: float, task: int, node: int) -> None:
        if self.assignment[task] != node or self.stalled[task]:
            return  # stale arrival: the task moved (or died) meanwhile
        self.pending[task] -= 1
        if self.pending[task] == 0:
            self.try_dispatch(node, time)

    def issue_transfer(
        self, now: float, src_task: int, src_node: int, dst_task: int, data: float
    ) -> None:
        """Send ``src_task``'s output (``data``) toward ``dst_task``'s current node."""
        if self.stalled[dst_task]:
            return
        dst_node = self.assignment[dst_task]
        if src_node == dst_node or data == 0.0:
            heappush(self.heap, (now, self.next_seq(), _ARRIVE, (dst_task, dst_node)))
            return
        plan = self.plan
        strength = plan.strength[src_node][dst_node]
        if strength == 0.0:
            return  # positive data over a dead link never arrives
        if math.isinf(strength):
            heappush(self.heap, (now, self.next_seq(), _ARRIVE, (dst_task, dst_node)))
            return
        contention = self.contention
        if contention == "none":
            arrival = now + data / strength
            if math.isfinite(arrival):
                heappush(self.heap, (arrival, self.next_seq(), _ARRIVE, (dst_task, dst_node)))
            return
        if math.isinf(data):
            return  # infinite data over a finite link never arrives
        task_names, node_names = plan.task_names, plan.node_names
        self.events.append((
            "xfer-start", now, task_names[src_task], task_names[dst_task],
            node_names[src_node], node_names[dst_node],
        ))
        key = plan.link_keys[src_node][dst_node]
        link = self.links.get(key)
        if link is None:
            link_class = _FairLink if contention == "fair" else _FifoLink
            link = self.links[key] = link_class(strength, self.heap, self.next_seq)
        link.add(now, _Transfer(data, dst_task, dst_node))

    # ------------------------------------------------------------------ #
    def on_fail(self, time: float, victims: tuple[int, ...]) -> None:
        plan = self.plan
        task_names, node_names = plan.task_names, plan.node_names
        for node in victims:
            self.dead[node] = True
            self.events.append(("node-fail", time, node_names[node]))
        affected: list[int] = []
        for node in victims:
            queue = self.queues[node]
            for task in queue[self.qpos[node]:]:
                if self.end_time[task] is not None:
                    continue  # finished at exactly the failure time
                self.task_version[task] += 1  # cancel any pending finish
                affected.append(task)
        # Cancel in-flight transfers toward dead nodes (their consumers
        # are dead or about to move); links are visited in creation order.
        for link in self.links.values():
            self.cancel_transfers(time, link)
        survivors = [v for v in range(len(plan.nodes)) if not self.dead[v]]
        if self.reassign and survivors:
            speed = plan.speed
            rescue = survivors[0]
            for node in survivors[1:]:
                if speed[node] > speed[rescue]:
                    rescue = node
            for task in affected:
                self.assignment[task] = rescue
                self.queues[rescue].append(task)
                self.pending[task] = plan.npreds[task]
                self.events.append(("reassign", time, task_names[task], node_names[rescue]))
                for pred, data in plan.pred_edges[task]:
                    end = self.end_time[pred]
                    if end is not None and math.isfinite(end):
                        # Completed outputs survive the failure; re-fetch
                        # them at failure time from where they ran.
                        self.issue_transfer(time, pred, self.assignment[pred], task, data)
            self.try_dispatch(rescue, time)
        else:
            for task in affected:
                self.stalled[task] = True
                self.events.append(("task-lost", time, task_names[task]))

    def cancel_transfers(self, time: float, link) -> None:
        dead = self.dead
        if isinstance(link, _FairLink):
            doomed = [tr for tr in link.active if dead[tr.dst_node]]
            for tr in doomed:
                tr.cancelled = True
                link.remove(time, tr)
        else:
            for tr in link.queue:
                if dead[tr.dst_node]:
                    tr.cancelled = True
            link.queue = [tr for tr in link.queue if not tr.cancelled]
            serving = link.serving
            if serving is not None and dead[serving.dst_node]:
                serving.cancelled = True  # occupies the link until done

    # ------------------------------------------------------------------ #
    def finalize(self) -> DynamicResult:
        nodes = self.plan.nodes
        entries = []
        unfinished = []
        makespan = 0.0
        inf = math.inf
        # Event times are floats already.  Positional (start, end, task,
        # node): keywords cost a third more.
        for task, node, start, end in zip(
            self.plan.tasks, self.assignment, self.start_time, self.end_time
        ):
            if end is None:
                entries.append(ScheduledTask(inf, inf, task, nodes[node]))
                unfinished.append(task)
                makespan = inf
            else:
                entries.append(ScheduledTask(start, end, task, nodes[node]))
                if end > makespan:  # max() fold: a NaN end never wins
                    makespan = end
        return DynamicResult(
            makespan=makespan,
            entries=tuple(entries),
            events=tuple(self.events),
            failed_nodes=tuple(v for v, dead in zip(nodes, self.dead) if dead),
            unfinished=tuple(unfinished),
        )


#: The last plan built, as ``(schedule, len(schedule), compiled instance,
#: spec, plan)``: a sweep or robustness-gap energy replays each schedule
#: ``samples`` times in a row.  Read once per call and replaced whole.
_plan_cache: tuple | None = None


def simulate_schedule(
    schedule: Schedule,
    instance: ProblemInstance,
    dynamics: DynamicsSpec | None = None,
    rng: int | np.random.Generator | None = None,
) -> DynamicResult:
    """Replay ``schedule`` on ``instance`` under ``dynamics``.

    ``rng`` seeds the replay's random draws (duration error, slowdowns,
    random failure picks) and is *required* whenever the spec draws any —
    an implicit entropy seed would silently break reproducibility.  The
    default ``DynamicsSpec()`` replays the plan exactly (see the module
    docstring's degenerate-equivalence contract).  The replay compiles
    ``instance`` first, so an invalid instance raises the canonical
    :class:`~repro.core.exceptions.InvalidInstanceError` before any event.
    """
    global _plan_cache
    dynamics = dynamics or DynamicsSpec()
    compiled = compile_instance(instance)
    cached = _plan_cache
    if (
        cached is not None
        and cached[0] is schedule
        and cached[1] == len(schedule)
        and cached[2] is compiled
        and (cached[3] is dynamics or cached[3] == dynamics)
    ):
        plan = cached[4]
    else:
        plan = _Plan(schedule, compiled, dynamics)
        _plan_cache = (schedule, len(schedule), compiled, dynamics, plan)
    return _Replay(plan, dynamics, rng).run()
