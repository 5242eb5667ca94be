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
``cost / speed``), and names reach the event log through ``str()`` tables
built once per replay.  The event model, the ``seq`` numbering, the draw
order and the float operations are those of the dict-keyed engine it
replaced; ``tests/test_dynamic_equivalence.py`` checks every result field
against a frozen copy of that engine.

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

from repro.core.compiled import compile_instance
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
    """Processor sharing: active transfers split the strength equally."""

    __slots__ = ("strength", "active", "last_update")

    def __init__(self, strength: float) -> None:
        self.strength = strength
        self.active: list[_Transfer] = []
        self.last_update = 0.0

    def advance(self, now: float) -> None:
        elapsed = now - self.last_update
        if elapsed > 0.0 and self.active:
            rate = self.strength / len(self.active)
            for tr in self.active:
                tr.remaining = max(tr.remaining - rate * elapsed, 0.0)
        self.last_update = now

    def reschedule(self, now: float, push) -> None:
        if not self.active:
            return
        rate = self.strength / len(self.active)
        for tr in self.active:
            tr.version += 1
            push(now + tr.remaining / rate, _FAIR_DONE, (self, tr, tr.version))

    def add(self, now: float, tr: _Transfer, push) -> None:
        self.advance(now)
        self.active.append(tr)
        self.reschedule(now, push)

    def remove(self, now: float, tr: _Transfer, push) -> None:
        self.advance(now)
        self.active.remove(tr)
        self.reschedule(now, push)


class _FifoLink:
    """Exclusive use in arrival order: one transfer at a time, full strength."""

    __slots__ = ("strength", "serving", "queue")

    def __init__(self, strength: float) -> None:
        self.strength = strength
        self.serving: _Transfer | None = None
        self.queue: list[_Transfer] = []

    def serve(self, now: float, tr: _Transfer, push) -> None:
        self.serving = tr
        push(now + tr.remaining / self.strength, _FIFO_DONE, (self, tr))

    def add(self, now: float, tr: _Transfer, push) -> None:
        if self.serving is None:
            self.serve(now, tr, push)
        else:
            self.queue.append(tr)

    def pop_next(self, now: float, push) -> None:
        self.serving = None
        while self.queue:
            tr = self.queue.pop(0)
            if not tr.cancelled:
                self.serve(now, tr, push)
                return


# ---------------------------------------------------------------------- #
# The replay engine
# ---------------------------------------------------------------------- #
class _Replay:
    def __init__(
        self,
        schedule: Schedule,
        instance: ProblemInstance,
        dynamics: DynamicsSpec,
        rng,
    ) -> None:
        self.dynamics = dynamics
        c = compile_instance(instance)
        self.tasks = tasks = c.tasks
        self.nodes = nodes = c.nodes
        task_id, node_id = c.task_id, c.node_id

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
        self.assignment = assignment = [0] * len(tasks)
        for task, entry in planned.items():
            node = node_id.get(entry.node)
            if node is None:
                raise SchedulingError(f"schedule uses unknown node {entry.node!r}")
            assignment[task_id[task]] = node

        # Planned per-node execution order: global start-time order (ties
        # by str(task)), exactly replay_schedule's historical commit order.
        self.queues: list[list[int]] = [[] for _ in nodes]
        for entry in sorted(planned.values(), key=lambda e: (e.start, str(e.task))):
            tid = task_id[entry.task]
            self.queues[assignment[tid]].append(tid)
        self.static_makespan = schedule.makespan

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
        self.slow = dynamics.slowdown.draw(gen, len(nodes))
        self.error = dynamics.error.draw(gen, len(tasks))

        self.fail_time = math.inf
        self.victims: tuple[int, ...] = ()
        failures = dynamics.failures
        if (
            failures.active
            and math.isfinite(self.static_makespan)
            and self.static_makespan > 0.0
        ):
            self.fail_time = failures.at * self.static_makespan
            count = min(failures.count, len(nodes))
            if failures.pick == "random":
                order = gen.permutation(len(nodes)).tolist()
            else:  # most-loaded: largest planned busy time, ties by node order
                load = [0.0] * len(nodes)
                for entry in planned.values():
                    busy = math.inf if math.isinf(entry.end) else entry.end - entry.start
                    load[node_id[entry.node]] += busy
                order = sorted(range(len(nodes)), key=lambda v: -load[v])
            self.victims = tuple(order[:count])

        # --- compiled tables and event/run state ------------------------ #
        self.exec_list = c.exec_list
        self.strength = c.strength.tolist()
        self.data = c.data
        self.pred_ids = c.pred_ids
        self.succ_ids = c.succ_ids
        self.speed = c.speed
        self.task_names = [str(t) for t in tasks]
        self.node_names = [str(v) for v in nodes]
        self.heap: list = []
        self.seq = itertools.count()
        self.events: list[tuple] = []
        self.pending = [len(ps) for ps in c.pred_ids]
        self.qpos = [0] * len(nodes)
        self.busy = [False] * len(nodes)
        self.dead = [False] * len(nodes)
        self.stalled = [False] * len(tasks)  # tasks that will never run (stall fate)
        self.start_time = [math.inf] * len(tasks)
        self.end_time: list[float | None] = [None] * len(tasks)  # None: not finished
        self.task_version = [0] * len(tasks)
        self.links: dict = {}

    # ------------------------------------------------------------------ #
    def push(self, time: float, kind: int, payload) -> None:
        heappush(self.heap, (time, next(self.seq), kind, payload))

    # ------------------------------------------------------------------ #
    def run(self) -> DynamicResult:
        if math.isfinite(self.fail_time):
            self.push(self.fail_time, _FAIL, self.victims)
        for node in range(len(self.nodes)):
            self.try_dispatch(node, 0.0)
        heap = self.heap
        events = self.events
        task_names, node_names = self.task_names, self.node_names
        while heap:
            time, _seq, kind, payload = heappop(heap)
            if kind == _FINISH:
                self.on_finish(time, *payload)
            elif kind == _ARRIVE:
                self.deliver(time, *payload)
            elif kind == _FAIR_DONE:
                link, tr, version = payload
                if tr.version != version or tr.cancelled:
                    continue
                link.remove(time, tr, self.push)
                events.append(
                    ("xfer-arrive", time, task_names[tr.dst_task], node_names[tr.dst_node])
                )
                self.deliver(time, tr.dst_task, tr.dst_node)
            elif kind == _FIFO_DONE:
                link, tr = payload
                if not tr.cancelled:
                    events.append(
                        ("xfer-arrive", time, task_names[tr.dst_task], node_names[tr.dst_node])
                    )
                    self.deliver(time, tr.dst_task, tr.dst_node)
                link.pop_next(time, self.push)
            else:
                self.on_fail(time, payload)
        return self.finalize()

    # ------------------------------------------------------------------ #
    def try_dispatch(self, node: int, now: float) -> None:
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
        self.events.append(("start", now, self.task_names[task], self.node_names[node]))
        end = now + self.exec_list[task][node] * self.error[task] * self.slow[node]
        if math.isfinite(end):
            self.push(end, _FINISH, (task, node, self.task_version[task]))
        else:
            # The task never terminates: it blocks its node forever, which
            # is exactly the static builder's `end = start + inf` entry.
            self.end_time[task] = math.inf

    def on_finish(self, time: float, task: int, node: int, version: int) -> None:
        if version != self.task_version[task]:
            return  # cancelled by a node failure
        self.end_time[task] = time
        self.events.append(("finish", time, self.task_names[task], self.node_names[node]))
        self.busy[node] = False
        self.qpos[node] += 1
        for succ in self.succ_ids[task]:
            self.issue_transfer(time, task, node, succ)
        self.try_dispatch(node, time)

    # ------------------------------------------------------------------ #
    def issue_transfer(self, now: float, src_task: int, src_node: int, dst_task: int) -> None:
        """Send ``src_task``'s output toward ``dst_task``'s current node."""
        if self.stalled[dst_task]:
            return
        dst_node = self.assignment[dst_task]
        if src_node == dst_node:
            self.push(now, _ARRIVE, (dst_task, dst_node))
            return
        data = self.data[(src_task, dst_task)]
        if data == 0.0:
            self.push(now, _ARRIVE, (dst_task, dst_node))
            return
        strength = self.strength[src_node][dst_node]
        if strength == 0.0:
            return  # positive data over a dead link never arrives
        if math.isinf(strength):
            self.push(now, _ARRIVE, (dst_task, dst_node))
            return
        if self.dynamics.contention == "none":
            arrival = now + data / strength
            if math.isfinite(arrival):
                self.push(arrival, _ARRIVE, (dst_task, dst_node))
            return
        if math.isinf(data):
            return  # infinite data over a finite link never arrives
        task_names, node_names = self.task_names, self.node_names
        self.events.append((
            "xfer-start", now, task_names[src_task], task_names[dst_task],
            node_names[src_node], node_names[dst_node],
        ))
        link = self.link_for(src_node, dst_node, strength)
        link.add(now, _Transfer(data, dst_task, dst_node), self.push)

    def link_for(self, u: int, v: int, strength: float):
        names = self.node_names
        key = (u, v) if names[u] <= names[v] else (v, u)
        link = self.links.get(key)
        if link is None:
            cls = _FairLink if self.dynamics.contention == "fair" else _FifoLink
            link = cls(strength)
            self.links[key] = link
        return link

    def deliver(self, time: float, task: int, node: int) -> None:
        if self.assignment[task] != node or self.stalled[task]:
            return  # stale arrival: the task moved (or died) meanwhile
        self.pending[task] -= 1
        if self.pending[task] == 0:
            self.try_dispatch(node, time)

    # ------------------------------------------------------------------ #
    def on_fail(self, time: float, victims: tuple[int, ...]) -> None:
        for node in victims:
            self.dead[node] = True
            self.events.append(("node-fail", time, self.node_names[node]))
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
        survivors = [v for v in range(len(self.nodes)) if not self.dead[v]]
        if self.dynamics.failures.fate == "reassign" and survivors:
            speed = self.speed
            rescue = survivors[0]
            for node in survivors[1:]:
                if speed[node] > speed[rescue]:
                    rescue = node
            for task in affected:
                self.assignment[task] = rescue
                self.queues[rescue].append(task)
                self.pending[task] = len(self.pred_ids[task])
                self.events.append(
                    ("reassign", time, self.task_names[task], self.node_names[rescue])
                )
                for pred in self.pred_ids[task]:
                    end = self.end_time[pred]
                    if end is not None and math.isfinite(end):
                        # Completed outputs survive the failure; re-fetch
                        # them at failure time from where they ran.
                        self.issue_transfer(time, pred, self.assignment[pred], task)
            self.try_dispatch(rescue, time)
        else:
            for task in affected:
                self.stalled[task] = True
                self.events.append(("task-lost", time, self.task_names[task]))

    def cancel_transfers(self, time: float, link) -> None:
        dead = self.dead
        if isinstance(link, _FairLink):
            doomed = [tr for tr in link.active if dead[tr.dst_node]]
            for tr in doomed:
                tr.cancelled = True
                link.remove(time, tr, self.push)
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
        entries = []
        unfinished = []
        makespan = 0.0
        nodes = self.nodes
        for tid, task in enumerate(self.tasks):
            node = nodes[self.assignment[tid]]
            end = self.end_time[tid]
            # Positional (start, end, task, node): keywords cost a third more.
            if end is None:
                entry = ScheduledTask(math.inf, math.inf, task, node)
                unfinished.append(task)
            else:
                entry = ScheduledTask(float(self.start_time[tid]), float(end), task, node)
            entries.append(entry)
            if entry.end > makespan:
                makespan = entry.end
        return DynamicResult(
            makespan=makespan,
            entries=tuple(entries),
            events=tuple(self.events),
            failed_nodes=tuple(v for v, dead in zip(nodes, self.dead) if dead),
            unfinished=tuple(unfinished),
        )


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
    return _Replay(schedule, instance, dynamics or DynamicsSpec(), rng).run()
