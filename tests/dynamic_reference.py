"""Frozen oracle: the dynamic replay engine as it was before the compiled rewrite.

A verbatim copy of ``repro.core.dynamic.simulator``'s ``_Transfer``,
``_FairLink``, ``_FifoLink``, ``_Replay`` and ``simulate_schedule`` from
the dict-and-networkx engine, kept only so ``tests/test_dynamic_equivalence.py``
can check the integer-table engine against it result for result.  The
one edit: ``NoiseSpec.variable()`` no longer exists, so ``_variable``
rebuilds the same random variables here.  Nothing under ``src/``
imports this module; never change its behaviour.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.dynamic.simulator import DynamicResult
from repro.core.dynamic.spec import DynamicsSpec, NoiseSpec
from repro.core.exceptions import SchedulingError
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule, ScheduledTask
from repro.stochastic.variables import (
    ClippedGaussianRV,
    Deterministic,
    RandomVariable,
    UniformRV,
)
from repro.utils.rng import as_generator

__all__ = ["simulate_schedule"]


def _variable(noise: NoiseSpec) -> RandomVariable:
    """The factor distribution of ``noise`` (the old ``NoiseSpec.variable()``)."""
    if noise.kind == "uniform":
        return UniformRV(noise.low, noise.high)
    if noise.kind == "gaussian":
        return ClippedGaussianRV(1.0, noise.std, low=noise.low, high=noise.high)
    return Deterministic(1.0)


# ---------------------------------------------------------------------- #
# Link contention state
# ---------------------------------------------------------------------- #
class _Transfer:
    __slots__ = ("uid", "remaining", "dst_task", "dst_node", "version", "cancelled")

    def __init__(self, uid: int, data: float, dst_task, dst_node) -> None:
        self.uid = uid
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
            push(now + tr.remaining / rate, "fair-done", (self, tr, tr.version))

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
        push(now + tr.remaining / self.strength, "fifo-done", (self, tr))

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
        self.instance = instance
        self.dynamics = dynamics
        tg = instance.task_graph
        net = instance.network
        self.tasks = tuple(tg.tasks)
        self.nodes = tuple(net.nodes)

        planned = {entry.task: entry for entry in schedule}
        missing = [t for t in self.tasks if t not in planned]
        if missing:
            raise SchedulingError(
                f"schedule leaves instance tasks unscheduled: {sorted(map(str, missing))}"
            )
        extra = [t for t in planned if t not in set(self.tasks)]
        if extra:
            raise SchedulingError(
                f"schedule contains unknown tasks: {sorted(map(str, extra))}"
            )
        for entry in planned.values():
            if entry.node not in net:
                raise SchedulingError(f"schedule uses unknown node {entry.node!r}")

        # Planned per-node execution order: global start-time order (ties
        # by str(task)), exactly replay_schedule's historical commit order.
        self.queues: dict = {v: [] for v in self.nodes}
        for entry in sorted(schedule, key=lambda e: (e.start, str(e.task))):
            self.queues[entry.node].append(entry.task)
        self.assignment = {t: planned[t].node for t in self.tasks}
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
        self.slow: dict = {}
        if dynamics.slowdown.active:
            rv = _variable(dynamics.slowdown)
            self.slow = {v: rv.sample(gen) for v in self.nodes}
        self.error: dict = {}
        if dynamics.error.active:
            rv = _variable(dynamics.error)
            self.error = {t: rv.sample(gen) for t in self.tasks}

        self.fail_time = math.inf
        self.victims: tuple = ()
        failures = dynamics.failures
        if (
            failures.active
            and math.isfinite(self.static_makespan)
            and self.static_makespan > 0.0
        ):
            self.fail_time = failures.at * self.static_makespan
            count = min(failures.count, len(self.nodes))
            if failures.pick == "random":
                order = [self.nodes[i] for i in gen.permutation(len(self.nodes))]
            else:  # most-loaded: largest planned busy time, ties by node order
                load = {v: 0.0 for v in self.nodes}
                for entry in planned.values():
                    busy = math.inf if math.isinf(entry.end) else entry.end - entry.start
                    load[entry.node] += busy
                order = sorted(self.nodes, key=lambda v: -load[v])
            self.victims = tuple(order[:count])

        # --- event/run state ------------------------------------------- #
        self.heap: list = []
        self.seq = 0
        self.events: list[tuple] = []
        self.pending = {t: len(tg.predecessors(t)) for t in self.tasks}
        self.qpos = {v: 0 for v in self.nodes}
        self.busy = {v: False for v in self.nodes}
        self.dead: set = set()
        self.stalled: set = set()  # tasks that will never run (stall fate)
        self.start_time: dict = {}
        self.finished: dict = {}  # task -> realized ScheduledTask
        self.task_version = {t: 0 for t in self.tasks}
        self.links: dict = {}
        self.tg = tg
        self.net = net

    # ------------------------------------------------------------------ #
    def push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self.heap, (time, self.seq, kind, payload))
        self.seq += 1

    def log(self, kind: str, time: float, *details) -> None:
        self.events.append((kind, time, *details))

    def duration(self, task, node) -> float:
        d = self.tg.cost(task) / self.net.speed(node)
        if self.error:
            d = d * self.error[task]
        if self.slow:
            d = d * self.slow[node]
        return d

    # ------------------------------------------------------------------ #
    def run(self) -> DynamicResult:
        if math.isfinite(self.fail_time):
            self.push(self.fail_time, "fail", self.victims)
        for node in self.nodes:
            self.try_dispatch(node, 0.0)
        heap = self.heap
        while heap:
            time, _seq, kind, payload = heapq.heappop(heap)
            if kind == "finish":
                self.on_finish(time, *payload)
            elif kind == "arrive":
                self.deliver(time, *payload)
            elif kind == "fair-done":
                link, tr, version = payload
                if tr.version != version or tr.cancelled:
                    continue
                link.remove(time, tr, self.push)
                self.log("xfer-arrive", time, str(tr.dst_task), str(tr.dst_node))
                self.deliver(time, tr.dst_task, tr.dst_node)
            elif kind == "fifo-done":
                link, tr = payload
                if not tr.cancelled:
                    self.log("xfer-arrive", time, str(tr.dst_task), str(tr.dst_node))
                    self.deliver(time, tr.dst_task, tr.dst_node)
                link.pop_next(time, self.push)
            elif kind == "fail":
                self.on_fail(time, payload)
        return self.finalize()

    # ------------------------------------------------------------------ #
    def try_dispatch(self, node, now: float) -> None:
        if node in self.dead or self.busy[node]:
            return
        queue = self.queues[node]
        pos = self.qpos[node]
        if pos >= len(queue):
            return
        task = queue[pos]
        if task in self.stalled or self.pending[task] > 0:
            return
        self.busy[node] = True
        self.start_time[task] = now
        self.log("start", now, str(task), str(node))
        end = now + self.duration(task, node)
        if math.isfinite(end):
            self.push(end, "finish", (task, node, self.task_version[task]))
        else:
            # The task never terminates: it blocks its node forever, which
            # is exactly the static builder's `end = start + inf` entry.
            self.finished[task] = ScheduledTask(
                start=float(now), end=math.inf, task=task, node=node
            )

    def on_finish(self, time: float, task, node, version: int) -> None:
        if version != self.task_version[task]:
            return  # cancelled by a node failure
        self.finished[task] = ScheduledTask(
            start=float(self.start_time[task]), end=float(time), task=task, node=node
        )
        self.log("finish", time, str(task), str(node))
        self.busy[node] = False
        self.qpos[node] += 1
        for succ in self.tg.successors(task):
            self.issue_transfer(time, task, node, succ)
        self.try_dispatch(node, time)

    # ------------------------------------------------------------------ #
    def issue_transfer(self, now: float, src_task, src_node, dst_task) -> None:
        """Send ``src_task``'s output toward ``dst_task``'s current node."""
        if dst_task in self.stalled:
            return
        dst_node = self.assignment[dst_task]
        if src_node == dst_node:
            self.push(now, "arrive", (dst_task, dst_node))
            return
        data = self.tg.data_size(src_task, dst_task)
        if data == 0.0:
            self.push(now, "arrive", (dst_task, dst_node))
            return
        strength = self.net.strength(src_node, dst_node)
        if strength == 0.0:
            return  # positive data over a dead link never arrives
        if math.isinf(strength):
            self.push(now, "arrive", (dst_task, dst_node))
            return
        if self.dynamics.contention == "none":
            arrival = now + data / strength
            if math.isfinite(arrival):
                self.push(arrival, "arrive", (dst_task, dst_node))
            return
        if math.isinf(data):
            return  # infinite data over a finite link never arrives
        self.log(
            "xfer-start", now, str(src_task), str(dst_task), str(src_node), str(dst_node)
        )
        link = self.link_for(src_node, dst_node, strength)
        tr = _Transfer(self.seq, data, dst_task, dst_node)
        link.add(now, tr, self.push)

    def link_for(self, u, v, strength: float):
        key = (u, v) if str(u) <= str(v) else (v, u)
        link = self.links.get(key)
        if link is None:
            cls = _FairLink if self.dynamics.contention == "fair" else _FifoLink
            link = cls(strength)
            self.links[key] = link
        return link

    def deliver(self, time: float, task, node) -> None:
        if self.assignment[task] != node or task in self.stalled:
            return  # stale arrival: the task moved (or died) meanwhile
        self.pending[task] -= 1
        if self.pending[task] == 0:
            self.try_dispatch(node, time)

    # ------------------------------------------------------------------ #
    def on_fail(self, time: float, victims) -> None:
        for node in victims:
            self.dead.add(node)
            self.log("node-fail", time, str(node))
        affected: list = []
        for node in victims:
            queue = self.queues[node]
            for task in queue[self.qpos[node]:]:
                if task in self.finished:
                    continue  # finished at exactly the failure time
                self.task_version[task] += 1  # cancel any pending finish
                self.start_time.pop(task, None)
                affected.append(task)
        # Cancel in-flight transfers toward dead nodes (their consumers
        # are dead or about to move); links are visited in creation order.
        for link in self.links.values():
            self.cancel_transfers(time, link, self.dead)
        survivors = [v for v in self.nodes if v not in self.dead]
        if self.dynamics.failures.fate == "reassign" and survivors:
            rescue = survivors[0]
            for node in survivors[1:]:
                if self.net.speed(node) > self.net.speed(rescue):
                    rescue = node
            for task in affected:
                self.assignment[task] = rescue
                self.queues[rescue].append(task)
                self.pending[task] = len(self.tg.predecessors(task))
                self.log("reassign", time, str(task), str(rescue))
                for pred in self.tg.predecessors(task):
                    entry = self.finished.get(pred)
                    if entry is not None and math.isfinite(entry.end):
                        # Completed outputs survive the failure; re-fetch
                        # them at failure time from where they ran.
                        self.issue_transfer(time, pred, entry.node, task)
            self.try_dispatch(rescue, time)
        else:
            for task in affected:
                self.stalled.add(task)
                self.log("task-lost", time, str(task))

    def cancel_transfers(self, time: float, link, dead_nodes) -> None:
        if isinstance(link, _FairLink):
            doomed = [tr for tr in link.active if tr.dst_node in dead_nodes]
            for tr in doomed:
                tr.cancelled = True
                link.remove(time, tr, self.push)
        else:
            for tr in link.queue:
                if tr.dst_node in dead_nodes:
                    tr.cancelled = True
            link.queue = [tr for tr in link.queue if not tr.cancelled]
            serving = link.serving
            if serving is not None and serving.dst_node in dead_nodes:
                serving.cancelled = True  # occupies the link until done

    # ------------------------------------------------------------------ #
    def finalize(self) -> DynamicResult:
        entries = []
        unfinished = []
        makespan = 0.0
        for task in self.tasks:
            entry = self.finished.get(task)
            if entry is None:
                entry = ScheduledTask(
                    start=math.inf, end=math.inf, task=task, node=self.assignment[task]
                )
                unfinished.append(task)
            entries.append(entry)
            if entry.end > makespan:
                makespan = entry.end
        return DynamicResult(
            makespan=makespan,
            entries=tuple(entries),
            events=tuple(self.events),
            failed_nodes=tuple(v for v in self.nodes if v in self.dead),
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
    docstring's degenerate-equivalence contract).
    """
    return _Replay(schedule, instance, dynamics or DynamicsSpec(), rng).run()
