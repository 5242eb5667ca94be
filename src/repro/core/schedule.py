"""Schedules and their validity properties (Section II).

A schedule is a set of tuples ``(t, v, r)``: task ``t`` runs on node ``v``
starting at time ``r``.  We additionally store the end time (``r + c(t)/s(v)``)
so that validity checking and Gantt rendering do not need the instance.

A *valid* schedule must satisfy (Section II):

1. every task is scheduled exactly once;
2. tasks on the same node do not overlap in time (implied by the paper's
   model; two tasks cannot execute concurrently on one machine);
3. precedence + communication: for every dependency ``(t, t')``,
   ``r + c(t)/s(v) + c(t,t')/s(v,v') <= r'``.

The makespan is ``max (r + c(t)/s(v))`` over all scheduled tasks.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Hashable, Iterator
from dataclasses import dataclass

from repro.core.exceptions import InvalidScheduleError
from repro.core.instance import ProblemInstance

__all__ = ["ScheduledTask", "Schedule"]

Task = Hashable
Node = Hashable

#: Absolute slack allowed when checking timing constraints; schedules are
#: built with float arithmetic, so exact comparisons would be brittle.
_TIME_EPS = 1e-9


@dataclass(frozen=True, order=True)
class ScheduledTask:
    """One scheduled task: ``(start, end, task, node)`` (ordered by time)."""

    start: float
    end: float
    task: Task
    node: Node

    @property
    def duration(self) -> float:
        return self.end - self.start


class Schedule:
    """A mapping from nodes to time-ordered lists of scheduled tasks.

    Schedules are built with :meth:`add`, or handed over whole by
    :meth:`repro.core.simulator.ScheduleBuilder.schedule` through the
    private :meth:`_adopt`.  Both give the same object: tasks in the order
    they were added, nodes in the order they received their first task,
    and each node's entries sorted as ``insort`` leaves them.  No entry
    holds a NaN time: :meth:`add` refuses a NaN start or end, the builder
    refuses a NaN or negative explicit start, and a valid instance has no
    undefined execution time (see :meth:`ProblemInstance.validate`).  So
    the makespan does not depend on the order of the entries.
    """

    def __init__(self) -> None:
        self._by_node: dict[Node, list[ScheduledTask]] = {}
        self._by_task: dict[Task, ScheduledTask] = {}

    @classmethod
    def _adopt(
        cls, by_node: dict[Node, list[ScheduledTask]], by_task: dict[Task, ScheduledTask]
    ) -> "Schedule":
        """Wrap containers that an :meth:`add` loop over ``by_task`` would build.

        The invariant is the caller's: ``by_task`` maps each task to its
        entry in add order, ``by_node`` keys nodes in first-add order and
        holds each node's entries sorted as ``insort`` leaves them, and
        every entry passes :meth:`add`'s checks (the builder's do: its
        commit refuses a NaN or negative start, and a compiled instance
        has no NaN execution time).  Both containers are taken over, not
        copied.
        """
        sched = cls.__new__(cls)
        sched._by_node = by_node
        sched._by_task = by_task
        return sched

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, task: Task, node: Node, start: float, end: float) -> ScheduledTask:
        """Record that ``task`` runs on ``node`` during ``[start, end)``."""
        if task in self._by_task:
            raise InvalidScheduleError(f"task {task!r} is already scheduled")
        if math.isnan(start) or start < 0:
            raise InvalidScheduleError(f"start time of {task!r} must be >= 0, got {start}")
        if math.isnan(end) or end < start - _TIME_EPS:
            raise InvalidScheduleError(
                f"end time of {task!r} must be >= its start {start}, got {end}"
            )
        entry = ScheduledTask(start=float(start), end=float(end), task=task, node=node)
        insort(self._by_node.setdefault(node, []), entry)
        self._by_task[task] = entry
        return entry

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> tuple[Node, ...]:
        """Nodes that have at least one task."""
        return tuple(self._by_node)

    @property
    def tasks(self) -> tuple[Task, ...]:
        return tuple(self._by_task)

    def on_node(self, node: Node) -> tuple[ScheduledTask, ...]:
        """Time-ordered tasks on ``node`` (empty if none)."""
        return tuple(self._by_node.get(node, ()))

    def __getitem__(self, task: Task) -> ScheduledTask:
        try:
            return self._by_task[task]
        except KeyError:
            raise InvalidScheduleError(f"task {task!r} is not scheduled") from None

    def __contains__(self, task: Task) -> bool:
        return task in self._by_task

    def __len__(self) -> int:
        return len(self._by_task)

    def __iter__(self) -> Iterator[ScheduledTask]:
        for node in self._by_node:
            yield from self._by_node[node]

    @property
    def makespan(self) -> float:
        """Time at which the last task finishes (0.0 for an empty schedule)."""
        if not self._by_task:
            return 0.0
        return max(entry.end for entry in self._by_task.values())

    # ------------------------------------------------------------------ #
    # Validity (the three properties of Section II)
    # ------------------------------------------------------------------ #
    def validate(self, instance: ProblemInstance) -> None:
        """Raise :class:`InvalidScheduleError` unless this schedule is valid.

        Checks, in order: exactly-once scheduling, node-overlap freedom,
        execution-time consistency (``end - start == c(t)/s(v)``), and the
        precedence + communication-delay constraint for every dependency.
        """
        tg, net = instance.task_graph, instance.network

        missing = set(tg.tasks) - set(self._by_task)
        if missing:
            raise InvalidScheduleError(f"unscheduled tasks: {sorted(map(str, missing))}")
        extra = set(self._by_task) - set(tg.tasks)
        if extra:
            raise InvalidScheduleError(f"unknown tasks scheduled: {sorted(map(str, extra))}")

        for entry in self._by_task.values():
            if entry.node not in net:
                raise InvalidScheduleError(
                    f"task {entry.task!r} scheduled on unknown node {entry.node!r}"
                )
            if math.isinf(entry.start):
                # A task pushed to t = inf (its inputs cross a dead link)
                # never actually runs; its end must also be infinite.
                if not math.isinf(entry.end):
                    raise InvalidScheduleError(
                        f"task {entry.task!r} starts at infinity but ends at {entry.end}"
                    )
                continue
            # Compare end against start + expected-duration with a tolerance
            # relative to the *times* (not the duration): at start ~ 1e12 a
            # double cannot represent a 1e-3 duration exactly, but the end
            # timestamp is still the correctly rounded sum.  An undefined
            # expected end (inf/inf) fails the `<=`; equal infinite ends
            # pass the `!=` first, since inf - inf is NaN too.  Either side
            # infinite makes the tolerance infinite, so only a finite one
            # counts: an infinite end must match exactly.
            expected_end = entry.start + tg.cost(entry.task) / net.speed(entry.node)
            tol = max(_TIME_EPS, 1e-9 * max(abs(entry.end), abs(expected_end)))
            if entry.end != expected_end and not abs(entry.end - expected_end) <= tol < math.inf:
                raise InvalidScheduleError(
                    f"task {entry.task!r} on node {entry.node!r} ends at "
                    f"{entry.end}, expected start + c(t)/s(v) = {expected_end}"
                )

        for node, entries in self._by_node.items():
            # Overlap = intersection of positive measure (> eps).  Tasks of
            # (near-)zero duration occupy no machine time and may legally
            # sit at any instant, including inside another task's interval.
            # Entries are sorted by start, so a running max-end sweep over
            # the positive-duration entries detects any such overlap.
            max_end: float | None = None
            max_task = None
            for cur in entries:
                if math.isinf(cur.start) or cur.duration <= _TIME_EPS:
                    continue
                if max_end is not None and cur.start < max_end - _TIME_EPS:
                    raise InvalidScheduleError(
                        f"tasks {max_task!r} and {cur.task!r} overlap on node {node!r}"
                    )
                if max_end is None or cur.end > max_end:
                    max_end, max_task = cur.end, cur.task

        for src, dst, data in tg.iter_dependencies():
            s_entry, d_entry = self._by_task[src], self._by_task[dst]
            if s_entry.node == d_entry.node:
                comm = 0.0
            else:
                comm = _comm_duration(data, net.strength(s_entry.node, d_entry.node))
            available = s_entry.end + comm  # inf + anything = inf
            if math.isinf(available):
                # The output never arrives; the consumer must never start.
                if not math.isinf(d_entry.start):
                    raise InvalidScheduleError(
                        f"task {dst!r} starts at {d_entry.start} but the output of "
                        f"{src!r} never arrives at node {d_entry.node!r}"
                    )
                continue
            if d_entry.start < available - max(_TIME_EPS, 1e-9 * abs(available)):
                raise InvalidScheduleError(
                    f"task {dst!r} starts at {d_entry.start} before receiving the output "
                    f"of {src!r} (available at {available})"
                )

    def is_valid(self, instance: ProblemInstance) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(instance)
        except InvalidScheduleError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "entries": [
                {"task": e.task, "node": e.node, "start": e.start, "end": e.end}
                for e in sorted(self._by_task.values())
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Schedule":
        sched = cls()
        for e in payload["entries"]:
            sched.add(e["task"], e["node"], e["start"], e["end"])
        return sched

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schedule(tasks={len(self)}, makespan={self.makespan:.4g})"


def _comm_duration(data: float, strength: float) -> float:
    """Communication time ``c(t,t') / s(v,v')`` with 0/0 -> 0 semantics."""
    if data == 0.0:
        return 0.0
    if strength == 0.0:
        return math.inf
    if math.isinf(strength):
        return 0.0
    return data / strength


