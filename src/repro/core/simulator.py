"""Execution semantics shared by every scheduler and by PISA.

This module is the *substrate simulator*: it encodes, in one place, how
long tasks take, when data arrives, and when a task may start on a node
given previously committed decisions.  Schedulers are thin policies on top
of :class:`ScheduleBuilder`; because they all share these semantics, their
makespans are directly comparable (the property the paper's makespan-ratio
metric relies on).

Conventions
-----------
* ``exec_time(t, v) = c(t) / s(v)`` (related machines, Section II).
* ``comm_time`` over a link of strength 0 is infinite unless the data size
  is 0; over an infinite-strength link (or node-to-itself) it is 0.
* Start times may therefore be infinite.  An infinite makespan simply means
  "this scheduler routed positive data over a dead link"; makespan ratios
  treat it as an arbitrarily-bad outcome (the ``> 1000`` cells of Fig. 4).

The builder runs on the array-compiled instance kernel
(:mod:`repro.core.compiled`): timing tables are integer-indexed numpy
arrays compiled once per instance and shared by every builder over it,
and the batch queries (:meth:`ScheduleBuilder.est_all` /
:meth:`~ScheduleBuilder.eft_all`) score **all** nodes of a task in one
vectorized sweep.  A placement decision costs few Python calls: the
builder looks a task and node up once per :meth:`~ScheduleBuilder.commit`
and keeps its state in per-id lists, each task's data-ready row is
folded once into a ``(|T|, |V|)`` matrix, ``commit`` reuses the earliest
start the policy just scored, and :meth:`~ScheduleBuilder.schedule`
hands its sorted per-node lists to :class:`~repro.core.schedule.Schedule`
instead of re-adding every entry.  Results are bit-identical to the
scalar dict-based builder this replaced (frozen as
:class:`repro.core.reference.ReferenceScheduleBuilder`);
``tests/test_compiled.py`` pins the schedules against it, down to the
order of entries, nodes and tasks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Hashable, Iterable

import numpy as np

from repro.core.compiled import compile_instance
from repro.core.exceptions import InvalidInstanceError, SchedulingError
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule, ScheduledTask

__all__ = [
    "exec_time",
    "comm_time",
    "mean_exec_time",
    "mean_comm_time",
    "ScheduleBuilder",
]

Task = Hashable
Node = Hashable


def exec_time(instance: ProblemInstance, task: Task, node: Node) -> float:
    """Execution time ``c(t) / s(v)`` of ``task`` on ``node``."""
    return instance.task_graph.cost(task) / instance.network.speed(node)


def comm_time(
    instance: ProblemInstance, src_task: Task, dst_task: Task, src_node: Node, dst_node: Node
) -> float:
    """Communication time of dependency ``(src_task, dst_task)`` across a link.

    Zero when both tasks run on the same node, when the data size is zero,
    or when the link strength is infinite; infinite when positive data must
    cross a zero-strength link.
    """
    if src_node == dst_node:
        return 0.0
    data = instance.task_graph.data_size(src_task, dst_task)
    if data == 0.0:
        return 0.0
    strength = instance.network.strength(src_node, dst_node)
    if strength == 0.0:
        return math.inf
    if math.isinf(strength):
        return 0.0
    return data / strength


def mean_exec_time(instance: ProblemInstance, task: Task) -> float:
    """Average execution time of ``task`` over all nodes (HEFT's ``w̄``)."""
    nodes = instance.network.nodes
    inv = sum(1.0 / instance.network.speed(v) for v in nodes) / len(nodes)
    return instance.task_graph.cost(task) * inv


def mean_comm_time(instance: ProblemInstance, src_task: Task, dst_task: Task) -> float:
    """Average communication time of a dependency over distinct node pairs.

    ``c(t,t') * avg_{u != v} 1/s(u,v)``; infinite-strength links contribute
    zero inverse strength, so a shared-filesystem network yields 0, even
    for infinite data (``comm_time`` over each link is 0).  A single-node
    network also yields 0 (no transfer ever happens).
    """
    links = instance.network.links
    if not links:
        return 0.0
    data = instance.task_graph.data_size(src_task, dst_task)
    if data == 0.0:
        return 0.0
    inv = 0.0
    for u, v in links:
        s = instance.network.strength(u, v)
        if s == 0.0:
            return math.inf
        if not math.isinf(s):
            inv += 1.0 / s
    if inv == 0.0:
        return 0.0
    return data * inv / len(links)


class ScheduleBuilder:
    """Incremental schedule construction with shared timing semantics.

    A scheduler interacts with the builder in rounds: query earliest start /
    finish times of candidate (task, node) placements, then ``commit`` one.
    The builder enforces that a task is only committed after all of its
    predecessors, tracks the ready set, and finally materializes a
    :class:`~repro.core.schedule.Schedule`.

    Parameters
    ----------
    instance:
        The problem instance being scheduled.
    insertion:
        If True (default), ``est`` searches idle gaps between already
        committed tasks on a node (HEFT's insertion-based policy); if
        False, tasks are appended after the node's last committed task
        (the non-insertion policy of MCT, ETF, FCP, ...).

    The builder's timing tables come from the shared
    :class:`~repro.core.compiled.CompiledInstance` kernel: one compilation
    per instance, reused across builders (PISA's energy schedules every
    candidate twice; a whole genetic population's elites re-schedule every
    generation).  The instance must therefore not be mutated while a
    builder is live — PISA's perturbations already operate on copies, and
    schedulers build-and-discard.  (Mutation *between* builds is safe: the
    compile cache is keyed on the graphs' mutation counters.)

    State is kept by task and node id.  Remaining-predecessor counts,
    placed node ids and finish times are per-id lists; each node's
    committed entries are a start-sorted list.  Data-ready times live in
    one ``(|T|, |V|)`` matrix whose row for a task is computed once, when
    the task becomes ready (every predecessor committed), so the batch
    queries gather a whole ready set with one ``take``.  The earliest
    starts a batch query scores are kept until the next :meth:`commit`,
    which reuses the row of the task it places instead of deriving it
    again.  :meth:`schedule` hands the sorted per-node lists to
    :class:`~repro.core.schedule.Schedule` without re-adding the entries.

    Batch queries — :meth:`est_all`, :meth:`eft_all`,
    :meth:`node_available_all` — return float64 arrays aligned with
    ``instance.network.nodes`` and are bit-identical, element for element,
    to the corresponding scalar query.  Earliest-start arrays are
    read-only: the builder holds on to them for the next commit.

    Every query and :meth:`commit` raise
    :class:`~repro.core.exceptions.InvalidInstanceError` (``unknown task
    't'`` / ``unknown node 'v'``) for a name the instance does not have;
    :meth:`commit` reports an unknown node as a
    :class:`~repro.core.exceptions.SchedulingError`.
    """

    def __init__(self, instance: ProblemInstance, insertion: bool = True) -> None:
        compiled = compile_instance(instance)  # validates on first compile
        self.instance = instance
        self.insertion = insertion
        self.compiled = compiled
        self._tasks: tuple[Task, ...] = compiled.tasks
        self._nodes: tuple[Node, ...] = compiled.nodes
        self._task_id = compiled.task_id
        self._node_id = compiled.node_id
        self._exec_list = compiled.exec_list
        num_tasks, num_nodes = len(self._tasks), len(self._nodes)
        #: Committed entries per node id, sorted as ``insort`` leaves them.
        self._entries: list[list[ScheduledTask]] = [[] for _ in range(num_nodes)]
        #: Node ids in the order they received their first entry (the
        #: node order of the materialized Schedule).
        self._node_order: list[int] = []
        #: Committed entries by task, in commit order.
        self._placed: dict[Task, ScheduledTask] = {}
        #: Unplaced predecessors, placed node id (None while unplaced) and
        #: finish time, by task id.
        self._remaining: list[int] = [len(ps) for ps in compiled.pred_ids]
        self._placed_vid: list[int | None] = [None] * num_tasks
        self._end: list[float] = [0.0] * num_tasks
        #: Sorted task ids of the current ready set (insertion order ==
        #: id order, so the incremental list reproduces the full rescan).
        self._ready_ids: list[int] = [
            tid for tid, left in enumerate(self._remaining) if not left
        ]
        #: Finish time of the last committed task per node id.
        self._avail = np.zeros(num_nodes)
        #: Data-ready times; row ``t`` is valid once task ``t`` is ready
        #: (source rows are the zeros they start as).
        self._drt = np.zeros((num_tasks, num_nodes))
        #: Earliest-start rows scored since the last commit, by task id.
        self._scored: dict[int, np.ndarray] = {}
        self._makespan = 0.0

    # ------------------------------------------------------------------ #
    # Ids (the canonical errors for unknown names)
    # ------------------------------------------------------------------ #
    def _tid(self, task: Task) -> int:
        tid = self._task_id.get(task)
        if tid is None:
            raise InvalidInstanceError(f"unknown task {task!r}")
        return tid

    def _vid(self, node: Node) -> int:
        vid = self._node_id.get(node)
        if vid is None:
            raise InvalidInstanceError(f"unknown node {node!r}")
        return vid

    def _tids(self, tasks: Iterable[Task]) -> list[int]:
        try:
            return list(map(self._task_id.__getitem__, tasks))
        except KeyError as exc:
            raise InvalidInstanceError(f"unknown task {exc.args[0]!r}") from None

    def _unready(self, tid: int) -> SchedulingError:
        """The error for querying a task with an unscheduled predecessor."""
        placed_vid = self._placed_vid
        pid = next(p for p in self.compiled.pred_ids[tid] if placed_vid[p] is None)
        return SchedulingError(
            f"cannot evaluate task {self._tasks[tid]!r}: "
            f"predecessor {self._tasks[pid]!r} unscheduled"
        )

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def scheduled_tasks(self) -> tuple[Task, ...]:
        return tuple(self._placed)

    @property
    def unscheduled_tasks(self) -> tuple[Task, ...]:
        return tuple(t for t in self._tasks if t not in self._placed)

    def is_scheduled(self, task: Task) -> bool:
        return task in self._placed

    def ready_tasks(self) -> list[Task]:
        """Unscheduled tasks whose predecessors are all scheduled.

        Order matches task-graph insertion order, so iteration is
        deterministic.  Maintained incrementally by :meth:`commit` (no
        full rescan per round).
        """
        return list(map(self._tasks.__getitem__, self._ready_ids))

    def placement(self, task: Task) -> ScheduledTask:
        """The committed entry for ``task`` (raises if not yet committed)."""
        entry = self._placed.get(task)
        if entry is None:
            self._tid(task)
            raise SchedulingError(f"task {task!r} has not been scheduled yet")
        return entry

    def node_available(self, node: Node) -> float:
        """Finish time of the last committed task on ``node`` (0.0 if idle)."""
        entries = self._entries[self._vid(node)]
        return entries[-1].end if entries else 0.0

    def node_available_all(self) -> np.ndarray:
        """Per-node finish times of the last committed tasks.

        Aligned with ``instance.network.nodes``.  A live, read-only view:
        it reflects subsequent commits, so callers must not mutate it.
        """
        return self._avail

    @property
    def node_str_order(self) -> np.ndarray:
        """Rank of each node index under ``str(node)`` ordering.

        For vectorizing ``min(nodes, key=lambda v: (score(v), str(v)))``
        via :func:`repro.core.compiled.argmin_ranked`.
        """
        return self.compiled.node_str_order

    # ------------------------------------------------------------------ #
    # Data-ready rows
    # ------------------------------------------------------------------ #
    def _drt_row(self, tid: int) -> np.ndarray:
        """Data-ready times of the ready task ``tid`` on every node.

        The sequential ``max`` fold over predecessors is replicated with
        element-wise ``np.maximum`` in the same order, so every entry is
        bit-identical to the scalar reference.  The row is folded into a
        temporary that the caller stores into the matrix; committed
        placements are immutable, so it never goes stale.
        """
        compiled = self.compiled
        row = np.zeros(len(self._nodes))
        placed_vid = self._placed_vid
        ends = self._end
        row_has_zero = compiled.strength_row_has_zero
        strength = compiled.strength
        for pid, data in compiled.pred_edges[tid]:
            src_vid = placed_vid[pid]
            end = ends[pid]
            if data == 0.0:
                row = np.maximum(row, end)
            elif not (row_has_zero[src_vid] or math.isinf(data)):
                # Hot path: finite data over live links divides clean
                # (x / inf == 0 covers the diagonal and infinite links).
                row = np.maximum(row, end + data / strength[src_vid])
            else:
                # Dead links / infinite data: the convention corner cases
                # live in one place, CompiledInstance.comm_row.
                row = np.maximum(row, end + compiled.comm_row(data, src_vid))
        return row

    def data_ready_time(self, task: Task, node: Node) -> float:
        """Earliest time all inputs of ``task`` are available at ``node``.

        Max over scheduled predecessors of (finish + communication); all
        predecessors must already be committed.
        """
        tid = self._tid(task)
        vid = self._vid(node)
        if self._remaining[tid]:
            raise self._unready(tid)
        return float(self._drt[tid, vid])

    def enabling_parent(self, task: Task, node: Node) -> Task | None:
        """The predecessor whose message arrives last at ``node`` (FCP/FLB).

        Returns None for source tasks.
        """
        tid = self._tid(task)
        vid = self._vid(node)
        if self._remaining[tid]:
            raise self._unready(tid)
        compiled = self.compiled
        best: tuple[float, int] | None = None
        for pid in compiled.pred_ids[tid]:
            arrival = self._end[pid] + compiled.comm(pid, tid, self._placed_vid[pid], vid)
            if best is None or arrival > best[0]:
                best = (arrival, pid)
        return self._tasks[best[1]] if best else None

    # ------------------------------------------------------------------ #
    # Timing queries
    # ------------------------------------------------------------------ #
    def _est(self, tid: int, vid: int) -> float:
        if self._remaining[tid]:
            raise self._unready(tid)
        return self._earliest_slot(vid, float(self._drt[tid, vid]), self._exec_list[tid][vid])

    def est(self, task: Task, node: Node) -> float:
        """Earliest start of ``task`` on ``node`` under the builder's policy."""
        return self._est(self._tid(task), self._vid(node))

    def eft(self, task: Task, node: Node) -> float:
        """Earliest finish of ``task`` on ``node``."""
        tid = self._tid(task)
        vid = self._vid(node)
        return self._est(tid, vid) + self._exec_list[tid][vid]

    def _est_row(self, tid: int) -> np.ndarray:
        """Earliest starts of task ``tid`` on every node (kept for commit)."""
        if self._remaining[tid]:
            raise self._unready(tid)
        row = self._drt[tid]
        if not self.insertion:
            # Non-insertion earliest slot is max(ready, last end) — one
            # vectorized maximum (infinite ready times stay infinite).
            out = np.maximum(row, self._avail)
        else:
            # Insertion gap scans are per-node Python; tolist() unboxes the
            # ready times once instead of paying np.float64 boxing per index.
            entries_of = self._entries
            exec_row = self._exec_list[tid]
            out = np.array(
                [
                    _first_fit(entries_of[vid], ready, exec_row[vid])
                    if entries_of[vid]
                    else ready
                    for vid, ready in enumerate(row.tolist())
                ]
            )
        self._scored[tid] = out
        return out

    def _est_rows(self, tids: list[int]) -> np.ndarray:
        """Earliest starts of several tasks: one ``(R, |V|)`` array."""
        remaining = self._remaining
        if any(map(remaining.__getitem__, tids)):
            raise self._unready(next(tid for tid in tids if remaining[tid]))
        if self.insertion:
            return np.array([self._est_row(tid) for tid in tids])
        # take() gathers rows several times faster than list indexing.
        stack = np.maximum(self._drt.take(tids, 0), self._avail)
        self._scored.update(zip(tids, stack))
        return stack

    def est_all(self, task: Task) -> np.ndarray:
        """Earliest starts of ``task`` on every node, in one sweep.

        Aligned with ``instance.network.nodes``; each element equals
        ``est(task, node)`` bit-for-bit.
        """
        row = self._est_row(self._tid(task))
        row.flags.writeable = False  # commit reuses it
        return row

    def eft_all(self, task: Task) -> np.ndarray:
        """Earliest finishes of ``task`` on every node, in one sweep."""
        tid = self._tid(task)
        # est + exec element-wise: an infinite start stays infinite, and
        # finite sums are the identical IEEE addition of the scalar path.
        return self._est_row(tid) + self.compiled.exec_tbl[tid]

    def est_all_many(self, tasks: list[Task]) -> np.ndarray:
        """Earliest starts of several tasks on every node: one (R, |V|) sweep.

        Row ``i`` equals ``est_all(tasks[i])`` bit-for-bit.  Under the
        non-insertion policy the whole ready set of a list scheduler's
        round is one gather from the data-ready matrix and one vectorized
        maximum (the insertion policy's gap scans stay per-task).
        """
        stack = self._est_rows(self._tids(tasks))
        stack.flags.writeable = False  # commit reuses its rows
        return stack

    def eft_all_many(self, tasks: list[Task]) -> np.ndarray:
        """Earliest finishes of several tasks on every node, one sweep."""
        tids = self._tids(tasks)
        return self._est_rows(tids) + self.compiled.exec_tbl.take(tids, 0)

    def best_node_by_eft(self, task: Task, nodes: Iterable[Node] | None = None) -> Node:
        """Node minimizing EFT for ``task`` (first wins on ties)."""
        if nodes is None:
            # Batched sweep; argmin keeps the first minimum, matching
            # the scalar min() over nodes in insertion order.
            return self._nodes[int(self.eft_all(task).argmin())]
        candidates = list(nodes)
        if not candidates:
            raise SchedulingError("no candidate nodes")
        return min(candidates, key=lambda v: (self.eft(task, v),))

    def _earliest_slot(self, vid: int, ready: float, duration: float) -> float:
        """Earliest feasible start on node ``vid`` at or after ``ready``."""
        if math.isinf(ready):
            return math.inf
        entries = self._entries[vid]
        if not entries:
            return ready
        if not self.insertion:
            end = entries[-1].end
            return end if end > ready else ready  # max(ready, end)
        return _first_fit(entries, ready, duration)

    # ------------------------------------------------------------------ #
    # Committing
    # ------------------------------------------------------------------ #
    def commit(self, task: Task, node: Node, start: float | None = None) -> ScheduledTask:
        """Schedule ``task`` on ``node``.

        If ``start`` is None, the policy's earliest start is used (the row
        a batch query scored since the last commit, when there is one).
        An explicit ``start`` must be feasible: a number >= 0, not before
        the data-ready time and not overlapping committed tasks.  An
        infeasible one raises :class:`SchedulingError` and leaves the
        builder unchanged.  This path is used by replay / test code.
        """
        tid = self._task_id.get(task)
        if tid is None:
            raise InvalidInstanceError(f"unknown task {task!r}")
        if self._placed_vid[tid] is not None:
            raise SchedulingError(f"task {task!r} is already scheduled")
        if self._remaining[tid]:
            raise SchedulingError(
                f"task {task!r} committed before its predecessors were scheduled"
            )
        vid = self._node_id.get(node)
        if vid is None:
            raise SchedulingError(f"unknown node {node!r}")
        duration = self._exec_list[tid][vid]
        entries = self._entries[vid]
        if start is None:
            scored = self._scored.get(tid)
            if scored is not None:
                start = float(scored[vid])
            else:
                start = self._earliest_slot(vid, float(self._drt[tid, vid]), duration)
            end = start + duration
        else:
            if not start >= 0.0:  # NaN fails the >= too
                raise SchedulingError(f"explicit start {start} of {task!r} must be >= 0")
            ready = float(self._drt[tid, vid])
            if start < ready - 1e-9:
                raise SchedulingError(
                    f"explicit start {start} of {task!r} precedes data-ready time {ready}"
                )
            for entry in entries:
                if start < entry.end - 1e-12 and entry.start < start + duration - 1e-12:
                    raise SchedulingError(
                        f"explicit start {start} of {task!r} overlaps {entry.task!r}"
                    )
            end = start + duration
            start, end = float(start), float(end)
        entry = ScheduledTask(start, end, task, node)
        if not entries:
            self._node_order.append(vid)
            entries.append(entry)
        elif entries[-1].start < start:
            entries.append(entry)  # sorts last: what insort would do
        else:
            insort(entries, entry)
        self._placed[task] = entry
        self._placed_vid[tid] = vid
        self._end[tid] = end
        self._avail[vid] = entries[-1].end
        if end > self._makespan:
            self._makespan = end
        self._scored.clear()
        # Incremental ready set: drop the committed task, add successors
        # whose last predecessor this was (sorted insert keeps id order)
        # and fold their data-ready rows.
        ready_ids = self._ready_ids
        del ready_ids[bisect_left(ready_ids, tid)]
        remaining = self._remaining
        for sid in self.compiled.succ_ids[tid]:
            left = remaining[sid] - 1
            remaining[sid] = left
            if not left:
                insort(ready_ids, sid)
                self._drt[sid] = self._drt_row(sid)
        return entry

    def makespan(self) -> float:
        """Makespan of the committed entries so far (running maximum)."""
        return self._makespan

    def schedule(self) -> Schedule:
        """Materialize the final :class:`Schedule`; all tasks must be committed.

        The per-node lists are copied into the schedule as they are: every
        entry passes :meth:`Schedule.add`'s checks, because :meth:`commit`
        refuses a NaN or negative start and no execution time is NaN.
        """
        placed = self._placed
        if len(placed) != len(self._tasks):
            missing = self.unscheduled_tasks
            raise SchedulingError(f"tasks left unscheduled: {sorted(map(str, missing))}")
        nodes, entries = self._nodes, self._entries
        return Schedule._adopt(
            {nodes[vid]: entries[vid].copy() for vid in self._node_order}, dict(placed)
        )


def _first_fit(entries: list[ScheduledTask], ready: float, duration: float) -> float:
    """Insertion policy: the first gap in ``entries`` that fits ``duration``.

    Scans the gaps before the first task, between tasks and after the last
    task.  The comparison is exact: an epsilon here would let tasks
    overlap by that epsilon, which the validator rightly rejects.  Each
    ``b if b > a else a`` is ``max(a, b)`` exactly, NaN included.
    """
    gap_start = 0.0
    for entry in entries:
        start = ready if ready > gap_start else gap_start
        if start + duration <= entry.start:
            return start
        end = entry.end
        if end > gap_start:
            gap_start = end
    return ready if ready > gap_start else gap_start
