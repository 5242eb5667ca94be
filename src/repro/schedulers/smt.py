"""SMT — (1+eps)-optimal scheduling via decision procedure + binary search.

The paper's SMT scheduler "uses an SMT (satisfiability modulo theory)
solver and binary search to find a (1+eps)-OPT schedule" (Section IV-A).
No SMT solver is available offline, so — per the substitution policy in
DESIGN.md — we implement the same construction on top of a home-grown
complete decision procedure:

* ``decide(B)``: is there a valid schedule with makespan <= B?  Answered by
  a depth-first search that branches on (ready task, node) placements and
  prunes any partial schedule whose finish time, or whose optimistic
  completion lower bound (remaining critical path on the fastest node),
  already exceeds B.  This is complete for the same reason BruteForce is:
  every schedule is reachable by committing tasks in start-time order.
* Binary search on B between a makespan lower bound and the best heuristic
  upper bound until the gap is within ``eps`` relatively; the certificate
  schedule of the last satisfiable B is returned.

Like the SMT original, this is exponential in the worst case and excluded
from the paper's experiments; tests use it as a near-optimality oracle.
"""

from __future__ import annotations

import math

from repro.core.exceptions import SchedulingError
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.core.scheduler import Scheduler, SchedulerInfo, register_scheduler
from repro.core.simulator import ScheduleBuilder
from repro.utils.topo import longest_path_length

__all__ = ["SMTScheduler"]


@register_scheduler
class SMTScheduler(Scheduler):
    """(1+eps)-OPT via binary search over a complete decision procedure.

    Parameters
    ----------
    eps:
        Relative optimality gap; the returned makespan is at most
        (1 + eps) * OPT.
    max_nodes_expanded:
        Safety valve on the total DFS nodes across all decision calls.
    """

    name = "SMT"
    info = SchedulerInfo(
        name="SMT",
        full_name="SMT-driven Binary Search",
        reference="this paper (solver substituted, see DESIGN.md)",
        complexity="exponential",
        machine_model="unrelated",
        exponential=True,
        notes="(1+eps)-OPT; excluded from experiments.",
    )

    def __init__(self, eps: float = 0.01, max_nodes_expanded: int = 5_000_000) -> None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = eps
        self.max_nodes_expanded = max_nodes_expanded

    # ------------------------------------------------------------------ #
    def schedule(self, instance: ProblemInstance) -> Schedule:
        upper_schedule = self._heuristic_upper_bound(instance)
        hi = upper_schedule.makespan
        lo = self._lower_bound(instance)
        if math.isinf(hi):
            # Even the heuristics route data over dead links; fall back to
            # serialising on the fastest node, which is always finite.
            return upper_schedule
        best_schedule = upper_schedule
        self._expanded = 0
        while hi - lo > self.eps * max(lo, 1e-12):
            mid = (lo + hi) / 2.0
            certificate = self._decide(instance, mid)
            if certificate is not None:
                hi = certificate.makespan
                best_schedule = certificate
            else:
                lo = mid
        return best_schedule

    # ------------------------------------------------------------------ #
    def _heuristic_upper_bound(self, instance: ProblemInstance) -> Schedule:
        """Best of HEFT and FastestNode as the binary search's upper end."""
        from repro.schedulers.fastest_node import FastestNodeScheduler
        from repro.schedulers.heft import HEFTScheduler

        candidates = [
            FastestNodeScheduler().schedule(instance),
            HEFTScheduler().schedule(instance),
        ]
        return min(candidates, key=lambda s: s.makespan)

    @staticmethod
    def _lower_bound(instance: ProblemInstance) -> float:
        """max(critical path at max speed, total work / total speed)."""
        net, tg = instance.network, instance.task_graph
        smax = max(net.speed(v) for v in net.nodes)
        cp = longest_path_length(
            tg.successor_map, {t: tg.cost(t) / smax for t in tg.tasks}
        )
        area = tg.total_cost() / sum(net.speed(v) for v in net.nodes)
        return max(cp, area)

    def _decide(self, instance: ProblemInstance, bound: float) -> Schedule | None:
        """Return a schedule with makespan <= bound, or None if none found."""
        smax = max(instance.network.speed(v) for v in instance.network.nodes)
        # Optimistic remaining time at/below each task: its critical path
        # executed on the fastest node with free communication.
        tail: dict = {}
        tg = instance.task_graph
        for task in reversed(tg.topological_order()):
            succ = max((tail[s] for s in tg.successors(task)), default=0.0)
            tail[task] = tg.cost(task) / smax + succ

        nodes = instance.network.nodes

        # ScheduleBuilder is append-only, so instead of undoing commits we
        # replay the committed prefix at each branch point.  At oracle scale
        # (<= 6 tasks) this is cheap and keeps the builder API minimal.
        def dfs_clone(committed: list[tuple[object, object]]) -> Schedule | None:
            self._expanded += 1
            if self._expanded > self.max_nodes_expanded:
                raise SchedulingError(
                    f"SMT decision procedure exceeded {self.max_nodes_expanded} nodes"
                )
            builder = ScheduleBuilder(instance, insertion=False)
            for t, v in committed:
                builder.commit(t, v)
            ready = builder.ready_tasks()
            if not ready:
                sched = builder.schedule()
                return sched if sched.makespan <= bound * (1 + 1e-12) else None
            # Branch over every (ready task, node) placement.  Restricting
            # the branching to one priority-chosen task would be incomplete:
            # reproducing an arbitrary schedule by appending tasks requires
            # committing them in that schedule's start-time order, and the
            # optimal order need not follow any fixed priority.  Trying the
            # longest-tail tasks first just finds certificates sooner.
            for task in sorted(ready, key=lambda t: (-tail[t], str(t))):
                for node in sorted(nodes, key=lambda v: (builder.eft(task, v), str(v))):
                    finish = builder.eft(task, node)
                    if math.isinf(finish):
                        continue
                    remaining_after = tail[task] - instance.task_graph.cost(task) / smax
                    if finish + remaining_after > bound * (1 + 1e-12):
                        continue
                    result = dfs_clone(committed + [(task, node)])
                    if result is not None:
                        return result
            return None

        return dfs_clone([])
