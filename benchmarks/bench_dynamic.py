"""Dynamic-replay throughput: events/second through the discrete-event core.

Full-dynamics replays (fair-share contention + uniform runtime error) on
the shared bench instance pool, counting every simulator event (starts,
finishes, transfer arrivals, link-service completions) over wall-clock
time.  The figure lands in ``benchmarks/_reports/runtime.json`` under
``dynamic_replay``; it is recorded, not gated, because absolute rates
track the machine.
"""

from __future__ import annotations

import math

from repro import get_scheduler
from repro.core.dynamic import DynamicsSpec, NoiseSpec, simulate_schedule

from benchmarks.bench_runtime import _bench_instances, _timed, _write_timings

REPLAY_INSTANCES = 20
DYNAMICS = DynamicsSpec(
    contention="fair", error=NoiseSpec(kind="uniform", low=0.7, high=1.8)
)


def test_dynamic_replay_throughput(report_dir):
    """Dynamic events/second over HEFT plans of the bench instances."""
    instances = _bench_instances(REPLAY_INSTANCES, rng=0)
    heft = get_scheduler("HEFT")
    pairs = [(heft.schedule(instance), instance) for instance in instances]

    def dynamic_pass():
        events = 0
        for seed, (plan, instance) in enumerate(pairs):
            events += len(simulate_schedule(plan, instance, DYNAMICS, rng=seed).events)
        return events

    dynamic_pass()  # warm-up
    events, t_dynamic = _timed(dynamic_pass)
    events_per_second = events / t_dynamic if t_dynamic > 0 else math.inf

    _write_timings(
        report_dir,
        "dynamic_replay",
        {
            "instances": len(instances),
            "dynamic_events": events,
            "dynamic_seconds": round(t_dynamic, 4),
            "events_per_second": round(events_per_second, 1),
        },
    )
