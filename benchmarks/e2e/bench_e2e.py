"""Smoke test of the end-to-end benchmark, collected by ``pytest benchmarks``.

Runs every workload at ``--scale smoke`` with ``--trace 1`` (one untraced
and one traced repetition each, ~15 s in all) and checks the benchmark's
own promises: every catalogued metric is printed with its unit, the
layers plus the residual add up to the traced time, the trace wrappers
do not change results, and the results equal a local ``jobs=1`` run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]
SEED = 3
REP_LINE = re.compile(r"^rep \d+ (traced|untraced): .* digest (\w+) \(ok\)$")


@pytest.fixture(scope="module")
def outputs() -> dict[str, list[str]]:
    out = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
             "--seconds", "1", "--trace", "1", "--scale", "smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
        out[workload] = proc.stdout.splitlines()
    return out


def _result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(outputs, workload):
    lines = outputs[workload]
    printed = {tuple(line.split()[::2]) for line in lines if line.startswith("  ")}
    for metric in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]:
        assert (metric["name"], metric["unit"]) in printed, metric["name"]
    result = _result(lines)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in CATALOGUE["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_and_residual_add_up_to_the_traced_time(outputs, workload):
    import tracing

    metrics = {k: v["value"] for k, v in _result(outputs[workload])["metrics"].items()}
    layers = list(tracing.SELF_TIME_METRICS.values())
    layers += [m["name"] for m in CATALOGUE["per_layer"]
               if m["name"].startswith("schedulers.") and m["name"].count(".") == 2]
    total = sum(metrics[m] for m in layers) + metrics["unattributed_s"]
    assert total == pytest.approx(metrics["trace.total_s"], rel=0.01)
    if metrics["trace.processes"] == 1:
        assert metrics["trace.total_s"] == pytest.approx(metrics["trace.wall_s"], rel=0.01)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_results_equal_untraced_and_local_serial_ones(outputs, workload):
    import workloads

    digests = {}
    for line in outputs[workload]:
        match = REP_LINE.match(line)
        if match:
            digests.setdefault(match.group(1), set()).add(match.group(2))
    assert set(digests) == {"traced", "untraced"}
    assert digests["traced"] == digests["untraced"]
    assert digests["traced"] == {workloads.reference_digest(workload, SEED, "smoke")}
