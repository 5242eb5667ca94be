"""Figs. 7 & 8: hand-crafted instance families generalizing the case study.

Section VI-B distills the PISA findings into two parametric families
(registered as the ``fig7``/``fig8`` instance families in
:mod:`repro.datasets.families`):

* **Fig. 7** (HEFT loses): a 4-task fork-join with one very expensive
  initial communication edge on a homogeneous network.
* **Fig. 8** (CPoP loses): a wide fork-join on a 4-node network whose
  fastest node has a weak link to the second-fastest.

Each family is sampled 1000 times (paper scale) and the HEFT/CPoP
makespan distributions are compared — Fig. 7 should show HEFT markedly
worse, Fig. 8 CPoP markedly worse.  The two samples are benchmark-mode
sweeps (:func:`repro.sweeps.fig7_spec` / :func:`~repro.sweeps.fig8_spec`)
executed by :func:`repro.sweeps.run_sweep`; with a ``run_dir`` each
family checkpoints its per-instance units to ``run_dir/<family>`` so an
interrupted run resumes instead of restarting.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.benchmarking.report import boxplot_row, format_table
from repro.datasets.families import fig7_instance, fig8_instance  # noqa: F401 (re-export)
from repro.experiments.config import pick
from repro.sweeps import fig7_spec, fig8_spec, run_sweep
from repro.utils.rng import as_generator

__all__ = ["fig7_instance", "fig8_instance", "FamilyResult", "run"]


@dataclass
class FamilyResult:
    name: str
    makespans: dict[str, np.ndarray]  # scheduler -> per-instance makespans

    def mean(self, scheduler: str) -> float:
        return float(self.makespans[scheduler].mean())

    def median(self, scheduler: str) -> float:
        return float(np.median(self.makespans[scheduler]))


@dataclass
class Fig78Result:
    fig7: FamilyResult
    fig8: FamilyResult
    report: str


def run(
    num_instances: int | None = None,
    rng: int = 0,
    full: bool | None = None,
    jobs: int = 1,
    run_dir=None,
    resume: bool = False,
) -> Fig78Result:
    """Regenerate Figs. 7/8.

    With a ``run_dir``, each family's per-instance units checkpoint to
    ``run_dir/fig7`` and ``run_dir/fig8``; ``resume=True`` skips units
    already recorded there.
    """
    n = num_instances if num_instances is not None else pick(100, 1000, full)
    # One generator threads both families (fig8's streams follow fig7's in
    # the spawn order), preserving the historical RNG streams.
    gen = as_generator(rng)
    seed = rng if isinstance(rng, (int, np.integer)) else 0
    results = {}
    for spec in (fig7_spec(num_instances=n, seed=seed), fig8_spec(num_instances=n, seed=seed)):
        family_dir = Path(run_dir) / spec.name if run_dir is not None else None
        sweep = run_sweep(spec, jobs=jobs, run_dir=family_dir, resume=resume, rng=gen)
        results[spec.name] = FamilyResult(name=spec.name, makespans=sweep.makespans)
    fig7, fig8 = results["fig7"], results["fig8"]

    lines = [f"Figs. 7/8 — HEFT vs CPoP on crafted instance families ({n} samples each)", ""]
    rows = []
    for fam, expected in ((fig7, "HEFT worse"), (fig8, "CPoP worse")):
        rows.append(
            (
                fam.name,
                f"{fam.mean('CPoP'):.2f}",
                f"{fam.mean('HEFT'):.2f}",
                f"{fam.mean('HEFT') / fam.mean('CPoP'):.2f}",
                expected,
            )
        )
    lines.append(
        format_table(
            ["family", "CPoP mean", "HEFT mean", "HEFT/CPoP", "paper expectation"], rows
        )
    )
    for fam in (fig7, fig8):
        lines.append("")
        lines.append(f"{fam.name} makespan distributions:")
        for s in fam.makespans:
            lines.append(boxplot_row(s, fam.makespans[s].tolist()))
    return Fig78Result(fig7=fig7, fig8=fig8, report="\n".join(lines))


if __name__ == "__main__":  # pragma: no cover
    print(run().report)
