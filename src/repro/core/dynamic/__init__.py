"""Dynamic replay of static schedules: a deterministic discrete-event layer.

This package answers "what happens to a planned schedule when reality
disagrees with the plan?"  :class:`DynamicsSpec` declares the disagreement
(link contention, runtime-estimate error, node slowdown, node failure) and
:func:`simulate_schedule` replays any :class:`~repro.core.schedule.Schedule`
under it through a fully deterministic event queue — see
:mod:`repro.core.dynamic.simulator` for the event model and the
determinism and degenerate-equivalence contracts.

Import this package directly (``from repro.core.dynamic import ...``);
it sits *on top of* the static core.  Its noise factors are vectorized
draws (``Generator.uniform`` and
:func:`repro.utils.distributions.clipped_gaussian_array`), not
:mod:`repro.stochastic.variables`; they equal that module's scalar
samples bit for bit (pinned in ``tests/test_dynamic.py``).
"""

from repro.core.dynamic.simulator import (
    DynamicResult,
    sample_seed_stream,
    simulate_schedule,
)
from repro.core.dynamic.spec import (
    CONTENTION_MODES,
    FAILURE_FATES,
    FAILURE_PICKS,
    NOISE_KINDS,
    DynamicsError,
    DynamicsSpec,
    FailureSpec,
    NoiseSpec,
)

__all__ = [
    "CONTENTION_MODES",
    "FAILURE_FATES",
    "FAILURE_PICKS",
    "NOISE_KINDS",
    "DynamicsError",
    "DynamicsSpec",
    "DynamicResult",
    "FailureSpec",
    "NoiseSpec",
    "sample_seed_stream",
    "simulate_schedule",
]
