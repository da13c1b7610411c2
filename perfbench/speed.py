"""Machine-speed calibration for scaling measured times.

The benchmark shares its machine, and the machine's speed drifts by
20-30 % over seconds to minutes (CPU time moves with wall time, so the
process is slowed, not descheduled). Every reported time is therefore
scaled to a reference speed: t * REFERENCE_S / c, where c is the time of
`calibrate` measured next to t in the same process. The kernel mixes
interpreter work, small LAPACK calls and one medium factorization, like
the workloads, and never calls framekit, so a change to framekit moves
the scaled times and leaves c alone.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from numpy.linalg import eigvalsh, svd

# calibrate() on the reference machine (2-core x86-64 VM, Python 3.11,
# numpy 2.4 with OpenBLAS, one BLAS thread), so scaled seconds read as
# seconds there.
REFERENCE_S = 0.015

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((40, 40))
_SMALL = _SMALL + _SMALL.T
_MEDIUM = _rng.standard_normal((160, 160))


def calibrate() -> float:
    """Seconds one fixed, framekit-free mixed kernel takes right now."""
    start = perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    for _ in range(40):
        eigvalsh(_SMALL)
        svd(_SMALL, compute_uv=False)
    svd(_MEDIUM)
    return perf_counter() - start


def scale(c: float) -> float:
    """Factor turning seconds measured at calibration time c into
    seconds at the reference speed."""
    return REFERENCE_S / c
