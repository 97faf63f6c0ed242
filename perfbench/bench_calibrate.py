"""Machine-speed calibration for the end-to-end metrics.

The hosts this benchmark runs on are shared: the speed of a vCPU changes by
up to 1.7x, for seconds to minutes at a time, with no steal time to show
for it, and a fixed computation timed at different minutes of one hour
differs by more than any regression bound worth having. The benchmark
therefore times a fixed kernel beside the ops and reports every end-to-end
time scaled to a machine on which that kernel takes REFERENCE_S. The kernel
mixes interpreter work (dict and tuple churn, as in the affine frontier and
the CLI) with small complex einsum, kron and matmul calls (as in the
composite rules). It does not touch gptlab, so no change to the program
can move it.
"""

from time import perf_counter

import numpy as np

REFERENCE_S = 0.0025

_rng = np.random.default_rng(0)
_K = _rng.random((8, 8)) + 1j * _rng.random((8, 8))
_B = _rng.random((36, 8, 8)) + 0j
_M = _rng.random((64, 64))
_V = _rng.random(64)


def _kernel() -> None:
    table: dict = {}
    for i in range(1500):
        key = (i & 63, i % 7, "ab"[i & 1])
        table[key] = table.get(key, 0.0) + 0.5
    for _ in range(6):
        np.einsum("ij,bjk,lk->bil", _K, _B, _K.conj())
    for _ in range(40):
        _M @ _V
        np.kron(_V[:8], _V[:8])


def sample() -> float:
    """Seconds one run of the calibration kernel takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0
