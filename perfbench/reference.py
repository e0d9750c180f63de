"""The reference kernel: fixed work that measures the machine's speed of the moment.

On a host shared with other tenants the same code runs at speeds that
drift by tens of percent over minutes.  The benchmark times this kernel
next to every timed call and reports throughput in *reference seconds*:
a call's wall time divided by the wall time of the kernel around it, times
``NOMINAL_S``.  A slowdown of the host stretches both times alike and
cancels; a change of the program changes only the call.

The kernel uses numpy and scipy only, never ``adaptspline``, so no change
of the program moves it.  Its operations are the program's kinds of work:
banded Cholesky solves of spline-sized systems at n = 400 (call overhead)
and n = 25600 (O(n) work), and Gaussian draws, cumulative sums and a gather
over a batch of rows (the simulation path of ``calibrate_tau``).  Its
inputs are fixed; they do not depend on the run seed.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

# reference seconds per kernel call: about its wall time on the 2-core
# machine of README.md's reference figures
NOMINAL_S = 0.025

_rng = np.random.default_rng(20071211)


def _system(n: int) -> tuple[np.ndarray, np.ndarray]:
    """An upper banded (3 × n) positive definite system and a right-hand side."""
    ab = np.abs(_rng.standard_normal((3, n)))
    ab[-1] += 10.0
    return ab, _rng.standard_normal(n)


_SMALL = _system(400)
_LARGE = _system(25600)
_GATHER = _rng.integers(0, 10000, 20000)


def _solves(system, count: int) -> None:
    ab, rhs = system
    for _ in range(count):
        x = cho_solve_banded((cholesky_banded(ab, lower=False), False), rhs)
        np.abs(rhs - x).max()


def kernel() -> None:
    _solves(_SMALL, 20)
    _solves(_LARGE, 2)
    c = np.cumsum(np.random.default_rng(1).standard_normal((40, 10000)), axis=1)
    c[:, _GATHER].max(axis=1)


def timed() -> float:
    """Wall time of one kernel call, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
