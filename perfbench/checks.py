"""Independent oracles for the benchmark's output checks.

Nothing here calls ``adaptspline``.  Each oracle recomputes what the
program must return, from scipy and numpy or from the rules the program's
docstrings state, so no check compares against stored output.  scipy's
``interpolate`` and ``stats`` are imported on first use: the oracles are
not part of the program's set-up time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Agreement of a mean fit with scipy's smoothing spline, as a fraction of
# the data spread.  Measured worst cases: 2e-11 over 300 fits at n = 400,
# 2e-8 over 424 robust fits at n = 1024, whose weights span up to seven
# decades (there the program's normal-equation residual was the smaller of
# the two).  Above n = 4096 the program's Reinsch solve loses digits (about
# 1e-5 for rupcar-hi at n = 25600), so that tolerance only guards against
# gross errors.
SPLINE_TOL_SMALL = 1e-6
SPLINE_TOL_LARGE = 1e-4
SPLINE_TOL_SWITCH_N = 4096
LINE_TOL = 1e-9
THRESHOLD_RTOL = 1e-12
W_SLACK = 1e-9
TAU_RTOL = 1e-12


class CheckError(AssertionError):
    """An output of the program disagrees with its oracle."""


@functools.cache
def dyadic_family(n: int) -> tuple[np.ndarray, np.ndarray]:
    """1-based inclusive (lo, hi) of the documented dyadic family.

    Levels k = 1, 2, 4, ... below n give the blocks [1, k], [k+1, 2k], ...
    with a shorter trailing block where k does not divide n; the full range
    [1, n] is added on top.
    """
    lo, hi = [], []
    k = 1
    while k < n:
        for start in range(1, n + 1, k):
            lo.append(start)
            hi.append(min(start + k - 1, n))
        k *= 2
    lo.append(1)
    hi.append(n)
    return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)


def _block_sums(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    c = np.concatenate(([0.0], np.cumsum(values)))
    return c[hi] - c[lo - 1]


def check_mean_fit(t: np.ndarray, y: np.ndarray, report) -> None:
    """Check one ``FitReport`` of ``fit`` on the data (t, y)."""
    n = t.size
    spread = float(np.ptp(y))
    values = report.final_fit.values
    if report.final_weights is None:
        design = np.column_stack((np.ones(n), t))
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        err = float(np.max(np.abs(design @ coef - values)))
        if err > LINE_TOL * spread:
            raise CheckError(f"accepted line is {err:.3g} from the least-squares line")
    else:
        from scipy.interpolate import make_smoothing_spline

        oracle = make_smoothing_spline(t, y, w=report.final_weights, lam=1.0)(t)
        err = float(np.max(np.abs(oracle - values)))
        tol = SPLINE_TOL_SMALL if n <= SPLINE_TOL_SWITCH_N else SPLINE_TOL_LARGE
        if err > tol * spread:
            raise CheckError(
                f"n={n}: fit differs from make_smoothing_spline by {err / spread:.3g} of the spread"
            )
    expected = report.sigma_used * math.sqrt(report.tau * math.log(n))
    if not math.isclose(report.threshold_used, expected, rel_tol=THRESHOLD_RTOL):
        raise CheckError(f"threshold {report.threshold_used!r} != sigma*sqrt(tau ln n) = {expected!r}")
    if report.passed:
        lo, hi = dyadic_family(n)
        w = _block_sums(y - values, lo, hi) / np.sqrt(hi - lo + 1)
        max_w = float(np.max(np.abs(w)))
        if max_w > report.threshold_used * (1.0 + W_SLACK):
            raise CheckError(f"passed fit has max|w| {max_w:.6g} > threshold {report.threshold_used:.6g}")


def check_scale_fit(y: np.ndarray, result) -> None:
    """``passed`` must hold exactly when every unpinned v lies in its chi-squared band."""
    from scipy.stats import chi2

    n = y.size
    lo, hi = dyadic_family(n)
    sizes = hi - lo + 1
    coverage = 1.0 - n**-1.5
    lower = np.empty(sizes.size)
    upper = np.empty(sizes.size)
    for size in np.unique(sizes):
        sel = sizes == size
        lower[sel] = chi2.ppf((1.0 - coverage) / 2.0, size)
        upper[sel] = chi2.ppf((1.0 + coverage) / 2.0, size)
    y2 = y * y
    scale = np.maximum(np.sqrt(np.maximum(result.s.values, 0.0)), result.floor)
    v = _block_sums(y2 / (scale * scale), lo, hi)
    pinned = _block_sums(y2 / result.floor**2, lo, hi) < lower
    inside = bool(np.all(((v >= lower) & (v <= upper)) | pinned))
    if result.degenerate or result.passed != inside:
        raise CheckError(
            f"scale fit passed={result.passed} degenerate={result.degenerate}, "
            f"chi-squared bands say {inside}"
        )


def tau_oracle(n: int, alpha: float, replicates: int, seed: int) -> float:
    """tau by the documented contract: replicate j draws from default_rng([seed, j])."""
    lo, hi = dyadic_family(n)
    inv_sqrt = 1.0 / np.sqrt(hi - lo + 1)
    maxima = np.empty(replicates)
    c = np.zeros(n + 1)
    for j in range(replicates):
        np.cumsum(np.random.default_rng([seed, j]).standard_normal(n), out=c[1:])
        maxima[j] = np.max(np.abs(c[hi] - c[lo - 1]) * inv_sqrt)
    q = np.sort(maxima)[math.ceil(alpha * replicates) - 1]
    return float(q * q / math.log(n))


def check_tau(tau: float, n: int, alpha: float, replicates: int, seed: int) -> None:
    expected = tau_oracle(n, alpha, replicates, seed)
    if not math.isclose(tau, expected, rel_tol=TAU_RTOL):
        raise CheckError(f"calibrate_tau gave {tau!r}, the seeding contract gives {expected!r}")
