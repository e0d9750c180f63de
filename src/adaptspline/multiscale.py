"""Multiscale residual statistics and the noise confidence region.

A candidate function g is judged against the data through normalized
residual sums over a family of index intervals:

    w(y, I, g) = (1/sqrt(|I|)) * sum_{i in I} (y_i - g(t_i)).

The candidate is accepted when max_I |w| stays below sigma*sqrt(tau*log n)
(natural log throughout).  The interval family is the dyadic scheme: all
blocks of length 1, 2, 4, ... starting from the first index, a trailing
shorter block whenever the level does not divide n, and the full range on
top.  The threshold constant tau can be calibrated by simulation so that
pure Gaussian white noise is accepted with a prescribed probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .splines import Sample

__all__ = [
    "IntervalFamily",
    "RegionSpec",
    "RegionReport",
    "dyadic_family",
    "w_stat",
    "all_w_stats",
    "sigma_hat",
    "calibrate_tau",
    "in_region",
    "min_detectable_delta",
]

SIGMA_SCALE = 1.4826 / math.sqrt(2.0)


@dataclass(frozen=True)
class IntervalFamily:
    """Index intervals [lo, hi], 1-based inclusive, over {1, ..., n}."""

    lo: np.ndarray
    hi: np.ndarray
    n: int

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.int64)
        hi = np.asarray(self.hi, dtype=np.int64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be equal-length vectors")
        if lo.size == 0:
            raise ValueError("interval family is empty")
        if np.any(lo < 1) or np.any(hi > self.n) or np.any(lo > hi):
            raise ValueError("intervals must satisfy 1 <= lo <= hi <= n")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def sizes(self) -> np.ndarray:
        return self.hi - self.lo + 1

    def __len__(self) -> int:
        return self.lo.size

    def __iter__(self):
        return iter(zip(self.lo.tolist(), self.hi.tolist()))


def dyadic_family(n: int) -> IntervalFamily:
    """The dyadic multiscale family over n points.

    Levels k = 1, 2, 4, ... (while k < n) contribute the disjoint blocks
    [1, k], [k+1, 2k], ...; when k does not divide n the trailing shorter
    block is included as is.  The full interval [1, n] sits on top.  Blocks
    duplicated by the trailing rule are retained.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    los, his = [], []
    k = 1
    while k < n:
        starts = np.arange(1, n + 1, k, dtype=np.int64)
        los.append(starts)
        his.append(np.minimum(starts + k - 1, n))
        k *= 2
    los.append(np.array([1], dtype=np.int64))
    his.append(np.array([n], dtype=np.int64))
    return IntervalFamily(np.concatenate(los), np.concatenate(his), n)


def w_stat(sample: Sample, fit_values, interval) -> float:
    """Normalized residual sum over one interval (1-based inclusive)."""
    lo, hi = int(interval[0]), int(interval[1])
    if not (1 <= lo <= hi <= sample.n):
        raise ValueError("interval out of bounds")
    g = np.asarray(fit_values, dtype=float)
    r = sample.y[lo - 1 : hi] - g[lo - 1 : hi]
    return float(np.sum(r) / math.sqrt(hi - lo + 1))


def all_w_stats(sample: Sample, fit_values, family: IntervalFamily) -> np.ndarray:
    """Vector of w statistics, one per interval of the family."""
    g = np.asarray(fit_values, dtype=float)
    if g.shape != (sample.n,) or family.n != sample.n:
        raise ValueError("fit values and family must match the sample size")
    return _w_from_residuals(sample.y - g, family)


def _w_from_residuals(residuals: np.ndarray, family: IntervalFamily) -> np.ndarray:
    c = np.concatenate(([0.0], np.cumsum(residuals)))
    return (c[family.hi] - c[family.lo - 1]) / np.sqrt(family.sizes)


def sigma_hat(sample: Sample) -> float:
    """Noise scale from the median of absolute consecutive differences.

    Uses the first differences at indices 2..n-1 scaled by 1.4826/sqrt(2),
    so the estimate is consistent for the standard deviation under Gaussian
    noise and biased upwards in the presence of signal.
    """
    if sample.n < 3:
        raise ValueError("need at least 3 data points")
    diffs = np.abs(np.diff(sample.y)[: sample.n - 2])
    return SIGMA_SCALE * float(np.median(diffs))


@dataclass(frozen=True)
class RegionSpec:
    """Everything needed to test membership in the residual region."""

    sigma: float
    tau: float = 3.0
    n: int = 0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @property
    def threshold(self) -> float:
        """sigma * sqrt(tau * log n), natural log."""
        return self.sigma * math.sqrt(self.tau * math.log(self.n))


@dataclass(frozen=True)
class RegionReport:
    """Outcome of a membership test, violations sorted by |w| descending."""

    passed: bool
    threshold: float
    max_abs_w: float
    violation_lo: np.ndarray
    violation_hi: np.ndarray
    violation_w: np.ndarray

    @property
    def violations(self) -> list[tuple[int, int, float]]:
        return list(
            zip(self.violation_lo.tolist(), self.violation_hi.tolist(), self.violation_w.tolist())
        )


def in_region(sample: Sample, fit_values, family: IntervalFamily, spec: RegionSpec) -> RegionReport:
    """Test whether fitted values lie in the residual confidence region.

    Passes iff |w| <= threshold on every interval of the family; the report
    lists the violating intervals sorted by |w| descending.
    """
    w = all_w_stats(sample, fit_values, family)
    thr = spec.threshold
    aw = np.abs(w)
    max_abs = float(aw.max())
    bad = np.flatnonzero(aw > thr)
    order = bad[np.argsort(-aw[bad], kind="stable")]
    return RegionReport(
        passed=max_abs <= thr,
        threshold=thr,
        max_abs_w=max_abs,
        violation_lo=family.lo[order].copy(),
        violation_hi=family.hi[order].copy(),
        violation_w=w[order].copy(),
    )


def calibrate_tau(
    n: int,
    alpha: float = 0.95,
    family: IntervalFamily | None = None,
    replicates: int = 10000,
    seed: int = 0,
) -> float:
    """Calibrate the threshold constant tau by white-noise simulation.

    Simulates standard Gaussian noise, records per replicate the maximum of
    |sum Z_i| / sqrt(|I|) over the family, and returns

        tau = quantile_alpha(maxima)**2 / log(n)

    with the quantile taken as the order statistic at ceil(alpha*replicates).
    Replicate j draws from an independent generator seeded by (seed, j), so
    the result does not depend on execution order or batching.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if replicates < 1000:
        raise ValueError("need at least 1000 replicates")
    if family is None:
        family = dyadic_family(n)
    if family.n != n:
        raise ValueError("family size does not match n")
    inv_sqrt = 1.0 / np.sqrt(family.sizes)
    hi = family.hi
    lo0 = family.lo - 1

    maxima = np.empty(replicates)
    # a batch materialises a few batch x |family| arrays; 2**21 doubles
    # (16 MB) each keeps the peak memory flat in n
    batch = max(1, (1 << 21) // len(family))
    pos = 0
    while pos < replicates:
        b = min(batch, replicates - pos)
        z = np.empty((b, n))
        for j in range(b):
            z[j] = np.random.default_rng([seed, pos + j]).standard_normal(n)
        c = np.zeros((b, n + 1))
        np.cumsum(z, axis=1, out=c[:, 1:])
        w = np.abs(c[:, hi] - c[:, lo0]) * inv_sqrt
        maxima[pos : pos + b] = w.max(axis=1)
        pos += b

    maxima.sort()
    idx = math.ceil(alpha * replicates)
    q = maxima[idx - 1]
    return float(q * q / math.log(n))


def min_detectable_delta(
    n: int, interval_size: int, sigma: float, tau: float, scheme: str = "dyadic"
) -> float:
    """Smallest deviation over an interval guaranteed detectable.

    With the family of all intervals the bound is
    sigma*(sqrt(tau*log n) + 2.3263)/sqrt(|I|); the dyadic scheme only
    guarantees a covered sub-block of at least half the size, which costs an
    extra factor sqrt(2) (with tau calibrated for the dyadic family).
    """
    if interval_size < 1:
        raise ValueError("interval_size must be at least 1")
    if scheme not in ("all", "dyadic"):
        raise ValueError("scheme must be 'all' or 'dyadic'")
    factor = math.sqrt(2.0) if scheme == "dyadic" else 1.0
    return factor * sigma * (math.sqrt(tau * math.log(n)) + 2.3263) / math.sqrt(interval_size)
