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

The fits' tests sum a family through prefix sums (``IntervalFamily.sums``).
The calibration sums the dyadic family as a pairwise pyramid instead
(``_pyramid_maxima``): the family nests, so each interval's sum is a
pairwise sum of its own entries, with error at most
gamma_ceil(log2 |I|) * sum_{i in I} |x_i| (Higham, Accuracy and Stability
of Numerical Algorithms, section 4.2).  Other families are read row by
row through ``IntervalFamily.sums``, as the fits read them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .splines import Sample, _is_count

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


@dataclass(frozen=True, eq=False)
class IntervalFamily:
    """Index intervals [lo, hi], 1-based inclusive, over {1, ..., n}.

    ``lo`` and ``hi`` must be integer arrays and ``n`` an integer: bounds
    of another type raise ``ValueError`` rather than being truncated.  It
    also keeps the 0-based starts lo - 1, which ``sums`` reads, and the
    roots of the sizes, sqrt(hi - lo + 1), which the w statistics divide
    by.  Families with the same n, lo and hi are equal and hash alike.
    """

    lo: np.ndarray
    hi: np.ndarray
    n: int
    _starts: np.ndarray = field(init=False, repr=False)
    _root_sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not _is_count(self.n, 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be equal-length vectors")
        if lo.size == 0:
            raise ValueError("interval family is empty")
        for name, bounds in (("lo", lo), ("hi", hi)):
            if bounds.dtype.kind not in "iu":
                raise ValueError(f"{name} must be an array of integers, got dtype {bounds.dtype}")
        lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
        if np.any(lo < 1) or np.any(hi > self.n) or np.any(lo > hi):
            raise ValueError("intervals must satisfy 1 <= lo <= hi <= n")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "_starts", lo - 1)
        object.__setattr__(self, "_root_sizes", np.sqrt(self.sizes))

    @property
    def sizes(self) -> np.ndarray:
        return self.hi - self.lo + 1

    def __eq__(self, other):
        if not isinstance(other, IntervalFamily):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)

    def __hash__(self):
        return hash((self.n, self.lo.tobytes(), self.hi.tobytes()))

    def __len__(self) -> int:
        return self.lo.size

    def __iter__(self):
        return iter(zip(self.lo.tolist(), self.hi.tolist()))

    def sums(self, x) -> np.ndarray:
        """Sum of the length-n vector x over each interval, via prefix sums."""
        if len(x) != self.n:
            raise ValueError("vector length does not match the family's n")
        c = np.empty(self.n + 1)
        c[0] = 0.0
        np.cumsum(x, out=c[1:])
        return c[self.hi] - c[self._starts]


@functools.lru_cache(maxsize=8, typed=True)
def dyadic_family(n: int) -> IntervalFamily:
    """The dyadic multiscale family over n points.

    Levels k = 1, 2, 4, ... (while k < n) contribute the disjoint blocks
    [1, k], [k+1, 2k], ...; when k does not divide n the trailing shorter
    block is included as is.  The full interval [1, n] sits on top.  Blocks
    duplicated by the trailing rule are retained.

    Every fit and test at one n uses the same family, so the last few
    families built are kept and handed out again; their arrays are
    read-only, so a caller cannot change a family that others share.
    The cache is keyed by type too, so that a bool or a float n reaches
    the check below instead of the family kept for its integer value.
    """
    if not _is_count(n, 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    los, his = [], []
    k = 1
    while k < n:
        starts = np.arange(1, n + 1, k, dtype=np.int64)
        los.append(starts)
        his.append(np.minimum(starts + k - 1, n))
        k *= 2
    los.append(np.array([1], dtype=np.int64))
    his.append(np.array([n], dtype=np.int64))
    family = IntervalFamily(np.concatenate(los), np.concatenate(his), n)
    for array in (family.lo, family.hi, family._starts, family._root_sizes):
        array.flags.writeable = False
    return family


def _interval(interval, n: int) -> tuple[int, int]:
    """The bounds of a 1-based inclusive interval, checked to be
    integers with 1 <= lo <= hi <= n."""
    lo, hi = interval[0], interval[1]
    if not (_is_count(lo, 1) and _is_count(hi, lo) and hi <= n):
        raise ValueError(f"interval out of bounds: need integers 1 <= lo <= hi <= {n}, got {interval!r}")
    return int(lo), int(hi)


def _fitted(sample: Sample, fit_values) -> np.ndarray:
    g = np.asarray(fit_values, dtype=float)
    if g.shape != (sample.n,) or not np.isfinite(g).all():
        raise ValueError("fit values must match the sample size and be finite")
    return g


def w_stat(sample: Sample, fit_values, interval) -> float:
    """Normalized residual sum over one interval (1-based inclusive), summed
    directly: the tests' reference independent of ``_w_test``, whose prefix
    sums (the fits' and ``all_w_stats``') can differ from it in the last bits."""
    lo, hi = _interval(interval, sample.n)
    g = _fitted(sample, fit_values)
    r = sample.y[lo - 1 : hi] - g[lo - 1 : hi]
    return float(np.sum(r) / math.sqrt(hi - lo + 1))


def _w_test(residual: np.ndarray, family: IntervalFamily, threshold: float):
    """The w statistics of a residual vector and their verdict at ``threshold``.

    The w of every fit and of ``all_w_stats``, from prefix sums (``w_stat``
    sums directly).  Returns ``(passed, max_abs_w, w, bad)``: ``bad`` is
    the boolean mask of the violating intervals over the family.
    """
    w = family.sums(residual) / family._root_sizes
    aw = np.abs(w)
    max_abs = float(aw.max())
    return max_abs <= threshold, max_abs, w, aw > threshold


def all_w_stats(sample: Sample, fit_values, family: IntervalFamily) -> np.ndarray:
    """Vector of w statistics, one per interval of the family."""
    return _w_test(sample.y - _fitted(sample, fit_values), family, math.inf)[2]


def sigma_hat(sample: Sample) -> float:
    """Noise scale from the median of absolute consecutive differences.

    Uses the first differences at indices 2..n-1 scaled by 1.4826/sqrt(2),
    so the estimate is consistent for the standard deviation under Gaussian
    noise and biased upwards in the presence of signal.  It differences y,
    so a constant a leaves it unchanged, but a trend a + b*t shifts every
    difference by b*h_i (h_i = t_{i+1} - t_i) and so moves the estimate,
    and with it every fit that is not given sigma.
    """
    diffs = np.abs(np.diff(sample.y)[: sample.n - 2])
    return SIGMA_SCALE * float(np.median(diffs))


@dataclass(frozen=True)
class RegionSpec:
    """Everything needed to test membership in the residual region (the default tau is ``AdaptConfig.tau``)."""

    sigma: float
    tau: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be a nonnegative finite number")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError("tau must be a positive finite number")
        if not _is_count(self.n, 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")

    @property
    def threshold(self) -> float:
        """sigma * sqrt(tau * log n), natural log."""
        return self.sigma * math.sqrt(self.tau * math.log(self.n))


@dataclass(frozen=True)
class RegionReport:
    """Outcome of a membership test, violations sorted by |w| descending.

    ``in_region`` builds it for callers that want the violations listed.
    The adaptive fits of ``adapt`` do not: their test reads the verdict,
    max |w| and the violating intervals from the same computation without
    sorting or copying them into a report.
    """

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
    lists the violating intervals sorted by |w| descending.  The threshold
    depends on n, so ``spec.n`` must be the size of the sample.  The
    adaptive fits run the same test without building this report.
    """
    if spec.n != sample.n:
        raise ValueError(f"spec is for n = {spec.n}, the sample has n = {sample.n}")
    thr = spec.threshold
    passed, max_abs, w, bad = _w_test(sample.y - _fitted(sample, fit_values), family, thr)
    bad = np.flatnonzero(bad)
    order = bad[np.argsort(-np.abs(w[bad]), kind="stable")]
    return RegionReport(
        passed=passed,
        threshold=thr,
        max_abs_w=max_abs,
        violation_lo=family.lo[order],
        violation_hi=family.hi[order],
        violation_w=w[order],
    )


# Bytes of the draws and sums one block of calibration replicates holds
# at most; a block has at least one row whatever n is.
_BLOCK_BYTES = 2 << 20


def _pyramid_levels(rows: int, n: int) -> list[np.ndarray]:
    """Arrays for the levels of the pyramid above the first, of shapes
    (rows, ceil(n/2)), (rows, ceil(n/4)), ..., (rows, 1).

    Each level is an array of its own: numpy copies the operands of an
    addition whose output may overlap them, as two column slices of one
    buffer would.
    """
    levels, count = [], n
    while count > 1:
        count -= count // 2
        levels.append(np.empty((rows, count)))
    return levels


def _pyramid_maxima(x: np.ndarray, levels: list[np.ndarray]) -> np.ndarray:
    """The largest |sum| / sqrt(|I|) over ``dyadic_family(n)``, for each
    row of the (rows, n) block x.

    The sums form a pyramid: level 1 is x itself, block j of level 2k is
    blocks 2j and 2j + 1 of level k added, and when a level has an odd
    count its trailing block carries up unchanged, so the top is [1, n].
    The levels list the family's intervals in its order, and each sum is a
    pairwise sum of its own entries, so its error is at most
    gamma_ceil(log2 |I|) * sum_{i in I} |x_i|.  A level gives two values
    per row: the largest |sum| over its blocks of size k, times 1/sqrt(k),
    and the |sum| of a shorter trailing block, times one over the root of
    its size.

    The levels above the first are written to ``levels`` (see ``_pyramid_levels``).
    """
    n = x.shape[1]
    best = np.maximum(x.max(axis=1), -x.min(axis=1))
    level, size = x, 1
    for upper in levels:
        count = level.shape[1]
        pairs = count // 2
        np.add(level[:, 0 : 2 * pairs : 2], level[:, 1 : 2 * pairs : 2], out=upper[:, :pairs])
        if count % 2:
            upper[:, pairs] = level[:, -1]
        level, size = upper, 2 * size
        if n >= size:
            full = level[:, : n // size]
            peak = np.maximum(full.max(axis=1), -full.min(axis=1))
            peak *= 1.0 / math.sqrt(size)
            np.maximum(best, peak, out=best)
        if n % size:
            peak = np.abs(level[:, -1])
            peak *= 1.0 / math.sqrt(n % size)
            np.maximum(best, peak, out=best)
    return best


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
    the result does not depend on execution order; ``seed`` is an integer
    >= 0.

    The replicates run in blocks, one replicate drawn into each row.  For
    the dyadic family (the default) a block's rows are summed as a pairwise
    pyramid (``_pyramid_maxima``): each interval's sum then has error at
    most gamma_ceil(log2 |I|) * sum_{i in I} |Z_i|, where the prefix sums
    of ``IntervalFamily.sums`` carry the rounding of the running total, so
    the maxima can differ from the fits' w vector in the last bits.
    Another family is read row by row through ``IntervalFamily.sums``, the
    prefix sums that the fits' tests read, so its maxima are those of the
    fits' w vector.  A block holds at most ``_BLOCK_BYTES`` of draws and
    pyramid sums, and one row at an n past that, so the memory does not
    grow with the replicate count.
    """
    if not _is_count(n, 2):
        raise ValueError(f"need an integer n >= 2 (tau divides by log n), got {n!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if not _is_count(replicates, 1000):
        raise ValueError(f"need an integer of at least 1000 replicates, got {replicates!r}")
    if not _is_count(seed, 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    dyadic = dyadic_family(n)
    if family is None:
        family = dyadic
    if family.n != n:
        raise ValueError(f"the family is for n = {family.n}, not n = {n}")
    pyramid = family == dyadic
    # a row holds the draws and, for the pyramid, the sums above them
    row_bytes = 8 * len(dyadic) if pyramid else 8 * n
    rows = max(1, min(replicates, _BLOCK_BYTES // row_bytes))
    draws = np.empty((rows, n))
    if pyramid:
        levels = _pyramid_levels(rows, n)
    else:
        inv_root = 1.0 / family._root_sizes
    maxima = np.empty(replicates)
    for begin in range(0, replicates, rows):
        m = min(rows, replicates - begin)
        block = draws[:m]
        for i, row in enumerate(block):
            np.random.default_rng([seed, begin + i]).standard_normal(n, out=row)
        if pyramid:
            maxima[begin : begin + m] = _pyramid_maxima(block, [level[:m] for level in levels])
        else:
            maxima[begin : begin + m] = [np.max(np.abs(family.sums(row)) * inv_root) for row in block]
    maxima.sort()
    idx = math.ceil(alpha * replicates)
    q = maxima[idx - 1]
    return float(q * q / math.log(n))


def min_detectable_delta(n: int, interval_size: int, sigma: float, tau: float, scheme: str) -> float:
    """Smallest deviation over an interval guaranteed detectable.

    With the family of all intervals the bound is
    sigma*(sqrt(tau*log n) + 2.3263)/sqrt(|I|); the dyadic scheme only
    guarantees a covered sub-block of at least half the size, which costs an
    extra factor sqrt(2) (with tau calibrated for the dyadic family).
    The interval size is an integer from 1 to n, sigma is nonnegative and
    finite, tau positive and finite, and ``scheme`` is "all" or "dyadic".
    """
    if not (_is_count(n, 1) and _is_count(interval_size, 1) and interval_size <= n):
        raise ValueError(f"need integers 1 <= interval_size <= n, got {interval_size!r} and n = {n!r}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be a nonnegative finite number, got {sigma!r}")
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be a positive finite number, got {tau!r}")
    if scheme not in ("all", "dyadic"):
        raise ValueError("scheme must be 'all' or 'dyadic'")
    factor = math.sqrt(2.0) if scheme == "dyadic" else 1.0
    return factor * sigma * (math.sqrt(tau * math.log(n)) + 2.3263) / math.sqrt(interval_size)
