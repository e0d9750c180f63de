"""Robust preprocessing and heteroscedastic scale estimation.

Two extensions of the basic procedure.  The robust variant replaces gross
outliers by a running median before fitting: any point further than
3.5*sigma from the median of its five-point window is replaced by that
median, and the sweep repeats until nothing changes.  A window holding
three or more outliers has an outlier for its median, so a cluster
survives that sweep; a seven-point cluster sweep under the same rule
follows, and the two alternate until neither changes anything.  The
cleaned sample carries sigma, so the fit that follows judges it at the
raw-data noise scale.  The scale variant
models y = s(t) * noise with mean-zero Gaussian noise and looks for a
smooth positive s such that the sums v = sum y_i^2 / s(t_i)^2 over every
interval of the multiscale family sit inside two-sided chi-squared bands.
The smooth part is carried by a weighted spline fitted to the squared
data (so that its level estimates the local variance, which is what the
chi-squared test checks); weights on violating intervals grow by the
factor q, shortest intervals first, and an equal-weights companion run
provides a smoother fallback exactly as in the mean procedure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .adapt import AdaptConfig, _climb, _covered_mask, _initial_lambda, _ls_line
from .multiscale import IntervalFamily, dyadic_family
from .splines import Sample, SplineFit, SplineSystem, evaluate, prepare_system, solve_weighted

__all__ = [
    "ScaleRegionSpec",
    "ScaleFit",
    "clean_outliers",
    "chisq_quantile",
    "v_stat",
    "scale_fit",
]

OUTLIER_MULTIPLE = 3.5
CLUSTER_WINDOW = 7
# Scales this far below the data maximum are treated as unresolvable: the
# fitted scale is clipped here before dividing, and interval constraints
# that not even the clipped scale could meet are exempt from enforcement.
SCALE_FLOOR_FRACTION = 2e-3
_SCALE_BUDGET = 400


def _running_median5(y: np.ndarray) -> np.ndarray:
    n = y.size
    med = np.empty(n)
    med[2:-2] = np.median(np.lib.stride_tricks.sliding_window_view(y, 5), axis=1)
    med[0] = med[1] = np.median(y[:3])
    med[-1] = med[-2] = np.median(y[-3:])
    return med


def _running_median_cluster(y: np.ndarray) -> np.ndarray:
    h = CLUSTER_WINDOW // 2
    med = np.empty(y.size)
    med[h:-h] = np.median(np.lib.stride_tricks.sliding_window_view(y, CLUSTER_WINDOW), axis=1)
    med[:h] = med[h]
    med[-h:] = med[-h - 1]
    return med


def clean_outliers(sample: Sample, sigma: float) -> tuple[Sample, np.ndarray]:
    """Replace running-median outliers; returns the cleaned sample and a mask.

    The reference value at each point is the median over the centered
    five-point window, shrinking symmetrically near the boundary with a
    three-point window at the two extreme points.  Points with
    |y - m5| >= 3.5*sigma are replaced by the window median, and the sweep
    is repeated on its own output until no replacements remain.

    Three or more outliers in one five-point window make the median an
    outlier itself, and replacing a point then copies it to its
    neighbours.  So once the five-point sweep settles, a cluster sweep
    applies the same rule with the median over a seven-point window (the
    first and last three points use the first and last full window); the
    two sweeps alternate until neither replaces anything.  The result is
    a fixed point of both, so cleaning is idempotent.  Samples shorter
    than seven points get the five-point sweep only.

    ``sigma`` should be the noise scale of the raw data; the cleaned
    sample carries it as ``Sample.sigma`` so that ``fit`` uses it too.
    """
    n = sample.n
    if n < 5:
        raise ValueError("need at least 5 data points")
    sweeps = [_running_median5]
    if n >= CLUSTER_WINDOW:
        sweeps.append(_running_median_cluster)
    cur = sample.y.copy()
    mask = np.zeros(n, dtype=bool)
    for _ in range(n):
        # the first sweep that replaces anything is applied, then the
        # five-point sweep gets the next turn; stop when none replaces
        for median in sweeps:
            med = median(cur)
            bad = np.abs(cur - med) >= OUTLIER_MULTIPLE * sigma
            if bad.any():
                break
        else:
            break
        cur = np.where(bad, med, cur)
        mask |= bad
    return Sample(sample.t, cur, sigma), mask


def chisq_quantile(gamma: float, k: float) -> float:
    """gamma-quantile of the chi-squared distribution with k degrees of freedom.

    Computed by inverting the regularized incomplete gamma function; accurate
    to better than 1e-6 relative up to k = 1e6.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    if k < 1:
        raise ValueError("degrees of freedom must be at least 1")
    return float(2.0 * special.gammaincinv(0.5 * k, gamma))


def v_stat(y, interval, s) -> float:
    """sum of y_i^2 / s_i^2 over the interval (1-based inclusive)."""
    lo, hi = int(interval[0]), int(interval[1])
    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (1 <= lo <= hi <= y.size):
        raise ValueError("interval out of bounds")
    seg = s[lo - 1 : hi]
    if np.any(seg <= 0.0):
        raise ValueError("scale values must be strictly positive on the interval")
    q = y[lo - 1 : hi] / seg
    return float(np.sum(q * q))


@dataclass(frozen=True)
class ScaleRegionSpec:
    """Interval family plus the per-test two-sided coverage for scale fits.

    ``alpha_n=None`` uses the default coverage 1 - n^{-1.5}.
    """

    family: IntervalFamily
    alpha_n: float | None = None

    def __post_init__(self):
        if self.alpha_n is not None and not 0.0 < self.alpha_n < 1.0:
            raise ValueError("alpha_n must lie strictly between 0 and 1")

    @classmethod
    def for_size(cls, n: int, alpha_n: float | None = None) -> "ScaleRegionSpec":
        return cls(dyadic_family(n), alpha_n)

    @property
    def coverage(self) -> float:
        if self.alpha_n is not None:
            return self.alpha_n
        return 1.0 - self.family.n ** -1.5

    def bounds(self, size: int) -> tuple[float, float]:
        """Two-sided chi-squared band for an interval of the given size."""
        a = self.coverage
        return (
            chisq_quantile((1.0 - a) / 2.0, size),
            chisq_quantile((1.0 + a) / 2.0, size),
        )


@dataclass(frozen=True)
class ScaleFit:
    """Result of the heteroscedastic scale procedure.

    ``s`` is the spline fitted to the squared data; the scale itself is
    the square root of its (clipped) values, floored at ``floor`` wherever
    it is used as a divisor.  ``pinned_intervals`` counts family intervals
    whose lower band cannot be met even at the floor (the data there are
    essentially zero); these are exempt from enforcement, and an input
    that pins everything is flagged ``degenerate``.
    """

    s: SplineFit
    weights: np.ndarray | None
    passed: bool
    iterations: int
    truncated: bool
    degenerate: bool
    floor: float
    chosen_branch: str = "local"
    pinned_intervals: int = 0

    def scale_values(self) -> np.ndarray:
        """The fitted scale at the design points."""
        return np.maximum(np.sqrt(np.maximum(self.s.values, 0.0)), self.floor)

    def scale_at(self, x) -> np.ndarray:
        """The fitted scale anywhere in [0, 1]."""
        return np.maximum(np.sqrt(np.maximum(evaluate(self.s, x, 0), 0.0)), self.floor)


class _ScaleProblem:
    """Shared state of one scale estimation: bands, floor, pinned intervals."""

    def __init__(self, sample: Sample, spec: ScaleRegionSpec):
        self.family = spec.family
        self.sizes = self.family.sizes
        self.unique_sizes = np.unique(self.sizes)
        self.lob = np.empty(len(self.family))
        self.upb = np.empty(len(self.family))
        for size in self.unique_sizes:
            lo_b, up_b = spec.bounds(int(size))
            sel = self.sizes == size
            self.lob[sel] = lo_b
            self.upb[sel] = up_b
        a = np.abs(sample.y)
        self.y2 = a * a
        self.floor = SCALE_FLOOR_FRACTION * float(a.max())
        c = np.concatenate(([0.0], np.cumsum(self.y2 / self.floor**2)))
        self.pinned = (c[self.family.hi] - c[self.family.lo - 1]) < self.lob
        self.target = Sample(sample.t, self.y2)

    def scale_values(self, fit_values: np.ndarray) -> np.ndarray:
        return np.maximum(np.sqrt(np.maximum(fit_values, 0.0)), self.floor)

    def judge(self, lam: float, fit_: SplineFit) -> tuple[bool, None]:
        """Whether a fit meets every enforceable band, as (passed, no record)."""
        return self.violations(fit_.values).size == 0, None

    def violations(self, fit_values: np.ndarray, size: int | None = None) -> np.ndarray:
        sv = self.scale_values(fit_values)
        c = np.concatenate(([0.0], np.cumsum(self.y2 / (sv * sv))))
        v = c[self.family.hi] - c[self.family.lo - 1]
        bad = ((v < self.lob) | (v > self.upb)) & ~self.pinned
        if size is not None:
            bad &= self.sizes == size
        return np.flatnonzero(bad)


def _scale_local(problem: _ScaleProblem, system: SplineSystem, ladder, config: AdaptConfig):
    """The length-ordered local sweep from the start weight."""
    n = system.n
    weights = np.full(n, ladder.lam)
    current = ladder.fit
    budget = config.max_iterations
    iterations = 0
    while True:
        for size in problem.unique_sizes:
            while True:
                bad = problem.violations(current.values, int(size))
                if bad.size == 0:
                    break
                if iterations >= budget:
                    return current, weights, iterations, False, True
                mask = _covered_mask(n, problem.family.lo[bad], problem.family.hi[bad])
                weights = np.where(mask, weights * config.q, weights)
                current = solve_weighted(system, weights)
                iterations += 1
        if problem.violations(current.values).size == 0:
            return current, weights, iterations, True, False


def scale_fit(
    sample: Sample,
    spec: ScaleRegionSpec | None = None,
    config: AdaptConfig | None = None,
) -> ScaleFit:
    """Fit a smooth positive scale function to mean-zero data.

    Runs the locally adaptive sweep (violating intervals processed by
    increasing length: all length-1 constraints are brought into the band
    before length-2 intervals are examined, and so on, re-sweeping until
    every enforceable constraint holds) and the equal-weights companion;
    among accepted fits the smoother one is returned, ties going to the
    local branch.
    """
    if sample.n < 8:
        raise ValueError("need at least 8 data points")
    # the length-ordered sweep revisits interval sizes, so its default
    # budget is larger than the mean procedure's
    config = config or AdaptConfig(max_iterations=_SCALE_BUDGET)
    spec = spec or ScaleRegionSpec.for_size(sample.n)
    if spec.family.n != sample.n:
        raise ValueError("family size does not match the sample")

    n = sample.n
    if float(np.max(np.abs(sample.y))) == 0.0:
        zero = SplineFit(sample.t.copy(), np.zeros(n), np.zeros(n), 0.0)
        return ScaleFit(zero, None, False, 0, False, True, 0.0)

    problem = _ScaleProblem(sample, spec)
    if bool(problem.pinned.all()):
        zero = SplineFit(sample.t.copy(), np.zeros(n), np.zeros(n), 0.0)
        return ScaleFit(
            zero, None, False, 0, False, True, problem.floor,
            pinned_intervals=int(problem.pinned.sum()),
        )

    # the line, its test and the start weight are shared by both branches
    target = problem.target
    system = prepare_system(target)
    line = _ls_line(target)
    if problem.violations(line.values).size == 0:
        return ScaleFit(
            line, None, True, 0, False, False, problem.floor,
            pinned_intervals=int(problem.pinned.sum()),
        )
    ladder = _initial_lambda(system, line, config.init_tolerance * target.spread(), problem.judge, config.q)
    loc = _scale_local(problem, system, ladder, config)
    lam, current, iterations, passed, _ = _climb(system, ladder, config.q, config.max_iterations, problem.judge)
    glo = current, np.full(n, lam), iterations, passed, not passed
    if loc[3] != glo[3]:
        chosen, branch = (loc, "local") if loc[3] else (glo, "global")
    elif glo[0].roughness < loc[0].roughness:
        chosen, branch = glo, "global"
    else:
        chosen, branch = loc, "local"
    fit_, weights, iterations, passed, truncated = chosen
    return ScaleFit(
        fit_, weights, passed, iterations, truncated, False, problem.floor,
        chosen_branch=branch, pinned_intervals=int(problem.pinned.sum()),
    )
