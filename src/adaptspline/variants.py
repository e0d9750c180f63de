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

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .adapt import AdaptConfig, _adapt
from .multiscale import IntervalFamily, _interval, dyadic_family
from .splines import Sample, SplineFit, affine_fit, evaluate

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
# The smallest normal double: the squared floor must reach it, or the band
# test's sums lose their digits.
_TINY = float(np.finfo(float).tiny)


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
    than seven points get the five-point sweep only.  A sample that still
    changes after n sweeps raises ``RuntimeError`` rather than returning
    half cleaned; no input is known to come near that cap.

    ``sigma`` should be the noise scale of the raw data and must be
    positive and finite (at sigma = 0 every point would count as an
    outlier); the cleaned sample carries it as ``Sample.sigma`` so that
    ``fit`` uses it too.
    """
    n = sample.n
    if n < 5:
        raise ValueError("need at least 5 data points")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError("sigma must be a positive finite number")
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
    else:
        raise RuntimeError(f"outlier cleaning still replaced points after {n} sweeps")
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
    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    if y.ndim != 1 or s.shape != y.shape:
        raise ValueError("y and s must be 1-D arrays of one length")
    lo, hi = _interval(interval, y.size)
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


def _scale_clip(values: np.ndarray, floor: float) -> np.ndarray:
    return np.maximum(np.sqrt(np.maximum(values, 0.0)), floor)


@dataclass(frozen=True)
class ScaleFit:
    """Result of the heteroscedastic scale procedure.

    ``s`` is the spline fitted to the squared data; the scale itself is
    the square root of its (clipped) values, floored at ``floor`` wherever
    it is used as a divisor.  ``pinned_intervals`` counts family intervals
    whose lower band cannot be met even at the floor (the data there are
    essentially zero); these are exempt from enforcement, and an input
    that pins everything is flagged ``degenerate``.  ``truncated`` is True
    when a fit that is not degenerate did not pass.  ``start_halvings``
    and ``start_capped`` report the start-weight search as ``FitReport``
    does; both stay 0 / False when no search ran.
    """

    s: SplineFit
    weights: np.ndarray | None
    passed: bool
    iterations: int
    degenerate: bool
    floor: float
    chosen_branch: str = "local"
    pinned_intervals: int = 0
    start_halvings: int = 0
    start_capped: bool = False

    @property
    def truncated(self) -> bool:
        return not (self.passed or self.degenerate)

    def scale_values(self) -> np.ndarray:
        """The fitted scale at the design points."""
        return _scale_clip(self.s.values, self.floor)

    def scale_at(self, x) -> np.ndarray:
        """The fitted scale anywhere in [0, 1]."""
        return _scale_clip(evaluate(self.s, x, 0), self.floor)


def _band_test(y2: np.ndarray, floor: float, spec: ScaleRegionSpec):
    """The chi-squared band test of a fit to the squared data ``y2``.

    Returns the test in the form ``adapt._adapt`` takes and the mask of
    pinned intervals, which the test exempts.
    """
    family = spec.family
    sizes = family.sizes
    lob = np.empty(len(family))
    upb = np.empty(len(family))
    for size in np.unique(sizes):
        lob[sizes == size], upb[sizes == size] = spec.bounds(int(size))
    pinned = family.sums(y2 / floor**2) < lob

    def test(fit_: SplineFit, weights):
        sv = _scale_clip(fit_.values, floor)
        v = family.sums(y2 / (sv * sv))
        bad = ((v < lob) | (v > upb)) & ~pinned
        return not bad.any(), bad, None

    return test, pinned


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
    local branch.  Of ``config`` it reads ``q`` and ``max_iterations``:
    the chi-squared bands fix the rest, so a config that sets ``sigma`` or
    a ``tau`` other than the default raises ``ValueError``.

    The band test divides y**2 by the squared scale, so both must be
    representable: ``ValueError`` is raised when the squared floor
    (``SCALE_FLOOR_FRACTION`` * max |y|)**2 is below the smallest normal
    double, max |y| < 7.46e-152, or when the sum of y**2 overflows.  The
    lower bound is conservative: data near it, such as max |y| of about
    3e-152, fit correctly but are rejected too.  Rescale such data first;
    the fitted scale is proportional to it.  An all-zero input is no
    error and returns the degenerate fit.  Above max |y| of about 1e77 the
    roughness of ``s``, which grows as y**4, overflows to NaN with numpy
    warnings, and the smoother-branch choice then always takes the local
    branch.
    """
    if sample.n < 8:
        raise ValueError("need at least 8 data points")
    # the length-ordered sweep revisits interval sizes, so its default
    # budget is larger than the mean procedure's
    config = config or AdaptConfig(max_iterations=_SCALE_BUDGET)
    if config.sigma is not None or config.tau != AdaptConfig.tau:
        raise ValueError("scale_fit reads only q and max_iterations of its config; its bands set sigma and tau")
    spec = spec or ScaleRegionSpec.for_size(sample.n)
    if spec.family.n != sample.n:
        raise ValueError("family size does not match the sample")

    a = np.abs(sample.y)
    floor = SCALE_FLOOR_FRACTION * float(a.max())
    with np.errstate(over="ignore"):  # an overflow raises just below
        y2 = a * a
        total = float(y2.sum())
    if floor > 0.0 and not (floor * floor >= _TINY and math.isfinite(total)):
        raise ValueError(
            f"scale_fit needs max |y| of at least {math.sqrt(_TINY) / SCALE_FLOOR_FRACTION:.3g} and a finite "
            f"sum of y**2 (max |y| below about {math.sqrt(np.finfo(float).max / sample.n):.3g} at n = {sample.n})"
        )
    # an all-zero input has nothing to test (its empty mask counts as all
    # pinned); otherwise every interval may be pinned, leaving nothing to fit
    test, pinned = _band_test(y2, floor, spec) if floor > 0.0 else (None, np.zeros(0, dtype=bool))
    if pinned.all():
        zero = affine_fit(sample.t, 0.0, 0.0)
        return ScaleFit(zero, None, False, 0, True, floor, pinned_intervals=int(pinned.sum()))

    run = _adapt(Sample(sample.t, y2), spec.family, test, np.unique(spec.family.sizes), config)
    chosen = run.chosen
    return ScaleFit(
        chosen.fit, chosen.weights, chosen.passed, chosen.iterations, False, floor,
        chosen_branch=chosen.name, pinned_intervals=int(pinned.sum()),
        start_halvings=run.halvings, start_capped=run.capped,
    )
