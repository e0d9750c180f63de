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

The bands are chi-squared quantiles from ``scipy.special``, which
``chisq_quantile`` imports on its first call, so importing the package
loads no SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapt import AdaptConfig, TraceEntry, _adapt
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


def _running_median(y: np.ndarray, width: int, edge: int) -> np.ndarray:
    """Medians of the centred ``width``-point windows; the ``width // 2``
    points at each end take the median of the ``edge`` points there."""
    h = width // 2
    med = np.empty(y.size)
    med[h:-h] = np.median(np.lib.stride_tricks.sliding_window_view(y, width), axis=1)
    med[:h] = np.median(y[:edge])
    med[-h:] = np.median(y[-edge:])
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
    windows = [(5, 3)]
    if n >= CLUSTER_WINDOW:
        windows.append((CLUSTER_WINDOW, CLUSTER_WINDOW))
    cur = sample.y.copy()
    mask = np.zeros(n, dtype=bool)
    for _ in range(n):
        # the first sweep that replaces anything is applied, then the
        # five-point sweep gets the next turn; stop when none replaces
        for width, edge in windows:
            med = _running_median(cur, width, edge)
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
    to better than 1e-6 relative up to k = 1e6.  ``k`` must be finite and
    at least 1.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    if not (math.isfinite(k) and k >= 1):
        raise ValueError(f"degrees of freedom k must be a finite number of at least 1, got {k!r}")
    from scipy import special

    return float(2.0 * special.gammaincinv(0.5 * k, gamma))


def v_stat(y, interval, s) -> float:
    """sum of y_i^2 / s_i^2 over the interval (1-based inclusive), summed
    directly: the tests' reference independent of ``scale_fit``'s band test,
    whose prefix sums differ from it in the trailing digits on most intervals."""
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
    when a fit that is not degenerate did not pass.

    ``s``, ``weights``, ``passed``, ``iterations``, ``chosen_branch``, the
    start fields and ``trace`` are the run's outcome, reported as
    ``FitReport`` reports it (see ``adapt._adapt``).  The trace starts
    with the least squares line of the squared data, then has one entry
    per fit the chosen branch examined; its last entry judges ``s``, and
    its violations leave out the pinned intervals.  The start fields stay
    0 / False, and the trace empty, when no search ran.
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
    trace: tuple[TraceEntry, ...] = ()

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

    Returns the test in the form ``adapt._adapt`` takes, with no
    statistic, and the mask of pinned intervals, which the test exempts.
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
    sample: Sample, *, alpha_n: float | None = None, q: float = AdaptConfig.q, max_iterations: int = _SCALE_BUDGET
) -> ScaleFit:
    """Fit a smooth positive scale function to mean-zero data.

    Runs the locally adaptive sweep (violating intervals processed by
    increasing length: all length-1 constraints are brought into the band
    before length-2 intervals are examined, and so on, re-sweeping until
    every enforceable constraint holds) and the equal-weights companion,
    which reads its rungs in turn up to the first accepted one; among
    accepted fits the smoother one is returned, with its trace, ties going
    to the local branch.  Only the chosen branch is reported, so once the
    local branch has passed, the companion stops early, at its first
    rejected rung whose roughness reaches the local fit's: an equal-weight
    fit grows no smoother as its weight grows, so no rung above could win,
    and the result is the one the full climb would give.

    The bands are those of ``ScaleRegionSpec.for_size(sample.n, alpha_n)``.
    ``q`` and ``max_iterations`` are checked as ``AdaptConfig`` checks them;
    the budget is 400 bumps by default (``_SCALE_BUDGET``), twice the mean
    fits', as the length-ordered sweep revisits interval sizes.

    It fits (y / 2**e)**2, with e the binary exponent of max |y|, and
    reports ``s``, ``floor`` and the trace in data units (see
    ``adapt._adapt``).  ``s`` is in units of y**2, so max |y| must lie in
    [2**-503, 2**512), about [3.82e-152, 1.34e+154); ``ValueError`` is
    raised otherwise.  An all-zero input is no error and returns the
    degenerate fit.
    """
    if sample.n < 8:
        raise ValueError("need at least 8 data points")
    spec = ScaleRegionSpec.for_size(sample.n, alpha_n)
    config = AdaptConfig(q=q, max_iterations=max_iterations)

    top = float(np.max(np.abs(sample.y)))
    e = math.frexp(top)[1]
    if not -502 <= e <= 512:
        raise ValueError(f"scale_fit needs max |y| in [2**-503, 2**512), about [3.82e-152, 1.34e+154); got {top:.3g}")
    y2, floor = np.ldexp(sample.y, -e) ** 2, SCALE_FLOOR_FRACTION * top
    # an all-zero input has nothing to test (its empty mask counts as all
    # pinned); otherwise every interval may be pinned, leaving nothing to fit
    test, pinned = _band_test(y2, math.ldexp(floor, -e), spec) if floor > 0.0 else (None, np.zeros(0, dtype=bool))
    if pinned.all():
        zero = affine_fit(sample.t, 0.0, 0.0)
        return ScaleFit(zero, None, False, 0, True, floor, pinned_intervals=int(pinned.sum()))

    # the global branch reads its rungs in turn (not ``monotone``): the
    # chi-squared verdicts can pass on a rung below a failing one, where
    # the mean fits' bracket would skip to a rougher passing rung.  Only
    # the chosen branch is reported, so the climb may stop once it cannot win
    fit_, weights, shared, _ = _adapt(
        Sample(sample.t, y2), spec.family, test, np.unique(spec.family.sizes), config, chosen_only=True, unit=2 * e
    )
    return ScaleFit(fit_, weights, degenerate=False, floor=floor, pinned_intervals=int(pinned.sum()), **shared)
