"""Adaptive choice of the spline weights via a residual test.

Starting from the least squares line, per-point weights grow until the
weighted spline fit is accepted by a multiscale residual test: at each
round every point lying in some violating interval has its weight
multiplied by q.  A companion run keeps all weights equal (the classic
one-parameter smoothing family); the final answer is the smoother of the
two accepted fits.

One engine (``_adapt``) runs this loop for the mean fits here and for the
scale fit of ``variants``; a caller hands it the sample to fit, the test
and the order in which the local branch takes the violations (all at
once for the w-test of the mean fits, shortest intervals first for the
chi-squared bands of the scale fit).  Both branches start from the same
place, built once per call: the least squares line and its test, the
spline system of the sample (see ``splines.prepare_system``; dropped when
the call returns) and the start weight.  The start weight is found by
halving an equal weight from 1 until the fit hugs the line, at most 60
times; the report says how many halvings it took and whether it stopped
at that cap.

Both branches climb the same equal weights for a while: the global
branch always, the local branch until the violations of its first sweep
group stop covering every point (until then its bump multiplies every
weight by q).  One record per call (``_Equal``) makes every solve of the
start search and of the climb, and tests each weight once, so that this
shared climb runs once; it judges coverage only while the local branch
can still take the climb.  At q = 2 the climb meets the search's rungs
2**-j, which the search judges as it goes.  The record keeps scalars per
weight, two fits (the last one solved and that of the smallest passing
weight) and the violating intervals of its last test; any other
equal-weight fit a branch ends on is solved again, and tested again only
if it was not the last one tested.  The fits are the ones the branches
would compute on their own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .multiscale import RegionSpec, _w_test, dyadic_family, sigma_hat
from .splines import Sample, SplineFit, SplineSystem, affine_fit, prepare_system, solve_weighted

__all__ = [
    "AdaptConfig",
    "TraceEntry",
    "FitReport",
    "fit",
    "fit_local",
    "fit_global",
]

_MAX_HALVINGS = 60
# The start search stops once the equal-weight fit is this close to the
# least squares line, relative to the data spread, in sup norm.
_INIT_TOLERANCE = 1e-3


def _is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer (not a bool) of at least ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


@dataclass(frozen=True)
class AdaptConfig:
    """Tuning knobs of the weight-adaptation loop.

    ``sigma`` fixes the noise scale.  With ``sigma=None`` the fit uses the
    scale the sample carries (``Sample.sigma``, set by ``clean_outliers``)
    and, failing that, estimates it once, up front, with ``sigma_hat``.
    The initial weight is found by halving from 1 until the equal-weight
    fit is within ``_INIT_TOLERANCE`` times the data spread of the least
    squares line, in sup norm.
    """

    q: float = 2.0
    tau: float = 3.0
    max_iterations: int = 200
    sigma: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q > 1.0):
            raise ValueError("q must be a finite number above 1")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError("tau must be a positive finite number")
        if not _is_count(self.max_iterations, 1):
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be a positive finite number")


@dataclass(frozen=True)
class TraceEntry:
    """Stats of one examined fit: the line stage, then one entry per refit."""

    max_abs_w: float
    violations: int
    lambda_min: float
    lambda_max: float
    roughness: float


@dataclass(frozen=True)
class FitReport:
    """Audit trail of one adaptation run.

    ``iterations`` counts weight bumps; the trace has one entry per
    examined fit starting with the least squares line (recorded with
    lambda 0).  ``final_weights`` is None when the line itself was
    accepted.  On truncation the final fit is the last one examined,
    ``passed`` is False and ``truncated``, which is always ``not passed``,
    is True.  The start weight is 2**-``start_halvings``;
    ``start_capped`` is True when its search stopped at the cap of 60
    halvings with the fit still farther from the least squares line than
    ``_INIT_TOLERANCE`` allows.  Both stay 0 / False when the line itself
    was accepted.
    """

    final_fit: SplineFit
    final_weights: np.ndarray | None
    iterations: int
    trace: tuple[TraceEntry, ...]
    sigma_used: float
    threshold_used: float
    tau: float
    passed: bool
    chosen_branch: str
    roughness_local: float | None = None
    roughness_global: float | None = None
    truncated_local: bool | None = None
    truncated_global: bool | None = None
    start_halvings: int = 0
    start_capped: bool = False

    @property
    def roughness(self) -> float:
        return self.final_fit.roughness

    @property
    def truncated(self) -> bool:
        return not self.passed


def _ls_line(sample: Sample) -> SplineFit:
    slope, intercept = np.polyfit(sample.t, sample.y, 1)
    return affine_fit(sample.t, float(intercept), float(slope))


def _group(size, lo: np.ndarray, hi: np.ndarray):
    """Selects the violations of one sweep group (``None``: all of them)."""
    return slice(None) if size is None else hi - lo + 1 == size


def _covered_mask(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Boolean mask of points lying in at least one of the intervals."""
    steps = np.bincount(lo - 1, minlength=n + 1) - np.bincount(hi, minlength=n + 1)
    return np.cumsum(steps[:-1]) > 0


class _Equal:
    """Per-call record of the equal-weight fits, keyed by the weight.

    ``judge(lam)`` solves and tests ``lam`` the first time it is asked,
    then reads the stored verdict ``(passed, record, covers)``: the test's
    verdict and trace record, and whether the violations of the first
    sweep group cover every point, judged only while ``sharing`` (False
    otherwise; see ``_climb``).  Of the fits it keeps two, ``last`` (the
    last one solved) and ``passing`` (that of the smallest passing
    weight), each as a ``(lam, fit)`` pair; ``fit(lam)`` solves any other
    again.  Of the tests it keeps the violating intervals of the last
    one, as ``tested = (lam, lo, hi)``.
    """

    def __init__(self, system: SplineSystem, test, sweep, sharing: bool):
        self.system, self.test, self.sweep, self.sharing = system, test, sweep, sharing
        self.verdicts: dict = {}
        self.last = self.passing = self.tested = None

    def judge(self, lam: float) -> tuple:
        """The verdict on ``lam``."""
        if lam not in self.verdicts:
            fit_ = self.fit(lam)
            passed, lo, hi, record = self.test(fit_, lam)
            self.tested = (lam, lo, hi)
            keep = _group(self.sweep[0], lo, hi)
            covers = self.sharing and bool(_covered_mask(self.system.n, lo[keep], hi[keep]).all())
            self.verdicts[lam] = (passed, record, covers)
            if passed and (self.passing is None or lam < self.passing[0]):
                self.passing = (lam, fit_)
        return self.verdicts[lam]

    def fit(self, lam: float) -> SplineFit:
        """The fit of ``lam``, solved again unless the record keeps it."""
        for kept in (self.last, self.passing):
            if kept is not None and kept[0] == lam:
                return kept[1]
        self.last = (lam, solve_weighted(self.system, np.full(self.system.n, lam)))
        return self.last[1]


def _initial_lambda(equal: _Equal, line: SplineFit, tol_abs: float, q: float) -> tuple[float, int, bool]:
    """Halve an equal weight from 1 until the fit hugs the least squares line.

    Returns the start weight 2**-halvings, the halvings and whether the
    search stopped at its cap with the fit still off the line.  Each rung
    is solved through ``equal.fit``.  At q = 2 the equal-weight climb that
    follows meets every rung, so each rung is judged, its coverage too
    while ``equal.sharing``, as soon as it is solved; at other q only the
    start weight is.  Either way the start fit is the record's last fit.
    """
    lam, halvings = 1.0, 0
    while True:
        close = np.max(np.abs(equal.fit(lam).values - line.values)) <= tol_abs
        done = close or halvings == _MAX_HALVINGS
        if done or q == 2.0:
            equal.judge(lam)
        if done:
            return lam, halvings, not close
        lam *= 0.5
        halvings += 1


@dataclass(frozen=True)
class _Branch:
    """Where one branch ended: fit, weights (None for the accepted line),
    bumps made, last verdict and the records of every examined fit."""

    name: str
    fit: SplineFit
    weights: np.ndarray | None
    iterations: int
    passed: bool
    records: tuple


@dataclass(frozen=True)
class _Run:
    """The branches run, by name, the chosen one and the start's outcome."""

    branches: dict
    chosen: _Branch
    halvings: int
    capped: bool


def _climb(equal: _Equal, lam: float, config: AdaptConfig, first):
    """Multiply one shared weight by q from ``lam``, reading each verdict
    from ``equal``, until the test accepts or the budget is spent.

    ``equal.sharing`` holds during the local branch's climb only, which
    also stops at its fork: the first weight where the violations of the
    first sweep group do not cover every point.  Returns the last weight,
    the bumps made, the verdict and the records.
    """
    records = [first]
    iterations = 0
    while True:
        passed, record, covers = equal.judge(lam)
        records.append(record)
        if passed or iterations >= config.max_iterations or equal.sharing and not covers:
            return lam, iterations, passed, records
        lam *= config.q
        iterations += 1


def _local(equal: _Equal, start: float, config: AdaptConfig, first) -> _Branch:
    """Bump the points in one sweep group's violating intervals by q until
    the group is clean, then take the next group, wrapping around; stop
    once every group is clean at one fit.  The bumps that keep every
    weight equal come from the shared climb up to its fork (``_climb``),
    where the sweep starts at the first group."""
    n, test, sweep = equal.system.n, equal.test, equal.sweep
    lam, iterations, passed, records = _climb(equal, start, config, first)
    equal.sharing = False
    weights = np.full(n, lam)
    current = equal.fit(lam)
    if equal.tested[0] == lam:  # the fork weight was tested last: reuse its intervals
        lo, hi = equal.tested[1:]
    else:
        passed, lo, hi, _ = test(current, weights)
    clean = group = 0
    while clean < len(sweep):
        keep = _group(sweep[group], lo, hi)
        if lo[keep].size == 0:
            clean += 1
            group = (group + 1) % len(sweep)
            continue
        if iterations >= config.max_iterations:
            break
        weights = weights.copy()
        weights[_covered_mask(n, lo[keep], hi[keep])] *= config.q
        current = solve_weighted(equal.system, weights)
        iterations += 1
        passed, lo, hi, record = test(current, weights)
        records.append(record)
        clean = 0
    return _Branch("local", current, weights, iterations, passed, tuple(records))


def _global(equal: _Equal, start: float, config: AdaptConfig, first) -> _Branch:
    """Multiply one shared weight by q from the start weight until the test accepts."""
    lam, iterations, passed, records = _climb(equal, start, config, first)
    return _Branch("global", equal.fit(lam), np.full(equal.system.n, lam), iterations, passed, tuple(records))


def _adapt(target: Sample, test, sweep, config: AdaptConfig, branches=("local", "global")) -> _Run:
    """Run the named branches on ``target`` from one shared start.

    ``test(fit, weights)`` returns ``(passed, lo, hi, record)``: the
    verdict on the fit, its violating intervals (1-based, inclusive) and
    what the trace keeps of it.  ``weights`` is a scalar for an
    equal-weight fit and 0 for the least squares line.  ``sweep`` lists
    the groups the local branch takes in turn: ``None`` stands for every
    violation, an interval size for the violations of that size.
    """
    line = _ls_line(target)
    passed, _, _, first = test(line, 0.0)
    halvings, capped = 0, False
    if passed:
        done = {name: _Branch(name, line, None, 0, True, (first,)) for name in branches}
    else:
        equal = _Equal(prepare_system(target), test, sweep, "local" in branches)
        start, halvings, capped = _initial_lambda(equal, line, _INIT_TOLERANCE * target.spread(), config.q)
        done = {}
        if "local" in branches:
            done["local"] = _local(equal, start, config, first)
        if "global" in branches:
            done["global"] = _global(equal, start, config, first)
    # an accepted branch beats a rejected one, then the smaller final
    # roughness wins; min keeps the first of equals, so ties go to local
    chosen = min(done.values(), key=lambda b: (not b.passed, b.fit.roughness))
    return _Run(done, chosen, halvings, capped)


def _fit(sample: Sample, config: AdaptConfig | None, branches) -> FitReport:
    """The mean fit: the w-test over the dyadic family, one sweep group.

    Raises ``ValueError`` when the noise scale is 0: at threshold 0 no
    noisy fit passes, and the loop would only spend its budget.
    """
    config = config or AdaptConfig()
    if config.sigma is not None:
        sigma = float(config.sigma)
    elif sample.sigma is not None:
        sigma = sample.sigma
    else:
        sigma = sigma_hat(sample)
    if sigma == 0.0:
        source = "the sample's sigma" if sample.sigma is not None else "sigma_hat of the sample"
        raise ValueError(f"noise scale is 0 ({source}); pass a positive sigma")
    spec = RegionSpec(sigma=sigma, tau=config.tau, n=sample.n)
    family = dyadic_family(sample.n)
    threshold = spec.threshold

    def test(fit_: SplineFit, weights):
        passed, max_abs, _, bad = _w_test(sample.y - fit_.values, family, threshold)
        if isinstance(weights, np.ndarray):
            low, high = float(weights.min()), float(weights.max())
        else:
            low = high = float(weights)
        record = TraceEntry(max_abs, bad.size, low, high, fit_.roughness)
        return passed, family.lo[bad], family.hi[bad], record

    run = _adapt(sample, test, (None,), config, branches)
    both = {}
    if len(run.branches) == 2:
        local, glob = run.branches["local"], run.branches["global"]
        both = dict(
            roughness_local=local.fit.roughness,
            roughness_global=glob.fit.roughness,
            truncated_local=not local.passed,
            truncated_global=not glob.passed,
        )
    chosen = run.chosen
    return FitReport(
        final_fit=chosen.fit,
        final_weights=chosen.weights,
        iterations=chosen.iterations,
        trace=chosen.records,
        sigma_used=spec.sigma,
        threshold_used=spec.threshold,
        tau=config.tau,
        passed=chosen.passed,
        chosen_branch=chosen.name,
        start_halvings=run.halvings,
        start_capped=run.capped,
        **both,
    )


def fit_local(sample: Sample, config: AdaptConfig | None = None) -> FitReport:
    """Adapt weights locally: bump only the points inside violating intervals."""
    return _fit(sample, config, ("local",))


def fit_global(sample: Sample, config: AdaptConfig | None = None) -> FitReport:
    """Adapt one shared weight: every failure bumps all points at once.

    This scans the classic one-parameter family of smoothing splines and
    accepts the smoothest member inside the region; its roughness trace is
    nondecreasing along the run.
    """
    return _fit(sample, config, ("global",))


def fit(sample: Sample, config: AdaptConfig | None = None) -> FitReport:
    """Run both branches from one shared start and keep the smoother accepted fit.

    If exactly one branch is accepted it wins; otherwise the smaller final
    roughness wins, with ties going to the local branch.
    """
    return _fit(sample, config, ("local", "global"))
