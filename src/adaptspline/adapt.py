"""Adaptive choice of the spline weights via a residual test.

Starting from the least squares line, per-point weights grow until the
weighted spline fit is accepted by a multiscale residual test: at each
round every point lying in some violating interval has its weight
multiplied by q.  A companion run keeps all weights equal (the classic
one-parameter smoothing family); the final answer is the smoother of the
two accepted fits.

One engine (``_adapt``) runs this loop for the mean fits here and for the
scale fit of ``variants``; a caller hands it the sample to fit, its
interval family, the test and the order in which the local branch takes
the violations (all at once for the w-test of the mean fits, shortest
intervals first for the chi-squared bands of the scale fit).  Both
branches start from the same place, built once per call: the least
squares line and its test, the spline system of the sample (see
``splines.prepare_system``; dropped when the call returns) and the start
weight.  The start weight is found by halving an equal weight from 1
until the fit hugs the line, at most 60 times; the report says how many
halvings it took and whether it stopped at that cap.

Both branches run one loop (``_branch``), which multiplies the weights by
q on the points the test rejects: every point for the global branch, the
points covered by the violations of the current sweep group for the local
branch.  A branch reads the equal-weight record (``_Equal``) while its
weights are equal, so the record solves and tests each equal weight once,
whichever branch or start-search rung asks first.  A local bump that
covers every point keeps the weights equal; the first one that leaves a
point uncovered turns them into an array, and from then on the local
branch solves and tests on its own.  Per weight the record keeps the
verdict, the trace record and the mask of violating intervals, packed to
one bit per interval; of the fits it keeps two (the last one solved and
that of the smallest passing weight), and any other equal-weight fit a
branch ends on is solved again.  The fits are the ones the branches would
compute on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiscale import RegionSpec, _w_test, dyadic_family, sigma_hat
from .splines import Sample, SplineFit, SplineSystem, _is_count, affine_fit, prepare_system, solve_weighted

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


def _covered_mask(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Boolean mask of points lying in at least one of the intervals."""
    steps = np.bincount(lo - 1, minlength=n + 1) - np.bincount(hi, minlength=n + 1)
    return np.cumsum(steps[:-1]) > 0


class _Equal:
    """Per-call record of the equal-weight fits, keyed by the weight.

    ``judge(lam)`` solves and tests ``lam`` the first time it is asked,
    then reads the stored verdict ``(passed, bad, record)``: the test's
    verdict, its boolean mask of violating intervals over the family and
    its trace record.  The mask is stored packed (``np.packbits``: one bit
    for each of the ``count`` intervals of the family) and unpacked on
    each read.  Of the fits it keeps two, ``last`` (the last one solved) and
    ``passing`` (that of the smallest passing weight), each as a
    ``(lam, fit)`` pair; ``fit(lam)`` solves any other again.  A branch
    reads the record while its weights are equal (``_branch``).
    """

    def __init__(self, system: SplineSystem, test, count: int):
        self.system, self.test, self.count = system, test, count
        self.verdicts: dict = {}
        self.last = self.passing = None

    def judge(self, lam: float) -> tuple:
        """The verdict on ``lam``."""
        if lam not in self.verdicts:
            fit_ = self.fit(lam)
            passed, bad, record = self.test(fit_, lam)
            self.verdicts[lam] = (passed, np.packbits(bad), record)
            if passed and (self.passing is None or lam < self.passing[0]):
                self.passing = (lam, fit_)
        passed, packed, record = self.verdicts[lam]
        return passed, np.unpackbits(packed, count=self.count).view(bool), record

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
    is solved through ``equal.fit``.  At q = 2 a branch whose weights stay
    equal climbs through every rung, so each rung is judged as soon as it
    is solved and the branch reads its verdict from the record; at other
    q only the start weight is.  Either way the start fit is the record's
    last fit.
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


def _branch(name: str, equal: _Equal, family, start: float, config: AdaptConfig, first, sweep) -> _Branch:
    """Bump the weights by q from ``start`` until the test accepts or the
    budget is spent.

    With ``sweep=None`` this is the global branch: any violation bumps
    every weight.  Otherwise it is the local sweep: bump the points in one
    sweep group's violating intervals until the group is clean, then take
    the next group, wrapping around; stop once every group is clean at one
    fit.  While the weights are equal they are one scalar ``lam``, and the
    fits and verdicts come from ``equal``; a bump that covers every point
    is ``lam *= q``.  The first bump that leaves a point uncovered turns
    the weights into an array, which the branch solves and tests itself.
    """
    n = equal.system.n
    groups = (None,) if sweep is None else sweep
    lam, weights = start, None
    passed, bad, record = equal.judge(lam)
    records = [first, record]
    iterations = clean = group = 0
    while clean < len(groups):
        keep = bad if groups[group] is None else bad & (family.sizes == groups[group])
        if not keep.any():
            clean += 1
            group = (group + 1) % len(groups)
            continue
        if iterations >= config.max_iterations:
            break
        covered = None if sweep is None else _covered_mask(n, family.lo[keep], family.hi[keep])
        if weights is None and (covered is None or covered.all()):
            lam *= config.q
            passed, bad, record = equal.judge(lam)
        else:
            weights = np.full(n, lam) if weights is None else weights.copy()
            weights[covered] *= config.q
            current = solve_weighted(equal.system, weights)
            passed, bad, record = equal.test(current, weights)
        iterations += 1
        records.append(record)
        clean = 0
    if weights is None:
        current, weights = equal.fit(lam), np.full(n, lam)
    return _Branch(name, current, weights, iterations, passed, tuple(records))


def _adapt(target: Sample, family, test, sweep, config: AdaptConfig, branches=("local", "global")) -> _Run:
    """Run the named branches on ``target`` from one shared start.

    ``test(fit, weights)`` returns ``(passed, bad, record)``: the verdict
    on the fit, the boolean mask of its violating intervals over
    ``family`` (an ``IntervalFamily``) and what the trace keeps of it.
    ``weights`` is a scalar for an equal-weight fit and 0 for the least
    squares line.  ``sweep`` lists the groups the local branch takes in
    turn: ``None`` stands for every violation, an interval size for the
    violations of that size.  Each branch reads the equal-weight record
    while its weights are equal, so an equal weight both branches reach
    is solved and tested once (``_branch``).
    """
    line = _ls_line(target)
    passed, _, first = test(line, 0.0)
    halvings, capped = 0, False
    if passed:
        done = {name: _Branch(name, line, None, 0, True, (first,)) for name in branches}
    else:
        equal = _Equal(prepare_system(target), test, len(family))
        start, halvings, capped = _initial_lambda(equal, line, _INIT_TOLERANCE * target.spread(), config.q)
        done = {
            name: _branch(name, equal, family, start, config, first, sweep if name == "local" else None)
            for name in branches
        }
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
        record = TraceEntry(max_abs, int(np.count_nonzero(bad)), low, high, fit_.roughness)
        return passed, bad, record

    run = _adapt(sample, family, test, (None,), config, branches)
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
