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

At q = 2 the equal-weight branch climbs back up the rungs 2**-j of that
search, so the search judges each rung as it goes and keeps a record per
rung (passed and the test's trace record) plus the fit of the smallest
passing rung.  The branch reads each rung it reaches from that record
instead of solving it again, and solves only the weights above the top
rung (and a rung it is cut off on by the iteration budget).  Other q
solve every weight.  Either way the fits are the ones the branches would
compute on their own.
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


@dataclass(frozen=True)
class _Ladder:
    """Outcome of the start-weight search.

    ``lam`` = 2**-halvings is the start weight and ``fit`` its equal-weight
    fit; ``capped`` says the search stopped at its cap with the fit still
    off the line.  ``rungs`` maps each rung weight to its judge's
    ``(passed, record)`` and ``passing`` is the fit of the smallest passing
    rung; both stay empty unless the search was given a judge.
    """

    lam: float
    fit: SplineFit
    halvings: int
    capped: bool
    rungs: dict
    passing: SplineFit | None


def _initial_lambda(
    system: SplineSystem, line: SplineFit, tol_abs: float, judge=None, q: float = 2.0
) -> _Ladder:
    """Halve an equal weight from 1 until the fit hugs the least squares line.

    ``judge`` is the test of the equal-weight climb that will follow at
    factor ``q``.  At q = 2 that climb meets exactly the rungs of this
    search, so each rung's fit is judged as soon as it is solved:
    ``judge(lam, fit)`` returns ``(passed, record)``.  The ladder keeps
    that pair per rung and the fit of the smallest passing rung, and drops
    the other fits.  At other q, or without a judge, nothing is judged.
    """
    judge = judge if q == 2.0 else None
    lam, halvings = 1.0, 0
    rungs: dict = {}
    passing = None
    while True:
        fit_ = solve_weighted(system, np.full(system.n, lam))
        if judge is not None:
            rungs[lam] = judge(lam, fit_)
            if rungs[lam][0]:
                passing = fit_
        close = np.max(np.abs(fit_.values - line.values)) <= tol_abs
        if close or halvings == _MAX_HALVINGS:
            return _Ladder(lam, fit_, halvings, not close, rungs, passing)
        lam *= 0.5
        halvings += 1


def _covered_mask(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Boolean mask of points lying in at least one of the intervals."""
    steps = np.bincount(lo - 1, minlength=n + 1) - np.bincount(hi, minlength=n + 1)
    return np.cumsum(steps[:-1]) > 0


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


def _local(system: SplineSystem, ladder: _Ladder, test, sweep, config: AdaptConfig, first) -> _Branch:
    """Bump the points in one sweep group's violating intervals by q until
    the group is clean, then take the next group, wrapping around; stop
    once every group is clean at one fit."""
    weights = np.full(system.n, ladder.lam)
    current = ladder.fit
    passed, lo, hi, record = test(current, weights)
    records = [first, record]
    iterations = clean = group = 0
    while clean < len(sweep):
        size = sweep[group]
        keep = slice(None) if size is None else hi - lo + 1 == size
        if lo[keep].size == 0:
            clean += 1
            group = (group + 1) % len(sweep)
            continue
        if iterations >= config.max_iterations:
            break
        weights = np.where(_covered_mask(system.n, lo[keep], hi[keep]), weights * config.q, weights)
        current = solve_weighted(system, weights)
        iterations += 1
        passed, lo, hi, record = test(current, weights)
        records.append(record)
        clean = 0
    return _Branch("local", current, weights, iterations, passed, tuple(records))


def _global(system: SplineSystem, ladder: _Ladder, judge, config: AdaptConfig, first) -> _Branch:
    """Multiply one shared weight by q from the start weight until the test accepts.

    A weight the ladder holds a verdict for (every rung, when the ladder
    was judged for this q) is read from it, not solved again.
    """
    lam, current = ladder.lam, ladder.fit
    records = [first]
    iterations = 0
    while True:
        verdict = ladder.rungs.get(lam)
        if verdict is None:
            verdict = judge(lam, current)
        records.append(verdict[1])
        if verdict[0] or iterations >= config.max_iterations:
            break
        lam *= config.q
        iterations += 1
        if lam not in ladder.rungs:
            current = solve_weighted(system, np.full(system.n, lam))
    if lam != ladder.lam and lam in ladder.rungs:
        # ended on a rung read from the ladder, which kept its fit only
        # if it was the smallest passing one
        current = ladder.passing if verdict[0] else solve_weighted(system, np.full(system.n, lam))
    return _Branch("global", current, np.full(system.n, lam), iterations, verdict[0], tuple(records))


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
        def judge(lam, fit_):
            passed, _, _, record = test(fit_, lam)
            return passed, record

        system = prepare_system(target)
        tol_abs = _INIT_TOLERANCE * target.spread()
        ladder = _initial_lambda(system, line, tol_abs, judge if "global" in branches else None, config.q)
        halvings, capped = ladder.halvings, ladder.capped
        done = {}
        if "local" in branches:
            done["local"] = _local(system, ladder, test, sweep, config, first)
        if "global" in branches:
            done["global"] = _global(system, ladder, judge, config, first)
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
    root_sizes = np.sqrt(family.sizes)
    threshold = spec.threshold

    def test(fit_: SplineFit, weights):
        passed, max_abs, _, bad = _w_test(sample.y - fit_.values, family, root_sizes, threshold)
        w = np.asarray(weights)
        record = TraceEntry(max_abs, bad.size, float(w.min()), float(w.max()), fit_.roughness)
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
