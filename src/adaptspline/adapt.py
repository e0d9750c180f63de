"""Adaptive choice of the spline weights via the residual region.

Starting from the least squares line, per-point weights grow until the
weighted spline fit is accepted by the multiscale residual test: at each
round every point lying in some violating interval has its weight
multiplied by q.  A companion run keeps all weights equal (the classic
one-parameter smoothing family); the final answer is the smoother of the
two accepted fits.

Both branches start from the same place, and ``fit`` builds it once: the
noise scale, the region test with its interval family, the least squares
line and its test, the spline system of the sample (see
``splines.prepare_system``; dropped when the call returns) and the start
weight.  The start weight is found by halving an equal weight from 1
until the fit hugs the line, at most 60 times; the report says how many
halvings it took and whether it stopped at that cap.

At q = 2 the equal-weight branch climbs back up the rungs 2**-j of that
search, so the search judges each rung as it goes and keeps a record per
rung (passed, max |w|, violation count, roughness) plus the fit of the
smallest passing rung.  The branch reads each rung it reaches from that
record instead of solving it again, and solves only the weights above
the top rung (and a rung it is cut off on by the iteration budget).
Other q solve every weight.  Either way the fits are the ones the
branches would compute on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .multiscale import IntervalFamily, RegionReport, RegionSpec, dyadic_family, in_region, sigma_hat
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


@dataclass(frozen=True)
class AdaptConfig:
    """Tuning knobs of the weight-adaptation loop.

    ``sigma`` fixes the noise scale.  With ``sigma=None`` the fit uses the
    scale the sample carries (``Sample.sigma``, set by ``clean_outliers``)
    and, failing that, estimates it once, up front, with ``sigma_hat``.
    ``init_tolerance`` controls how close (relative to the data spread, in
    sup norm) the initial equal-weight fit must be to the least squares
    line; the initial weight is found by halving from 1.
    """

    q: float = 2.0
    tau: float = 3.0
    alpha: float = 0.95
    max_iterations: int = 200
    init_tolerance: float = 1e-3
    sigma: float | None = None

    def __post_init__(self):
        if self.q <= 1.0:
            raise ValueError("q must exceed 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.init_tolerance <= 0.0:
            raise ValueError("init_tolerance must be positive")
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be a nonnegative finite number")


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
    accepted.  On truncation the final fit is the last one examined and
    ``passed`` is False.  The start weight is 2**-``start_halvings``;
    ``start_capped`` is True when its search stopped at the cap of 60
    halvings with the fit still farther from the least squares line than
    ``init_tolerance`` allows.  Both stay 0 / False when the line itself
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
    truncated: bool
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


def _ls_line(sample: Sample) -> SplineFit:
    slope, intercept = np.polyfit(sample.t, sample.y, 1)
    return affine_fit(sample.t, float(intercept), float(slope))


def _entry(report: RegionReport, weights: np.ndarray | None, rough: float) -> TraceEntry:
    lmin = float(weights.min()) if weights is not None else 0.0
    lmax = float(weights.max()) if weights is not None else 0.0
    return TraceEntry(report.max_abs_w, len(report.violation_w), lmin, lmax, rough)


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


def _climb(system: SplineSystem, ladder: _Ladder, q: float, budget: int, judge):
    """Multiply one shared weight by q from the start weight until ``judge`` accepts.

    A weight the ladder holds a verdict for (every rung, when the ladder
    was judged for this q) is read from it, not solved again.  Returns the
    final weight and fit, the bumps made, whether the judge accepted, and
    the judge's record of each examined weight.
    """
    lam, current = ladder.lam, ladder.fit
    records = []
    iterations = 0
    while True:
        verdict = ladder.rungs.get(lam)
        if verdict is None:
            verdict = judge(lam, current)
        records.append(verdict[1])
        if verdict[0] or iterations >= budget:
            break
        lam *= q
        iterations += 1
        if lam not in ladder.rungs:
            current = solve_weighted(system, np.full(system.n, lam))
    if lam != ladder.lam and lam in ladder.rungs:
        # ended on a rung read from the ladder, which kept its fit only
        # if it was the smallest passing one
        current = ladder.passing if verdict[0] else solve_weighted(system, np.full(system.n, lam))
    return lam, current, iterations, verdict[0], records


def _covered_mask(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Boolean mask of points lying in at least one of the intervals."""
    steps = np.zeros(n + 1)
    np.add.at(steps, lo - 1, 1.0)
    np.add.at(steps, hi, -1.0)
    return np.cumsum(steps[:-1]) > 0.0


@dataclass(frozen=True)
class _Start:
    """What both branches share, built once per call and dropped with it.

    ``ladder`` is None when the least squares line itself was accepted.
    """

    sample: Sample
    system: SplineSystem
    spec: RegionSpec
    family: IntervalFamily
    line: SplineFit
    line_entry: TraceEntry
    ladder: _Ladder | None

    def judge(self, lam: float, fit_: SplineFit) -> tuple[bool, TraceEntry]:
        """Region test of an equal-weight fit, as (passed, trace entry)."""
        report = in_region(self.sample, fit_.values, self.family, self.spec)
        return report.passed, TraceEntry(report.max_abs_w, len(report.violation_w), lam, lam, fit_.roughness)


def _prepare(sample: Sample, config: AdaptConfig, rungs: bool) -> _Start:
    """Noise scale, region test, line, spline system and start weight.

    ``rungs`` asks the start search to judge its rungs for the
    equal-weight branch.
    """
    if config.sigma is not None:
        sigma = float(config.sigma)
    elif sample.sigma is not None:
        sigma = sample.sigma
    else:
        sigma = sigma_hat(sample)
    spec = RegionSpec(sigma=sigma, tau=config.tau, n=sample.n)
    family = dyadic_family(sample.n)
    line = _ls_line(sample)
    report = in_region(sample, line.values, family, spec)
    start = _Start(sample, prepare_system(sample), spec, family, line, _entry(report, None, 0.0), None)
    if report.passed:
        return start
    judge = start.judge if rungs else None
    ladder = _initial_lambda(start.system, line, config.init_tolerance * sample.spread(), judge, config.q)
    return replace(start, ladder=ladder)


def _report(start: _Start, config: AdaptConfig, branch: str, fit_: SplineFit,
            weights: np.ndarray | None, iterations: int, trace: list, passed: bool) -> FitReport:
    ladder = start.ladder
    return FitReport(
        final_fit=fit_,
        final_weights=weights,
        iterations=iterations,
        trace=tuple(trace),
        sigma_used=start.spec.sigma,
        threshold_used=start.spec.threshold,
        tau=config.tau,
        passed=passed,
        truncated=not passed,
        chosen_branch=branch,
        start_halvings=ladder.halvings if ladder else 0,
        start_capped=ladder.capped if ladder else False,
    )


def _local(start: _Start, config: AdaptConfig) -> FitReport:
    if start.ladder is None:
        return _report(start, config, "local", start.line, None, 0, [start.line_entry], True)
    n = start.system.n
    weights = np.full(n, start.ladder.lam)
    current = start.ladder.fit
    trace = [start.line_entry]
    iterations = 0
    while True:
        report = in_region(start.sample, current.values, start.family, start.spec)
        trace.append(_entry(report, weights, current.roughness))
        if report.passed or iterations >= config.max_iterations:
            break
        mask = _covered_mask(n, report.violation_lo, report.violation_hi)
        weights = np.where(mask, weights * config.q, weights)
        current = solve_weighted(start.system, weights)
        iterations += 1
    return _report(start, config, "local", current, weights, iterations, trace, report.passed)


def _global(start: _Start, config: AdaptConfig) -> FitReport:
    if start.ladder is None:
        return _report(start, config, "global", start.line, None, 0, [start.line_entry], True)
    lam, current, iterations, passed, entries = _climb(
        start.system, start.ladder, config.q, config.max_iterations, start.judge
    )
    weights = np.full(start.system.n, lam)
    return _report(start, config, "global", current, weights, iterations, [start.line_entry, *entries], passed)


def fit_local(sample: Sample, config: AdaptConfig | None = None) -> FitReport:
    """Adapt weights locally: bump only the points inside violating intervals."""
    config = config or AdaptConfig()
    return _local(_prepare(sample, config, rungs=False), config)


def fit_global(sample: Sample, config: AdaptConfig | None = None) -> FitReport:
    """Adapt one shared weight: every failure bumps all points at once.

    This scans the classic one-parameter family of smoothing splines and
    accepts the smoothest member inside the region; its roughness trace is
    nondecreasing along the run.
    """
    config = config or AdaptConfig()
    return _global(_prepare(sample, config, rungs=True), config)


def fit(sample: Sample, config: AdaptConfig | None = None) -> FitReport:
    """Run both branches from one shared start and keep the smoother accepted fit.

    If exactly one branch is accepted it wins; otherwise the smaller final
    roughness wins, with ties going to the local branch.
    """
    config = config or AdaptConfig()
    start = _prepare(sample, config, rungs=True)
    local = _local(start, config)
    glob = _global(start, config)
    if local.passed != glob.passed:
        chosen = local if local.passed else glob
    elif glob.roughness < local.roughness:
        chosen = glob
    else:
        chosen = local
    return replace(
        chosen,
        roughness_local=local.roughness,
        roughness_global=glob.roughness,
        truncated_local=local.truncated,
        truncated_global=glob.truncated,
    )
