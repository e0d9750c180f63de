"""Adaptive choice of the spline weights via a residual test.

Starting from the least squares line, per-point weights grow until the
weighted spline fit is accepted by a multiscale residual test: at each
round every point lying in some violating interval has its weight
multiplied by q.  A companion run keeps all weights equal (the classic
one-parameter smoothing family); the final answer is the smoother of the
two accepted fits.

One engine (``_adapt``) runs this loop for the mean fits here and for the
scale fit of ``variants``; a caller hands it the sample to fit, its
interval family, the test, the order in which the local branch takes
the violations (all at once for the w-test of the mean fits, shortest
intervals first for the chi-squared bands of the scale fit) and whether
the test's verdicts are monotone along the equal weights.  Both
branches start from the same place, built once per call: the least
squares line and its test, the spline system of the sample (see
``splines.prepare_system``; dropped when the call returns) and the start
weight.  The start weight is found by halving an equal weight from 1
until the fit hugs the line, at most 60 times; the report says how many
halvings it took and whether it stopped at that cap.

The equal weights form one ladder, held by the record of the
equal-weight fits (``_Equal``): rung k is start * q**k, built by
repeated ``* q``, and the top rung is ``max_iterations``, or the last
finite rung below it.  Both branches read their equal weights from it by
rung index, so each is tested once, whichever branch or search asks
first, and only the fit last solved is kept.  The local branch
(``_branch``) multiplies the weights by q on the points covered by the
violations of the current sweep group.  The global branch (``_bracket``)
ends on the first rung the test accepts: the mean fits gallop up the
rungs and bisect, the scale fit, whose verdicts are not monotone, reads
every rung in turn.  Both end truncated at the top.  The scale fit reports
only the chosen branch, so once its local branch has passed, its climb
also stops at the first rejected rung whose roughness reaches the local
fit's, as no rung above can beat that fit; the mean fits report both
branches' roughness and verdict, so they search in full.

The engine alone writes the outcome: a test returns its verdict, its
mask of violating intervals and its statistic, and the engine makes the
``TraceEntry`` of each examined fit.  Each branch returns its bumps,
verdict and records, and the fit and weights it ``held`` once they are
unequal; ``_adapt`` builds the final fit and weights of the chosen branch
only, returns them with the fields that ``FitReport`` and
``variants.ScaleFit`` share and converts every record to data units.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, replace

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
# A rung start * q**k whose natural log is at most this is finite: the largest
# double is e**709.78, and the rounding of a rung's products is far below e**0.78.
_LOG_SAFE = 709.0


@dataclass(frozen=True)
class AdaptConfig:
    """Tuning knobs of the weight-adaptation loop.

    ``sigma`` fixes the noise scale.  With ``sigma=None`` the fit uses the
    scale the sample carries (``Sample.sigma``, set by ``clean_outliers``)
    and, failing that, estimates it once, up front, with ``sigma_hat``.
    The initial weight is found by halving from 1 until the equal-weight
    fit is within ``_INIT_TOLERANCE`` times the data spread of the least
    squares line, in sup norm.  Each branch makes at most
    ``max_iterations`` weight bumps, and fewer where the weights would
    overflow: it then stops at the last finite rung and ends truncated.
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
    """Stats of one examined fit: the line stage, then one entry per refit.

    ``max_abs_w`` is the test's statistic: max |w| for the mean fits, None
    for the chi-squared bands of the scale fit.  The weights of the line
    are recorded as 0.
    """

    max_abs_w: float | None
    violations: int
    lambda_min: float
    lambda_max: float
    roughness: float


@dataclass(frozen=True)
class FitReport:
    """Audit trail of one adaptation run.

    The final fit and weights, ``iterations``, ``trace``, ``passed``,
    ``chosen_branch`` and the start fields are the run's outcome, which
    ``variants.ScaleFit`` reports the same way (see ``_adapt``).
    ``iterations`` counts the weight bumps from the start weight to the
    final weights; for the global branch that is the rung k of its final
    equal weight start * q**k, however few rungs its search examined.
    The trace starts with the least squares line (recorded with lambda 0).
    For the local branch it then has one entry per examined fit; for the
    global branch, one per rung its search examined at or below the final
    weight, by increasing lambda.  Either way the last entry judges the
    final fit.  ``final_weights`` is None when the line itself was
    accepted.  On truncation (no fit accepted within ``max_iterations``
    bumps, or within those that keep the weights finite) ``passed`` is
    False and ``truncated``, which is always ``not passed``, is True.  The
    start weight is 2**-``start_halvings``; ``start_capped`` is True when
    its search stopped at the cap of 60 halvings with the fit still
    farther from the least squares line than ``_INIT_TOLERANCE`` allows.
    Both stay 0 / False when the line itself was accepted.
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
    _: KW_ONLY
    start_halvings: int
    start_capped: bool

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


def _judge(test, fit_: SplineFit, weights) -> tuple:
    """``test``'s verdict and mask of violations on ``fit_``, and its trace record."""
    passed, bad, stat = test(fit_, weights)
    if isinstance(weights, np.ndarray):
        low, high = float(weights.min()), float(weights.max())
    else:
        low = high = float(weights)
    return passed, bad, TraceEntry(stat, int(np.count_nonzero(bad)), low, high, fit_.roughness)


class _Equal:
    """Per-call record of the equal-weight fits, on one ladder of weights.

    ``rung(k)`` is start * q**k, built by repeated ``* q`` and kept in
    ``rungs`` up to the highest rung read.  ``begin`` sets rung 0, the
    count of low rungs the start search ``judged`` and the ``top`` rung: the
    budget, cut at the last finite rung.  Both branches read it by index.

    ``judge(lam)`` solves and tests ``lam`` the first time it is asked,
    then reads the stored verdict ``(passed, bad, record)``: the test's
    verdict, its boolean mask of violating intervals over the family and
    its trace record.  The mask is stored packed (``np.packbits``: one bit
    for each of the ``count`` intervals of the family).  Of the fits it
    keeps one, ``last``, the ``(lam, fit)`` pair last solved; ``fit(lam)``
    solves any other weight again.  The start search, the local branch
    while its weights are equal and every rung the global branch reads go
    through it.
    """

    def __init__(self, system: SplineSystem, test, count: int, q: float, budget: int):
        self.system, self.test, self.count, self.q = system, test, count, q
        self.verdicts, self.last = {}, None
        self.rungs, self.judged, self.top = [], 0, budget

    def begin(self, start: float, judged: int) -> None:
        """Put rung 0 at ``start``, of which the start search judged the
        lowest ``judged`` rungs, and cut ``top`` at the last finite rung:
        the rungs are walked only when rung ``top`` may overflow, and then
        only up to the first that does."""
        self.rungs, self.judged = [start], judged
        if math.log(start) + self.top * math.log(self.q) > _LOG_SAFE:
            lam, k = start, 0
            while k < self.top and lam * self.q < math.inf:
                lam, k = lam * self.q, k + 1
            self.top = k

    def rung(self, k: int) -> float:
        """The equal weight after k bumps."""
        while len(self.rungs) <= k:
            self.rungs.append(self.rungs[-1] * self.q)
        return self.rungs[k]

    def judge(self, lam: float) -> tuple:
        """The verdict on ``lam``."""
        if lam not in self.verdicts:
            passed, bad, record = _judge(self.test, self.fit(lam), lam)
            self.verdicts[lam] = (passed, np.packbits(bad), record)
        passed, packed, record = self.verdicts[lam]
        return passed, np.unpackbits(packed, count=self.count).view(bool), record

    def fit(self, lam: float) -> SplineFit:
        """The fit of ``lam``, solved again unless it was the last one solved."""
        if self.last is None or self.last[0] != lam:
            self.last = (lam, solve_weighted(self.system, np.full(self.system.n, lam)))
        return self.last[1]


def _initial_lambda(equal: _Equal, line: SplineFit, tol_abs: float) -> tuple[int, bool]:
    """Halve an equal weight from 1 until the fit hugs the least squares line.

    Begins ``equal``'s ladder at the start weight 2**-halvings and returns
    the halvings and whether the search stopped at its cap with the fit
    still off the line.  At q = 2 the halvings are the rungs
    0 ... halvings, so each is judged as soon as it is solved; at other q
    only the start weight, rung 0, is.  Either way the start fit is the
    record's last fit.
    """
    lam, halvings = 1.0, 0
    while True:
        close = np.max(np.abs(equal.fit(lam).values - line.values)) <= tol_abs
        done = close or halvings == _MAX_HALVINGS
        if done or equal.q == 2.0:
            equal.judge(lam)
        if done:
            equal.begin(lam, halvings + 1 if equal.q == 2.0 else 1)
            return halvings, not close
        lam *= 0.5
        halvings += 1


@dataclass(frozen=True)
class _Branch:
    """Where one branch stopped: the bumps made, its last verdict, the
    records of every examined fit (the last judges the final fit) and the
    ``(fit, weights)`` it ``held`` once its weights are unequal (weights None
    for the accepted line), None while it stands on rung ``iterations``."""

    held: tuple | None
    iterations: int
    passed: bool
    records: tuple


def _branch(equal: _Equal, family, sweep, first) -> _Branch:
    """The local branch: bump the weights by q from the start weight until
    the test accepts or ``equal.top`` bumps are made.

    Bump the points in one sweep group's violating intervals until the
    group is clean, then take the next group, wrapping around; stop once
    every group is clean at one fit.  While the weights are equal they are
    the rung ``iterations`` of the ladder, and the fits and verdicts come
    from ``equal``; a bump that covers every point climbs one rung.  The
    first bump that leaves a point uncovered turns the weights into an
    array, which the branch solves and tests itself.  Each group's mask
    over the family is built once per call.
    """
    n, sizes = equal.system.n, family.sizes
    groups = [None if size is None else sizes == size for size in sweep]
    weights = None
    passed, bad, record = equal.judge(equal.rung(0))
    records = [first, record]
    iterations = clean = group = 0
    while clean < len(groups):
        keep = bad if groups[group] is None else bad & groups[group]
        if not keep.any():
            clean += 1
            group = (group + 1) % len(groups)
            continue
        if iterations >= equal.top:
            break
        covered = _covered_mask(n, family.lo[keep], family.hi[keep])
        if weights is None and covered.all():
            passed, bad, record = equal.judge(equal.rung(iterations + 1))
        else:
            if weights is None:
                weights = np.full(n, equal.rung(iterations))
            weights[covered] *= equal.q
            current = solve_weighted(equal.system, weights)
            passed, bad, record = _judge(equal.test, current, weights)
        iterations += 1
        records.append(record)
        clean = 0
    return _Branch(None if weights is None else (current, weights), iterations, passed, tuple(records))


def _bracket(equal: _Equal, first, ceiling: float | None, monotone: bool) -> _Branch:
    """The global branch: the first passing rung, found by a bracket.

    Rung k is the equal weight after k bumps, read by index from
    ``equal``'s ladder.  The search reads the lowest rungs in turn and
    stops at the first that passes: for a ``monotone`` test (the mean
    fits) the rungs the start search judged, otherwise (the scale fit)
    every rung up to ``equal.top``.  If none does, it gallops up from the
    last of them, b, to rungs b + 1, b + 3, b + 7, ..., cut at rung
    ``equal.top``, until one passes, then bisects between the highest
    failing rung and that one.  Rungs are read through ``equal.judge``, so
    a rung judged before costs nothing.  When no rung read up to the top
    passes, the branch ends truncated there.  The answer is the first
    passing rung whenever no rung fails above a passing one, as held for
    the w-test on every input probed, at about 2 log2 d rungs read
    instead of d.

    ``ceiling`` is the roughness of an accepted fit the branch must beat
    (None when there is none).  A rung read in turn that fails
    with roughness at or above it ends the branch there, not passed: the
    roughness of an equal-weight fit does not decrease as the weight
    grows, so no rung above it could be smoother than the accepted fit,
    and ties go to that fit.  A NaN roughness never ends it.  The records
    are the line's, then those of the rungs read at or below the final
    one, by rung.
    """
    top, read, turn = equal.top, {}, equal.judged if monotone else equal.top + 1

    def passes(k: int) -> bool:
        passed, _, read[k] = equal.judge(equal.rung(k))
        return passed

    lo, hi, step = -1, None, 1  # the highest rung read that fails, the lowest that passes
    while hi is None and lo < top:
        k = min(lo + step, top)
        if passes(k):
            hi = k
        elif k < turn and ceiling is not None and read[k].roughness >= ceiling:
            lo = top = k  # no rung above can win: search no further
        else:  # read in turn, then gallop
            lo, step = k, 1 if k < turn else 2 * step
    while hi is not None and hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    k = lo if hi is None else hi
    records = (first,) + tuple(read[j] for j in sorted(read) if j <= k)
    return _Branch(None, k, hi is not None, records)


def _adapt(
    target: Sample, family, test, sweep, config: AdaptConfig, branches=("local", "global"), monotone=False,
    chosen_only=False, *, unit,
) -> tuple:
    """Run the named branches on ``target`` from one shared start.

    Returns the chosen fit and weights, the other fields of the outcome
    that ``FitReport`` and ``variants.ScaleFit`` share, as keyword
    arguments, and the branches run, by name (see ``_Branch``).  Only the
    chosen branch's fit and weights are built.

    ``test(fit, weights)`` returns ``(passed, bad, stat)``: the verdict on
    the fit, the boolean mask of its violating intervals over ``family``
    (an ``IntervalFamily``) and its statistic (see ``TraceEntry``).
    ``weights`` is a scalar for an equal-weight fit and 0 for the least
    squares line.  ``sweep`` lists the groups the local branch takes in
    turn: ``None`` stands for every violation, an interval size for the
    violations of that size.  ``monotone`` says that no equal weight fails
    above a passing one, so that the global branch may bracket its rungs.

    ``chosen_only`` says that the caller reads only the chosen branch, not
    the other one's roughness or verdict.  The local branch runs first;
    when it passes, its roughness is then the global branch's ceiling (see
    ``_bracket``), so the companion stops once it can no longer win.  The
    chosen branch is the same as without the ceiling.

    ``target`` is the data / 2**``unit``; the branches test and compare on
    it.  The chosen fit and all records return in data units (roughness
    times 4**unit, the rest times 2**unit): exact in range, ``inf`` past it.
    """
    line = _ls_line(target)
    passed, _, first = _judge(test, line, 0.0)
    halvings, capped = 0, False
    if passed:
        done = {name: _Branch((line, None), 0, True, (first,)) for name in branches}
    else:
        equal = _Equal(prepare_system(target), test, len(family), config.q, config.max_iterations)
        halvings, capped = _initial_lambda(equal, line, _INIT_TOLERANCE * target.spread())
        done, ceiling = {}, None
        for name in branches:
            if name == "local":
                done[name] = _branch(equal, family, sweep, first)
                if chosen_only and done[name].passed:
                    ceiling = done[name].records[-1].roughness
            else:
                done[name] = _bracket(equal, first, ceiling, monotone)
    # an accepted branch beats a rejected one, then the smaller final
    # roughness wins; min keeps the first of equals, so ties go to local
    name, c = min(done.items(), key=lambda item: (not item[1].passed, item[1].records[-1].roughness))
    lam = None if c.held else equal.rung(c.iterations)
    fit_, weights = c.held or (equal.fit(lam), np.full(target.n, lam))
    with np.errstate(over="ignore"):  # in data units
        fit_ = SplineFit(fit_.knots, np.ldexp(fit_.values, unit), np.ldexp(fit_.second_derivs, unit),
                         np.ldexp(fit_.roughness, 2 * unit))
        done = {key: replace(b, records=tuple(
            TraceEntry(None if e.max_abs_w is None else float(np.ldexp(e.max_abs_w, unit)), e.violations,
                       e.lambda_min, e.lambda_max, float(np.ldexp(e.roughness, 2 * unit))) for e in b.records))
                for key, b in done.items()}
    shared = dict(iterations=c.iterations, passed=c.passed, chosen_branch=name, trace=done[name].records,
                  start_halvings=halvings, start_capped=capped)
    return fit_, weights, shared, done


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
    e = math.frexp(float(np.max(np.abs(sample.y))))[1]  # fit y / 2**e, all within (-1, 1)
    target, threshold = Sample(sample.t, np.ldexp(sample.y, -e)), float(np.ldexp(spec.threshold, -e))

    def test(fit_: SplineFit, weights):
        passed, max_abs, _, bad = _w_test(target.y - fit_.values, family, threshold)
        return passed, bad, max_abs

    fit_, weights, shared, done = _adapt(target, family, test, (None,), config, branches, monotone=True, unit=e)
    if len(done) == 2:
        for name, b in done.items():
            shared.update({f"roughness_{name}": b.records[-1].roughness, f"truncated_{name}": not b.passed})
    return FitReport(fit_, weights, sigma_used=spec.sigma, threshold_used=spec.threshold, tau=config.tau, **shared)


def fit_local(sample: Sample, config: AdaptConfig | None = None) -> FitReport:
    """Adapt weights locally: bump only the points inside violating intervals."""
    return _fit(sample, config, ("local",))


def fit_global(sample: Sample, config: AdaptConfig | None = None) -> FitReport:
    """Adapt one shared weight: every failure bumps all points at once.

    This brackets the classic one-parameter family of smoothing splines
    on the rungs start * q**k: it gallops up the rungs until a fit is
    accepted, then bisects for the first accepted rung, the smoothest
    member on the rungs inside the region whenever no rung is rejected
    above an accepted one.  ``iterations`` is that rung's k, and the trace
    holds the rungs examined at or below it, by increasing weight; its
    roughness is nondecreasing along the trace.
    """
    return _fit(sample, config, ("global",))


def fit(sample: Sample, config: AdaptConfig | None = None) -> FitReport:
    """Run both branches from one shared start and keep the smoother accepted fit.

    If exactly one branch is accepted it wins; otherwise the smaller final
    roughness wins, with ties going to the local branch.
    """
    return _fit(sample, config, ("local", "global"))
