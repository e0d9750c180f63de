"""Weighted natural cubic smoothing splines in value / second-derivative form.

The central object is the minimizer of the per-point weighted criterion

    sum_i  lambda_i * (y_i - g(t_i))**2  +  integral_0^1 g''(t)**2 dt

over twice continuously differentiable functions on [0, 1].  The minimizer
is a natural cubic spline with knots at all design points.  With ``R`` and
``Q`` the usual consistency matrices relating knot values to interior
second derivatives (Reinsch's scheme, generalized to a weight per
observation), the knot values g and second derivatives gamma solve the
augmented system

    g + diag(1/lambda) Q gamma = y,    Q^T g - R gamma = 0,

the augmented-system approach to least squares (Bjorck 1967).  Unlike
Reinsch's normal equations (R + Q^T diag(1/lambda) Q) gamma = Q^T y it does
not square the conditioning, so the fit stays accurate for small weights
at large n and for weights spread over many decades.  Interleaving g and
gamma, with the equation of gamma_j ahead of that of g_j, makes the matrix
banded with two diagonals below and three above, and LAPACK ``dgbtrf`` /
``dgbtrs`` (partial pivoting) solve it in O(n) time and memory.

Only the entries Q/lambda change with the weights.  ``prepare_system``
builds the matrix once at unit weight, as the 2-D LAPACK band array (the
one place Q and R are written), and
``solve_weighted`` takes that system in place of the sample, so the many
solves of one adaptive fit share it.  Each solve copies the band, scales
the three rows that hold Q by 1/lambda, then factors the copy in place.
A system that is not finite raises ``ValueError``, a singular factorization
``RuntimeError``; the check costs O(1) per solve unless the weights come
near the end of the double range (see ``SplineSystem``).  ``_rhs`` puts y
in the rows of the g equations, and ``_solve`` reads g and gamma back.

An equal-weight system depends only on t and the weight, so the replicates
of a simulation study on one grid factor the same matrices again and again.
Inside the private scope ``_shared_design`` (entered by
``bench.mrise_study`` once per sample size) every sample on the scope's grid
shares one design, which keeps the LU factors of each equal weight it has
solved, up to a fixed memory budget; a later equal-weight solve at a kept
weight runs ``dgbtrs`` only.  Outside a scope nothing is kept.

The penalty form ``PenaltyMatrix`` (K with g^T K g the roughness of the
spline interpolating g) reads the same band at infinite weights: there
Q/lambda = 0, the first block row says g = y, and the second gives the
second derivatives of the spline through y.  So ``dgbtrf`` / ``dgbtrs``
are the module's one banded solver.  They are bound from
``scipy.linalg.lapack`` on their first use (the module's ``__getattr__``),
so importing the package loads no SciPy; the first solve or penalty form
does.  Setting ``splines.dgbtrf`` / ``splines.dgbtrs`` replaces the routine
that every solve calls.

Evaluating a spline at given points also splits into a part that depends
on the knots only and a part that depends on the fit: ``_locate`` finds
each point's knot interval and its place in it, and ``_combine`` evaluates
the cubic there from the knot values and second derivatives.
``evaluate`` runs both; ``bench.mrise_study`` locates its RISE grid once
per sample size and combines it with the fit of every replicate.
"""

from __future__ import annotations

import math
import numbers
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Sample",
    "SplineFit",
    "SplineSystem",
    "PenaltyMatrix",
    "build_penalty",
    "prepare_system",
    "solve_weighted",
    "evaluate",
    "roughness_of",
    "affine_fit",
    "check_weights",
]

# The solver calls ``dgbtrf`` / ``dgbtrs`` as attributes of this module, so
# that the first call binds them through ``__getattr__``.
_module = sys.modules[__name__]


def __getattr__(name: str):
    """Bind ``dgbtrf`` or ``dgbtrs`` from ``scipy.linalg.lapack`` on its first access."""
    if name not in ("dgbtrf", "dgbtrs"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg import lapack

    routine = globals()[name] = getattr(lapack, name)
    return routine


def _is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer (not a bool) of at least ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


@dataclass(frozen=True)
class Sample:
    """Ordered design points in [0, 1] with responses.

    Parameters
    ----------
    t : array_like
        Strictly increasing design points, all inside [0, 1].
    y : array_like
        Responses, same length as ``t``.  At least 3 points are required.
    sigma : float, optional
        Noise scale the responses are known to carry.  ``clean_outliers``
        sets it to the scale it cleaned with, because the running-median
        replacements shrink the spread that ``sigma_hat`` would measure on
        the cleaned data.  The fit uses ``AdaptConfig.sigma`` if given,
        else this value, else ``sigma_hat`` of the sample.
    """

    t: np.ndarray
    y: np.ndarray
    sigma: float | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.ndim != 1 or y.ndim != 1 or t.shape != y.shape:
            raise ValueError("t and y must be one-dimensional and equally long")
        if t.size < 3:
            raise ValueError("need at least 3 data points")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite values in t or y")
        if np.any(np.diff(t) <= 0):
            raise ValueError("t must be strictly increasing (duplicates are rejected)")
        if t[0] < 0.0 or t[-1] > 1.0:
            raise ValueError("design points must lie in [0, 1]")
        if self.sigma is not None:
            if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
                raise ValueError("sigma must be a nonnegative finite number")
            object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.t.size

    def spread(self) -> float:
        """Range max(y) - min(y), used for relative tolerances."""
        return float(np.ptp(self.y))


def check_weights(weights, n: int) -> np.ndarray:
    """Validate a per-point weight vector: length n, finite, strictly positive."""
    lam = np.asarray(weights, dtype=float)
    if lam.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("weights must be finite")
    if np.any(lam <= 0.0):
        raise ValueError("weights must be strictly positive")
    return lam


@dataclass(frozen=True)
class SplineFit:
    """A natural cubic spline stored as knot values plus second derivatives.

    ``second_derivs`` has length n with zero first and last entries (natural
    boundary conditions).  ``roughness`` is the exact integral of the squared
    (piecewise linear) second derivative.  Evaluation at a knot returns the
    stored value exactly; outside the knot range the spline continues
    linearly, matching the zero curvature of the natural boundary.
    """

    knots: np.ndarray
    values: np.ndarray
    second_derivs: np.ndarray
    roughness: float

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        c = np.asarray(self.second_derivs, dtype=float)
        if not (k.shape == v.shape == c.shape) or k.ndim != 1 or k.size < 2:
            raise ValueError("knots, values and second_derivs must be equal-length vectors")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "second_derivs", c)
        object.__setattr__(self, "roughness", float(self.roughness))

    def __call__(self, x, order: int = 0):
        return evaluate(self, x, order)


def affine_fit(t, intercept: float, slope: float) -> SplineFit:
    """The straight line a + b*t as a (roughness zero) spline on knots t."""
    t = np.asarray(t, dtype=float)
    values = intercept + slope * t
    return SplineFit(t.copy(), values, np.zeros_like(t), 0.0)


@dataclass(frozen=True)
class PenaltyMatrix:
    """The quadratic form K with g^T K g = roughness of the interpolating spline.

    K = Q R^{-1} Q^T is never formed for products and quadratic forms.  The
    natural spline through (t, g) is the fits' augmented system at infinite
    weights: the band that ``prepare_system`` builds, factored by
    ``_factor`` at d = 1/lambda = 0, solves for its second derivatives
    gamma = R^{-1} Q^T g.  Then g^T K g is their roughness, the formula
    every fit uses, and K g = Q gamma reads Q from the band.  The band is
    built and factored once per instance, on first use, and kept; each
    ``quad_form`` or ``apply`` then costs one O(n) ``dgbtrs``, and
    ``dense`` solves for all n unit vectors at once.  The knots need
    not lie in [0, 1].  K is symmetric positive semidefinite with null
    space exactly the affine functions of t.
    """

    knots: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.knots, dtype=float)
        if t.ndim != 1 or t.size < 3:
            raise ValueError("need at least 3 knots")
        if np.any(np.diff(t) <= 0):
            raise ValueError("knots must be strictly increasing")
        object.__setattr__(self, "knots", t)

    @property
    def n(self) -> int:
        return self.knots.size

    @cached_property
    def _factored(self) -> tuple:
        """The spacings and band of the knots (``_band``) and the band's LU
        at d = 1/lambda = 0, as ``(h, band, lu, piv)``."""
        h, band, q_max = _band(self.knots)
        return (h, band) + _factor(band, q_max, np.zeros(self.n), 0.0)

    def _second_derivs(self, g: np.ndarray) -> np.ndarray:
        """The second derivatives of the natural spline through (t, g): the
        augmented system at d = 1/lambda = 0, one column of g per
        right-hand side."""
        _, _, lu, piv = self._factored
        return _solve(lu, piv, _rhs(g))[1]

    def _apply(self, g: np.ndarray) -> np.ndarray:
        """K g = Q gamma, with Q read from the band (see ``SplineSystem``)."""
        gamma = self._second_derivs(g)
        a, b, c = _q_entries(self._factored[1]).reshape((3, self.n - 2) + (1,) * (g.ndim - 1))
        inner = gamma[1:-1]
        out = np.zeros_like(gamma)
        out[:-2] += a * inner
        out[1:-1] += b * inner
        out[2:] += c * inner
        return out

    def _vector(self, g) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if g.shape != (self.n,):
            raise ValueError("vector length must match the design size")
        return g

    def quad_form(self, g) -> float:
        """g^T K g, the roughness of the natural spline interpolating (t_i, g_i)."""
        return _roughness(self._factored[0], self._second_derivs(self._vector(g)))

    def apply(self, g) -> np.ndarray:
        """Matrix-vector product K g."""
        return self._apply(self._vector(g))

    def dense(self) -> np.ndarray:
        """Explicit n x n matrix; O(n^2) memory, intended for diagnostics."""
        k = self._apply(np.eye(self.n))
        return (k + k.T) / 2.0

    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of the dense form (two zero eigenvalues first)."""
        return np.linalg.eigvalsh(self.dense())


def build_penalty(sample: Sample) -> PenaltyMatrix:
    """Penalty quadratic form for the design points of ``sample``."""
    return PenaltyMatrix(sample.t.copy())


@dataclass(frozen=True)
class SplineSystem:
    """The augmented spline system of one sample, at unit weight.

    Holds the design points t, the spacings h, the LAPACK band storage of
    the matrix with all weights 1 (a Fortran-ordered ``_LDAB`` x 2n array),
    the right-hand side (``_rhs`` of the responses) and ``q_max``,
    the largest |entry| of Q.  The column of an interior gamma_j holds the
    column of Q for knot j, its entries a, b, c on band rows 3, 5 and 7
    (``_q_entries``); ``solve_weighted`` scales them by 1/lambda of
    g_{j-1}, g_j and g_{j+1}.  It accepts the system in place of the
    sample, so that the solves of one fit build this once.  Build it with
    ``prepare_system`` and keep it for one fit.

    ``q_max`` bounds every scaled entry: |Q_ij / lambda_k| is at most
    ``q_max`` * (1 / min lambda), also after rounding, because rounding
    is monotone and 1 / min lambda is the largest 1/lambda_k.  When that
    bound is finite, so is every scaled entry, and ``_factor`` checks the
    bound alone; only weights whose bound overflows have their entries
    scanned one by one.

    ``factors`` maps an equal weight to the ``(lu, piv)`` that ``dgbtrf``
    returned for it.  It is ``None`` unless the system was prepared inside
    a ``_shared_design`` scope; there, every system on the scope's grid
    shares h, band and this table with the scope's first system, and holds
    its own t and right-hand side.  Each entry takes 136 n bytes and lives
    until the scope ends; the table stops taking entries at
    ``_FACTOR_BUDGET`` bytes.
    """

    t: np.ndarray
    h: np.ndarray
    band: np.ndarray
    rhs: np.ndarray
    q_max: float
    factors: dict | None

    @property
    def n(self) -> int:
        return self.t.size


# Half-bandwidths of the augmented matrix in the interleaved order, and the
# rows of its LAPACK band storage (kl more for the fill of partial pivoting).
_KL, _KU = 2, 3
_LDAB = 2 * _KL + _KU + 1

# Bytes of LU factors one _shared_design scope keeps at most.
_FACTOR_BUDGET = 32 << 20

# The design of the innermost _shared_design scope: a one-slot list that
# holds the first system prepared in the scope, or None before that.
_DESIGN: ContextVar[list | None] = ContextVar("adaptspline_design", default=None)


@contextmanager
def _shared_design():
    """Share one spline design, and its equal-weight LU factors, between the
    samples on one grid prepared inside this scope.

    The first system prepared in the scope becomes its design; a later
    sample whose t equals the design's reuses its h, band and factor
    table.  The factors are dropped when the scope ends, however it ends.
    A reused factor is the output of the same ``dgbtrf`` on the same bytes,
    so the fits are bit-identical to those made outside a scope.
    """
    token = _DESIGN.set([None])
    try:
        yield
    finally:
        _DESIGN.reset(token)


def _q_entries(band: np.ndarray) -> np.ndarray:
    """The view of a band that holds Q: rows 3, 5 and 7 of the interior
    gamma columns, one column of Q each (see ``SplineSystem``)."""
    return band[3:8:2, 3:-2:2]


def _band(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The spacings of t, the band of its augmented system at unit weight
    and the largest |entry| of its Q.

    The one place Q and R are written.  Column j of Q (one per interior
    knot) has entries a = 1/h_{j-1}, b = -(a + c), c = 1/h_j at the rows of
    g_{j-1}, g_j, g_{j+1}, so that (Q^T g)_j is the second divided
    difference of g around knot j; R is tridiagonal with (h_{j-1} + h_j)/3
    on its diagonal and h_j/6 beside it.  The knots need not lie in [0, 1].

    The columns are the unknowns of ``prepare_system``.  The rows hold the
    equations in pairs, one pair per knot: first that of gamma_j (Q^T g -
    R gamma = 0 at an interior knot, the identity gamma_j = 0 at either
    end), then that of g_j.  In that order the band has two diagonals
    below the main one, where the unknowns' own order would need three,
    and Q still sits on band rows 3, 5 and 7 (``_q_entries``).

    Raises
    ------
    ValueError
        If the spacings are so small that the system is not finite.
    """
    n = t.size
    h = np.diff(t)
    a = 1.0 / h[:-1]
    c = 1.0 / h[1:]
    r_main = (h[:-1] + h[1:]) / 3.0
    r_off = h[1:-1] / 6.0
    gp = np.arange(0, 2 * n, 2)  # where g_i sits; its equation is one row lower
    cp = np.arange(3, 2 * n - 2, 2)  # where the interior gamma_j sit; theirs are one row higher

    band = np.zeros((_LDAB, 2 * n), order="F")

    def put(row, col, value):
        band[_KL + _KU + row - col, col] = value

    put(gp + 1, gp, 1.0)
    put(np.array([0, 2 * n - 2]), np.array([1, 2 * n - 1]), 1.0)  # the pinned gamma_1, gamma_n
    for k, qk in enumerate((a, -(a + c), c)):
        put(gp[k:k + n - 2] + 1, cp, qk)
        put(cp - 1, gp[k:k + n - 2], qk)
    put(cp - 1, cp, -r_main)
    put(cp[:-1] - 1, cp[1:], -r_off)
    put(cp[1:] - 1, cp[:-1], -r_off)
    if not np.isfinite(band).all():
        raise ValueError("spline system is not finite; the design points are too close")
    return h, band, float(np.abs(_q_entries(band)).max())


def prepare_system(sample: Sample) -> SplineSystem:
    """The augmented spline system for ``sample``, at unit weight.

    The unknowns are ordered g_1, gamma_1, g_2, gamma_2, ..., g_n, gamma_n,
    and the equations gamma_1, g_1, gamma_2, g_2, ... (see ``_band``), so
    y fills the rows of the g equations (``_rhs``).  The natural boundary
    values gamma_1 = gamma_n = 0 are two identity rows with nothing else in
    their rows and columns, so they solve to exactly 0; no row reaches more
    than two places below its diagonal or three above it, and ``_solve``
    reads g and gamma from the solution.  Inside a ``_shared_design`` scope,
    a sample on the scope's grid gets a system that shares the design's
    band and factor table (see ``SplineSystem``).

    Raises
    ------
    ValueError
        If the spacings are so small that the system is not finite.
    """
    t, rhs = sample.t, _rhs(sample.y)
    scope = _DESIGN.get()
    design = None if scope is None else scope[0]
    if design is not None:
        if np.array_equal(design.t, t):
            return SplineSystem(t, design.h, design.band, rhs, design.q_max, design.factors)
        scope = None  # another grid: a system of its own that keeps nothing
    h, band, q_max = _band(t)
    system = SplineSystem(t, h, band, rhs, q_max, None if scope is None else {})
    if scope is not None:
        scope[0] = system
    return system


def _singular() -> RuntimeError:
    return RuntimeError("weighted spline system is numerically singular")


def _rhs(y: np.ndarray) -> np.ndarray:
    """The right-hand side with ``y`` in the rows of the g equations (see
    ``_band``): 1-D for one vector y, Fortran-ordered 2-D for one column
    of y per right-hand side."""
    rhs = np.zeros((2 * y.shape[0],) + y.shape[1:], order="F")
    rhs[1::2] = y
    return rhs


def _solve(lu: np.ndarray, piv: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``dgbtrs`` of a factored band (``_factor``) at ``rhs`` (``_rhs``), as
    the knot values g = x[::2] and second derivatives gamma = x[1::2]."""
    x, info = _module.dgbtrs(lu, _KL, _KU, rhs, piv)
    if info != 0:
        raise _singular()
    return x[::2], x[1::2]


def _factor(band: np.ndarray, q_max: float, d: np.ndarray, d_max: float) -> tuple[np.ndarray, np.ndarray]:
    """``dgbtrf`` of a copy of ``band`` (``_band``) with Q scaled by d = 1/lambda.

    ``q_max`` is the band's largest |entry| of Q and ``d_max`` is at least
    max d.  The scaled entries are scanned for a value that is not finite
    only when ``q_max * d_max`` overflows (see ``SplineSystem``), so a
    caller that knows no bound passes ``math.inf`` and scans them all.
    """
    ab = band.copy(order="F")
    q = _q_entries(ab)
    q[0] *= d[:-2]
    q[1] *= d[1:-1]
    q[2] *= d[2:]
    if not math.isfinite(q_max * d_max) and not np.isfinite(q).all():
        raise ValueError("weighted spline system is not finite; the weights are out of range")
    lu, piv, info = _module.dgbtrf(ab, _KL, _KU, overwrite_ab=1)
    if info != 0:
        raise _singular()
    return lu, piv


def solve_weighted(sample: Sample | SplineSystem, weights) -> SplineFit:
    """Minimize the weighted smoothing criterion exactly.

    Solves the augmented system of the module docstring: one copy of the
    band of ``sample`` has its entries of Q scaled by 1/lambda, ``dgbtrf``
    factors it in place and ``dgbtrs`` solves.  When the system has a
    factor table (see ``SplineSystem``) and all weights are equal, a weight
    already in the table runs ``dgbtrs`` only, and a new one is stored once
    it has factored without error, if the table stays within its budget.

    Parameters
    ----------
    sample : Sample or SplineSystem
        The data, or their system from ``prepare_system`` when several
        solves share one sample.
    weights : array_like
        Strictly positive per-point weights lambda_i.  Larger weights pull
        the spline towards the corresponding observations; as all weights
        grow the fit approaches interpolation.

    Returns
    -------
    SplineFit
        The unique minimizing natural cubic spline.

    Raises
    ------
    ValueError
        If the weights are invalid, or so small that the entries Q/lambda
        are not finite in double precision.
    RuntimeError
        If LAPACK finds the augmented system exactly singular.

    Notes
    -----
    The solve is accurate for the system in double precision, whose Q has
    rounded coefficients a = 1/h, c = 1/h', b = -(a + c), so that Q no
    longer annihilates constants exactly.  At large n that rounding, not
    the solve, sets the accuracy floor, and no refinement of the solve can
    lower it.  With t = i/n on the bumps-hi and rupcar-hi data, the worst
    fit was 1.05e-9 of the data spread away from the exact solution at
    n = 100000 (rupcar-hi, lambda = 2**-20), and at most 4.3e-11 away at
    n = 102400 (lambda <= 2**-10).
    """
    system = sample if isinstance(sample, SplineSystem) else prepare_system(sample)
    n = system.n
    lam = np.asarray(weights, dtype=float)
    # fast path for valid weights (NaN fails min() > 0); check_weights
    # raises with the exact message otherwise
    if lam.shape != (n,):
        check_weights(lam, n)
    low, high = lam.min(), lam.max()
    if not (low > 0.0 and high < math.inf):
        check_weights(lam, n)
    table = system.factors if low == high else None
    key = float(low)
    if table is not None and key in table:
        lu, piv = table[key]
    else:
        lu, piv = _factor(system.band, system.q_max, 1.0 / lam, 1.0 / float(low))
        if table is not None and (len(table) + 1) * (lu.nbytes + piv.nbytes) <= _FACTOR_BUDGET:
            table[key] = lu, piv
    g, c = _solve(lu, piv, system.rhs)
    return SplineFit(system.t.copy(), g, c, _roughness(system.h, c))


def evaluate(fit: SplineFit, x, order: int = 0):
    """Evaluate a fitted spline or its first two derivatives.

    ``x`` may be a scalar or an array; every point must lie in [0, 1].
    Between knots the piecewise cubic is evaluated exactly from the stored
    representation; beyond the first/last knot the continuation is linear.
    ``order`` 0, 1, 2 selects f, f' or the piecewise linear f''.  It runs
    ``_locate`` on the knots, then ``_combine`` on the fit's values and
    second derivatives; ``_combine`` is the one copy of the cubic formulas,
    and it computes their factors for the order it evaluates.
    """
    _check_order(order)
    return _combine(_locate(fit.knots, x), fit.values, fit.second_derivs, order)


def _check_order(order) -> None:
    if not (_is_count(order, 0) and order <= 2):
        raise ValueError("order must be 0, 1 or 2")


@dataclass(frozen=True)
class _Located:
    """Where points lie among the knots: each one's knot interval ``idx``
    of width ``h``, its place in it (``alpha``, ``beta``) and whether it
    lies ``left`` or ``right`` of all the knots."""

    knots: np.ndarray
    x: np.ndarray
    scalar: bool
    idx: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    h: np.ndarray
    left: np.ndarray
    right: np.ndarray
    outside: bool


def _locate(knots: np.ndarray, x) -> _Located:
    """Check that every point of ``x`` lies in [0, 1] and locate it among
    the knots (see ``evaluate``)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0) or not np.all(np.isfinite(x_arr)):
        raise ValueError("evaluation points must lie in [0, 1]")

    t = knots
    xv = np.atleast_1d(x_arr)
    idx = np.clip(np.searchsorted(t, xv, side="right") - 1, 0, t.size - 2)
    h = t[idx + 1] - t[idx]
    alpha = (t[idx + 1] - xv) / h
    beta = (xv - t[idx]) / h
    left = xv < t[0]
    right = xv > t[-1]
    return _Located(t, xv, x_arr.ndim == 0, idx, alpha, beta, h, left, right, bool(np.any(left) or np.any(right)))


def _combine(loc: _Located, values: np.ndarray, second_derivs: np.ndarray, order: int):
    """The spline with knot values ``values`` and second derivatives
    ``second_derivs``, or its derivative of ``order``, at the located points."""
    t, xv, idx, a, b, h = loc.knots, loc.x, loc.idx, loc.alpha, loc.beta, loc.h
    g, c = values, second_derivs
    if order == 0:
        out = a * g[idx] + b * g[idx + 1] + h * h / 6.0 * ((a**3 - a) * c[idx] + (b**3 - b) * c[idx + 1])
    elif order == 1:
        out = (g[idx + 1] - g[idx]) / h + h / 6.0 * ((3.0 * b * b - 1.0) * c[idx + 1] - (3.0 * a * a - 1.0) * c[idx])
    else:
        out = a * c[idx] + b * c[idx + 1]

    if loc.outside:
        left, right = loc.left, loc.right
        h0, h1 = t[1] - t[0], t[-1] - t[-2]
        slope0 = (g[1] - g[0]) / h0 - h0 * (2.0 * c[0] + c[1]) / 6.0
        slope1 = (g[-1] - g[-2]) / h1 + h1 * (c[-2] + 2.0 * c[-1]) / 6.0
        if order == 0:
            out = np.where(left, g[0] + (xv - t[0]) * slope0, out)
            out = np.where(right, g[-1] + (xv - t[-1]) * slope1, out)
        elif order == 1:
            out = np.where(left, slope0, out)
            out = np.where(right, slope1, out)
        else:
            out = np.where(left | right, 0.0, out)

    return float(out[0]) if loc.scalar else out


def roughness_of(fit: SplineFit) -> float:
    """Exact integral of the squared second derivative of the fitted spline.

    The second derivative is piecewise linear between knots, so each cell
    contributes h * (c_i^2 + c_i c_{i+1} + c_{i+1}^2) / 3 exactly.
    """
    return _roughness(np.diff(fit.knots), fit.second_derivs)


def _roughness(h: np.ndarray, c: np.ndarray) -> float:
    c0, c1 = c[:-1], c[1:]
    return float(h @ (c0 * c0 + c0 * c1 + c1 * c1)) / 3.0
