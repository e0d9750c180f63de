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
gamma makes the matrix banded with three diagonals on either side, and
LAPACK ``dgbtrf`` / ``dgbtrs`` (partial pivoting) solve it in O(n) time
and memory.

Only the entries Q/lambda change with the weights.  ``prepare_system``
builds the matrix once at unit weight, as the 2-D LAPACK band array, and
``solve_weighted`` takes that system in place of the sample, so the many
solves of one adaptive fit share it.  Each solve copies the band, scales
the three rows that hold Q by 1/lambda, then factors the copy in place.
A system that is not finite raises ``ValueError``, a singular factorization
``RuntimeError``.

An equal-weight system depends only on t and the weight, so the replicates
of a simulation study on one grid factor the same matrices again and again.
Inside the private scope ``_shared_design`` (entered by
``bench.mrise_study`` once per sample size) every sample on the scope's grid
shares one design, which keeps the LU factors of each equal weight it has
solved, up to a fixed memory budget; a later equal-weight solve at a kept
weight runs ``dgbtrs`` only.  Outside a scope nothing is kept.

Evaluating a spline at given points also splits into a part that depends
on the knots only and a part that depends on the fit: ``_locate`` finds
each point's knot interval and the interval's cubic coefficients, and
``_combine`` applies them to the knot values and second derivatives.
``evaluate`` runs both; ``bench.mrise_study`` locates its RISE grid once
per sample size and combines it with the fit of every replicate.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs

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


def _q_coeffs(h: np.ndarray):
    """Column coefficients of the n x (n-2) second-difference matrix Q.

    Column j (one per interior knot) has entries a_j, b_j, c_j at rows
    j, j+1, j+2, chosen so that (Q^T g)_j is the second divided difference
    of g around knot j+1.
    """
    a = 1.0 / h[:-1]
    c = 1.0 / h[1:]
    b = -(a + c)
    return a, b, c


def _apply_qt(h: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Q^T v: second divided differences, one per interior knot."""
    return v[:-2] / h[:-1] + v[1:-1] * b + v[2:] / h[1:]


def _apply_q(a: np.ndarray, b: np.ndarray, c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Q u for a vector u indexed by interior knots."""
    out = np.zeros(u.size + 2)
    out[:-2] += a * u
    out[1:-1] += b * u
    out[2:] += c * u
    return out


def _r_bands(h: np.ndarray):
    """Main and first superdiagonal of the (n-2) x (n-2) Gram matrix R."""
    main = (h[:-1] + h[1:]) / 3.0
    off = h[1:-1] / 6.0
    return main, off


def _solve_banded_upper(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """solveh_banded with the bandwidth trimmed to the system size."""
    m = rhs.size
    rows = min(ab.shape[0], m)
    return solveh_banded(ab[-rows:], rhs, lower=False)


@dataclass(frozen=True)
class PenaltyMatrix:
    """The quadratic form K with g^T K g = roughness of the interpolating spline.

    Stored in banded factored form K = Q R^{-1} Q^T (Q has three nonzero
    diagonals, R is tridiagonal SPD), so products and quadratic forms cost
    O(n).  K is symmetric positive semidefinite with null space exactly the
    affine functions of t.
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

    def _r_upper(self) -> np.ndarray:
        h = np.diff(self.knots)
        main, off = _r_bands(h)
        ab = np.zeros((2, main.size))
        ab[0, 1:] = off
        ab[1] = main
        return ab

    def _gamma_of(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = np.diff(self.knots)
        qtg = _apply_qt(h, _q_coeffs(h)[1], g)
        gamma = _solve_banded_upper(self._r_upper(), qtg)
        return gamma, qtg

    def quad_form(self, g) -> float:
        """g^T K g, the roughness of the natural spline interpolating (t_i, g_i)."""
        g = np.asarray(g, dtype=float)
        if g.shape != (self.n,):
            raise ValueError("vector length must match the design size")
        gamma, qtg = self._gamma_of(g)
        return max(float(gamma @ qtg), 0.0)

    def apply(self, g) -> np.ndarray:
        """Matrix-vector product K g."""
        g = np.asarray(g, dtype=float)
        gamma, _ = self._gamma_of(g)
        return _apply_q(*_q_coeffs(np.diff(self.knots)), gamma)

    def dense(self) -> np.ndarray:
        """Explicit n x n matrix; O(n^2) memory, intended for diagnostics."""
        t = self.knots
        n = self.n
        h = np.diff(t)
        a, b, c = _q_coeffs(h)
        qt = np.zeros((n - 2, n))
        idx = np.arange(n - 2)
        qt[idx, idx] = a
        qt[idx, idx + 1] = b
        qt[idx, idx + 2] = c
        main, off = _r_bands(h)
        r = np.diag(main)
        if off.size:
            r += np.diag(off, 1) + np.diag(off, -1)
        k = qt.T @ np.linalg.solve(r, qt)
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
    the matrix with all weights 1 (a Fortran-ordered ``_LDAB`` x 2n array)
    and the right-hand side, in the order of ``prepare_system``.  The
    column of an interior gamma_j holds the column of Q for knot j, its
    entries a, b, c on band rows 3, 5 and 7; ``solve_weighted`` scales them
    by 1/lambda of g_{j-1}, g_j and g_{j+1}.  It accepts the system in
    place of the sample, so that the solves of one fit build this once.
    Build it with ``prepare_system`` and keep it for one fit.

    ``factors`` maps an equal weight to the ``(lu, piv)`` that ``dgbtrf``
    returned for it.  It is ``None`` unless the system was prepared inside
    a ``_shared_design`` scope; there, every system on the scope's grid
    shares h, band and this table with the scope's first system, and holds
    its own t and right-hand side.  Each entry takes 168 n bytes and lives
    until the scope ends; the table stops taking entries at
    ``_FACTOR_BUDGET`` bytes.
    """

    t: np.ndarray
    h: np.ndarray
    band: np.ndarray
    rhs: np.ndarray
    factors: dict | None = None

    @property
    def n(self) -> int:
        return self.t.size


# Half-bandwidths of the augmented matrix in the interleaved order, and the
# rows of its LAPACK band storage (kl more for the fill of partial pivoting).
_KL = _KU = 3
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


def prepare_system(sample: Sample) -> SplineSystem:
    """The augmented spline system for ``sample``, at unit weight.

    The unknowns are ordered g_1, gamma_1, g_2, gamma_2, ..., g_n, gamma_n.
    The natural boundary values gamma_1 = gamma_n = 0 are two identity rows
    with nothing else in their rows and columns, so they solve to exactly 0;
    no row reaches more than three places from its diagonal, and a solution
    x reads g = x[::2], gamma = x[1::2].  Inside a ``_shared_design`` scope,
    a sample on the scope's grid gets a system that shares the design's
    band and factor table (see ``SplineSystem``).

    Raises
    ------
    ValueError
        If the spacings are so small that the system is not finite.
    """
    t, y = sample.t, sample.y
    n = t.size
    rhs = np.zeros(2 * n)
    rhs[::2] = y
    scope = _DESIGN.get()
    design = None if scope is None else scope[0]
    if design is not None:
        if np.array_equal(design.t, t):
            return SplineSystem(t, design.h, design.band, rhs, design.factors)
        scope = None  # another grid: a system of its own that keeps nothing
    h = np.diff(t)
    r_main, r_off = _r_bands(h)
    gp = np.arange(0, 2 * n, 2)  # where g_i sits
    cp = np.arange(3, 2 * n - 2, 2)  # where the interior gamma_j sit

    band = np.zeros((_LDAB, 2 * n), order="F")

    def put(row, col, value):
        band[_KL + _KU + row - col, col] = value

    band[_KL + _KU] = 1.0  # the diagonal of g and of the pinned gamma_1, gamma_n
    for k, qk in enumerate(_q_coeffs(h)):
        put(gp[k:k + n - 2], cp, qk)
        put(cp, gp[k:k + n - 2], qk)
    put(cp, cp, -r_main)
    put(cp[:-1], cp[1:], -r_off)
    put(cp[1:], cp[:-1], -r_off)
    if not np.isfinite(band).all():
        raise ValueError("spline system is not finite; the design points are too close")
    system = SplineSystem(t, h, band, rhs, None if scope is None else {})
    if scope is not None:
        scope[0] = system
    return system


def _singular() -> RuntimeError:
    return RuntimeError("weighted spline system is numerically singular")


def _factor(system: SplineSystem, d: np.ndarray):
    """``dgbtrf`` of the system with Q scaled by d = 1/lambda."""
    ab = system.band.copy(order="F")
    q = ab[3:8:2, 3:-2:2]  # the columns of Q (see SplineSystem)
    q[0] *= d[:-2]
    q[1] *= d[1:-1]
    q[2] *= d[2:]
    if not np.isfinite(q).all():
        raise ValueError("weighted spline system is not finite; the weights are out of range")
    lu, piv, info = dgbtrf(ab, _KL, _KU, overwrite_ab=1)
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
        lu, piv = _factor(system, 1.0 / lam)
        if table is not None and (len(table) + 1) * (lu.nbytes + piv.nbytes) <= _FACTOR_BUDGET:
            table[key] = lu, piv
    x, info = dgbtrs(lu, _KL, _KU, system.rhs, piv)
    if info != 0:
        raise _singular()
    c = x[1::2]
    return SplineFit(system.t.copy(), x[::2], c, _roughness(system.h, c))


def evaluate(fit: SplineFit, x, order: int = 0):
    """Evaluate a fitted spline or its first two derivatives.

    ``x`` may be a scalar or an array; every point must lie in [0, 1].
    Between knots the piecewise cubic is evaluated exactly from the stored
    representation; beyond the first/last knot the continuation is linear.
    ``order`` 0, 1, 2 selects f, f' or the piecewise linear f''.  It runs
    ``_locate`` on the knots, then ``_combine`` on the fit's values and
    second derivatives, the one copy of the cubic formulas.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    return _combine(_locate(fit.knots, x), fit.values, fit.second_derivs, order)


@dataclass(frozen=True)
class _Located:
    """Points located among the knots: everything ``_combine`` needs that
    does not depend on the spline's values."""

    knots: np.ndarray
    x: np.ndarray
    scalar: bool
    idx: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    alpha3: np.ndarray  # alpha**3 - alpha
    beta3: np.ndarray  # beta**3 - beta
    dalpha: np.ndarray  # 3 alpha**2 - 1
    dbeta: np.ndarray  # 3 beta**2 - 1
    h: np.ndarray
    hh6: np.ndarray  # h**2 / 6
    h6: np.ndarray  # h / 6
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
    return _Located(
        t, xv, x_arr.ndim == 0, idx, alpha, beta,
        alpha**3 - alpha, beta**3 - beta, 3.0 * alpha * alpha - 1.0, 3.0 * beta * beta - 1.0,
        h, h * h / 6.0, h / 6.0, left, right, bool(np.any(left) or np.any(right)),
    )


def _combine(loc: _Located, values: np.ndarray, second_derivs: np.ndarray, order: int):
    """The spline with knot values ``values`` and second derivatives
    ``second_derivs``, or its derivative of ``order``, at the located points."""
    t, xv, idx = loc.knots, loc.x, loc.idx
    g, c = values, second_derivs
    if order == 0:
        out = loc.alpha * g[idx] + loc.beta * g[idx + 1] + loc.hh6 * (
            loc.alpha3 * c[idx] + loc.beta3 * c[idx + 1]
        )
    elif order == 1:
        out = (g[idx + 1] - g[idx]) / loc.h + loc.h6 * (loc.dbeta * c[idx + 1] - loc.dalpha * c[idx])
    else:
        out = loc.alpha * c[idx] + loc.beta * c[idx + 1]

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
