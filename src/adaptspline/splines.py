"""Weighted natural cubic smoothing splines in value / second-derivative form.

The central object is the minimizer of the per-point weighted criterion

    sum_i  lambda_i * (y_i - g(t_i))**2  +  integral_0^1 g''(t)**2 dt

over twice continuously differentiable functions on [0, 1].  The minimizer
is a natural cubic spline with knots at all design points; it is computed
exactly with the classic Reinsch scheme, generalized to a weight per
observation: with ``R`` and ``Q`` the usual consistency matrices relating
knot values to interior second derivatives, the second derivatives solve
the pentadiagonal SPD system

    (R + Q^T diag(1/lambda) Q) gamma = Q^T y

and the fitted values are ``g = y - diag(1/lambda) Q gamma``.  Everything
runs in O(n) time and memory via banded Cholesky factorization; the system
is symmetrically scaled to unit diagonal first so that weights spanning
many orders of magnitude stay harmless.

Only the ``diag(1/lambda)`` term changes with the weights.  The rest (the
spacings, the coefficients of Q, the bands of R and ``Q^T y``) is built
once by ``prepare_system``, and ``solve_weighted`` takes that system in
place of the sample, so the many solves of one adaptive fit share it.
A solve factors the scaled bands with LAPACK ``dpbtrf`` and solves with
``dpbtrs``, called directly from ``scipy.linalg.lapack`` (the routines
behind ``cholesky_banded`` / ``cho_solve_banded``, without their
per-call wrapper work).  It keeps their guards: a system or fit that is
not finite (weights beyond the range of double precision) raises
``ValueError``, and a failed factorization raises ``RuntimeError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dpbtrf, dpbtrs

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
    if sample.n < 3:
        raise ValueError("need at least 3 data points")
    return PenaltyMatrix(sample.t.copy())


def _r_apply(r_main: np.ndarray, r_off: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = r_main * u
    if r_off.size:
        out[:-1] += r_off * u[1:]
        out[1:] += r_off * u[:-1]
    return out


@dataclass(frozen=True)
class SplineSystem:
    """The weight-free part of the weighted spline system of one sample.

    Holds the spacings h, the coefficients a, b, c of Q, the two bands of
    R and Q^T y.  ``solve_weighted`` accepts it in place of the sample, so
    that a run of solves on one sample with changing weights builds this
    geometry once; each solve then only assembles and factors the weighted
    bands.  Build it with ``prepare_system`` and keep it for one fit.
    """

    t: np.ndarray
    y: np.ndarray
    h: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    r_main: np.ndarray
    r_off: np.ndarray
    qty: np.ndarray

    @property
    def n(self) -> int:
        return self.t.size


def prepare_system(sample: Sample) -> SplineSystem:
    """The weight-free geometry of the spline system for ``sample``."""
    t, y = sample.t, sample.y
    h = np.diff(t)
    a, b, c = _q_coeffs(h)
    r_main, r_off = _r_bands(h)
    return SplineSystem(t, y, h, a, b, c, r_main, r_off, _apply_qt(h, b, y))


def _singular() -> RuntimeError:
    return RuntimeError("weighted spline system is numerically singular")


def solve_weighted(sample: Sample | SplineSystem, weights) -> SplineFit:
    """Minimize the weighted smoothing criterion exactly.

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
        If the weights are invalid, or so extreme that the system or the
        fit is not finite in double precision.
    RuntimeError
        If LAPACK finds the scaled system not positive definite.
    """
    system = sample if isinstance(sample, SplineSystem) else prepare_system(sample)
    lam = check_weights(weights, system.n)
    t, y, h = system.t, system.y, system.h
    a, b, c = system.a, system.b, system.c
    r_main, r_off = system.r_main, system.r_off
    n = system.n
    d = 1.0 / lam

    # Pentadiagonal M = R + Q^T diag(d) Q, assembled band by band.
    diag = r_main + d[:-2] * a * a + d[1:-1] * b * b + d[2:] * c * c
    sup1 = d[1:-2] * b[:-1] * a[1:] + d[2:-1] * c[:-1] * b[1:]
    if sup1.size:
        sup1 = sup1 + r_off
    sup2 = d[2:-2] * c[:-2] * a[2:]

    # Symmetric scaling to unit diagonal keeps the factorization stable
    # when the weights span many orders of magnitude.
    s = 1.0 / np.sqrt(diag)
    m = n - 2
    rows = min(3, m)
    ab = np.zeros((rows, m), order="F")
    ab[-1] = 1.0
    if sup1.size:
        ab[-2, 1:] = sup1 * s[:-1] * s[1:]
    if sup2.size:
        ab[-3, 2:] = sup2 * s[:-2] * s[2:]
    if not np.isfinite(ab).all():
        raise ValueError("weighted spline system is not finite; the weights are out of range")

    factor, info = dpbtrf(ab, lower=0, overwrite_ab=1)
    if info != 0:
        raise _singular()

    def msolve(rhs):
        x, info = dpbtrs(factor, s * rhs, lower=0, overwrite_b=1)
        if info != 0:
            raise _singular()
        return s * x

    gamma = msolve(system.qty)
    g = y - d * _apply_q(a, b, c, gamma)
    # Two refinement sweeps on the consistency defect R gamma = Q^T g.  The
    # defect is well scaled in double precision even when the weights span
    # twelve orders of magnitude, so the refined solution is accurate to
    # ~1e-12 while each sweep reuses the factorization at O(n) cost.
    for _ in range(2):
        rho = _apply_qt(h, b, g) - _r_apply(r_main, r_off, gamma)
        dgamma = msolve(rho)
        gamma = gamma + dgamma
        g = g - d * _apply_q(a, b, c, dgamma)
    if not np.isfinite(g).all():
        raise ValueError("weighted spline fit is not finite; the weights are out of range")

    c_full = np.zeros(n)
    c_full[1:-1] = gamma
    rough = float(gamma @ _r_apply(r_main, r_off, gamma))
    return SplineFit(t.copy(), g, c_full, max(rough, 0.0))


def evaluate(fit: SplineFit, x, order: int = 0):
    """Evaluate a fitted spline or its first two derivatives.

    ``x`` may be a scalar or an array; every point must lie in [0, 1].
    Between knots the piecewise cubic is evaluated exactly from the stored
    representation; beyond the first/last knot the continuation is linear.
    ``order`` 0, 1, 2 selects f, f' or the piecewise linear f''.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0) or not np.all(np.isfinite(x_arr)):
        raise ValueError("evaluation points must lie in [0, 1]")

    t, g, c = fit.knots, fit.values, fit.second_derivs
    xv = np.atleast_1d(x_arr)
    idx = np.clip(np.searchsorted(t, xv, side="right") - 1, 0, t.size - 2)
    h = t[idx + 1] - t[idx]
    alpha = (t[idx + 1] - xv) / h
    beta = (xv - t[idx]) / h

    if order == 0:
        out = alpha * g[idx] + beta * g[idx + 1] + (h * h / 6.0) * (
            (alpha**3 - alpha) * c[idx] + (beta**3 - beta) * c[idx + 1]
        )
    elif order == 1:
        out = (g[idx + 1] - g[idx]) / h + (h / 6.0) * (
            (3.0 * beta * beta - 1.0) * c[idx + 1] - (3.0 * alpha * alpha - 1.0) * c[idx]
        )
    else:
        out = alpha * c[idx] + beta * c[idx + 1]

    left = xv < t[0]
    right = xv > t[-1]
    if np.any(left) or np.any(right):
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

    return float(out[0]) if x_arr.ndim == 0 else out


def roughness_of(fit: SplineFit) -> float:
    """Exact integral of the squared second derivative of the fitted spline.

    The second derivative is piecewise linear between knots, so each cell
    contributes h * (c_i^2 + c_i c_{i+1} + c_{i+1}^2) / 3 exactly.
    """
    h = np.diff(fit.knots)
    c = fit.second_derivs
    return float(np.sum(h * (c[:-1] ** 2 + c[:-1] * c[1:] + c[1:] ** 2)) / 3.0)
