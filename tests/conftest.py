"""Shared test oracles, kept independent of the library internals (the
dense penalty and the numeric references of a fit: in mpmath, in
double-double and by refined banded solves), fixtures that count the
library's calls, and a per-test time limit."""

import dataclasses
import signal
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy.linalg import solve_banded

import adaptspline.adapt
import adaptspline.splines


def dense_penalty(t):
    """Assemble the roughness quadratic form explicitly from its definition.

    Q^T maps knot values to second divided differences, R is the Gram
    matrix of the piecewise linear second derivative; the penalty is
    Q R^{-1} Q^T.  Built densely with generic numpy solves only.
    """
    t = np.asarray(t, dtype=float)
    n = t.size
    h = np.diff(t)
    qt = np.zeros((n - 2, n))
    for j in range(n - 2):
        qt[j, j] = 1.0 / h[j]
        qt[j, j + 1] = -(1.0 / h[j] + 1.0 / h[j + 1])
        qt[j, j + 2] = 1.0 / h[j + 1]
    r = np.zeros((n - 2, n - 2))
    for j in range(n - 2):
        r[j, j] = (h[j] + h[j + 1]) / 3.0
        if j + 1 < n - 2:
            r[j, j + 1] = r[j + 1, j] = h[j + 1] / 6.0
    return qt.T @ np.linalg.solve(r, qt)


def dense_weighted_fit(t, y, lam):
    """Generic dense solution of the weighted normal equations."""
    k = dense_penalty(t)
    return np.linalg.solve(np.diag(lam) + k, np.asarray(lam) * np.asarray(y))


def mp_fit(t, y, lam, dps=60):
    """Knot values of the weighted spline in ``dps`` digits.

    Solves Reinsch's normal equations (R + Q^T diag(1/lam) Q) gamma = Q^T y
    densely with mpmath, then g = y - diag(1/lam) Q gamma.  Their squared
    conditioning costs digits, not the answer, at this precision.
    """
    with mpmath.workdps(dps):
        tt, yy = [mpmath.mpf(v) for v in t], [mpmath.mpf(v) for v in y]
        d = [1 / mpmath.mpf(v) for v in lam]
        n, m = len(tt), len(tt) - 2
        h = [tt[i + 1] - tt[i] for i in range(n - 1)]
        q = [{j: 1 / h[j], j + 1: -1 / h[j] - 1 / h[j + 1], j + 2: 1 / h[j + 1]} for j in range(m)]
        mat = mpmath.matrix(m, m)
        for j in range(m):
            mat[j, j] = (h[j] + h[j + 1]) / 3
            if j + 1 < m:
                mat[j, j + 1] = mat[j + 1, j] = h[j + 1] / 6
            for k in range(max(0, j - 2), min(m, j + 3)):
                mat[j, k] += sum(q[j][i] * q[k][i] * d[i] for i in q[j] if i in q[k])
        gamma = mpmath.lu_solve(mat, mpmath.matrix([sum(c * yy[i] for i, c in qj.items()) for qj in q]))
        g = list(yy)
        for j in range(m):
            for i, c in q[j].items():
                g[i] -= d[i] * c * gamma[j]
        return np.array([float(v) for v in g])


_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    p = a * b
    x = _SPLIT * a
    ah = x - (x - a)
    x = _SPLIT * b
    bh = x - (x - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class DoubleDouble:
    """Unevaluated sums hi + lo of doubles, elementwise over arrays.

    Error-free sums and products (Ogita, Rump & Oishi 2005) give about 32
    significant digits; used for the reference residual where long double
    is plain double.
    """

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=float)
        self.lo = np.zeros_like(self.hi) if lo is None else lo

    def __getitem__(self, k):
        return DoubleDouble(self.hi[k], self.lo[k])

    def __neg__(self):
        return DoubleDouble(-self.hi, -self.lo)

    def __add__(self, o):
        o = o if isinstance(o, DoubleDouble) else DoubleDouble(o)
        s, e = _two_sum(self.hi, o.hi)
        return DoubleDouble(*_two_sum(s, e + self.lo + o.lo))

    def __sub__(self, o):
        return self + -(o if isinstance(o, DoubleDouble) else DoubleDouble(o))

    def __mul__(self, o):
        o = o if isinstance(o, DoubleDouble) else DoubleDouble(o)
        p, e = _two_prod(self.hi, o.hi)
        return DoubleDouble(*_two_sum(p, e + self.hi * o.lo + self.lo * o.hi))

    def __rsub__(self, o):
        return -self + o

    def __rtruediv__(self, num):
        r = DoubleDouble(num / self.hi)  # one Newton step from the double quotient
        return r + r * (num - self * r)

    def pad(self, before, after):
        return DoubleDouble(np.pad(self.hi, (before, after)), np.pad(self.lo, (before, after)))

    def astype(self, dtype):
        return (self.hi + self.lo).astype(dtype)


def long_double(x):
    return np.asarray(x, dtype=np.longdouble)


WIDE = long_double if np.finfo(np.longdouble).nmant > 52 else DoubleDouble


def _pad(x, before, after):
    return x.pad(before, after) if isinstance(x, DoubleDouble) else np.pad(x, (before, after))


def augmented_band(t, y, lam):
    """The system g + diag(1/lam) Q gamma = y, Q^T g - R gamma = 0 in the
    order g_1, g_2, gamma_1, g_3, ..., gamma_{n-2}, g_n, as ``solve_banded``
    storage with three diagonals on either side, and its right-hand side."""
    n = t.size
    h = np.diff(t)
    a, c = 1.0 / h[:-1], 1.0 / h[1:]
    b = -(a + c)
    d = 1.0 / lam
    gp = np.r_[0, 1:2 * n - 2:2]
    cp = np.arange(2, 2 * n - 2, 2)
    ab = np.zeros((7, 2 * n - 2))
    for rows, cols, vals in [
        (gp, gp, 1.0),
        (gp[:-2], cp, d[:-2] * a), (gp[1:-1], cp, d[1:-1] * b), (gp[2:], cp, d[2:] * c),
        (cp, gp[:-2], a), (cp, gp[1:-1], b), (cp, gp[2:], c),
        (cp, cp, -(h[:-1] + h[1:]) / 3.0),
        (cp[:-1], cp[1:], -h[1:-1] / 6.0), (cp[1:], cp[:-1], -h[1:-1] / 6.0),
    ]:
        ab[3 + rows - cols, cols] = vals
    rhs = np.zeros(2 * n - 2)
    rhs[gp] = y
    return ab, rhs


def augmented_residual(t, y, lam, g, gamma, wide):
    """Right-hand side minus the augmented system applied to (g, gamma),
    with every coefficient and sum formed in the precision of ``wide``."""
    h = wide(t[1:]) - wide(t[:-1])
    a, c = 1 / h[:-1], 1 / h[1:]
    b = -(a + c)
    gw, cw = wide(g), wide(gamma)
    q_gamma = _pad(a * cw, 0, 2) + _pad(b * cw, 1, 1) + _pad(c * cw, 2, 0)
    r_gamma6 = (h[:-1] + h[1:]) * cw * 2 + _pad(h[1:-1] * cw[1:], 0, 1) + _pad(h[1:-1] * cw[:-1], 1, 0)
    rg = (wide(y) - gw - q_gamma * (1 / wide(lam))).astype(float)
    rc = (r_gamma6 * (1 / wide(6.0)) - (a * gw[:-2] + b * gw[1:-1] + c * gw[2:])).astype(float)
    return np.concatenate((rg[:1], np.column_stack((rg[1:-1], rc)).ravel(), rg[-1:]))


def refined_fit(t, y, lam, wide=WIDE, sweeps=3):
    """Knot values from ``solve_banded`` on the augmented system, refined
    ``sweeps`` times with the residual in extended precision."""
    ab, rhs = augmented_band(t, y, lam)
    x = solve_banded((3, 3), ab, rhs)
    for _ in range(sweeps):
        x = x + solve_banded((3, 3), ab, augmented_residual(t, y, lam, x[np.r_[0, 1:x.size:2]], x[2::2], wide))
    return x[np.r_[0, 1:x.size:2]]


def jittered_design(n, rng):
    """Strictly increasing design points with comfortable spacing."""
    return (np.arange(n) + rng.uniform(0.15, 0.85, n)) / n


def pyramid_sums(x):
    """The sums of the dyadic family over x, level by level in pairs.

    Each level adds its entries two by two, and an odd last entry carries
    up alone, until one sum is left; the levels, concatenated, list the
    intervals of ``dyadic_family(len(x))`` in its order.
    """
    levels = [np.asarray(x, dtype=float)]
    while levels[-1].size > 1:
        level = levels[-1]
        upper = level[0::2].copy()
        upper[: level.size // 2] += level[1::2]
        levels.append(upper)
    return np.concatenate(levels)


def pyramid_maxima(x, sizes):
    """max |sum| / sqrt(|I|) over the dyadic family of x, from ``pyramid_sums``."""
    return float(np.max(np.abs(pyramid_sums(x)) * (1.0 / np.sqrt(sizes))))


def fingerprint(result):
    """Every field of a result as bytes or plain values, so that two
    results compare equal only bit for bit.

    Takes a ``FitReport`` or a ``variants.ScaleFit``, their fits and traces
    included, and the tuples and dicts that hold them, such as what
    ``adapt._adapt`` returns.
    """

    def bits(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if isinstance(value, float):
            return np.float64(value).tobytes()
        if dataclasses.is_dataclass(value):
            return type(value).__name__, tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value))
        if isinstance(value, tuple):
            return tuple(bits(v) for v in value)
        if isinstance(value, dict):
            return tuple((key, bits(v)) for key, v in value.items())
        return value

    return bits(result)


# Wall-clock seconds that one test may run: well above the slowest test
# (about 5 s on 2 cores), so that only a test that never ends reaches it.
TEST_TIME_LIMIT = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past ``TEST_TIME_LIMIT`` seconds instead of
    letting it hang the run.

    A SIGALRM timer raises ``TimeoutError`` in the main thread, where
    pytest runs the test, at the next Python bytecode (a long call into C
    finishes first).  The old handler and timer are restored when the
    test ends.
    """

    def expire(signum, frame):
        raise TimeoutError(f"the test ran past its {TEST_TIME_LIMIT} s limit")

    handler = signal.signal(signal.SIGALRM, expire)
    timer = signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, *timer)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls made to attributes of a module (or any object).

    The fixture's value is a function: ``count_calls(module, *names)``
    replaces each named attribute of ``module`` with a wrapper that counts
    its calls, until the test ends, and returns the test's one ``Counter``,
    keyed by attribute name.
    """
    counts = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    def patch(module, *names):
        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return counts

    return patch


@pytest.fixture
def count_lapack(monkeypatch):
    """Count the band factorizations and solves the spline solver runs.

    Replaces ``splines.dgbtrf`` and ``splines.dgbtrs`` with wrappers that
    count their calls; the fixture's value is a ``Counter`` keyed by those
    two names.  Its attribute ``bands`` is a second ``Counter``, keyed by
    the (kl, ku) that each call passed, so that a test can check that
    every call reads the band with the half-bandwidths it was built with.
    """
    counts = Counter()
    counts.bands = Counter()

    def counting(name, real):
        def wrapper(ab, kl, ku, *args, **kwargs):
            counts[name] += 1
            counts.bands[kl, ku] += 1
            return real(ab, kl, ku, *args, **kwargs)

        return wrapper

    for name in ("dgbtrf", "dgbtrs"):
        monkeypatch.setattr(adaptspline.splines, name, counting(name, getattr(adaptspline.splines, name)))
    return counts


@pytest.fixture
def every_roughness(monkeypatch):
    """Make every fit the weight loop solves report one roughness.

    The fixture's value is a function: ``every_roughness(value)`` wraps
    ``adapt.solve_weighted`` so that each fit it returns has roughness
    ``value`` (an ``inf`` or NaN, say, as a roughness past the double
    range could read), until the test ends.
    """

    def patch(value):
        real = adaptspline.adapt.solve_weighted

        def solve(system, weights):
            return dataclasses.replace(real(system, weights), roughness=value)

        monkeypatch.setattr(adaptspline.adapt, "solve_weighted", solve)

    return patch
