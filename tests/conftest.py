"""Shared test oracles, kept independent of the library internals,
fixtures that count the library's calls, and a per-test time limit."""

import dataclasses
import signal
from collections import Counter

import numpy as np
import pytest

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
