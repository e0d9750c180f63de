"""Shared test oracles, kept independent of the library internals, and
fixtures that count the library's calls."""

import dataclasses
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
