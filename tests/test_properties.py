"""Property-based tests of promises the docstrings make, over generated
spacings, weights, intervals, data and units.

The runs are derandomized and keep no example database, so every run
draws the same examples; ``max_examples`` bounds each property's time.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

# hypothesis imports its patch writer to report a falsifying example, and
# that import warns (a DeprecationWarning from a dependency of libcst);
# under ``filterwarnings = error`` the warning would turn a failing test
# into an internal error that ends the run, so import it once up front
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst, hypothesis reports no patch
        pass

from adaptspline import AdaptConfig, Sample, dyadic_family, fit, scale_fit, solve_weighted
from adaptspline.adapt import _covered_mask

U = 2.0**-53


def bounded(examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples)


@bounded(100)
@given(
    gaps=st.lists(st.floats(1.0, 100.0), min_size=2, max_size=60),
    intercept=st.floats(-10.0, 10.0),
    slope=st.floats(-10.0, 10.0),
    power=st.sampled_from([-20, 20]),
)
def test_solve_weighted_reproduces_a_line(gaps, intercept, slope, power):
    # the penalty does not see a line, so at any spacing and equal weight the fit is the line
    x = np.cumsum([0.0] + gaps)
    t = x / x[-1]
    y = intercept + slope * t
    f = solve_weighted(Sample(t, y), np.full(t.size, 2.0**power))
    scale = abs(intercept) + abs(slope) + 1.0
    assert np.max(np.abs(f.values - y)) <= 1e-9 * scale
    assert np.max(np.abs(f.second_derivs)) <= 1e-6 * scale


@st.composite
def intervals(draw):
    n = draw(st.integers(1, 100))
    ends = st.tuples(st.integers(1, n), st.integers(1, n)).map(sorted)
    pairs = draw(st.lists(ends, max_size=20))
    return n, pairs


@bounded(200)
@given(intervals())
def test_covered_mask_is_the_union_of_the_intervals(case):
    n, pairs = case
    expected = np.zeros(n, dtype=bool)
    for lo, hi in pairs:
        expected[lo - 1 : hi] = True
    lo = np.array([p[0] for p in pairs], dtype=np.int64)
    hi = np.array([p[1] for p in pairs], dtype=np.int64)
    assert np.array_equal(_covered_mask(n, lo, hi), expected)


@st.composite
def summands(draw):
    """Signed terms whose magnitudes span up to 10**spread."""
    n, seed, spread = draw(st.integers(1, 2000)), draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 12))
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.uniform(0.0, spread, n)


@bounded(100)
@given(summands())
def test_family_sums_stay_within_the_prefix_sum_bound(x):
    # a prefix sum of k terms is off by at most gamma_k times the sum of
    # their magnitudes (Higham, Accuracy and Stability of Numerical
    # Algorithms, section 4.2), and the difference of two adds one rounding
    n = x.size
    family = dyadic_family(n)
    got = family.sums(x)
    magnitude = np.r_[0.0, np.cumsum(np.abs(x))] * (1.0 + n * U)
    for j, (lo, hi) in enumerate(family):
        exact = math.fsum(x[lo - 1 : hi])
        bound = gamma(hi) * magnitude[hi] + gamma(lo - 1) * magnitude[lo - 1] + 2.0 * U * abs(exact)
        assert abs(got[j] - exact) <= bound


def gamma(k):
    return k * U / (1.0 - k * U)


@st.composite
def samples(draw):
    """Integer data on a grid of 8 to 64 points, and a power of two k, the
    ends of its range included as often as the rest."""
    n = draw(st.integers(8, 64))
    y = draw(arrays(np.float64, n, elements=st.integers(-1000, 1000).map(float)))
    return Sample(np.arange(1, n + 1) / n, y), draw(st.sampled_from([-500, 500]) | st.integers(-500, 500))


def scaled(sample, k):
    return Sample(sample.t, np.ldexp(sample.y, k))


def outcome(r, weights):
    return None if weights is None else weights.tobytes(), r.iterations, r.passed, r.chosen_branch, \
        r.start_halvings, r.start_capped


@bounded(200)
@given(samples(), st.integers(1, 256))
def test_fit_follows_the_units(case, quarters):
    sample, k = case
    sigma = quarters / 4.0
    base = fit(sample, AdaptConfig(sigma=sigma))
    r = fit(scaled(sample, k), AdaptConfig(sigma=math.ldexp(sigma, k)))
    assert np.array_equal(r.final_fit.values, np.ldexp(base.final_fit.values, k))
    assert outcome(r, r.final_weights) == outcome(base, base.final_weights)
    assert not any(math.isnan(e.roughness) for e in r.trace)


@bounded(150)
@given(samples())
def test_scale_fit_follows_the_units(case):
    sample, k = case
    base, r = scale_fit(sample), scale_fit(scaled(sample, k))
    assert np.array_equal(r.scale_values(), np.ldexp(base.scale_values(), k))
    assert outcome(r, r.weights) == outcome(base, base.weights)
    assert not any(math.isnan(e.roughness) for e in r.trace)
