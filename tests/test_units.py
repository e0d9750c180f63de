"""The fits commute with the units of y: y -> 2**k * y multiplies the
values by 2**k and leaves the weights, the verdicts and the branch as they
are, with a roughness that is never NaN and no warning on the way."""

import functools
import math

import numpy as np
import pytest

from adaptspline import SIGMA_PRESETS, AdaptConfig, Sample, bumps, fit, fit_global, fit_local, make_dataset, rupcar
from adaptspline import scale_fit

MEAN_KS = [-1000, -900, -600, 0, 300, 500, 900]
SCALE_KS = [-500, -300, 0, 260, 500]
# each runner, and whether it gets sigma (scaled with y) or estimates it
RUNS = {"fit": (fit, False), "fit-sigma": (fit, True), "fit_local": (fit_local, False),
        "fit_global": (fit_global, False)}


def outcome(r):
    """What must not see the units: the weights, bumps, verdict, branch and
    start, and the trace's violations and weights."""
    w = r.final_weights if hasattr(r, "final_weights") else r.weights
    trace = [(e.violations, e.lambda_min, e.lambda_max) for e in r.trace]
    return None if w is None else w.tobytes(), r.iterations, r.passed, r.chosen_branch, r.start_halvings, \
        r.start_capped, trace


@functools.cache
def mean_fit(preset: str, run: str, k: int):
    fn = rupcar(6) if preset == "rupcar-hi" else bumps()
    s = make_dataset(fn, 400, SIGMA_PRESETS[preset], seed=[5, 400, 0])
    runner, fixed = RUNS[run]
    config = AdaptConfig(sigma=math.ldexp(SIGMA_PRESETS[preset], k)) if fixed else None
    return runner(Sample(s.t, np.ldexp(s.y, k)), config)


@pytest.mark.parametrize("k", MEAN_KS)
@pytest.mark.parametrize("run", list(RUNS))
@pytest.mark.parametrize("preset", ["bumps-hi", "rupcar-hi"])
def test_mean_fits_follow_the_units(preset, run, k):
    base, r = mean_fit(preset, run, 0), mean_fit(preset, run, k)
    assert np.array_equal(r.final_fit.values, np.ldexp(base.final_fit.values, k))
    assert r.sigma_used == math.ldexp(base.sigma_used, k) and r.threshold_used == math.ldexp(base.threshold_used, k)
    assert outcome(r) == outcome(base)
    # equal to 4**k times a roughness at k = 0, so never NaN; inf past the double range
    with np.errstate(over="ignore"):
        assert [(e.max_abs_w, e.roughness) for e in r.trace] == [
            (np.ldexp(e.max_abs_w, k), np.ldexp(e.roughness, 2 * k)) for e in base.trace]
        for key in ("roughness", "roughness_local", "roughness_global"):
            expected = getattr(base, key)
            assert getattr(r, key) == (None if expected is None else np.ldexp(expected, 2 * k))


def test_rupcar_keeps_its_global_branch():
    # the input whose global branch wins in data units of order 1: with
    # roughness compared on y / 2**e, it wins at every k
    assert {mean_fit("rupcar-hi", "fit", k).chosen_branch for k in MEAN_KS} == {"global"}


def volatility(n=256, rng=1):
    t = np.arange(1, n + 1) / n
    return t, (np.sin(4.0 * np.pi * t) ** 2 + 0.05) * np.random.default_rng(rng).standard_normal(n)


@functools.cache
def scale_at(k: int):
    t, y = volatility()
    return scale_fit(Sample(t, np.ldexp(y, k)))


@pytest.mark.parametrize("k", SCALE_KS)
def test_scale_fit_follows_the_units(k):
    base, r = scale_at(0), scale_at(k)
    assert np.array_equal(r.scale_values(), np.ldexp(base.scale_values(), k))
    assert r.floor == math.ldexp(base.floor, k)
    assert outcome(r) == outcome(base)
    with np.errstate(over="ignore"):
        assert r.s.roughness == np.ldexp(base.s.roughness, 4 * k)


class TestScaleRange:
    """max |y| must lie in [2**-503, 2**512); the bounds of the range
    checks it replaced lie inside."""

    @staticmethod
    def assert_equivariant(y, k):
        t = np.arange(1, y.size + 1) / y.size
        a, b = scale_fit(Sample(t, y)), scale_fit(Sample(t, np.ldexp(y, k)))
        assert np.array_equal(np.ldexp(a.scale_values(), k), b.scale_values())
        assert outcome(a) == outcome(b)

    def test_fits_at_the_old_lower_bound(self):
        # max |y| = 7.5e-152: its squared floor just reaches the smallest normal double
        _, y = volatility(64)
        y = y * (7.5e-152 / np.max(np.abs(y)))
        self.assert_equivariant(y, 600)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_fits_with_squares_summing_just_below_the_double_range(self, seed):
        # at seed 0 a solve on y**2 itself would overflow, and its NaN fit pass every band
        z = np.random.default_rng(seed).standard_normal(8)
        y = z * math.sqrt(0.99 * np.finfo(float).max / np.sum(z * z))
        assert math.isfinite(np.sum(y * y)) and np.sum(y * y) > 0.9 * np.finfo(float).max
        self.assert_equivariant(y, -600)

    @staticmethod
    def topped(top):
        """Noise whose largest |value| is ``top``."""
        z = np.random.default_rng(3).standard_normal(64)
        y = 0.5 * top * z / np.max(np.abs(z))
        y[np.argmax(np.abs(z))] = top
        return Sample(np.arange(1, 65) / 64, y)

    @pytest.mark.parametrize("top", [2.0**-503, np.nextafter(2.0**512, 0.0)])
    def test_accepts_the_bounds(self, top):
        r = scale_fit(self.topped(top))
        assert r.passed and np.all(np.isfinite(r.scale_values())) and not math.isnan(r.s.roughness)

    @pytest.mark.parametrize("top", [np.nextafter(2.0**-503, 0.0), 2.0**512])
    def test_rejects_data_past_the_bounds(self, top):
        with pytest.raises(ValueError, match=r"max \|y\| in \[2\*\*-503, 2\*\*512\)"):
            scale_fit(self.topped(top))
