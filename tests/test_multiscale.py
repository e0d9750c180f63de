import math

import numpy as np
import pytest

from adaptspline import (
    SIGMA_PRESETS,
    AdaptConfig,
    IntervalFamily,
    RegionSpec,
    Sample,
    all_w_stats,
    bumps,
    calibrate_tau,
    dyadic_family,
    fit_global,
    fit_local,
    in_region,
    make_dataset,
    min_detectable_delta,
    rupcar,
    sigma_hat,
    w_stat,
)
from adaptspline.multiscale import _w_test


class TestDyadicFamily:
    def test_n4_enumerated(self):
        fam = dyadic_family(4)
        assert set(fam) == {(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (3, 4), (1, 4)}
        assert len(fam) == 7

    def test_n1(self):
        assert list(dyadic_family(1)) == [(1, 1)]

    def test_n6_keeps_duplicate_trailing_block(self):
        fam = dyadic_family(6)
        expected = [
            (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6),
            (1, 2), (3, 4), (5, 6),
            (1, 4), (5, 6),
            (1, 6),
        ]
        assert list(fam) == expected
        assert len(fam) == 12  # the repeated (5, 6) stays

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 16, 100, 1000, 1023])
    def test_structure_invariants(self, n):
        fam = dyadic_family(n)
        assert np.all(fam.lo >= 1) and np.all(fam.hi <= n) and np.all(fam.lo <= fam.hi)
        singles = {(lo, hi) for lo, hi in fam if lo == hi}
        assert singles == {(i, i) for i in range(1, n + 1)}
        assert (1, n) in set(fam)
        assert len(fam) <= 2 * n + math.ceil(math.log2(max(n, 2))) + 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dyadic_family(0)

    @pytest.mark.parametrize("n", [True, 6.0, 6.5, "6"])
    def test_rejects_non_integer_n(self, n):
        # a bool or float n is not handed the family kept for its integer value
        dyadic_family(1), dyadic_family(6)
        with pytest.raises(ValueError, match="integer"):
            dyadic_family(n)

    def test_shared_and_read_only(self):
        fam = dyadic_family(37)
        assert dyadic_family(37) is fam
        for array in (fam.lo, fam.hi, fam._starts, fam._root_sizes):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            fam.lo[0] = 2
        assert list(fam)[0] == (1, 1)


class TestIntervalSums:
    @pytest.mark.parametrize("n", [1, 6, 7, 1000])
    def test_equals_explicit_sum_per_interval(self, n, rng):
        # n = 6 and 7 repeat a trailing block; n = 1000 has many
        fam = dyadic_family(n)
        x = rng.normal(size=n)
        expected = [np.sum(x[lo - 1 : hi]) for lo, hi in fam]
        np.testing.assert_allclose(fam.sums(x), expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind, n", [("dyadic", 1), ("dyadic", 7), ("dyadic", 1000), ("all", 7)])
    def test_equals_the_concatenated_prefix_sums_bit_for_bit(self, kind, n, rng):
        if kind == "dyadic":
            family = dyadic_family(n)
        else:
            lo, hi = zip(*[(a, b) for a in range(1, n + 1) for b in range(a, n + 1)])
            family = IntervalFamily(np.array(lo), np.array(hi), n)
        for x in (rng.normal(size=family.n), rng.standard_cauchy(family.n) * 1e6):
            c = np.concatenate(([0.0], np.cumsum(x)))
            assert np.array_equal(family.sums(x), c[family.hi] - c[family.lo - 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dyadic_family(8).sums(np.ones(7))
        with pytest.raises(ValueError):
            dyadic_family(8).sums(np.ones(9))
        s = Sample(np.arange(1, 9) / 8, np.zeros(8))
        with pytest.raises(ValueError):
            all_w_stats(s, np.zeros(8), dyadic_family(7))


class TestWStat:
    def test_zero_residuals(self):
        s = Sample([0.1, 0.2, 0.3, 0.4], [1.0, 2.0, 3.0, 4.0])
        assert w_stat(s, s.y, (1, 4)) == 0.0

    def test_singleton(self):
        s = Sample([0.1, 0.2, 0.3], [1.0, 5.0, 3.0])
        assert w_stat(s, np.zeros(3), (2, 2)) == 5.0

    def test_constant_residual_scaling(self):
        n, r = 9, 0.7
        s = Sample(np.linspace(0.1, 0.9, n), np.full(n, r))
        assert w_stat(s, np.zeros(n), (1, n)) == pytest.approx(r * math.sqrt(n), rel=1e-14)

    def test_translation_equivariance(self, rng):
        n = 32
        s = Sample(np.arange(1, n + 1) / n, rng.normal(size=n))
        g = rng.normal(size=n)
        shifted = Sample(s.t, s.y + 3.3)
        fam = dyadic_family(n)
        np.testing.assert_allclose(
            all_w_stats(s, g, fam), all_w_stats(shifted, g + 3.3, fam), atol=1e-12
        )

    def test_bounds_checked(self):
        s = Sample([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            w_stat(s, np.zeros(3), (0, 2))
        with pytest.raises(ValueError):
            w_stat(s, np.zeros(3), (2, 4))
        # a bound that is not an integer is not truncated
        for interval in ((1.5, 2), (1, 2.5), (True, 2), (1.0, 3.0)):
            with pytest.raises(ValueError, match="out of bounds"):
                w_stat(s, np.zeros(3), interval)
        # a fit of another length is not broadcast
        for g in (np.zeros(1), np.zeros(4), np.zeros((3, 1))):
            with pytest.raises(ValueError, match="sample size"):
                w_stat(s, g, (1, 3))


class TestSigmaHat:
    def test_constant_data(self):
        s = Sample(np.linspace(0, 1, 10), np.full(10, 4.2))
        assert sigma_hat(s) == 0.0

    def test_alternating_data(self):
        n = 20
        s = Sample(np.arange(1, n + 1) / n, np.arange(n) % 2.0)
        assert sigma_hat(s) == pytest.approx(1.4826 / math.sqrt(2.0), rel=1e-12)

    def test_consistency_monte_carlo(self):
        # scaled-median estimator lands within 5% of a known sigma
        hits = 0
        for seed in range(100):
            z = np.random.default_rng([100, seed]).standard_normal(10000)
            s = Sample(np.arange(1, 10001) / 10000, 2.0 * z)
            hits += 1.9 <= sigma_hat(s) <= 2.1
        assert hits >= 99

    def test_scale_equivariant_shift_invariant(self, rng):
        n = 200
        y = rng.normal(size=n)
        t = np.arange(1, n + 1) / n
        base = sigma_hat(Sample(t, y))
        assert sigma_hat(Sample(t, -2.5 * y)) == pytest.approx(2.5 * base, rel=1e-12)
        assert sigma_hat(Sample(t, y + 7.0)) == pytest.approx(base, rel=1e-12)


class TestRegionSpec:
    def test_threshold_formula(self):
        # sigma * sqrt(tau * ln n) with natural log
        spec = RegionSpec(sigma=8.3868, tau=3.0, n=7001)
        assert spec.threshold == pytest.approx(43.22, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            RegionSpec(sigma=-1.0, tau=3.0, n=10)
        with pytest.raises(ValueError):
            RegionSpec(sigma=1.0, tau=0.0, n=10)
        with pytest.raises(ValueError):
            RegionSpec(sigma=1.0, tau=3.0, n=0)

    @pytest.mark.parametrize("field", ["sigma", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(sigma=1.0, tau=3.0, n=10)
        kwargs[field] = value
        with pytest.raises(ValueError):
            RegionSpec(**kwargs)


class TestInRegion:
    def test_exact_fit_passes(self, rng):
        n = 64
        y = rng.normal(size=n)
        s = Sample(np.arange(1, n + 1) / n, y)
        rep = in_region(s, y, dyadic_family(n), RegionSpec(1.0, 3.0, n))
        assert rep.passed and len(rep.violations) == 0

    def test_large_offset_breaks_every_singleton(self):
        n = 16
        s = Sample(np.arange(1, n + 1) / n, np.zeros(n))
        spec = RegionSpec(1.0, 3.0, n)
        rep = in_region(s, np.full(n, 10.0 * spec.threshold), dyadic_family(n), spec)
        assert not rep.passed
        singles = {(lo, hi) for lo, hi, _ in rep.violations if lo == hi}
        assert len(singles) == n

    def test_violations_sorted_by_magnitude(self, rng):
        n = 128
        y = rng.normal(size=n) * 5.0
        s = Sample(np.arange(1, n + 1) / n, y)
        rep = in_region(s, np.zeros(n), dyadic_family(n), RegionSpec(1.0, 1.0, n))
        mags = [abs(w) for _, _, w in rep.violations]
        assert mags == sorted(mags, reverse=True)
        assert rep.max_abs_w == pytest.approx(mags[0], rel=1e-14)

    def test_pass_iff_every_interval_within_threshold(self, rng):
        # exhaustive recomputation against the library's verdict
        n = 48
        fam = dyadic_family(n)
        for seed in range(5):
            r = np.random.default_rng([55, seed])
            y = r.normal(size=n)
            g = r.normal(size=n) * 0.5
            s = Sample(np.arange(1, n + 1) / n, y)
            spec = RegionSpec(1.0, 2.0, n)
            rep = in_region(s, g, fam, spec)
            brute = max(abs(w_stat(s, g, iv)) for iv in fam)
            assert rep.passed == (brute <= spec.threshold)
            assert rep.max_abs_w == pytest.approx(brute, rel=1e-12)

    def test_spec_for_another_n_rejected(self, rng):
        # RegionSpec(1, 3, 5) would judge n = 400 at threshold 2.197, not 4.240
        n = 400
        s = Sample(np.arange(1, n + 1) / n, rng.normal(size=n))
        with pytest.raises(ValueError, match="n = 5"):
            in_region(s, np.zeros(n), dyadic_family(n), RegionSpec(1.0, 3.0, 5))


def assert_core_matches_in_region(sample, values, spec):
    fam = dyadic_family(sample.n)
    passed, max_abs, w, bad = _w_test(sample.y - values, fam, spec.threshold)
    rep = in_region(sample, values, fam, spec)
    assert passed == rep.passed
    assert max_abs == rep.max_abs_w
    assert np.array_equal(w, all_w_stats(sample, values, fam))
    assert bad.dtype == bool and bad.shape == (len(fam),)
    assert np.count_nonzero(bad) == len(rep.violations)
    assert set(zip(fam.lo[bad].tolist(), fam.hi[bad].tolist())) == {(lo, hi) for lo, hi, _ in rep.violations}
    return rep


class TestWTestCore:
    """The engine's test reads the same verdict, max |w| and violations as ``in_region``."""

    @pytest.mark.parametrize("max_iterations", [2, 200])
    @pytest.mark.parametrize("run", [fit_local, fit_global])
    @pytest.mark.parametrize("name", ["bumps", "rupcar"])
    def test_fits_from_real_runs(self, name, run, max_iterations):
        fn = bumps() if name == "bumps" else rupcar(6)
        s = make_dataset(fn, 400, SIGMA_PRESETS[f"{name}-hi"], seed=[56, 400])
        report = run(s, AdaptConfig(max_iterations=max_iterations))
        spec = RegionSpec(report.sigma_used, report.tau, s.n)
        rep = assert_core_matches_in_region(s, report.final_fit.values, spec)
        assert rep.passed == report.passed
        # a cut-off run ends on a fit with violations to compare
        assert report.passed or len(rep.violations) > 0

    def test_max_equal_to_threshold(self):
        # one residual of exactly the threshold: the singleton [1, 1] has
        # |w| = threshold, which passes; one ulp more fails on that interval alone
        n = 64
        spec = RegionSpec(0.7, 3.0, n)
        y = np.zeros(n)
        y[0] = spec.threshold
        s = Sample(np.arange(1, n + 1) / n, y)
        rep = assert_core_matches_in_region(s, np.zeros(n), spec)
        assert rep.passed and rep.max_abs_w == spec.threshold and rep.violations == []
        y[0] = np.nextafter(spec.threshold, np.inf)
        rep = assert_core_matches_in_region(Sample(s.t, y), np.zeros(n), spec)
        assert not rep.passed and [(lo, hi) for lo, hi, _ in rep.violations] == [(1, 1)]


class TestCalibrateTau:
    def test_deterministic_given_seed(self):
        a = calibrate_tau(64, 0.9, replicates=1500, seed=42)
        b = calibrate_tau(64, 0.9, replicates=1500, seed=42)
        assert a == b

    def test_equals_row_at_a_time_recomputation(self):
        # the reference recomputes each replicate on its own, at an n where
        # the family has thousands of intervals
        n, alpha, replicates, seed = 3000, 0.9, 1000, 17
        fam = dyadic_family(n)
        inv_sqrt = 1.0 / np.sqrt(fam.sizes)
        maxima = []
        for j in range(replicates):
            c = np.concatenate(([0.0], np.cumsum(np.random.default_rng([seed, j]).standard_normal(n))))
            maxima.append(float(np.max(np.abs(c[fam.hi] - c[fam.lo - 1]) * inv_sqrt)))
        q = sorted(maxima)[math.ceil(alpha * replicates) - 1]
        assert calibrate_tau(n, alpha, replicates=replicates, seed=seed) == q * q / math.log(n)

    def test_custom_family_equals_row_at_a_time_recomputation(self):
        # all length-4 windows at n = 50: not a dyadic family
        n, alpha, replicates, seed = 50, 0.9, 1200, 5
        fam = IntervalFamily(np.arange(1, n - 2), np.arange(4, n + 1), n)
        maxima = []
        for j in range(replicates):
            c = np.concatenate(([0.0], np.cumsum(np.random.default_rng([seed, j]).standard_normal(n))))
            maxima.append(float(np.max(np.abs(c[fam.hi] - c[fam.lo - 1]) * 0.5)))
        q = sorted(maxima)[math.ceil(alpha * replicates) - 1]
        assert calibrate_tau(n, alpha, family=fam, replicates=replicates, seed=seed) == q * q / math.log(n)

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_fewer_than_two_points(self, n):
        with pytest.raises(ValueError, match="n >= 2"):
            calibrate_tau(n, replicates=1000)

    @pytest.mark.parametrize("n, replicates", [(100.5, 1000), (100.0, 1000), (True, 1000), (100, 1000.0)])
    def test_rejects_non_integer_counts(self, n, replicates):
        # 100.5 used to fail in the family and 1000.0 with a TypeError
        with pytest.raises(ValueError, match="integer"):
            calibrate_tau(n, replicates=replicates)

    def test_monotone_in_alpha(self):
        taus = [calibrate_tau(128, alpha, replicates=3000, seed=3) for alpha in (0.8, 0.9, 0.95, 0.99)]
        assert taus == sorted(taus)

    def test_decreasing_in_n(self):
        # statistical check along a coarse grid; generous ordering margin
        taus = [calibrate_tau(n, 0.95, replicates=4000, seed=11) for n in (100, 1000, 10000)]
        assert taus[0] > taus[1] - 0.02
        assert taus[1] > taus[2] - 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_tau(100, 1.5, replicates=2000)
        with pytest.raises(ValueError):
            calibrate_tau(100, 0.95, replicates=10)
        with pytest.raises(ValueError):
            calibrate_tau(100, 0.95, family=dyadic_family(50), replicates=2000)


class TestMinDetectableDelta:
    def test_printed_reference_values(self):
        assert min_detectable_delta(1000, 24, 1.0, 2.91, "all") == pytest.approx(1.39, abs=0.01)
        assert min_detectable_delta(1000, 24, 1.0, 2.71, "dyadic") == pytest.approx(1.92, abs=0.01)

    def test_zero_sigma(self):
        assert min_detectable_delta(1000, 24, 0.0, 3.0, "all") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            min_detectable_delta(1000, 0, 1.0, 3.0, "all")
        with pytest.raises(ValueError):
            min_detectable_delta(1000, 24, 1.0, 3.0, "hexadic")
        with pytest.raises(ValueError):
            min_detectable_delta(1000, 24.0, 1.0, 3.0, "all")

    @pytest.mark.parametrize("size", [101, 500])
    def test_rejects_an_interval_longer_than_n(self, size):
        with pytest.raises(ValueError, match="interval_size <= n"):
            min_detectable_delta(100, size, 1.0, 3.0)
        assert min_detectable_delta(100, 100, 1.0, 3.0) > 0.0
