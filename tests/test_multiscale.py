import math
import tracemalloc

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
import adaptspline.multiscale
from adaptspline.multiscale import _pyramid_levels, _pyramid_maxima, _w_test
from conftest import pyramid_maxima, pyramid_sums


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


class TestIntervalFamily:
    def test_accepts_integer_arrays(self):
        family = IntervalFamily(np.array([1, 2], dtype=np.int32), [2, 3], 4)
        assert family.lo.dtype == family.hi.dtype == np.int64
        assert list(family) == [(1, 2), (2, 3)]

    def test_rejects_fractional_bounds(self):
        # these were truncated to lo = [1, 2], hi = [2, 3]
        with pytest.raises(ValueError, match="lo must be an array of integers"):
            IntervalFamily(np.array([1.5, 2.9]), np.array([2.0, 3.7]), 4)

    def test_rejects_boolean_bounds(self):
        with pytest.raises(ValueError, match="lo must be an array of integers"):
            IntervalFamily([True], [True], 2)
        with pytest.raises(ValueError, match="hi must be an array of integers"):
            IntervalFamily([1], [2.0], 2)

    @pytest.mark.parametrize("n", [3.5, 3.0, True])
    def test_rejects_a_size_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            IntervalFamily([1], [1], n)

    @pytest.mark.parametrize("lo, hi", [([1, 2], [2]), ([[1]], [[2]])])
    def test_rejects_bounds_of_unequal_length(self, lo, hi):
        with pytest.raises(ValueError, match="equal-length vectors"):
            IntervalFamily(np.array(lo), np.array(hi), 4)

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError, match="empty"):
            IntervalFamily(np.array([], dtype=int), np.array([], dtype=int), 4)

    @pytest.mark.parametrize("lo, hi", [([0], [2]), ([2], [5]), ([3], [2])])
    def test_rejects_bounds_out_of_range(self, lo, hi):
        with pytest.raises(ValueError, match="1 <= lo <= hi <= n"):
            IntervalFamily(np.array(lo), np.array(hi), 4)

    def test_equal_to_a_copy_of_its_bounds(self):
        family = dyadic_family(8)
        copy = IntervalFamily(family.lo.copy(), family.hi.copy(), 8)
        assert family == copy and not family != copy
        assert hash(family) == hash(copy)
        assert IntervalFamily(family.lo.astype(np.int32), family.hi, 8) == family

    def test_unequal_in_one_bound_or_in_n(self):
        family = dyadic_family(8)
        lo, hi = family.lo.copy(), family.hi.copy()
        hi[-1] = 7
        assert family != IntervalFamily(family.lo, hi, 8)
        lo[3] = 3
        assert family != IntervalFamily(lo, family.hi, 8)
        assert family != IntervalFamily(family.lo, family.hi, 9)
        assert family != IntervalFamily(family.lo[:-1], family.hi[:-1], 8)

    def test_not_equal_to_other_types(self):
        family = IntervalFamily([1, 2], [2, 3], 3)
        assert family != [(1, 2), (2, 3)]
        assert family.__eq__((family.lo, family.hi, 3)) is NotImplemented

    def test_works_as_a_dict_key(self):
        family = dyadic_family(8)
        table = {family: "dyadic", IntervalFamily([1], [8], 8): "full range"}
        assert table[IntervalFamily(family.lo.copy(), family.hi.copy(), 8)] == "dyadic"
        assert table[IntervalFamily(np.array([1]), np.array([8]), 8)] == "full range"
        assert IntervalFamily([1], [8], 9) not in table


def probe_sample(n=64):
    t = np.arange(1, n + 1) / n
    return Sample(t, np.sin(6.0 * t))


def probe_fit(value, n=64):
    """Fit values 0 but for ``value`` at point 6."""
    g = np.zeros(n)
    g[5] = value
    return g


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_fit_values_that_are_not_finite(self, value):
        # [9, 16] does not hold point 6: the fit is rejected as a whole
        s, g = probe_sample(), probe_fit(value)
        with pytest.raises(ValueError, match="be finite"):
            w_stat(s, g, (9, 16))


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

    @pytest.mark.parametrize("n", [2.5, 10.0, True])
    def test_rejects_a_size_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            RegionSpec(sigma=1.0, n=n)

    def test_noise_free_data_have_threshold_zero(self):
        # sigma = 0 is allowed: the region is then the data themselves
        assert RegionSpec(0.0, 3.0, 10).threshold == 0.0

    @pytest.mark.parametrize("field", ["sigma", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(sigma=1.0, tau=3.0, n=10)
        kwargs[field] = value
        with pytest.raises(ValueError):
            RegionSpec(**kwargs)


class TestInRegion:
    @pytest.mark.parametrize("m", [7, 9])
    def test_rejects_fit_values_of_the_wrong_length(self, m):
        s = Sample(np.arange(1, 9) / 8, np.zeros(8))
        family = dyadic_family(8)
        with pytest.raises(ValueError, match="fit values must match"):
            in_region(s, np.zeros(m), family, RegionSpec(1.0, 3.0, 8))
        with pytest.raises(ValueError, match="fit values must match"):
            all_w_stats(s, np.zeros(m), family)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_all_w_stats_rejects_fit_values_that_are_not_finite(self, value):
        # the prefix sums would carry one NaN into 119 of the 127 w statistics
        s = probe_sample()
        with pytest.raises(ValueError, match="be finite"):
            all_w_stats(s, probe_fit(value), dyadic_family(s.n))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_in_region_rejects_fit_values_that_are_not_finite(self, value):
        # the report would read max |w| = nan and list only 4 violations
        s = probe_sample()
        with pytest.raises(ValueError, match="be finite"):
            in_region(s, probe_fit(value), dyadic_family(s.n), RegionSpec(1.0, 3.0, s.n))

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

    @staticmethod
    def pyramid_row_at_a_time(n, alpha, replicates, seed):
        """tau from each replicate on its own, its dyadic sums a pairwise pyramid."""
        sizes = dyadic_family(n).sizes
        maxima = [pyramid_maxima(np.random.default_rng([seed, j]).standard_normal(n), sizes)
                  for j in range(replicates)]
        q = sorted(maxima)[math.ceil(alpha * replicates) - 1]
        return q * q / math.log(n)

    def test_equals_row_at_a_time_recomputation(self):
        # the reference recomputes each replicate on its own, at an n where
        # the family has thousands of intervals
        n, alpha, replicates, seed = 3000, 0.9, 1000, 17
        assert calibrate_tau(n, alpha, replicates=replicates, seed=seed) == self.pyramid_row_at_a_time(
            n, alpha, replicates, seed)

    @pytest.mark.parametrize("n, seed", [(100, 0), (3000, 17)])
    def test_pyramid_tau_is_close_to_the_prefix_sum_tau(self, n, seed):
        # the same draws summed through prefix sums: the two orders of
        # summation move tau only in its last bits
        tau = calibrate_tau(n, 0.9, replicates=1000, seed=seed)
        assert tau == pytest.approx(self.row_at_a_time(n, 0.9, dyadic_family(n), 1000, seed), rel=1e-13, abs=0)

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

    @staticmethod
    def row_at_a_time(n, alpha, family, replicates, seed):
        """tau from the family-wide w vector of each replicate on its own."""
        inv_sqrt = 1.0 / np.sqrt(family.sizes)
        maxima = []
        for j in range(replicates):
            c = np.concatenate(([0.0], np.cumsum(np.random.default_rng([seed, j]).standard_normal(n))))
            maxima.append(float(np.max(np.abs(c[family.hi] - c[family.lo - 1]) * inv_sqrt)))
        q = sorted(maxima)[math.ceil(alpha * replicates) - 1]
        return q * q / math.log(n)

    FAMILIES = {
        # every interval, by size: one run per size
        "all-intervals": (100, IntervalFamily(
            np.concatenate([np.arange(1, 102 - s) for s in range(1, 101)]),
            np.concatenate([np.arange(s, 101) for s in range(1, 101)]), 100)),
        # windows that overlap by half, so the step is not the size, then
        # windows of 6 at step 3, a repeated interval, and windows of 4
        # whose step turns from 1 to 4
        "half-overlapping": (100, IntervalFamily(
            np.r_[1:93:4, 1:95:3, 7, 7, 1, 2, 3, 7, 11], np.r_[8:100:4, 6:100:3, 20, 20, 4, 5, 6, 10, 14], 100)),
    }

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_equals_row_at_a_time_recomputation(self, name):
        n, family = self.FAMILIES[name]
        assert calibrate_tau(n, 0.9, family=family, replicates=1000, seed=8) == self.row_at_a_time(
            n, 0.9, family, 1000, 8)

    @pytest.mark.parametrize("budget, rows", [(16 * 65 * 7, [7] * 142 + [6]), (16 * 65 - 1, [1] * 1000),
                                              (8 * 127 - 1, [1] * 1000)])
    def test_blocks_of_few_rows_equal_row_at_a_time_recomputation(self, budget, rows, monkeypatch):
        # a row at n = 64 holds the 127 sums of the family, 1016 bytes: 7
        # rows leave a last block of 1000 % 7 = 6 rows; a budget of one row,
        # or below one row as for any n past the real budget, leaves blocks
        # of one row
        n = 64
        monkeypatch.setattr(adaptspline.multiscale, "_BLOCK_BYTES", budget)
        blocks, pyramid = [], _pyramid_maxima
        monkeypatch.setattr(adaptspline.multiscale, "_pyramid_maxima",
                            lambda x, levels: blocks.append(len(x)) or pyramid(x, levels))
        tau = calibrate_tau(n, 0.9, replicates=1000, seed=4)
        assert blocks == rows
        assert tau == self.pyramid_row_at_a_time(n, 0.9, 1000, 4)

    def test_pyramid_levels_hold_the_family_sums_in_order(self, rng):
        # the draws and the levels above them hold the family's sums in the
        # family's order; equal entries peak on [1, n], which is a trailing
        # block unless n is a power of two, and growing ones on a trailing
        # block of some level
        for n in (2, 7, 64, 1000):
            x = np.stack([rng.normal(size=n), np.ones(n), np.arange(n) ** 4.0])
            levels = _pyramid_levels(3, n)
            best = _pyramid_maxima(x, levels)
            sums = np.concatenate([x, *levels], axis=1)
            for row, sums_row, peak in zip(x, sums, best):
                assert np.array_equal(sums_row, pyramid_sums(row))
                assert peak == pyramid_maxima(row, dyadic_family(n).sizes)
            np.testing.assert_allclose(sums, [dyadic_family(n).sums(row) for row in x], rtol=1e-15, atol=1e-12)
            assert best[1] == pytest.approx(math.sqrt(n), rel=1e-15)

    def test_memory_is_bounded_by_the_block_budget(self):
        # a block holds at most _BLOCK_BYTES of sums, and numpy's ufunc
        # buffers (3 operands of 8192 doubles at most) come on top; past the
        # maxima (8 bytes a replicate) the peak does not grow with the
        # replicate count
        def peak(replicates):
            tracemalloc.start()
            try:
                calibrate_tau(10000, replicates=replicates)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        calibrate_tau(10000, replicates=1000)  # the cached family is not part of a call's cost
        small, large = peak(1000), peak(3000)
        assert small <= adaptspline.multiscale._BLOCK_BYTES + 8 * 1000 + 3 * 8 * 8192 + (16 << 10)
        assert large - small <= 8 * 2000

    def test_memory_of_another_family_is_bounded_by_the_block_budget(self):
        # a block of another family holds only draws (_BLOCK_BYTES at most),
        # the maxima take 8 bytes a replicate, and one row's ``sums`` and
        # its maximum hold at most the n + 1 prefix sums and four vectors
        # over the family at once: with 2499 windows of 8 at step 4 at
        # n = 10000, 8 * (10001 + 4 * 2499) = 159,976 bytes.  Past the
        # maxima the peak does not grow with the replicate count.
        n = 10000
        family = IntervalFamily(np.arange(1, n - 6, 4), np.arange(8, n + 1, 4), n)

        def peak(replicates):
            tracemalloc.start()
            try:
                calibrate_tau(n, family=family, replicates=replicates)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        calibrate_tau(n, replicates=1000)  # the cached dyadic family is not part of a call's cost
        row_sums = 8 * (n + 1 + 4 * len(family))
        small, large = peak(1000), peak(3000)
        assert small <= adaptspline.multiscale._BLOCK_BYTES + 8 * 1000 + row_sums + (16 << 10)
        assert large - small <= 8 * 2000

    def test_a_copy_of_the_dyadic_family_takes_the_pyramid(self, monkeypatch):
        family = dyadic_family(64)
        copy = IntervalFamily(family.lo.copy(), family.hi.copy(), 64)
        tau = calibrate_tau(64, 0.9, replicates=1000, seed=4)
        blocks, pyramid = [], _pyramid_maxima
        monkeypatch.setattr(adaptspline.multiscale, "_pyramid_maxima",
                            lambda x, levels: blocks.append(len(x)) or pyramid(x, levels))
        assert calibrate_tau(64, 0.9, family=copy, replicates=1000, seed=4) == tau
        assert blocks

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

    @pytest.mark.parametrize("seed", [True, 1.5, -1])
    def test_rejects_a_seed_that_is_not_a_count(self, seed):
        # True used to run as seed 1, and numpy raised on 1.5 (TypeError) and -1
        with pytest.raises(ValueError, match="seed"):
            calibrate_tau(64, seed=seed, replicates=1000)

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

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_rejects_a_bad_sigma(self, sigma):
        # -1 gave -2.70 and NaN gave NaN
        with pytest.raises(ValueError, match="sigma must be a nonnegative finite number"):
            min_detectable_delta(100, 10, sigma, 3.0)

    @pytest.mark.parametrize("tau", [-3.0, 0.0, math.nan, math.inf])
    def test_rejects_a_bad_tau(self, tau):
        # -3 raised "math domain error", which does not name tau
        with pytest.raises(ValueError, match="tau must be a positive finite number"):
            min_detectable_delta(100, 10, 1.0, tau)

    @pytest.mark.parametrize("size", [101, 500])
    def test_rejects_an_interval_longer_than_n(self, size):
        with pytest.raises(ValueError, match="interval_size <= n"):
            min_detectable_delta(100, size, 1.0, 3.0)
        assert min_detectable_delta(100, 100, 1.0, 3.0) > 0.0
