import math

import numpy as np
import pytest

from adaptspline import (
    RegionSpec,
    Sample,
    all_w_stats,
    calibrate_tau,
    dyadic_family,
    in_region,
    min_detectable_delta,
    sigma_hat,
    w_stat,
)


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


class TestCalibrateTau:
    def test_deterministic_given_seed(self):
        a = calibrate_tau(64, 0.9, replicates=1500, seed=42)
        b = calibrate_tau(64, 0.9, replicates=1500, seed=42)
        assert a == b

    def test_equals_row_at_a_time_recomputation(self):
        # n = 3000 splits the 1000 replicates over several batches
        n, alpha, replicates, seed = 3000, 0.9, 1000, 17
        fam = dyadic_family(n)
        inv_sqrt = 1.0 / np.sqrt(fam.sizes)
        maxima = []
        for j in range(replicates):
            c = np.concatenate(([0.0], np.cumsum(np.random.default_rng([seed, j]).standard_normal(n))))
            maxima.append(float(np.max(np.abs(c[fam.hi] - c[fam.lo - 1]) * inv_sqrt)))
        q = sorted(maxima)[math.ceil(alpha * replicates) - 1]
        assert calibrate_tau(n, alpha, replicates=replicates, seed=seed) == q * q / math.log(n)

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
