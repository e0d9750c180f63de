import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

import adaptspline.adapt as adapt_module
import adaptspline.variants as variants_module
from adaptspline import (
    AdaptConfig,
    Sample,
    ScaleRegionSpec,
    chisq_quantile,
    clean_outliers,
    fit,
    make_dataset,
    scale_fit,
    sigma_hat,
    sine,
    solve_weighted,
    v_stat,
)
from adaptspline.variants import SCALE_FLOOR_FRACTION


def grid_sample(n, y):
    return Sample(np.arange(1, n + 1) / n, y)


class TestCleanOutliers:
    def test_clean_data_untouched(self, rng):
        y = np.sin(np.linspace(0, 3, 100))
        s = grid_sample(100, y)
        cleaned, mask = clean_outliers(s, 1.0)
        np.testing.assert_array_equal(cleaned.y, y)
        assert not mask.any()

    def test_single_spike_replaced_by_window_median(self):
        y = np.sin(np.linspace(0, 3, 101)) * 0.1
        y[50] += 100.0
        s = grid_sample(101, y)
        cleaned, mask = clean_outliers(s, 1.0)
        assert mask.sum() == 1 and mask[50]
        window = np.sin(np.linspace(0, 3, 101))[48:53] * 0.1
        window[2] += 100.0
        assert cleaned.y[50] == pytest.approx(np.median(window))

    def test_boundary_windows(self):
        y = np.zeros(20)
        y[0] = 50.0
        cleaned, mask = clean_outliers(grid_sample(20, y), 1.0)
        assert mask[0] and cleaned.y[0] == 0.0  # median of the first three

    def test_idempotent_on_heavy_contamination(self):
        for seed in range(20):
            s = make_dataset(sine(), 1024, 0.5, noise="cauchy", seed=[900, seed])
            sigma = sigma_hat(s)
            once, _ = clean_outliers(s, sigma)
            twice, again = clean_outliers(once, sigma)
            assert np.array_equal(once.y, twice.y)
            assert not again.any()

    def test_commutes_with_constant_shift(self, rng):
        s = make_dataset(sine(), 256, 0.4, noise="cauchy", seed=[901, 1])
        sigma = sigma_hat(s)
        cleaned, mask = clean_outliers(s, sigma)
        shifted, mask2 = clean_outliers(Sample(s.t, s.y + 11.0), sigma)
        np.testing.assert_allclose(shifted.y, cleaned.y + 11.0, atol=1e-12)
        assert np.array_equal(mask, mask2)

    def test_cluster_of_three_replaced_without_copying(self):
        clean = np.sin(np.linspace(0, 3, 101)) * 0.1
        y = clean.copy()
        # three same-sign outliers in one five-point window: its median is
        # an outlier, so the five-point rule alone would spread 60 over all
        # three points
        y[50:53] += [100.0, 60.0, 100.0]
        cleaned, mask = clean_outliers(grid_sample(101, y), 1.0)
        assert np.flatnonzero(mask).tolist() == [50, 51, 52]
        assert np.max(np.abs(cleaned.y - clean)) < 1.0

    def test_fit_uses_the_cleaning_sigma(self):
        s = make_dataset(sine(), 256, 0.3, noise="cauchy", seed=[901, 2])
        sigma = sigma_hat(s)
        cleaned, _ = clean_outliers(s, sigma)
        assert cleaned.sigma == sigma
        assert sigma_hat(cleaned) < sigma  # what a re-estimate would use instead
        assert fit(cleaned).sigma_used == sigma
        assert fit(cleaned, AdaptConfig(sigma=0.25)).sigma_used == 0.25

    def test_needs_five_points(self):
        with pytest.raises(ValueError):
            clean_outliers(Sample([0.1, 0.2, 0.3, 0.4], [1.0, 2.0, 3.0, 4.0]), 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_needs_positive_finite_sigma(self, sigma):
        # at sigma = 0 every point would be an outlier and the sweeps would
        # run into their cap
        with pytest.raises(ValueError, match="sigma"):
            clean_outliers(grid_sample(400, np.sin(np.linspace(0, 3, 400))), sigma)

    def test_raises_at_the_sweep_cap(self, monkeypatch):
        # a five-point median that always flags the first point never settles
        calls = Counter()

        def restless(y):
            calls["sweeps"] += 1
            med = y.copy()
            med[0] += 10.0
            return med

        monkeypatch.setattr(variants_module, "_running_median5", restless)
        with pytest.raises(RuntimeError, match="after 20 sweeps"):
            clean_outliers(grid_sample(20, np.zeros(20)), 1.0)
        assert calls["sweeps"] == 20


class TestChisqQuantile:
    def test_two_degrees_closed_form(self):
        assert chisq_quantile(0.5, 2) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_one_degree_vs_normal_quantile(self):
        # square of the 0.975 standard normal quantile, frozen high-precision
        assert chisq_quantile(0.95, 1) == pytest.approx(3.8414588206941259584, rel=1e-10)

    def test_large_k_high_precision(self):
        # frozen from a 40-digit quadrature inversion
        assert chisq_quantile(0.99, 1_000_000) == pytest.approx(1003292.8936864126, rel=1e-6)
        assert chisq_quantile(0.975, 1000) == pytest.approx(1089.5309127749135, rel=1e-8)

    def test_monotone_in_gamma_and_k(self):
        gammas = [0.01, 0.2, 0.5, 0.8, 0.99]
        for k in (1, 2, 5, 100):
            vals = [chisq_quantile(g, k) for g in gammas]
            assert vals == sorted(vals)
        for g in gammas:
            vals = [chisq_quantile(g, k) for k in (1, 2, 5, 100, 10000)]
            assert vals == sorted(vals)

    def test_cdf_round_trip(self):
        for g in (0.001, 0.3, 0.5, 0.9, 0.9999):
            for k in (1, 4, 64, 4096):
                assert stats.chi2.cdf(chisq_quantile(g, k), k) == pytest.approx(g, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            chisq_quantile(0.0, 5)
        with pytest.raises(ValueError):
            chisq_quantile(0.5, 0)


class TestVStat:
    def test_unit_scale_gives_sum_of_squares(self, rng):
        y = rng.normal(size=10)
        assert v_stat(y, (1, 10), np.ones(10)) == pytest.approx(float(np.sum(y * y)), rel=1e-14)

    def test_scale_equal_to_data_gives_size(self, rng):
        y = rng.normal(size=12) + 3.0
        assert v_stat(y, (3, 9), np.abs(y)) == pytest.approx(7.0, rel=1e-12)

    def test_law_of_large_numbers(self):
        hits = 0
        for seed in range(50):
            z = np.random.default_rng([902, seed]).standard_normal(4096)
            v = v_stat(2.0 * z, (1, 4096), np.full(4096, 2.0))
            hits += abs(v / 4096 - 1.0) < 0.1
        assert hits >= 48

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            v_stat(np.ones(5), (1, 5), np.array([1.0, 1.0, 0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            v_stat(np.ones(5), (0, 5), np.ones(5))
        # a bound that is not an integer is not truncated
        for interval in ((1.5, 2), (1, 2.5), (True, 2), (1.0, 5.0)):
            with pytest.raises(ValueError, match="out of bounds"):
                v_stat(np.ones(5), interval, np.ones(5))
        assert v_stat(np.ones(5), (np.int64(1), np.int64(5)), np.ones(5)) == 5.0
        # a scale of another length, or 2-D data, is not broadcast
        for y, s in ((np.ones(5), np.ones(1)), (np.ones(5), np.ones(6)), (np.ones((5, 1)), np.ones((5, 1)))):
            with pytest.raises(ValueError, match="1-D"):
                v_stat(y, (1, 5), s)


class TestScaleRegionSpec:
    def test_default_coverage(self):
        spec = ScaleRegionSpec.for_size(1024)
        assert spec.coverage == pytest.approx(1.0 - 1024.0 ** -1.5, rel=1e-12)

    def test_bounds_bracket_the_mean(self):
        spec = ScaleRegionSpec.for_size(256)
        lo, hi = spec.bounds(64)
        assert lo < 64.0 < hi

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleRegionSpec.for_size(64, alpha_n=1.5)


class TestScaleFit:
    def test_sinusoidal_scale_recovered(self):
        n = 1024
        t = np.arange(1, n + 1) / n
        truth = np.sin(4.0 * np.pi * t) ** 2
        grid = np.linspace(0.0, 1.0, 2050)[1:-1]
        truth_grid = np.sin(4.0 * np.pi * grid) ** 2
        passed = good = 0
        for seed in range(10):
            z = np.random.default_rng([31, seed]).standard_normal(n)
            result = scale_fit(Sample(t, truth * z))
            err = truth_grid - result.scale_at(grid)
            rise = math.sqrt(np.trapezoid(err * err, grid))
            passed += result.passed
            good += rise < 0.15
        assert passed >= 9
        assert good >= 8

    def test_constant_scale_recovered_pointwise(self):
        n = 1024
        t = np.arange(1, n + 1) / n
        interior = (t >= 0.1) & (t <= 0.9)
        ok = 0
        for seed in range(10):
            z = np.random.default_rng([32, seed]).standard_normal(n)
            result = scale_fit(Sample(t, 2.0 * z))
            assert result.passed
            sv = result.scale_values()[interior]
            ok += bool(np.all((sv >= 1.6) & (sv <= 2.4)))
        assert ok >= 9

    def test_all_zero_input_flags_degenerate(self):
        result = scale_fit(grid_sample(64, np.zeros(64)))
        assert result.degenerate and not result.passed and not result.truncated

    def test_pass_verified_by_independent_recomputation(self):
        n = 512
        t = np.arange(1, n + 1) / n
        z = np.random.default_rng([903, 0]).standard_normal(n)
        y = (1.0 + t) * z
        spec = ScaleRegionSpec.for_size(n)
        result = scale_fit(Sample(t, y), spec)
        assert result.passed
        sv = result.scale_values()
        floor = result.floor
        for lo, hi in spec.family:
            lo_b, hi_b = spec.bounds(hi - lo + 1)
            v = v_stat(y, (lo, hi), sv)
            reachable = v_stat(y, (lo, hi), np.full(n, floor)) >= lo_b
            if reachable:
                assert lo_b <= v <= hi_b

    @pytest.mark.parametrize("c", [1e-160, 1e-200, 1e154])
    def test_rejects_data_whose_squares_are_not_representable(self, c):
        # the squared floor is below the smallest normal double (1e-160,
        # 1e-200) or y**2 overflows (1e154): the band test's sums are lost
        z = np.random.default_rng(1).standard_normal(64)
        with pytest.raises(ValueError, match=r"max \|y\| of at least 7.46e-152"):
            scale_fit(grid_sample(64, c * z))

    def test_scale_follows_the_data_across_the_range(self):
        z = np.random.default_rng(1).standard_normal(64)
        ref = scale_fit(grid_sample(64, z)).scale_values()
        small = scale_fit(grid_sample(64, 1e-150 * z))
        np.testing.assert_allclose(small.scale_values() / 1e-150, ref, rtol=1e-12)
        # the roughness of the spline fitted to y**2 grows as y**4 and
        # overflows to NaN past max |y| of about 1e77, with warnings; the
        # scale itself is unaffected
        with pytest.warns(RuntimeWarning, match="(overflow|invalid value) encountered"):
            big = scale_fit(grid_sample(64, 1e150 * z))
        np.testing.assert_allclose(big.scale_values() / 1e150, ref, rtol=1e-12)

    def test_needs_eight_points(self):
        with pytest.raises(ValueError):
            scale_fit(grid_sample(6, np.ones(6)))

    @pytest.mark.parametrize("config", [AdaptConfig(sigma=2.0), AdaptConfig(tau=50.0),
                                        AdaptConfig(tau=50.0, sigma=2.0)])
    def test_rejects_config_fields_it_ignores(self, config):
        # the chi-squared bands read neither sigma nor tau
        with pytest.raises(ValueError, match="q and max_iterations"):
            scale_fit(grid_sample(64, np.ones(64)), config=config)

    def test_family_size_must_match(self):
        with pytest.raises(ValueError):
            scale_fit(grid_sample(64, np.ones(64)), ScaleRegionSpec.for_size(32))

    def test_truncation_flag_on_tiny_budget(self):
        n = 256
        t = np.arange(1, n + 1) / n
        z = np.random.default_rng([904, 0]).standard_normal(n)
        result = scale_fit(
            Sample(t, np.sin(4 * np.pi * t) ** 2 * z), config=AdaptConfig(max_iterations=1)
        )
        assert result.truncated and not result.passed
        assert result.iterations == 1
        # truncated is derived from passed and degenerate, never stored
        with pytest.raises(TypeError):
            dataclasses.replace(result, truncated=False)


def scale_sample(n, shape, seed):
    t = np.arange(1, n + 1) / n
    z = np.random.default_rng([905, n, seed]).standard_normal(n)
    return Sample(t, shape(t) * z)


def sin2(t):
    return np.sin(4.0 * np.pi * t) ** 2


def step(t):
    return np.where(t < 0.5, 0.1, 3.0)


def reference_local_sweep(sample, budget, q=2.0, init_tolerance=1e-3):
    """The locally adaptive sweep of ``scale_fit``, written out from its docstring.

    Returns the start halvings, the final weights, the bumps made and
    whether every enforceable band holds.
    """
    n, t, y = sample.n, sample.t, sample.y
    target = Sample(t, y * y)
    spec = ScaleRegionSpec.for_size(n)
    lo, hi = spec.family.lo, spec.family.hi
    sizes = hi - lo + 1
    lower = np.array([spec.bounds(k)[0] for k in sizes])
    upper = np.array([spec.bounds(k)[1] for k in sizes])
    floor = SCALE_FLOOR_FRACTION * float(np.max(np.abs(y)))

    def v(scale):
        c = np.concatenate(([0.0], np.cumsum(target.y / (scale * scale))))
        return c[hi] - c[lo - 1]

    pinned = v(np.full(n, floor)) < lower

    def violating(fit_):
        vs = v(np.maximum(np.sqrt(np.maximum(fit_.values, 0.0)), floor))
        return ((vs < lower) | (vs > upper)) & ~pinned

    # start: halve an equal weight from 1 until the fit hugs the LS line
    slope, intercept = np.polyfit(t, target.y, 1)
    line = intercept + slope * t
    halvings = 0
    while True:
        weights = np.full(n, 2.0 ** -halvings)
        current = solve_weighted(target, weights)
        if np.max(np.abs(current.values - line)) <= init_tolerance * target.spread() or halvings == 60:
            break
        halvings += 1
    # finish each interval size, shortest first, then re-sweep until all hold
    iterations = 0
    while True:
        for size in np.unique(sizes):
            while (bad := violating(current) & (sizes == size)).any():
                if iterations == budget:
                    return halvings, weights, iterations, False
                covered = np.zeros(n, dtype=bool)
                for a, b in zip(lo[bad], hi[bad]):
                    covered[a - 1 : b] = True
                weights = np.where(covered, weights * q, weights)
                current = solve_weighted(target, weights)
                iterations += 1
        if not violating(current).any():
            return halvings, weights, iterations, True


class TestScaleFitEngine:
    """``scale_fit`` runs on the engine of the mean fits; pin what it computes."""

    @pytest.mark.parametrize("budget", [1, 7, 400])
    @pytest.mark.parametrize("shape", [sin2, step, lambda t: 1.0 + t])
    def test_fit_is_the_solve_at_its_weights(self, shape, budget):
        s = scale_sample(256, shape, 0)
        result = scale_fit(s, config=AdaptConfig(max_iterations=budget))
        if result.weights is None:
            assert result.passed and result.iterations == 0
            return
        again = solve_weighted(Sample(s.t, s.y * s.y), result.weights)
        assert np.array_equal(result.s.values, again.values)
        assert np.array_equal(result.s.second_derivs, again.second_derivs)
        assert result.s.roughness == again.roughness

    @pytest.mark.parametrize(
        "shape, seed, budget",
        [(sin2, 0, 400), (sin2, 1, 400), (step, 0, 400), (sin2, 0, 7), (step, 1, 7)],
    )
    def test_local_branch_is_the_length_ordered_sweep(self, shape, seed, budget):
        s = scale_sample(256, shape, seed)
        result = scale_fit(s, config=AdaptConfig(max_iterations=budget))
        assert result.chosen_branch == "local"
        halvings, weights, iterations, passed = reference_local_sweep(s, budget)
        assert result.start_halvings == halvings
        assert np.array_equal(result.weights, weights)
        assert result.iterations == iterations
        assert result.passed == passed
        assert result.truncated == (not passed) == (budget == 7)

    def test_one_start_search_per_fit(self, count_calls):
        counts = count_calls(adapt_module, "_initial_lambda")
        for q in (2.0, 3.0):
            counts.clear()
            result = scale_fit(scale_sample(256, sin2, 0), config=AdaptConfig(q=q, max_iterations=400))
            assert result.start_halvings > 0
            assert counts == {"_initial_lambda": 1}

    def test_start_reported(self):
        n = 1024
        t = np.arange(1, n + 1) / n
        z = np.random.default_rng([31, 0]).standard_normal(n)
        result = scale_fit(Sample(t, sin2(t) * z))
        assert result.start_capped is False
        assert 0 < result.start_halvings < 60

    def test_accepted_line_reports_no_start(self):
        n = 1024
        t = np.arange(1, n + 1) / n
        z = np.random.default_rng([32, 0]).standard_normal(n)
        result = scale_fit(Sample(t, 2.0 * z))
        assert result.weights is None and result.passed
        assert (result.start_halvings, result.start_capped) == (0, False)
