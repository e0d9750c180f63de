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
    dyadic_family,
    fit,
    make_dataset,
    scale_fit,
    sigma_hat,
    sine,
    solve_weighted,
    v_stat,
)
from adaptspline.variants import CLUSTER_WINDOW, SCALE_FLOOR_FRACTION
from conftest import fingerprint


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
        # five points are enough: the five-point sweep runs alone
        cleaned, mask = clean_outliers(Sample([0.1, 0.2, 0.3, 0.4, 0.5], [1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)
        assert cleaned.y.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0] and not mask.any()

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_needs_positive_finite_sigma(self, sigma):
        # at sigma = 0 every point would be an outlier and the sweeps would
        # run into their cap
        with pytest.raises(ValueError, match="sigma"):
            clean_outliers(grid_sample(400, np.sin(np.linspace(0, 3, 400))), sigma)

    @staticmethod
    def five_point_medians(y):
        """Medians of the centred five-point windows; the two points at
        each end take the median of the three points at that end."""
        n = len(y)
        out = []
        for i in range(n):
            if i < 2:
                window = y[:3]
            elif i > n - 3:
                window = y[n - 3:]
            else:
                window = y[i - 2 : i + 3]
            out.append(sorted(window)[len(window) // 2])
        return out

    @staticmethod
    def seven_point_medians(y):
        """Medians of the centred seven-point windows, moved inward to the
        first or last full window near the ends."""
        n = len(y)
        out = []
        for i in range(n):
            start = min(max(i - 3, 0), n - 7)
            out.append(sorted(y[start : start + 7])[3])
        return out

    def test_running_median_matches_plain_loops(self, rng):
        running_median = variants_module._running_median
        for _ in range(300):
            n = int(rng.integers(5, 41))
            # few distinct values, so windows hold ties, plus a planted cluster
            y = rng.integers(-3, 4, n).astype(float)
            width = int(rng.integers(1, 5))
            start = int(rng.integers(0, n - width + 1))
            y[start : start + width] += rng.choice([-50.0, 50.0]) + rng.integers(0, 3, width)
            ys = y.tolist()
            np.testing.assert_array_equal(running_median(y, 5, 3), self.five_point_medians(ys))
            if n >= CLUSTER_WINDOW:
                np.testing.assert_array_equal(
                    running_median(y, CLUSTER_WINDOW, CLUSTER_WINDOW), self.seven_point_medians(ys)
                )

    def test_raises_at_the_sweep_cap(self, monkeypatch):
        # a five-point median that always flags the first point never settles
        calls = Counter()

        def restless(y, width, edge):
            calls["sweeps"] += 1
            med = y.copy()
            med[0] += 10.0
            return med

        monkeypatch.setattr(variants_module, "_running_median", restless)
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
        # the quantile at 1 is infinite
        with pytest.raises(ValueError, match="gamma must lie strictly between 0 and 1"):
            chisq_quantile(1.0, 5)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_rejects_degrees_of_freedom_that_are_not_finite(self, k):
        # both returned NaN
        with pytest.raises(ValueError, match="degrees of freedom k must be a finite number"):
            chisq_quantile(0.5, k)


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

    @pytest.mark.parametrize("where", ["y", "s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_values_that_are_not_finite(self, where, value):
        # a NaN scale passes the check seg <= 0 and would give nan
        y, s = np.ones(8), np.ones(8)
        (y if where == "y" else s)[5] = value
        with pytest.raises(ValueError, match="finite"):
            v_stat(y, (1, 8), s)


class TestScaleRegionSpec:
    def test_default_coverage(self):
        spec = ScaleRegionSpec(1024)
        assert spec.coverage == pytest.approx(1.0 - 1024.0 ** -1.5, rel=1e-12)

    def test_bounds_bracket_the_mean(self):
        spec = ScaleRegionSpec(256)
        lo, hi = spec.bounds(64)
        assert lo < 64.0 < hi

    def test_validation(self):
        for alpha_n in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="alpha_n must lie strictly between 0 and 1"):
                ScaleRegionSpec(64, alpha_n=alpha_n)

    @pytest.mark.parametrize("n", [0, 2.5, 64.0, True])
    def test_rejects_a_size_that_is_not_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            ScaleRegionSpec(n)

    def test_family_is_the_dyadic_family(self):
        assert ScaleRegionSpec(100, 0.9).family is dyadic_family(100)


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
        # no search ran: the start fields and the trace say so
        assert result.start_halvings == 0 and result.start_capped is False and result.trace == ()
        assert result.chosen_branch == "local"
        assert (result.iterations, result.weights, result.pinned_intervals) == (0, None, 0)

    def test_pass_verified_by_independent_recomputation(self):
        n = 512
        t = np.arange(1, n + 1) / n
        z = np.random.default_rng([903, 0]).standard_normal(n)
        y = (1.0 + t) * z
        spec = ScaleRegionSpec(n)
        result = scale_fit(Sample(t, y))
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
        # max |y| is below 2**-503 (1e-160, 1e-200) or at least 2**512
        # (1e154): the fit to y**2 is not representable in data units
        z = np.random.default_rng(1).standard_normal(64)
        with pytest.raises(ValueError, match=r"max \|y\| in \[2\*\*-503, 2\*\*512\)"):
            scale_fit(grid_sample(64, c * z))

    def test_scale_follows_the_data_across_the_range(self):
        z = np.random.default_rng(1).standard_normal(64)
        ref = scale_fit(grid_sample(64, z)).scale_values()
        small = scale_fit(grid_sample(64, 1e-150 * z))
        np.testing.assert_allclose(small.scale_values() / 1e-150, ref, rtol=1e-12)
        # the roughness of the spline fitted to y**2 grows as y**4; past
        # the double range it reads inf, and the scale is unaffected
        big = scale_fit(grid_sample(64, 1e150 * z))
        np.testing.assert_allclose(big.scale_values() / 1e150, ref, rtol=1e-12)

    def test_needs_eight_points(self):
        with pytest.raises(ValueError):
            scale_fit(grid_sample(6, np.ones(6)))

    def test_defaults(self):
        s = scale_sample(256, sin2, 0)
        assert fingerprint(scale_fit(s)) == fingerprint(scale_fit(s, alpha_n=None, q=2.0, max_iterations=400))

    @pytest.mark.parametrize("knob", [dict(q=1.0), dict(max_iterations=0), dict(alpha_n=1.5)])
    def test_rejects_knobs_out_of_range(self, knob):
        with pytest.raises(ValueError):
            scale_fit(grid_sample(64, np.ones(64)), **knob)

    def test_truncation_flag_on_tiny_budget(self):
        n = 256
        t = np.arange(1, n + 1) / n
        z = np.random.default_rng([904, 0]).standard_normal(n)
        result = scale_fit(Sample(t, np.sin(4 * np.pi * t) ** 2 * z), max_iterations=1)
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


def band_violations(sample):
    """The chi-squared band test of ``scale_fit``, written out from its
    docstring: the mask of the enforceable intervals whose sum of y**2 over
    the squared scale of a fit to y**2 leaves its band."""
    n, y2 = sample.n, sample.y * sample.y
    spec = ScaleRegionSpec(n)
    lo, hi = spec.family.lo, spec.family.hi
    sizes = hi - lo + 1
    lower = np.array([spec.bounds(k)[0] for k in sizes])
    upper = np.array([spec.bounds(k)[1] for k in sizes])
    floor = SCALE_FLOOR_FRACTION * float(np.max(np.abs(sample.y)))

    def v(scale):
        c = np.concatenate(([0.0], np.cumsum(y2 / (scale * scale))))
        return c[hi] - c[lo - 1]

    pinned = v(np.full(n, floor)) < lower

    def violating(values):
        vs = v(np.maximum(np.sqrt(np.maximum(values, 0.0)), floor))
        return ((vs < lower) | (vs > upper)) & ~pinned

    return violating


def reference_start(sample, init_tolerance=1e-3):
    """The start search of ``scale_fit``: halve an equal weight from 1 until
    the fit to y**2 hugs its least squares line.  Returns the halvings and
    the start fit."""
    n, t, target = sample.n, sample.t, Sample(sample.t, sample.y * sample.y)
    slope, intercept = np.polyfit(t, target.y, 1)
    line = intercept + slope * t
    halvings = 0
    while True:
        current = solve_weighted(target, np.full(n, 2.0 ** -halvings))
        if np.max(np.abs(current.values - line)) <= init_tolerance * target.spread() or halvings == 60:
            return halvings, current
        halvings += 1


def reference_local_sweep(sample, budget, q=2.0):
    """The locally adaptive sweep of ``scale_fit``, written out from its docstring.

    Returns the start halvings, the final weights, the bumps made and
    whether every enforceable band holds.
    """
    n, target = sample.n, Sample(sample.t, sample.y * sample.y)
    spec = ScaleRegionSpec(n)
    lo, hi = spec.family.lo, spec.family.hi
    sizes = hi - lo + 1
    band = band_violations(sample)
    halvings, current = reference_start(sample)
    weights = np.full(n, 2.0 ** -halvings)
    # finish each interval size, shortest first, then re-sweep until all hold
    iterations = 0
    while True:
        for size in np.unique(sizes):
            while (bad := band(current.values) & (sizes == size)).any():
                if iterations == budget:
                    return halvings, weights, iterations, False
                covered = np.zeros(n, dtype=bool)
                for a, b in zip(lo[bad], hi[bad]):
                    covered[a - 1 : b] = True
                weights = np.where(covered, weights * q, weights)
                current = solve_weighted(target, weights)
                iterations += 1
        if not band(current.values).any():
            return halvings, weights, iterations, True


def reference_climb(sample, budget, q):
    """The equal-weight branch of ``scale_fit`` rung by rung: from the start
    weight, solve every rung with ``solve_weighted`` and judge it with the
    bands, until one passes or ``budget`` bumps are spent.  Returns the
    final fit, its weight, the bumps, the verdict and, in climb order, the
    (weight, violations, roughness) of every rung."""
    target = Sample(sample.t, sample.y * sample.y)
    band = band_violations(sample)
    halvings, _ = reference_start(sample)
    lam, bumps, seen = 2.0 ** -halvings, 0, []
    while True:
        current = solve_weighted(target, np.full(sample.n, lam))
        bad = band(current.values)
        seen.append((lam, int(np.count_nonzero(bad)), current.roughness))
        if not bad.any() or bumps == budget:
            return current, lam, bumps, not bad.any(), seen
        lam *= q
        bumps += 1


def nonmonotone_sample():
    """An input whose band verdicts pass on a rung below a failing one."""
    n = 1024
    t = np.arange(1, n + 1) / n
    z = np.random.default_rng([5, 4, n]).standard_normal(n)
    return Sample(t, (sin2(t) + 0.05) * z)


class TestScaleFitEngine:
    """``scale_fit`` runs on the engine of the mean fits; pin what it computes."""

    @pytest.mark.parametrize("budget", [1, 7, 400])
    @pytest.mark.parametrize("shape", [sin2, step, lambda t: 1.0 + t])
    def test_fit_is_the_solve_at_its_weights(self, shape, budget):
        s = scale_sample(256, shape, 0)
        result = scale_fit(s, max_iterations=budget)
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
        result = scale_fit(s, max_iterations=budget)
        assert result.chosen_branch == "local"
        halvings, weights, iterations, passed = reference_local_sweep(s, budget)
        assert result.start_halvings == halvings
        assert np.array_equal(result.weights, weights)
        assert result.iterations == iterations
        assert result.passed == passed
        assert result.truncated == (not passed) == (budget == 7)

    def test_global_branch_climbs_rung_by_rung(self, monkeypatch):
        # the chi-squared verdicts need not be monotone along the equal-weight
        # rungs; here the climb passes at rung 23 and the global branch wins,
        # while a bracket over the rungs ends on a rougher passing rung and
        # leaves the win to the local branch
        s = nonmonotone_sample()
        result = scale_fit(s, q=2.0, max_iterations=200)
        assert (result.chosen_branch, result.iterations, result.passed) == ("global", 23, True)
        huge = scale_fit(s, q=2.0, max_iterations=10**6)
        for field in dataclasses.fields(result):
            a, b = getattr(result, field.name), getattr(huge, field.name)
            if field.name == "s":
                assert np.array_equal(a.values, b.values) and a.roughness == b.roughness
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b
        engine = variants_module._adapt
        monkeypatch.setattr(
            variants_module, "_adapt", lambda *args, **kwargs: engine(*args, **kwargs, monotone=True))
        bracketed = scale_fit(s, q=2.0, max_iterations=200)
        assert (bracketed.chosen_branch, bracketed.iterations) == ("local", 115)

    def test_one_start_search_per_fit(self, count_calls):
        counts = count_calls(adapt_module, "_initial_lambda")
        for q in (2.0, 3.0):
            counts.clear()
            result = scale_fit(scale_sample(256, sin2, 0), q=q, max_iterations=400)
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

    @pytest.mark.parametrize("budget", [1, 7, 400])
    @pytest.mark.parametrize("shape", [sin2, step, lambda t: 0.2 + 3.0 * t, lambda t: 1.0 + t])
    def test_trace_judges_every_examined_fit(self, shape, budget):
        # on 1 + t the line of y**2 is accepted
        s = scale_sample(256, shape, 1)
        result = scale_fit(s, max_iterations=budget)
        band = band_violations(s)
        # the least squares line of y**2, at weight 0, then one entry per
        # examined fit: the start fit and one per bump, for either branch
        line = np.polyval(np.polyfit(s.t, s.y * s.y, 1), s.t)
        first, last = result.trace[0], result.trace[-1]
        assert (first.lambda_min, first.lambda_max, first.roughness) == (0.0, 0.0, 0.0)
        assert first.violations == np.count_nonzero(band(line))
        if result.weights is None:
            assert result.trace == (first,) and result.passed
            return
        assert len(result.trace) == result.iterations + 2
        assert all(e.max_abs_w is None for e in result.trace)
        # the last entry judges the final fit
        assert last.violations == np.count_nonzero(band(result.s.values))
        assert (last.violations == 0) == result.passed
        assert (last.lambda_min, last.lambda_max) == (result.weights.min(), result.weights.max())
        assert last.roughness == result.s.roughness

    def test_no_trace_without_a_run(self):
        assert scale_fit(grid_sample(64, np.zeros(64))).trace == ()

    @pytest.mark.parametrize(
        "shape", [sin2, step, lambda t: 0.2 + np.exp(-50.0 * (t - 0.5) ** 2), lambda t: np.exp(2.0 * t)])
    def test_global_branch_is_a_climb_over_every_rung(self, monkeypatch, shape):
        # the global branch alone, on 33 inputs: it reads every rung in turn
        engine = variants_module._adapt
        monkeypatch.setattr(variants_module, "_adapt", lambda *args, **kwargs: engine(*args, ("global",), **kwargs))
        cases = [(scale_sample(n, shape, seed), q, budget)
                 for n in (64, 256) for seed in (0, 1) for q, budget in ((2.0, 400), (3.0, 7))]
        if shape is sin2:
            cases.append((nonmonotone_sample(), 2.0, 400))
        truncated = 0
        for s, q, budget in cases:
            result = scale_fit(s, q=q, max_iterations=budget)
            current, lam, bumps, passed, seen = reference_climb(s, budget, q)
            assert result.chosen_branch == "global"
            assert np.array_equal(result.s.values, current.values)
            assert np.array_equal(result.s.second_derivs, current.second_derivs)
            assert result.s.roughness == current.roughness
            assert np.array_equal(result.weights, np.full(s.n, lam))
            assert (result.iterations, result.passed) == (bumps, passed)
            assert all(e.lambda_min == e.lambda_max for e in result.trace[1:])
            assert [(e.lambda_min, e.violations, e.roughness) for e in result.trace[1:]] == seen
            truncated += not passed
        assert 0 < truncated < len(cases)


def without_ceiling(monkeypatch):
    """Make ``scale_fit`` run its companion in full, as a mean fit does."""
    engine = variants_module._adapt
    monkeypatch.setattr(variants_module, "_adapt",
                        lambda *args, **kwargs: engine(*args, **dict(kwargs, chosen_only=False)))


class TestCompanionCeiling:
    """Once the local branch has passed, the scale fit's companion stops at
    its first rejected rung as rough as the local fit; the result must not
    notice."""

    @staticmethod
    def cases():
        shapes = [sin2, step, lambda t: 1.0 + t, lambda t: sin2(t) + 0.05]
        knobs = [dict(max_iterations=400), dict(q=3.0, max_iterations=400), dict(max_iterations=7)]
        cases = [(scale_sample(n, shape, seed), knob)
                 for n in (64, 256) for shape in shapes for seed in (0, 1) for knob in knobs]
        # its companion wins, at rung 23: the ceiling must not end it sooner
        cases.append((nonmonotone_sample(), dict(max_iterations=400)))
        # the local branch is cut off and the companion passes, rougher than
        # it: a local fit that failed sets no ceiling
        cases += [(scale_sample(64, step, seed), dict(max_iterations=30)) for seed in (0, 1)]
        return cases

    def test_the_ceiling_changes_no_result(self, monkeypatch, count_calls):
        counts = count_calls(adapt_module, "solve_weighted")
        pruned, solves = [], []
        for s, knob in self.cases():
            counts.clear()
            pruned.append(fingerprint(scale_fit(s, **knob)))
            solves.append(counts["solve_weighted"])
        without_ceiling(monkeypatch)
        full, full_solves = [], []
        for s, knob in self.cases():
            counts.clear()
            full.append(fingerprint(scale_fit(s, **knob)))
            full_solves.append(counts["solve_weighted"])
        assert len(pruned) == 51
        for a, b in zip(pruned, full):
            assert a == b
        assert all(a <= b for a, b in zip(solves, full_solves))
        assert sum(solves) < sum(full_solves)

    def test_nan_roughness_never_ends_the_companion(self, monkeypatch, count_calls, every_roughness):
        # every fit's roughness reads NaN, and a NaN ceiling or rung
        # roughness must not stop the climb
        s = grid_sample(64, 1e150 * np.random.default_rng(1).standard_normal(64))
        counts = count_calls(adapt_module, "solve_weighted")
        every_roughness(math.nan)
        pruned = scale_fit(s)
        made = counts["solve_weighted"]
        assert math.isnan(pruned.s.roughness)
        without_ceiling(monkeypatch)
        counts.clear()
        full = scale_fit(s)
        assert counts["solve_weighted"] == made
        assert fingerprint(pruned) == fingerprint(full)

    def test_exact_solve_count(self, monkeypatch, count_calls):
        # one input of the variants benchmark's kind: the full companion
        # climb made 186 solves, the ceiling leaves 172
        n = 1024
        t = np.arange(1, n + 1) / n
        s = Sample(t, sin2(t) * np.random.default_rng([1, 4, 0]).standard_normal(n))
        counts = count_calls(adapt_module, "solve_weighted")
        result = scale_fit(s)
        assert result.chosen_branch == "local" and result.passed
        assert counts["solve_weighted"] == 172
        without_ceiling(monkeypatch)
        counts.clear()
        assert fingerprint(scale_fit(s)) == fingerprint(result)
        assert counts["solve_weighted"] == 186
