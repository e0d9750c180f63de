from collections import Counter

import numpy as np
import pytest

import adaptspline.adapt as adapt_module
from adaptspline import (
    SIGMA_PRESETS,
    AdaptConfig,
    Sample,
    bumps,
    dyadic_family,
    fit,
    fit_global,
    fit_local,
    in_region,
    make_dataset,
    rupcar,
    sine,
    solve_weighted,
    RegionSpec,
)


def noise_sample(n, seed):
    t = np.arange(1, n + 1) / n
    return Sample(t, np.random.default_rng([800, seed]).standard_normal(n))


def two_peak_sample(n=2000, seed=0, sigma=1.0):
    t = np.arange(1, n + 1) / n
    f = 30.0 * np.exp(-0.5 * ((t - 0.3) / 0.012) ** 2) + 50.0 * np.exp(-0.5 * ((t - 0.7) / 0.008) ** 2)
    z = np.random.default_rng([801, seed]).standard_normal(n)
    return Sample(t, f + sigma * z)


class TestConfig:
    def test_defaults(self):
        c = AdaptConfig()
        assert c.q == 2.0 and c.tau == 3.0 and c.max_iterations == 200

    @pytest.mark.parametrize(
        "kwargs",
        [dict(q=1.0), dict(max_iterations=0), dict(init_tolerance=0.0), dict(sigma=-1.0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdaptConfig(**kwargs)


class TestLineData:
    def test_local_returns_line_at_iteration_zero(self):
        t = np.linspace(0.0, 1.0, 50)
        s = Sample(t, 2.0 + 3.0 * t)
        r = fit_local(s)
        assert r.iterations == 0
        assert r.roughness == 0.0
        assert r.passed and not r.truncated
        assert r.final_weights is None
        np.testing.assert_allclose(r.final_fit.values, s.y, atol=1e-10)

    def test_combined_ties_go_to_local(self):
        t = np.linspace(0.0, 1.0, 50)
        s = Sample(t, 1.0 - 0.5 * t)
        r = fit(s)
        assert r.chosen_branch == "local"
        assert r.roughness_local == 0.0 and r.roughness_global == 0.0


class TestPureNoise:
    def test_final_fit_satisfies_region(self):
        s = noise_sample(512, 0)
        r = fit_local(s)
        assert r.passed
        fam = dyadic_family(s.n)
        spec = RegionSpec(r.sigma_used, r.tau, s.n)
        rep = in_region(s, r.final_fit.values, fam, spec)
        assert rep.passed
        assert rep.max_abs_w <= r.threshold_used
        # smoother than the near-interpolating member of the family
        interp = solve_weighted(s, np.full(s.n, 1e9))
        assert r.roughness < interp.roughness

    def test_global_passes_within_iteration_bound(self):
        for seed in range(10):
            r = fit_global(noise_sample(512, seed))
            assert r.passed
            assert r.iterations <= 80


class TestTraces:
    def test_lambda_bounds_nondecreasing(self):
        s = make_dataset(rupcar(6), 300, 0.05, seed=[5, 1])
        r = fit_local(s)
        entries = r.trace[1:]  # skip the line stage
        for a, b in zip(entries, entries[1:]):
            assert b.lambda_min >= a.lambda_min
            assert b.lambda_max >= a.lambda_max

    def test_global_roughness_trace_nondecreasing(self):
        for seed in range(5):
            s = make_dataset(rupcar(6), 256, 0.05, seed=[6, seed])
            r = fit_global(s)
            rough = [e.roughness for e in r.trace[1:]]
            for a, b in zip(rough, rough[1:]):
                assert b >= a - 1e-9 * max(1.0, a)

    def test_weights_grow_only_on_violations(self):
        s = two_peak_sample()
        r = fit_local(s)
        assert r.passed
        ratio = r.final_weights.max() / r.final_weights.min()
        assert ratio >= 100.0  # strong local adaptation on the peaks


class TestBranchSelection:
    def test_two_peaks_prefer_local(self):
        r = fit(two_peak_sample())
        assert r.chosen_branch == "local"
        assert r.roughness_local < r.roughness_global

    def test_smooth_signal_branches_close(self):
        # on a smooth low-variability signal the two branches land within 10%
        s = make_dataset(sine(2), 512, 0.1, seed=[7, 3])
        r = fit(s)
        hi = max(r.roughness_local, r.roughness_global)
        assert abs(r.roughness_local - r.roughness_global) <= 0.10 * hi

    def test_passing_branch_beats_truncated_one(self):
        s = two_peak_sample(n=500)
        config = AdaptConfig(max_iterations=3)
        r = fit(s, config)
        assert r.truncated_local and r.truncated_global
        assert r.truncated and not r.passed


class TestDeterminismAndEquivariance:
    def test_identical_runs(self):
        s = make_dataset(rupcar(6), 200, 0.05, seed=[8, 0])
        a = fit(s)
        b = fit(s)
        assert np.array_equal(a.final_fit.values, b.final_fit.values)
        assert np.array_equal(a.final_weights, b.final_weights)
        assert a.trace == b.trace

    def test_affine_equivariance_with_fixed_sigma(self):
        s = noise_sample(256, 4)
        config = AdaptConfig(sigma=1.0)
        base = fit_local(s, config)
        shift = 2.0 + 1.5 * s.t
        moved = fit_local(Sample(s.t, s.y + shift), config)
        np.testing.assert_allclose(moved.final_fit.values, base.final_fit.values + shift, atol=1e-9)
        assert moved.iterations == base.iterations
        for a, b in zip(base.trace, moved.trace):
            assert a.lambda_min == b.lambda_min and a.lambda_max == b.lambda_max
            assert a.violations == b.violations

    def test_truncation_reports_instead_of_raising(self):
        s = noise_sample(128, 9)
        config = AdaptConfig(sigma=1e-6, max_iterations=5)  # unreachable region
        r = fit_local(s, config)
        assert r.truncated and not r.passed
        assert r.iterations == 5


def bumps_hi(n, seed=0):
    return make_dataset(bumps(), n, SIGMA_PRESETS["bumps-hi"], seed=[802, n, seed])


def rupcar_hi(n, seed=0):
    return make_dataset(rupcar(6), n, SIGMA_PRESETS["rupcar-hi"], seed=[803, n, seed])


def assert_same_fit(a, b):
    assert np.array_equal(a.final_fit.values, b.final_fit.values)
    assert np.array_equal(a.final_fit.second_derivs, b.final_fit.second_derivs)
    assert a.final_fit.roughness == b.final_fit.roughness
    if a.final_weights is None:
        assert b.final_weights is None
    else:
        assert np.array_equal(a.final_weights, b.final_weights)
    assert a.trace == b.trace
    assert (a.iterations, a.passed, a.truncated) == (b.iterations, b.passed, b.truncated)
    assert (a.start_halvings, a.start_capped) == (b.start_halvings, b.start_capped)


def assert_final_fit_from_its_weights(report, sample):
    """The final fit is the solve at the final weights, and the last trace entry judges it."""
    if report.final_weights is None:
        return
    refit = solve_weighted(sample, report.final_weights)
    assert np.array_equal(report.final_fit.values, refit.values)
    assert np.array_equal(report.final_fit.second_derivs, refit.second_derivs)
    rep = in_region(sample, refit.values, dyadic_family(sample.n), RegionSpec(report.sigma_used, report.tau, sample.n))
    last = report.trace[-1]
    assert (last.max_abs_w, last.violations, last.roughness) == (
        rep.max_abs_w, len(rep.violation_w), refit.roughness)
    assert (last.lambda_min, last.lambda_max) == (report.final_weights.min(), report.final_weights.max())


class TestSharedStart:
    """``fit`` shares one start between its branches; the fits must not notice."""

    @pytest.mark.parametrize("max_iterations", [5, 200])
    @pytest.mark.parametrize("q", [2.0, 3.0])
    @pytest.mark.parametrize("n", [64, 400, 1024])
    @pytest.mark.parametrize("make", [bumps_hi, rupcar_hi])
    def test_fit_equals_its_branches_run_alone(self, make, n, q, max_iterations):
        s = make(n)
        config = AdaptConfig(q=q, max_iterations=max_iterations)
        r = fit(s, config)
        local = fit_local(s, config)
        glob = fit_global(s, config)
        assert_same_fit(r, local if r.chosen_branch == "local" else glob)
        assert_final_fit_from_its_weights(local, s)
        assert_final_fit_from_its_weights(glob, s)
        assert r.roughness_local == local.roughness
        assert r.roughness_global == glob.roughness
        assert r.truncated_local == local.truncated
        assert r.truncated_global == glob.truncated

    @pytest.mark.parametrize("max_iterations", [3, 200])
    def test_climb_ending_inside_the_ladder(self, max_iterations):
        # smooth data and a loose threshold: the equal-weight branch passes
        # at a weight below 1, on a rung of the start search (or, with a
        # budget of 3, is cut off on one)
        n = 2048
        t = np.arange(1, n + 1) / n
        s = Sample(t, np.sin(2 * np.pi * t) + 0.3 * np.random.default_rng([806, n]).standard_normal(n))
        config = AdaptConfig(tau=100.0, max_iterations=max_iterations)
        r = fit(s, config)
        glob = fit_global(s, config)
        assert glob.iterations < glob.start_halvings
        assert glob.passed == (max_iterations == 200)
        assert_final_fit_from_its_weights(glob, s)
        assert_same_fit(r, fit_local(s, config) if r.chosen_branch == "local" else glob)
        assert r.roughness_global == glob.roughness

    def test_accepted_line(self):
        t = np.linspace(0.0, 1.0, 50)
        s = Sample(t, 2.0 - t + 1e-3 * np.sin(7.0 * t))
        r = fit(s)
        assert r.final_weights is None
        assert_same_fit(r, fit_local(s))
        assert_same_fit(r, fit_global(s))

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()

        def counting(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

            return wrapper

        for name in ("solve_weighted", "sigma_hat", "dyadic_family", "_initial_lambda"):
            monkeypatch.setattr(adapt_module, name, counting(name, getattr(adapt_module, name)))
        return counts

    def test_work_counts_at_q2(self, counts):
        s = bumps_hi(400)
        r = fit(s)
        made = dict(counts)
        local, glob = fit_local(s), fit_global(s)
        k = r.start_halvings
        # the equal-weight climb passes every rung of the start search,
        # so all of them are read rather than solved again
        assert glob.iterations >= k > 0
        assert made == {
            "sigma_hat": 1,
            "dyadic_family": 1,
            "_initial_lambda": 1,
            "solve_weighted": (k + 1) + local.iterations + (glob.iterations - k),
        }

    def test_work_counts_at_q3(self, counts):
        s = bumps_hi(400)
        config = AdaptConfig(q=3.0)
        r = fit(s, config)
        made = dict(counts)
        local, glob = fit_local(s, config), fit_global(s, config)
        k = r.start_halvings
        assert made == {
            "sigma_hat": 1,
            "dyadic_family": 1,
            "_initial_lambda": 1,
            "solve_weighted": (k + 1) + local.iterations + glob.iterations,
        }


class TestStartWeightReport:
    def test_cap_is_reported(self):
        s = make_dataset(sine(2), 64, 0.1, seed=[804, 0])
        r = fit(s, AdaptConfig(init_tolerance=1e-300))
        assert r.start_capped is True
        assert r.start_halvings == 60
        assert fit_local(s, AdaptConfig(init_tolerance=1e-300)).start_capped is True

    def test_default_fit_converges(self):
        r = fit(bumps_hi(400))
        assert r.start_capped is False
        assert 0 < r.start_halvings < 60
        assert r.final_weights.min() >= 2.0 ** -r.start_halvings

    def test_accepted_line_ran_no_search(self):
        t = np.linspace(0.0, 1.0, 50)
        r = fit(Sample(t, 1.0 + t))
        assert (r.start_halvings, r.start_capped) == (0, False)
