import dataclasses
import math

import numpy as np
import pytest

import adaptspline.adapt as adapt_module
from adaptspline import (
    SIGMA_PRESETS,
    AdaptConfig,
    IntervalFamily,
    Sample,
    bumps,
    clean_outliers,
    dyadic_family,
    fit,
    fit_global,
    fit_local,
    in_region,
    make_dataset,
    rupcar,
    sigma_hat,
    sine,
    solve_weighted,
    RegionSpec,
    SplineFit,
)
from conftest import fingerprint


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
        [dict(q=1.0), dict(max_iterations=0), dict(sigma=-1.0), dict(tau=0.0)]
        + [
            {field: value}
            for field in ("q", "tau", "max_iterations", "sigma")
            for value in (math.nan, math.inf)
        ]
        + [dict(sigma=0.0)]
        + [dict(max_iterations=2.5), dict(max_iterations=True)],
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
        # truncated is derived from passed, never stored
        assert not dataclasses.replace(r, passed=True).truncated
        with pytest.raises(TypeError):
            dataclasses.replace(r, truncated=False)


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


def shared_climb(report):
    """Bumps of a local run that kept every weight equal, from its trace."""
    m = 0
    for entry in report.trace[2:]:
        if entry.lambda_min != entry.lambda_max:
            break
        m += 1
    return m


# inputs per preset and sample size in TestGlobalBracket, each fitted at
# q = 2 and 3 with budgets of 12 and 200
SEEDS_PER_CELL = 8


def rungs_read(report, q=2.0):
    """The rungs k of the equal weights 2**-start_halvings * q**k in a
    global trace, in trace order."""
    start = 2.0 ** -report.start_halvings
    return [round(math.log(e.lambda_min / start, q)) for e in report.trace[1:]]


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
    def test_climb_ending_inside_the_ladder(self, counts, max_iterations):
        # smooth data and a loose threshold: the equal-weight branch passes
        # at a weight below 1, on a rung of the start search (or, with a
        # budget of 3, is cut off on one)
        n = 2048
        t = np.arange(1, n + 1) / n
        s = Sample(t, np.sin(2 * np.pi * t) + 0.3 * np.random.default_rng([806, n]).standard_normal(n))
        config = AdaptConfig(tau=100.0, max_iterations=max_iterations)
        glob = fit_global(s, config)
        # the search solved every rung, and the final rung, passing or cut
        # off by the budget, is solved again: the record keeps only the last
        # fit solved, the start fit
        assert counts["solve_weighted"] == glob.start_halvings + 2
        r = fit(s, config)
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
    def counts(self, count_calls):
        return count_calls(adapt_module, "solve_weighted", "sigma_hat", "dyadic_family", "_initial_lambda")

    def test_work_counts_at_q2(self, counts):
        s = bumps_hi(400)
        r = fit(s)
        made = dict(counts)
        local, glob = fit_local(s), fit_global(s)
        k = r.start_halvings
        # the start search solves and judges the rungs 0 ... k (the weights
        # 2**-k ... 1), and the bracket reads them from the record.  It then
        # gallops to the rungs k + 1, k + 3, k + 7, k + 15 and k + 31 = 36,
        # the first that passes, and bisects down through 28, 32, 34 and 35:
        # 9 solves above rung k.  The trace keeps the rungs at or below the
        # final one.  The local branch leaves the equal weights at once, so
        # each of its bumps is a solve.
        assert (k, glob.iterations, shared_climb(local)) == (5, 35, 0)
        assert rungs_read(glob) == [0, 1, 2, 3, 4, 5, 6, 8, 12, 20, 28, 32, 34, 35]
        assert made == {
            "sigma_hat": 1,
            "dyadic_family": 1,
            "_initial_lambda": 1,
            "solve_weighted": (k + 1) + local.iterations + 9,
        }
        assert made["solve_weighted"] == 50

    def test_each_examined_fit_is_tested_once(self, count_calls):
        # the local branch forks at the start weight, the one tested last,
        # and reads that test's intervals; testing its fork fit again would
        # make these 43 and 52
        tests = count_calls(adapt_module, "_w_test")
        s = bumps_hi(400)
        local = fit_local(s)
        assert tests["_w_test"] == 42
        tests.clear()
        r = fit(s)
        assert tests["_w_test"] == 51
        k = r.start_halvings
        # the line, the rungs of the start search, one test per bump of the
        # local branch and one per rung the bracket reads above the rungs
        # of the start search (see test_work_counts_at_q2)
        assert shared_climb(local) == 0
        assert 42 == 1 + (k + 1) + local.iterations
        assert 51 == 1 + (k + 1) + local.iterations + 9

    def test_work_counts_at_q3(self, counts):
        s = bumps_hi(400)
        config = AdaptConfig(q=3.0)
        r = fit(s, config)
        made = dict(counts)
        local, glob = fit_local(s, config), fit_global(s, config)
        k = r.start_halvings
        # the start search solves k + 1 weights and judges only the start
        # weight, rung 0; the bracket gallops to the rungs 1, 3, 7, 15 and
        # 31, the first that passes, and bisects down through 23, 19, 21
        # and 22: 9 solves.  The local branch leaves the equal weights at once.
        assert (k, glob.iterations, shared_climb(local)) == (5, 22, 0)
        assert rungs_read(glob, 3.0) == [0, 1, 3, 7, 15, 19, 21, 22]
        assert made == {
            "sigma_hat": 1,
            "dyadic_family": 1,
            "_initial_lambda": 1,
            "solve_weighted": (k + 1) + local.iterations + 9,
        }
        assert made["solve_weighted"] == 40

    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_work_counts_along_the_shared_climb(self, counts, q):
        s = rupcar_hi(400)
        config = AdaptConfig(q=q)
        r = fit(s, config)
        made = dict(counts)
        local, glob = fit_local(s, config), fit_global(s, config)
        k, m = r.start_halvings, shared_climb(local)
        # the local branch climbs m equal-weight bumps before its violations
        # leave a point uncovered; the bracket reads its rungs up to m from
        # the record and solves the 6 rungs above m that it reads (22, 38,
        # 30, 26, 28, 29 at q = 2; 15, 31, 23, 19, 17, 18 at q = 3).  Each
        # equal weight is solved once: at q = 2 the rungs of the start
        # search are the climb's weights up to 1, at q = 3 only its start.
        # The fork lies above those rungs, where the local climb solved it,
        # so the local branch takes its fit from the record.
        read = rungs_read(glob, q)
        assert (k, m, glob.iterations, read) == {
            2.0: (7, 16, 30, [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 14, 22, 26, 28, 29, 30]),
            3.0: (7, 10, 19, [0, 1, 3, 7, 15, 17, 18, 19]),
        }[q]
        # the rungs both branches read judge the same fits
        for entry, rung in zip(glob.trace[1:], read):
            if rung <= m:
                assert entry == local.trace[1 + rung]
        equal = (k + 1) + (m - k if q == 2.0 else m) + 6
        assert made == {
            "sigma_hat": 1,
            "dyadic_family": 1,
            "_initial_lambda": 1,
            "solve_weighted": equal + (local.iterations - m),
        }
        assert made["solve_weighted"] == {2.0: 43, 3.0: 41}[q]

    @pytest.mark.parametrize("make, masks", [(bumps_hi, 35), (rupcar_hi, 36)])
    def test_one_mask_per_local_bump(self, count_calls, make, masks):
        # the global branch bumps every point and builds no mask; the local
        # branch builds one per bump, equal-weight bumps included, and
        # ``fit`` builds no more than ``fit_local``
        built = count_calls(adapt_module, "_covered_mask")
        s = make(400)
        fit_global(s)
        assert built["_covered_mask"] == 0
        local = fit_local(s)
        assert built["_covered_mask"] == local.iterations == masks
        built.clear()
        fit(s)
        assert built["_covered_mask"] == masks

    @pytest.mark.parametrize("seed, tests", [(0, 42), (1, 46), (2, 42), (3, 43)])
    def test_fork_on_a_rung_is_not_tested_again(self, count_calls, seed, tests):
        # the local branch at n = 1024 leaves its equal weights on a rung of
        # the start search above the start weight; the record keeps that
        # rung's verdict, so the fit there is not tested a second time
        counted = count_calls(adapt_module, "_w_test")
        s = make_dataset(bumps(), 1024, SIGMA_PRESETS["bumps-hi"], seed=[13, 1024, seed])
        local = fit_local(s)
        k, m = local.start_halvings, shared_climb(local)
        assert 0 < m < k
        # the line, the rungs 2**-k ... 1, the equal bumps above 1 (none
        # here) and one test per bump with unequal weights
        assert counted["_w_test"] == tests == 1 + (k + 1) + max(m - k, 0) + (local.iterations - m)

    # each id names the preset, the seed and the solves the global branch
    # made when it climbed the rungs one by one; with rupcar-hi each branch
    # solving the shared climb on its own made that 66 / 70 / 64
    @pytest.mark.parametrize(
        "preset, seed, solves",
        [pytest.param("rupcar-hi", 0, 42, id="rupcar-hi-0-50"),
         pytest.param("rupcar-hi", 1, 47, id="rupcar-hi-1-54"),
         pytest.param("rupcar-hi", 2, 41, id="rupcar-hi-2-48"),
         pytest.param("bumps-hi", 0, 51, id="bumps-hi-0-72"),
         pytest.param("bumps-hi", 1, 60, id="bumps-hi-1-81"),
         pytest.param("bumps-hi", 2, 49, id="bumps-hi-2-69")],
    )
    def test_exact_solve_counts(self, counts, preset, seed, solves):
        fn = rupcar(6) if preset == "rupcar-hi" else bumps()
        fit(make_dataset(fn, 400, SIGMA_PRESETS[preset], seed=[12, 400, seed]))
        assert counts["solve_weighted"] == solves

    @pytest.mark.parametrize(
        "preset, solves",
        [pytest.param("bumps-hi", 50, id="bumps-hi-65"), pytest.param("rupcar-hi", 44, id="rupcar-hi-53")],
    )
    def test_exact_solve_counts_at_large_n(self, counts, preset, solves):
        # ids as above, at n = 25600
        fn = rupcar(6) if preset == "rupcar-hi" else bumps()
        fit(make_dataset(fn, 25600, SIGMA_PRESETS[preset], seed=[5, 25600, 0]))
        assert counts["solve_weighted"] == solves


def reference_climb(sample, report, config):
    """The global branch rung by rung, from the report's start weight:
    solve and test every rung with ``solve_weighted`` and ``in_region``
    until one passes or ``max_iterations`` bumps are spent.  Returns the
    final fit, its weight, the bumps, the verdict and, by rung weight,
    (max |w|, violations, roughness)."""
    spec = RegionSpec(report.sigma_used, report.tau, sample.n)
    family = dyadic_family(sample.n)
    lam, bumps_made, seen = 2.0 ** -report.start_halvings, 0, {}
    while True:
        current = solve_weighted(sample, np.full(sample.n, lam))
        rep = in_region(sample, current.values, family, spec)
        seen[lam] = (rep.max_abs_w, len(rep.violation_w), current.roughness)
        if rep.passed or bumps_made == config.max_iterations:
            return current, lam, bumps_made, rep.passed, seen
        lam *= config.q
        bumps_made += 1


def assert_global_is_the_climb(report, sample, config):
    """A global report ends where the reference climb does, bit for bit,
    and its trace judges, in increasing weight, rungs that the climb judges
    the same way, the last of them its final fit."""
    current, lam, bumps_made, passed, seen = reference_climb(sample, report, config)
    assert np.array_equal(report.final_fit.values, current.values)
    assert np.array_equal(report.final_fit.second_derivs, current.second_derivs)
    assert report.final_fit.roughness == current.roughness
    assert np.array_equal(report.final_weights, np.full(sample.n, lam))
    assert (report.iterations, report.passed) == (bumps_made, passed)
    weights = [e.lambda_min for e in report.trace[1:]]
    assert weights == sorted(set(weights)) and weights[-1] == lam
    for e in report.trace[1:]:
        assert e.lambda_max == e.lambda_min
        assert (e.max_abs_w, e.violations, e.roughness) == seen[e.lambda_min]


class TestGlobalBracket:
    """The global branch of the mean fits brackets its rungs; it must end
    where climbing them one by one ends."""

    @pytest.mark.parametrize("n", [64, 256, 1000])
    @pytest.mark.parametrize("preset", ["bumps-hi", "rupcar-hi", "bumps-lo", "rupcar-lo"])
    def test_matches_a_climb_that_judges_every_rung(self, preset, n):
        fn = rupcar(6) if preset.startswith("rupcar") else bumps()
        truncated = 0
        for seed in range(SEEDS_PER_CELL):
            s = make_dataset(fn, n, SIGMA_PRESETS[preset], seed=[14, n, seed])
            for q in (2.0, 3.0):
                for max_iterations in (12, 200):
                    config = AdaptConfig(q=q, max_iterations=max_iterations)
                    glob = fit_global(s, config)
                    assert glob.final_weights is not None
                    assert_global_is_the_climb(glob, s, config)
                    truncated += glob.truncated
        # a budget of 12 cuts the climb off on some inputs
        assert truncated > 0

    @pytest.mark.parametrize("q", [2.0, 3.0])
    @pytest.mark.parametrize("seed", range(10))
    def test_robust_fits_match_the_climb(self, seed, q):
        data = make_dataset(sine(), 256, 0.3, noise="cauchy", seed=[15, seed])
        cleaned, _ = clean_outliers(data, sigma_hat(data))
        config = AdaptConfig(q=q)
        glob = fit_global(cleaned, config)
        assert_global_is_the_climb(glob, cleaned, config)
        both = fit(cleaned, config)
        assert (both.roughness_global, both.truncated_global) == (glob.roughness, glob.truncated)

    def test_a_huge_budget_changes_nothing(self, count_calls):
        # the rungs are built up to the highest one read, not up to the budget
        solves = count_calls(adapt_module, "solve_weighted")
        s = bumps_hi(400)
        base = fit(s, AdaptConfig(max_iterations=200))
        made = solves["solve_weighted"]
        solves.clear()
        huge = fit(s, AdaptConfig(max_iterations=10**6))
        assert solves["solve_weighted"] == made
        assert_same_fit(huge, base)
        assert (huge.roughness_global, huge.chosen_branch) == (base.roughness_global, base.chosen_branch)

    @pytest.mark.parametrize("k", [510, 520, 530])
    def test_an_overflowed_roughness_sets_no_ceiling(self, k, every_roughness):
        # every rung's roughness reads inf, as an overflowed one would; with
        # no accepted fit to beat, that must not end the branch
        s = make_dataset(bumps(), 400, SIGMA_PRESETS["bumps-hi"], seed=[5, 400, 0])
        base = fit_global(s)
        assert base.passed and base.iterations == 34
        scaled = Sample(s.t, 2.0**k * s.y)
        every_roughness(math.inf)
        glob = fit_global(scaled)
        both = fit(scaled)
        assert (glob.iterations, glob.passed) == (base.iterations, base.passed)
        assert np.array_equal(glob.final_fit.values, 2.0**k * base.final_fit.values)
        assert np.array_equal(glob.final_weights, base.final_weights)
        assert both.truncated_global is False


class TestEqualWeightRecord:
    """The record of equal-weight fits that both branches read."""

    N = 8
    # a two-group sweep: the singletons 1..8, then the pairs (1, 2) ... (7, 8)
    FAMILY = IntervalFamily(np.r_[1:N + 1, 1:N:2], np.r_[1:N + 1, 2:N + 1:2], N)
    ONES = FAMILY.sizes == 1

    @classmethod
    def violations(cls, w):
        """A scripted test on the two-group sweep, by weight: the mask of
        violating intervals."""
        ones = cls.ONES
        if np.all(w == 0.0):
            return ones
        if np.all(w == w[0]):
            lam = w[0]
            if lam == 2.0:
                # group 0 is clean, so the sweep turns to group 1, whose
                # violations cover every point: an equal-weight bump to 4
                return ~ones
            if lam == 4.0:
                # the sweep, still on group 1, bumps points 1 and 2 only,
                # though group 0 covers every point: the first unequal weights
                return ones | (cls.FAMILY.lo == 1) & (cls.FAMILY.hi == 2)
            return ones if lam < 64.0 else np.zeros(len(cls.FAMILY), dtype=bool)
        return np.r_[w < 32.0, np.zeros(cls.N // 2, dtype=bool)]

    @classmethod
    def scripted(cls, fit_, weights):
        """The test: its verdict, violations and, as its statistic, the sum of the weights."""
        w = np.broadcast_to(np.asarray(weights, dtype=float), (cls.N,))
        bad = cls.violations(w)
        return not bad.any(), bad, float(w.sum())

    @classmethod
    def record(cls, roughness, weights):
        """The scripted verdict with the trace record the engine makes of it."""
        w = np.broadcast_to(np.asarray(weights, dtype=float), (cls.N,))
        passed, bad, stat = cls.scripted(None, weights)
        return passed, bad, adapt_module.TraceEntry(stat, int(bad.sum()), float(w.min()), float(w.max()), roughness)

    @classmethod
    def reference_local(cls, target, budget):
        """The local sweep from the start weight 1, solving every step."""
        sweep = (1, 2)
        records = [cls.record(0.0, 0.0)[2]]
        weights = np.ones(cls.N)
        current = solve_weighted(target, weights)
        passed, bad, record = cls.record(current.roughness, weights)
        lo, hi = cls.FAMILY.lo[bad], cls.FAMILY.hi[bad]
        records.append(record)
        iterations = clean = group = 0
        while clean < len(sweep):
            keep = hi - lo + 1 == sweep[group]
            if not keep.any():
                clean += 1
                group = (group + 1) % len(sweep)
                continue
            if iterations >= budget:
                break
            covered = np.zeros(cls.N, dtype=bool)
            for a, b in zip(lo[keep], hi[keep]):
                covered[a - 1 : b] = True
            weights = np.where(covered, weights * 2.0, weights)
            current = solve_weighted(target, weights)
            iterations += 1
            passed, bad, record = cls.record(current.roughness, weights)
            lo, hi = cls.FAMILY.lo[bad], cls.FAMILY.hi[bad]
            records.append(record)
            clean = 0
        return current, weights, iterations, passed, tuple(records)

    @pytest.fixture
    def made(self, monkeypatch):
        """The records the runs of a test build, in order."""
        made = []

        class Recording(adapt_module._Equal):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(adapt_module, "_Equal", Recording)
        return made

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 200])
    def test_local_branch_equals_a_sweep_that_solves_every_step(self, budget, made):
        # on a line every equal-weight fit hugs the line, so the start weight is 1
        t = np.arange(1, self.N + 1) / self.N
        target = Sample(t, 2.0 - t)
        config = AdaptConfig(max_iterations=budget)
        alone_fit, alone_weights, alone_shared, alone = adapt_module._adapt(
            target, self.FAMILY, self.scripted, (1, 2), config, ("local",), unit=0)
        # alone, the local branch reads its equal weights 1, 2 and 4 from
        # the record and leaves it at its bump of points 1 and 2
        assert sorted(made[0].verdicts) == [1.0, 2.0, 4.0][: budget + 1]
        *_, shared, branches = adapt_module._adapt(target, self.FAMILY, self.scripted, (1, 2), config, unit=0)
        assert shared["start_halvings"] == alone_shared["start_halvings"] == 0
        local = branches["local"]
        current, weights, iterations, passed, records = self.reference_local(target, budget)
        assert np.array_equal(alone_weights, weights)
        assert np.array_equal(alone_fit.values, current.values)
        for branch in (local, alone["local"]):
            # the branch stops on a rung (the weight 2**k) while its weights
            # are equal, and holds its fit and weights once they are not
            if branch.held is not None:
                assert np.array_equal(branch.held[1], weights)
                assert np.array_equal(branch.held[0].values, current.values)
            else:
                assert np.array_equal(np.full(self.N, 2.0**branch.iterations), weights)
            assert branch.iterations == iterations
            assert branch.passed == passed
            assert branch.records == records
        assert (local.held is not None) == (budget >= 3)
        glob = branches["global"]
        assert glob.passed == (budget == 200) and glob.held is None and glob.iterations == min(budget, 6)

    def test_keeps_one_fit(self, made):
        s = make_dataset(rupcar(6), 25600, SIGMA_PRESETS["rupcar-hi"], seed=[12, 25600, 0])
        r = fit(s)
        (equal,) = made
        count = len(dyadic_family(s.n))
        assert set(vars(equal)) == {"system", "test", "count", "q", "rungs", "judged", "top", "verdicts", "last"}
        assert equal.count == count
        assert len(equal.verdicts) > r.start_halvings + 2
        # per weight a verdict, a trace record and the violations packed
        # to one bit per interval of the family
        for lam, (passed, packed, record) in equal.verdicts.items():
            assert isinstance(passed, (bool, np.bool_)) and isinstance(record, adapt_module.TraceEntry)
            assert packed.dtype == np.uint8 and packed.shape == (-(-count // 8),)
            judged, bad, again = equal.judge(lam)
            assert (judged, again) == (passed, record)
            assert bad.dtype == bool and bad.shape == (count,) and np.count_nonzero(bad) == record.violations
        assert len(equal.last) == 2 and isinstance(equal.last[1], SplineFit)

    @pytest.mark.parametrize("q", [1.7, 3.0])
    def test_every_weight_read_is_one_rung_of_the_ladder(self, made, monkeypatch, q):
        read = []

        class Reading(adapt_module._Equal):
            def judge(self, lam):
                read.append(lam)
                return super().judge(lam)

        monkeypatch.setattr(adapt_module, "_Equal", Reading)
        s = make_dataset(rupcar(6), 400, SIGMA_PRESETS["rupcar-hi"], seed=[5, 400, 0])
        r = fit(s, AdaptConfig(q=q))
        (equal,) = made
        # rung k is the start weight multiplied by q k times
        lam = 2.0**-r.start_halvings
        for rung in equal.rungs:
            assert rung == lam
            lam *= q
        # away from q = 2 the start search judges only rung 0, so every
        # weight judged is a rung that the local climb or the bracket read,
        # and each has one verdict
        assert equal.judged == 1
        assert set(read) <= set(equal.rungs)
        assert set(equal.verdicts) == set(read)
        # the local climb reads the rungs 0 ... m before its weights part,
        # and the bracket those of the global trace, which wins
        m = {1.7: 20, 3.0: 10}[q]
        assert set(equal.rungs[: m + 1]) <= set(read)
        assert r.chosen_branch == "global" and {e.lambda_min for e in r.trace[1:]} <= set(read)

    def test_ceiling_ends_the_companion_on_a_rung_of_the_start_search(self, made, count_calls):
        # a curved target, so that the start search halves k times and, at
        # q = 2, judges the rungs 0 ... k.  Every equal weight fails on point
        # 1 alone, so the local branch bumps it once and passes
        t = np.arange(1, self.N + 1) / self.N
        target = Sample(t, np.sin(3.0 * t))
        single = (self.FAMILY.lo == 1) & (self.FAMILY.hi == 1)

        def scripted(fit_, weights):
            bad = single if np.ndim(weights) == 0 else np.zeros(len(self.FAMILY), dtype=bool)
            return not bad.any(), bad, None

        solves = count_calls(adapt_module, "solve_weighted")
        outcome = adapt_module._adapt(target, self.FAMILY, scripted, (1, 2), AdaptConfig(), chosen_only=True, unit=0)
        equal, (local, glob) = made[0], outcome[3].values()
        k, ceiling = outcome[2]["start_halvings"], local.records[-1].roughness
        assert local.passed and local.iterations == 1 and outcome[2]["chosen_branch"] == "local"
        # rung 1, judged by the start search, fails as rough as the local
        # fit: the companion stops there, though its fit was not the last
        # one solved (that is the start fit, rung 0)
        assert equal.judged == k + 1 > 1 and equal.last[0] == equal.rung(0)
        assert glob.records[1].roughness < ceiling <= glob.records[2].roughness
        assert (glob.held, glob.iterations, glob.passed, len(glob.records)) == (None, 1, False, 3)
        # the start search and the local bump.  A rule that let only the
        # last fit solved end the climb would read rungs 2 ... k from the
        # record and end on rung k + 1, one solve more
        assert k == 3 and solves["solve_weighted"] == (k + 1) + 1
        solves.clear()
        full = adapt_module._adapt(target, self.FAMILY, scripted, (1, 2), AdaptConfig(), chosen_only=False, unit=0)
        assert fingerprint(outcome[:3]) == fingerprint(full[:3])
        glob = full[3]["global"]
        assert glob.held is None and glob.iterations == 200 and solves["solve_weighted"] == (k + 1) + 1 + (200 - k)


class TestTraceViolations:
    @pytest.mark.parametrize("max_iterations", [2, 200])
    @pytest.mark.parametrize("run", [fit_local, fit_global])
    @pytest.mark.parametrize("make", [bumps_hi, rupcar_hi])
    def test_last_entry_counts_the_region_report(self, make, run, max_iterations):
        s = make(400)
        r = run(s, AdaptConfig(max_iterations=max_iterations))
        rep = in_region(s, r.final_fit.values, dyadic_family(s.n), RegionSpec(r.sigma_used, r.tau, s.n))
        last = r.trace[-1]
        assert last.violations == len(rep.violations)
        assert last.max_abs_w == rep.max_abs_w
        assert r.passed == rep.passed

    def test_accepted_line(self):
        t = np.linspace(0.0, 1.0, 50)
        s = Sample(t, 2.0 - t + 1e-3 * np.sin(7.0 * t))
        r = fit(s)
        rep = in_region(s, r.final_fit.values, dyadic_family(s.n), RegionSpec(r.sigma_used, r.tau, s.n))
        assert len(r.trace) == 1 and r.trace[0].violations == len(rep.violations) == 0


class TestZeroSigma:
    """A noise scale of 0 is rejected before any solve, whatever its source."""

    @pytest.fixture
    def solves(self, count_calls):
        return count_calls(adapt_module, "solve_weighted")

    @pytest.mark.parametrize("run", [fit, fit_local, fit_global])
    def test_sample_sigma_zero(self, run, solves):
        s = make_dataset(sine(), 500, 0.1, seed=[807, 0])
        with pytest.raises(ValueError, match="noise scale is 0"):
            run(Sample(s.t, s.y, sigma=0.0))
        assert solves["solve_weighted"] == 0

    @pytest.mark.parametrize("run", [fit, fit_local, fit_global])
    def test_sigma_hat_zero(self, run, solves):
        # integer responses and a constant: most consecutive differences are 0
        s = make_dataset(sine(), 500, 0.1, seed=[807, 0])
        for y in (np.round(s.y), np.full(s.n, 3.0)):
            flat = Sample(s.t, y)
            assert sigma_hat(flat) == 0.0
            with pytest.raises(ValueError, match="sigma_hat"):
                run(flat)
        assert solves["solve_weighted"] == 0

    def test_config_sigma_zero(self):
        with pytest.raises(ValueError, match="positive"):
            AdaptConfig(sigma=0.0)


class TestStartWeightReport:
    def test_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(adapt_module, "_INIT_TOLERANCE", 1e-300)
        s = make_dataset(sine(2), 64, 0.1, seed=[804, 0])
        r = fit(s)
        assert r.start_capped is True
        assert r.start_halvings == 60
        assert fit_local(s).start_capped is True

    def test_default_fit_converges(self):
        r = fit(bumps_hi(400))
        assert r.start_capped is False
        assert 0 < r.start_halvings < 60
        assert r.final_weights.min() >= 2.0 ** -r.start_halvings

    def test_accepted_line_ran_no_search(self):
        t = np.linspace(0.0, 1.0, 50)
        r = fit(Sample(t, 1.0 + t))
        assert (r.start_halvings, r.start_capped) == (0, False)

    def test_the_start_fields_are_keyword_only_and_required(self):
        # a default of 0 / False would stand in for a fit that never set them
        r = fit(bumps_hi(64))
        fields = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
        for name in ("start_halvings", "start_capped"):
            with pytest.raises(TypeError, match=name):
                adapt_module.FitReport(**{k: v for k, v in fields.items() if k != name})
        with pytest.raises(TypeError, match="positional"):
            adapt_module.FitReport(*fields.values())
        assert fingerprint(adapt_module.FitReport(**fields)) == fingerprint(r)


class TestCoveredMask:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_union(self, seed):
        rng = np.random.default_rng([805, seed])
        n = int(rng.integers(1, 40))
        lo = rng.integers(1, n + 1, size=int(rng.integers(1, 12)))
        hi = np.array([rng.integers(a, n + 1) for a in lo])
        # duplicates, and an interval that ends at the last point
        lo = np.concatenate((lo, lo[:2], [n]))
        hi = np.concatenate((hi, hi[:2], [n]))
        expected = np.zeros(n, dtype=bool)
        for a, b in zip(lo, hi):
            expected[a - 1:b] = True
        assert np.array_equal(adapt_module._covered_mask(n, lo, hi), expected)


class TestWeightOverflow:
    """A budget past the last finite weight ends the run truncated there."""

    @pytest.mark.parametrize("budget", [1100, 10**6])
    @pytest.mark.parametrize("run", [fit, fit_local, fit_global])
    def test_ends_truncated_at_the_last_finite_rung(self, run, budget):
        # at sigma = 1e-300 no fit passes, so both branches bump every
        # point until the equal weight 2**-2 * 2**k would overflow
        s = noise_sample(128, 9)
        r = run(s, AdaptConfig(sigma=1e-300, max_iterations=budget))
        assert (r.passed, r.truncated, r.start_halvings, r.iterations) == (False, True, 2, 1025)
        assert np.array_equal(r.final_weights, np.full(s.n, 2.0**1023))
        assert r.trace[-1].lambda_max == 2.0**1023 and np.isfinite(r.final_fit.values).all()
        if run is fit:
            assert (r.truncated_local, r.truncated_global) == (True, True)
        # a budget below the cap runs as before
        below = run(s, AdaptConfig(sigma=1e-300, max_iterations=1000))
        assert (below.passed, below.iterations) == (False, 1000)

    @pytest.mark.parametrize(
        "start, q, top",
        [(1.0, 2.0, 200), (2.0**-60, 2.0, 10**6), (0.25, 3.0, 10**6), (2.0**-7, 1.001, 10**6),
         (1.0, 1.5, 1749), (1.0, 1.5, 1750), (1.0, 1.5, 1751), (1.0, 1.0 + 2.0**-40, 10**6)],
    )
    def test_last_rung_is_the_last_finite_one(self, start, q, top):
        ladder = adapt_module._Equal(None, None, 0, q, top)
        ladder.begin(start, 1)
        k = ladder.top
        lam = start
        for _ in range(k):
            lam *= q
        assert 1 <= k <= top and lam < math.inf
        assert k == top or lam * q == math.inf
