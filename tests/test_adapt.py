import dataclasses
import math

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
    sigma_hat,
    sine,
    solve_weighted,
    RegionSpec,
    SplineFit,
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
        # the search solved every rung; the record keeps the fit of the
        # smallest passing one, and a rung the budget cuts off is solved again
        assert counts["solve_weighted"] == glob.start_halvings + 1 + (not glob.passed)
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
        # the start search solves and judges the rungs 2**-k ... 1, and the
        # shared equal-weight climb reads each of them, so only its weights
        # above 1 are solved; the local branch leaves that climb at once,
        # so each of its bumps is a solve
        assert glob.iterations >= k > 0
        assert shared_climb(local) == 0
        assert made == {
            "sigma_hat": 1,
            "dyadic_family": 1,
            "_initial_lambda": 1,
            "solve_weighted": (k + 1) + local.iterations + (glob.iterations - k),
        }

    def test_each_examined_fit_is_tested_once(self, count_calls):
        # the local branch forks at the start weight, the one tested last,
        # and reads that test's intervals; testing its fork fit again would
        # make these 43 and 73
        tests = count_calls(adapt_module, "_w_test")
        s = bumps_hi(400)
        local = fit_local(s)
        assert tests["_w_test"] == 42
        tests.clear()
        r = fit(s)
        assert tests["_w_test"] == 72
        glob = fit_global(s)
        k = r.start_halvings
        # the line, the rungs of the start search, one test per bump of the
        # local branch and of the global climb above the rungs
        assert shared_climb(local) == 0
        assert 42 == 1 + (k + 1) + local.iterations
        assert 72 == 42 + (glob.iterations - k)

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

    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_work_counts_along_the_shared_climb(self, counts, q):
        s = rupcar_hi(400)
        config = AdaptConfig(q=q)
        r = fit(s, config)
        made = dict(counts)
        local, glob = fit_local(s, config), fit_global(s, config)
        k, m = r.start_halvings, shared_climb(local)
        # the local branch climbs m equal-weight bumps before its violations
        # leave a point uncovered; the global branch reads those m and climbs
        # on.  Each equal weight is solved once: at q = 2 the rungs of the
        # start search are the climb's weights up to 1, at q = 3 only its
        # start.  The fork lies above the rungs, where the climb solved it,
        # so the local branch takes its fit from the record.
        assert m > k > 0
        assert glob.trace[: m + 2] == local.trace[: m + 2]
        climbed = max(m, glob.iterations)
        equal = (k + 1) + (climbed - k if q == 2.0 else climbed)
        assert made == {
            "sigma_hat": 1,
            "dyadic_family": 1,
            "_initial_lambda": 1,
            "solve_weighted": equal + (local.iterations - m),
        }

    @pytest.mark.parametrize("make, masks", [(bumps_hi, 41), (rupcar_hi, 37)])
    def test_coverage_judged_only_while_the_local_branch_shares(self, count_calls, make, masks):
        # the global branch alone never judges coverage, and in ``fit`` the
        # global climb above the local branch's fork judges none either:
        # ``fit`` builds the masks of ``fit_local``, one per weight judged
        # while sharing (the rungs 2**-k ... 1 and the m shared bumps) and
        # one per bump of the sweep
        built = count_calls(adapt_module, "_covered_mask")
        s = make(400)
        fit_global(s)
        assert built["_covered_mask"] == 0
        local = fit_local(s)
        assert built["_covered_mask"] == masks
        built.clear()
        fit(s)
        assert built["_covered_mask"] == masks
        k, m = local.start_halvings, shared_climb(local)
        assert masks == (k + 1) + max(m - k, 0) + (local.iterations - m)

    @pytest.mark.parametrize(
        "preset, seed, solves",
        [("rupcar-hi", 0, 50), ("rupcar-hi", 1, 54), ("rupcar-hi", 2, 48),
         ("bumps-hi", 0, 72), ("bumps-hi", 1, 81), ("bumps-hi", 2, 69)],
    )
    def test_exact_solve_counts(self, counts, preset, seed, solves):
        # rupcar-hi solved 66 / 70 / 64 when each branch solved the shared
        # climb on its own; bumps-hi shares no climb at these seeds
        fn = rupcar(6) if preset == "rupcar-hi" else bumps()
        fit(make_dataset(fn, 400, SIGMA_PRESETS[preset], seed=[12, 400, seed]))
        assert counts["solve_weighted"] == solves


class TestEqualWeightRecord:
    """The record of equal-weight fits that both branches read."""

    N = 8
    ONES = np.arange(1, N + 1)
    PAIRS = np.arange(1, N, 2)

    @classmethod
    def violations(cls, w):
        """A scripted test on a two-group sweep (sizes 1 and 2), by weight."""
        ones, pairs, none = cls.ONES, cls.PAIRS, np.zeros(0, dtype=int)
        if np.all(w == 0.0):
            return ones, ones
        if np.all(w == w[0]):
            lam = w[0]
            if lam == 2.0:
                # group 0 is clean, so the local branch forks here after one
                # shared bump; its sweep finds group 0 clean and bumps every
                # point for group 1, outside the record
                return pairs, pairs + 1
            if lam == 4.0:
                # the sweep, now on group 1, bumps points 1 and 2 only,
                # though group 0 covers every point
                return np.append(ones, 1), np.append(ones, 2)
            return (ones, ones) if lam < 64.0 else (none, none)
        low = np.flatnonzero(w < 32.0) + 1
        return low, low

    @classmethod
    def scripted(cls, fit_, weights):
        w = np.broadcast_to(np.asarray(weights, dtype=float), (cls.N,))
        lo, hi = cls.violations(w)
        return lo.size == 0, lo, hi, (float(w.min()), float(w.max()), lo.size)

    @classmethod
    def reference_local(cls, target, budget):
        """The local sweep from the start weight 1, solving every step."""
        sweep = (1, 2)
        records = [cls.scripted(None, 0.0)[3]]
        weights = np.ones(cls.N)
        current = solve_weighted(target, weights)
        passed, lo, hi, record = cls.scripted(current, weights)
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
            passed, lo, hi, record = cls.scripted(current, weights)
            records.append(record)
            clean = 0
        return current, weights, iterations, passed, tuple(records)

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 200])
    def test_local_branch_equals_a_sweep_that_solves_every_step(self, budget, monkeypatch):
        climbs = []

        def climb(*args):
            climbs.append(real(*args))
            return climbs[-1]

        real = adapt_module._climb
        monkeypatch.setattr(adapt_module, "_climb", climb)
        # on a line every equal-weight fit hugs the line, so the start weight is 1
        t = np.arange(1, self.N + 1) / self.N
        target = Sample(t, 2.0 - t)
        run = adapt_module._adapt(target, self.scripted, (1, 2), AdaptConfig(max_iterations=budget))
        assert run.halvings == 0
        # the local branch's climb: one shared bump, to its fork at 2
        assert climbs[0][:2] == (2.0, 1)
        local = run.branches["local"]
        current, weights, iterations, passed, records = self.reference_local(target, budget)
        assert np.array_equal(local.weights, weights)
        assert local.iterations == iterations
        assert local.passed == passed
        assert local.records == records
        assert np.array_equal(local.fit.values, current.values)
        glob = run.branches["global"]
        assert glob.passed == (budget == 200) and glob.iterations == min(budget, 6)

    def test_keeps_two_fits_at_most(self, monkeypatch):
        made = []

        class Recording(adapt_module._Equal):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(adapt_module, "_Equal", Recording)
        s = make_dataset(rupcar(6), 25600, SIGMA_PRESETS["rupcar-hi"], seed=[12, 25600, 0])
        r = fit(s)
        (equal,) = made
        assert set(vars(equal)) == {"system", "test", "sweep", "sharing", "verdicts", "last", "passing", "tested"}
        # the local branch stopped sharing the climb once its own returned
        assert equal.sharing is False
        assert len(equal.verdicts) > r.start_halvings + 2
        for passed, record, covers in equal.verdicts.values():
            assert isinstance(passed, (bool, np.bool_)) and isinstance(record, adapt_module.TraceEntry)
            assert isinstance(covers, bool)
        kept = [pair for pair in (equal.last, equal.passing) if pair is not None]
        assert all(len(pair) == 2 and isinstance(pair[1], SplineFit) for pair in kept)
        assert len(kept) <= 2
        # of the tests, only the intervals of the last one: one pair of arrays
        lam, lo, hi = equal.tested
        assert lam in equal.verdicts and lo.shape == hi.shape and lo.ndim == 1


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
