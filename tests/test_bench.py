import contextlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

import adaptspline.adapt as adapt_module
import adaptspline.bench as bench_module
import adaptspline.multiscale as multiscale_module
import adaptspline.splines as splines_module
from adaptspline import (
    SIGMA_PRESETS,
    Sample,
    StudyConfig,
    affine_fit,
    bumps,
    clean_outliers,
    custom_function,
    fit,
    make_dataset,
    mrise_study,
    prepare_system,
    rise,
    rupcar,
    scale_fit,
    sigma_hat,
    sine,
    solve_weighted,
    study_preset,
    study_rows_to_csv,
    study_rows_to_json,
)


class TestRupcar:
    def test_vanishes_at_the_ends(self):
        f = rupcar(6)
        assert f.f(0.0) == 0.0
        assert f.f(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_matches_high_precision_reference(self):
        # frozen from a 40-digit evaluation of the closed form
        f = rupcar(6)
        assert f.f(0.5) == pytest.approx(-0.47552825814757678606, rel=1e-13)
        assert f.f(0.2) == pytest.approx(0.09572626571502310686, rel=1e-13)

    def test_envelope_bound(self):
        f = rupcar(6)
        x = np.linspace(0.0, 1.0, 5001)
        assert np.all(np.abs(f.f(x)) <= np.sqrt(x * (1.0 - x)) + 1e-12)

    @pytest.mark.parametrize("j", [3, 6])
    def test_derivatives_match_finite_differences(self, j):
        f = rupcar(j)
        x = np.linspace(0.1, 0.9, 41)
        h = 1e-6
        fd1 = (f.f(x + h) - f.f(x - h)) / (2 * h)
        np.testing.assert_allclose(f.df(x), fd1, rtol=1e-5, atol=1e-4)
        fd2 = (f.f(x + h) - 2 * f.f(x) + f.f(x - h)) / (h * h)
        np.testing.assert_allclose(f.d2f(x), fd2, rtol=1e-3, atol=1.0)


class TestBumps:
    def test_nonnegative(self):
        f = bumps()
        x = np.linspace(0.0, 1.0, 4001)
        assert np.all(f.f(x) >= 0.0)

    def test_small_far_from_centers(self):
        assert bumps().f(0.95) < 0.2

    def test_maximum_near_a_center(self):
        f = bumps()
        x = np.linspace(0.0, 1.0, 10001)
        vals = f.f(x)
        peak = x[np.argmax(vals)]
        centers = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.40, 0.44, 0.65, 0.76, 0.78, 0.81])
        assert np.min(np.abs(peak - centers)) < 0.01

    def test_numerical_derivatives_consistent(self):
        f = bumps()
        x = np.linspace(0.05, 0.95, 31)
        h = 1e-4
        coarse = (f.f(x + h) - f.f(x - h)) / (2 * h)
        np.testing.assert_allclose(f.df(x), coarse, rtol=2e-3, atol=2e-3)


class TestMakeDataset:
    def test_noise_free_reproduces_signal(self):
        f = sine()
        s = make_dataset(f, 50, 0.0, seed=1)
        np.testing.assert_array_equal(s.y, f.f(s.t))
        np.testing.assert_allclose(s.t, np.arange(1, 51) / 50)

    def test_seed_reproducibility(self):
        a = make_dataset(rupcar(6), 100, 0.1, seed=[1, 2])
        b = make_dataset(rupcar(6), 100, 0.1, seed=[1, 2])
        assert np.array_equal(a.y, b.y)
        c = make_dataset(rupcar(6), 100, 0.1, seed=[1, 3])
        assert not np.array_equal(a.y, c.y)

    def test_gaussian_noise_variance(self):
        f = sine()
        s = make_dataset(f, 100000, 0.5, seed=7)
        resid = s.y - f.f(s.t)
        assert np.var(resid) == pytest.approx(0.25, rel=0.02)

    def test_cauchy_mode(self):
        s = make_dataset(sine(), 1000, 1.0, noise="cauchy", seed=3)
        resid = s.y - sine().f(s.t)
        assert np.max(np.abs(resid)) > 20.0  # heavy tails present

    def test_validation(self):
        with pytest.raises(ValueError):
            make_dataset(sine(), 2, 1.0)
        with pytest.raises(ValueError):
            make_dataset(sine(), 10, 1.0, noise="laplace")

    @pytest.mark.parametrize("n", [400.5, 400.0, True])
    def test_rejects_non_integer_n(self, n):
        # 400.5 used to fail on the design ("design points must lie in [0, 1]")
        with pytest.raises(ValueError, match="integer n"):
            make_dataset(sine(), n, 0.1)

    @pytest.mark.parametrize("sigma", [-0.3, np.nan, np.inf, -np.inf])
    def test_rejects_bad_sigma(self, sigma):
        # a negative sigma would mirror the noise; NaN and inf would fail on the data
        with pytest.raises(ValueError, match="sigma must be a nonnegative finite number"):
            make_dataset(sine(), 50, sigma, seed=1)


class TestRise:
    def test_zero_for_matching_fit(self):
        t = np.arange(1, 201) / 200
        line = affine_fit(t, 0.3, 0.5)
        truth = custom_function("line", lambda x: 0.3 + 0.5 * np.asarray(x))
        assert rise(truth, line, 0) < 1e-12

    def test_constant_offset(self):
        t = np.arange(1, 101) / 100
        fitted = affine_fit(t, 0.25, 0.0)
        truth = custom_function("zero", lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        assert rise(truth, fitted, 0) == pytest.approx(0.25, rel=1e-3)

    def test_grid_refinement_stable(self):
        # smooth error profile: refining the quadrature grid moves the
        # result by less than 0.1 percent
        f = sine()
        s = make_dataset(f, 400, 0.0, seed=0)
        fitted = solve_weighted(s, np.full(400, 1.0))
        for order in (0, 1, 2):
            a = rise(f, fitted, order, grid=4096)
            b = rise(f, fitted, order, grid=16384)
            assert abs(a - b) <= 1e-3 * a

    def test_order_validation(self):
        t = np.arange(1, 11) / 10
        with pytest.raises(ValueError):
            rise(sine(), affine_fit(t, 0.0, 1.0), 3)
        # the trapezoid rule needs two nodes
        for grid in (0, 1, 2.5, True):
            with pytest.raises(ValueError, match="grid"):
                rise(sine(), affine_fit(t, 0.0, 1.0), 0, grid=grid)
        assert rise(sine(), affine_fit(t, 0.0, 1.0), 0, grid=2) > 0.0


class TestStudy:
    def test_single_replicate_equals_direct_rise(self):
        from adaptspline import fit as adapt_fit

        f = rupcar(6)
        config = StudyConfig(function=f, sigma=0.05, n_grid=(100,), replicates=1, seed=5)
        rows = mrise_study(config)
        data = make_dataset(f, 100, 0.05, seed=[5, 100, 0])
        report = adapt_fit(data)
        expected = {order: rise(f, report.final_fit, order) for order in (0, 1, 2)}
        for row in rows:
            assert row["mrise"] == pytest.approx(expected[row["order"]], rel=1e-12)

    @pytest.mark.parametrize("estimator", ["wss", "global-only"])
    def test_rows_equal_public_rise_bit_for_bit(self, estimator):
        from adaptspline import fit as adapt_fit
        from adaptspline import fit_global

        config = study_preset("bumps-hi", n_grid=(64, 128), replicates=3, seed=7, estimator=estimator)
        runner = adapt_fit if estimator == "wss" else fit_global
        expected = []
        for n in config.n_grid:
            errors = {0: [], 1: [], 2: []}
            for rep in range(config.replicates):
                data = make_dataset(config.function, n, config.sigma, seed=[7, n, rep])
                final = runner(data).final_fit
                for order in (0, 1, 2):
                    errors[order].append(rise(config.function, final, order))
            expected += [float(np.median(errors[order])) for order in (0, 1, 2)]
        assert [row["mrise"] for row in mrise_study(config)] == expected

    def test_bit_reproducible(self):
        config = StudyConfig(function=sine(), sigma=0.2, n_grid=(64,), replicates=3, seed=9)
        assert mrise_study(config) == mrise_study(config)
        # the second run finds the families of the first one
        config = study_preset("bumps-hi", n_grid=(64, 128), replicates=3, seed=9)
        assert mrise_study(config) == mrise_study(config)

    def test_grid_arrays_built_once_per_sample_size(self, count_calls):
        # the signal on the design, the located RISE grid and the family
        # depend on n only; the replicates add their noise
        ns = SimpleNamespace(f=bumps().f)
        fn = custom_function("counted", lambda x: ns.f(x))
        counts = count_calls(ns, "f")
        count_calls(bench_module, "_locate", "_noisy")
        count_calls(multiscale_module, "IntervalFamily")
        multiscale_module.dyadic_family.cache_clear()
        config = StudyConfig(function=fn, sigma=0.3, n_grid=(64, 100), replicates=3, seed=2)
        rows = mrise_study(config)
        # f: the truth on the RISE grid, then the signal once per n (the
        # derivatives are central differences of f, three calls each)
        assert counts == {"f": 1 + 2 + 3 + 2, "_locate": 2, "_noisy": 6, "IntervalFamily": 2}
        assert mrise_study(config) == rows
        assert counts["IntervalFamily"] == 2

    def test_rows_schema_and_writers(self, tmp_path):
        config = StudyConfig(function=sine(), sigma=0.2, n_grid=(64, 128), replicates=2, seed=1)
        rows = mrise_study(config)
        assert len(rows) == 6
        assert all(
            set(r) == {"function", "n", "sigma", "order", "mrise", "replicates", "seed"}
            for r in rows
        )
        csv_path = tmp_path / "study.csv"
        json_path = tmp_path / "study.json"
        study_rows_to_csv(rows, csv_path)
        study_rows_to_json(rows, json_path)
        header = csv_path.read_text().splitlines()[0]
        assert header == "function,n,sigma,order,mrise,replicates,seed"
        import json

        assert json.loads(json_path.read_text()) == rows

    def test_presets(self):
        assert SIGMA_PRESETS["rupcar-lo"] == pytest.approx(0.288 / 3)
        assert SIGMA_PRESETS["rupcar-hi"] == pytest.approx(0.288 / 7)
        assert SIGMA_PRESETS["bumps-lo"] == pytest.approx(2.2 / 3)
        assert SIGMA_PRESETS["bumps-hi"] == pytest.approx(2.2 / 7)
        config = study_preset("bumps-hi", replicates=2, n_grid=(64,))
        assert config.function.name == "bumps"
        assert config.sigma == pytest.approx(2.2 / 7)
        with pytest.raises(ValueError):
            study_preset("doppler-hi")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(function=sine(), sigma=-1.0)
        with pytest.raises(ValueError):
            StudyConfig(function=sine(), sigma=1.0, replicates=0)
        with pytest.raises(ValueError):
            StudyConfig(function=sine(), sigma=1.0, estimator="pspl")
        with pytest.raises(ValueError):
            StudyConfig(function=sine(), sigma=math.nan)

    @pytest.mark.parametrize(
        "n_grid", [(), (400.0,), (400, 2), (True, 400), 400, (np.float64(64),), ("64",)]
    )
    def test_rejects_grids_it_cannot_run(self, n_grid):
        with pytest.raises(ValueError, match="n_grid must be a non-empty sequence of integers >= 3"):
            StudyConfig(function=sine(), sigma=1.0, n_grid=n_grid)

    @pytest.mark.parametrize("replicates", [0, 2.5, True, np.float64(3), "3"])
    def test_rejects_replicates_it_cannot_run(self, replicates):
        with pytest.raises(ValueError, match="replicates must be an integer >= 1"):
            StudyConfig(function=sine(), sigma=1.0, replicates=replicates)

    def test_accepts_integer_grids(self, tmp_path):
        config = StudyConfig(function=sine(), sigma=1.0, n_grid=[3, np.int64(64)], replicates=np.int64(2))
        assert config.n_grid == (3, 64) and config.replicates == 2
        rows = mrise_study(config)
        assert [row["n"] for row in rows] == [3, 3, 3, 64, 64, 64]
        study_rows_to_json(rows, tmp_path / "study.json")


class TestSharedDesignInStudies:
    """``mrise_study`` factors each equal-weight system once per sample size."""

    def test_fewer_factorizations_than_solves(self, count_lapack):
        mrise_study(study_preset("bumps-hi", n_grid=(400,), replicates=8, seed=5))
        assert 0 < count_lapack["dgbtrf"] < count_lapack["dgbtrs"]

    def test_global_only_factors_each_weight_once_per_size(self, count_lapack, monkeypatch):
        solved = []

        def recording(system, weights):
            solved.append((system.n, float(weights[0])))
            assert np.all(weights == weights[0])
            return solve_weighted(system, weights)

        monkeypatch.setattr(adapt_module, "solve_weighted", recording)
        config = study_preset("rupcar-hi", n_grid=(64, 128), replicates=4, seed=5, estimator="global-only")
        mrise_study(config)
        assert count_lapack["dgbtrs"] == len(solved)
        assert count_lapack["dgbtrf"] == len(set(solved)) < len(solved)

    def test_fits_outside_a_study_keep_nothing(self, monkeypatch):
        systems = []

        def recording(sample):
            systems.append(prepare_system(sample))
            return systems[-1]

        monkeypatch.setattr(adapt_module, "prepare_system", recording)
        data = make_dataset(sine(), 200, 0.3, noise="cauchy", seed=[6, 0])
        fit(data)
        fit(clean_outliers(data, sigma_hat(data))[0])
        t = np.arange(1, 257) / 256
        scale_fit(Sample(t, np.sin(4 * np.pi * t) ** 2 * np.random.default_rng(6).standard_normal(256)))
        assert len(systems) == 3
        assert all(system.factors is None for system in systems)

    @pytest.mark.parametrize("estimator", ["wss", "global-only"])
    def test_factor_budget_bounds_the_table(self, estimator, count_lapack, monkeypatch):
        # room for three factors: the table keeps the first three equal
        # weights, a solve at any other one factors again, and the rows equal
        # those of a study whose fits run outside any scope
        config = study_preset("rupcar-hi", n_grid=(64,), replicates=3, seed=5, estimator=estimator)
        lu, piv = splines_module._factor(prepare_system(Sample(np.arange(1, 65) / 64, np.zeros(64))), np.ones(64))
        monkeypatch.setattr(splines_module, "_FACTOR_BUDGET", 3 * (lu.nbytes + piv.nbytes))
        systems, equal, unequal = [], [], []

        def recording(sample):
            systems.append(prepare_system(sample))
            return systems[-1]

        def solving(system, weights):
            (equal if np.all(weights == weights[0]) else unequal).append(float(weights[0]))
            return solve_weighted(system, weights)

        monkeypatch.setattr(adapt_module, "prepare_system", recording)
        monkeypatch.setattr(adapt_module, "solve_weighted", solving)
        count_lapack.clear()
        rows = mrise_study(config)
        assert len(systems) == 3 and all(system.factors is systems[0].factors for system in systems)
        kept = set(systems[0].factors)
        assert len(kept) == 3 < len(set(equal))
        assert count_lapack["dgbtrf"] == len(unequal) + len(kept) + sum(w not in kept for w in equal)
        monkeypatch.setattr(bench_module, "_shared_design", contextlib.nullcontext)
        assert mrise_study(config) == rows
        assert all(system.factors is None for system in systems[3:])
