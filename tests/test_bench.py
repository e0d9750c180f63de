import math

import numpy as np
import pytest

from adaptspline import (
    SIGMA_PRESETS,
    StudyConfig,
    affine_fit,
    bumps,
    custom_function,
    make_dataset,
    mrise_study,
    rise,
    rupcar,
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
