import numpy as np
import pytest

from adaptspline import (
    PenaltyMatrix,
    Sample,
    affine_fit,
    build_penalty,
    evaluate,
    prepare_system,
    roughness_of,
    solve_weighted,
)

from conftest import dense_penalty, dense_weighted_fit, jittered_design


class TestSample:
    def test_basic_properties(self):
        s = Sample([0.1, 0.5, 0.9], [1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.spread() == 2.0

    @pytest.mark.parametrize(
        "t, y",
        [
            ([0.1, 0.5], [1.0, 2.0]),                      # too short
            ([0.5, 0.1, 0.9], [1.0, 2.0, 3.0]),            # not increasing
            ([0.1, 0.1, 0.9], [1.0, 2.0, 3.0]),            # duplicates
            ([-0.1, 0.5, 0.9], [1.0, 2.0, 3.0]),           # below 0
            ([0.1, 0.5, 1.1], [1.0, 2.0, 3.0]),            # above 1
            ([0.1, 0.5, 0.9], [1.0, np.nan, 3.0]),         # non-finite y
            ([0.1, np.inf, 0.9], [1.0, 2.0, 3.0]),         # non-finite t
            ([0.1, 0.5, 0.9], [1.0, 2.0]),                 # length mismatch
        ],
    )
    def test_rejects_invalid_input(self, t, y):
        with pytest.raises(ValueError):
            Sample(t, y)

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_rejects_invalid_sigma(self, sigma):
        with pytest.raises(ValueError):
            Sample([0.1, 0.5, 0.9], [1.0, 2.0, 3.0], sigma)


class TestPenalty:
    def test_rank_one_for_three_points(self):
        k = build_penalty(Sample([0.0, 0.4, 1.0], [0.0, 0.0, 0.0]))
        ev = k.eigenvalues()
        assert ev[0] == pytest.approx(0.0, abs=1e-12)
        assert ev[1] == pytest.approx(0.0, abs=1e-12)
        assert ev[2] > 1e-6

    def test_affine_null_space(self, rng):
        t = jittered_design(12, rng)
        k = build_penalty(Sample(t, np.zeros(12)))
        g = 1.7 - 0.3 * t
        assert k.quad_form(g) == pytest.approx(0.0, abs=1e-10)
        assert np.max(np.abs(k.apply(g))) == pytest.approx(0.0, abs=1e-8)

    def test_matches_dense_definition(self, rng):
        t = jittered_design(15, rng)
        k = build_penalty(Sample(t, np.zeros(15)))
        np.testing.assert_allclose(k.dense(), dense_penalty(t), rtol=1e-9, atol=1e-7)

    def test_equispaced_eigenvalue_bounds_n64(self):
        # sorted spectrum: two zeros, then c1*i^4/n <= ev_i <= c2*i^4/n
        n = 64
        t = np.arange(1, n + 1) / n
        ev = build_penalty(Sample(t, np.zeros(n))).eigenvalues()
        assert abs(ev[0]) < 1e-9 * ev[-1]
        assert abs(ev[1]) < 1e-9 * ev[-1]
        i = np.arange(3, n + 1)
        ratios = ev[2:] / (i**4 / n)
        assert np.all(ratios >= 0.01)
        assert np.all(ratios <= 100.0)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            PenaltyMatrix(np.array([0.0, 1.0])).quad_form([0.0, 0.0])


class TestSolveWeighted:
    def test_line_data_reproduced_exactly(self, rng):
        t = np.linspace(0.0, 1.0, 10)
        y = 2.0 + 3.0 * t
        for lam in (1e-6, 0.37, 1e6):
            fit = solve_weighted(Sample(t, y), np.full(10, lam))
            np.testing.assert_allclose(fit.values, y, atol=1e-9)
            assert fit.roughness == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_solver_unit_weights(self, rng):
        t = jittered_design(10, rng)
        y = rng.normal(size=10)
        fit = solve_weighted(Sample(t, y), np.ones(10))
        np.testing.assert_allclose(fit.values, dense_weighted_fit(t, y, np.ones(10)), atol=1e-8)

    def test_interpolation_limit(self, rng):
        t = np.linspace(0.0, 1.0, 10)
        y = rng.normal(size=10)
        fit = solve_weighted(Sample(t, y), np.full(10, 1e12))
        assert np.max(np.abs(fit.values - y)) < 1e-4 * np.ptp(y)

    def test_interpolation_limit_monotone_along_doublings(self, rng):
        # the squared residual norm is exactly monotone in a shared weight
        # (every penalty eigencomponent shrinks); the sup norm can wobble by
        # a fraction of a percent when components cross, so it only gets the
        # convergence check
        t = jittered_design(12, rng)
        y = rng.normal(size=12)
        s = Sample(t, y)
        lam, prev = 1.0, np.inf
        sup = np.inf
        for _ in range(40):
            fit = solve_weighted(s, np.full(12, lam))
            resid = float(np.sum((fit.values - y) ** 2))
            sup = np.max(np.abs(fit.values - y))
            assert resid <= prev * (1.0 + 1e-9) + 1e-15
            prev = resid
            lam *= 2.0
        assert sup < 1e-5 * np.ptp(y)

    def test_dense_oracle_equivalence_small_n(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 21))
            t = jittered_design(n, rng)
            y = rng.normal(size=n)
            lam = 10.0 ** rng.uniform(-6, 6, n)
            fit = solve_weighted(Sample(t, y), lam)
            np.testing.assert_allclose(fit.values, dense_weighted_fit(t, y, lam), atol=1e-8)

    def test_normal_equation_residual(self, rng):
        n = 50
        t = jittered_design(n, rng)
        y = rng.normal(size=n)
        lam = 10.0 ** rng.uniform(-6, 6, n)
        s = Sample(t, y)
        fit = solve_weighted(s, lam)
        k = dense_penalty(t)
        resid = lam * (y - fit.values) - k @ fit.values
        assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(lam * y))

    def test_deterministic(self, rng):
        t = jittered_design(30, rng)
        y = rng.normal(size=30)
        lam = 10.0 ** rng.uniform(-3, 3, 30)
        s = Sample(t, y)
        a = solve_weighted(s, lam)
        b = solve_weighted(s, lam)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.second_derivs, b.second_derivs)
        assert a.roughness == b.roughness

    def test_affine_shift_neutrality(self, rng):
        t = jittered_design(25, rng)
        y = rng.normal(size=25)
        lam = 10.0 ** rng.uniform(-2, 2, 25)
        base = solve_weighted(Sample(t, y), lam)
        shifted = solve_weighted(Sample(t, y + 4.0 - 2.5 * t), lam)
        np.testing.assert_allclose(shifted.values, base.values + 4.0 - 2.5 * t, atol=1e-9)
        assert shifted.roughness == pytest.approx(base.roughness, abs=1e-9, rel=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_weights(self, bad):
        s = Sample([0.1, 0.5, 0.9], [1.0, 2.0, 3.0])
        weights = np.array([1.0, bad, 1.0])
        with pytest.raises(ValueError):
            solve_weighted(s, weights)

    def test_weight_shape_checked(self):
        s = Sample([0.1, 0.5, 0.9], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            solve_weighted(s, np.ones(4))


class TestPreparedSystem:
    def test_same_fit_as_from_the_sample(self, rng):
        t = jittered_design(40, rng)
        y = rng.normal(size=40)
        s = Sample(t, y)
        system = prepare_system(s)
        assert system.n == 40
        for _ in range(3):
            lam = 10.0 ** rng.uniform(-6, 6, 40)
            a = solve_weighted(s, lam)
            b = solve_weighted(system, lam)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.second_derivs, b.second_derivs)
            assert a.roughness == b.roughness

    def test_three_points(self):
        s = Sample([0.1, 0.5, 0.9], [1.0, 3.0, 2.0])
        fit = solve_weighted(prepare_system(s), np.ones(3))
        np.testing.assert_allclose(fit.values, dense_weighted_fit(s.t, s.y, np.ones(3)), atol=1e-12)

    def test_weights_beyond_double_range_raise(self):
        # 1/1e-310 overflows, so the system has infinite entries
        s = Sample(np.linspace(0.0, 1.0, 50), np.sin(np.arange(50.0)))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            solve_weighted(s, np.full(50, 1e-310))

    def test_indefinite_factorization_raises(self):
        # a spacing of 1e-12 next to a tiny weight loses positive
        # definiteness in double precision
        t = np.array([0.0, 0.25, 0.5, 0.5 + 1e-12, 0.75, 1.0])
        y = np.array([0.0, 1.0, -1.0, 1.0, 0.0, 1.0])
        lam = np.ones(6)
        lam[3] = 1e-12
        with pytest.raises(RuntimeError, match="numerically singular"):
            solve_weighted(Sample(t, y), lam)


class TestEvaluate:
    def test_knot_values_exact(self, rng):
        t = jittered_design(9, rng)
        y = rng.normal(size=9)
        fit = solve_weighted(Sample(t, y), np.full(9, 2.0))
        for i in range(9):
            assert evaluate(fit, t[i], 0) == pytest.approx(fit.values[i], abs=1e-14)

    def test_line_second_derivative_zero(self):
        fit = affine_fit(np.linspace(0.1, 0.9, 7), 1.0, -2.0)
        xs = np.linspace(0.0, 1.0, 13)
        np.testing.assert_array_equal(evaluate(fit, xs, 2), np.zeros(13))

    def test_first_derivative_matches_finite_differences(self, rng):
        t = np.linspace(0.05, 0.95, 12)
        y = np.sin(6.0 * t)
        fit = solve_weighted(Sample(t, y), np.full(12, 50.0))
        xs = np.linspace(0.1, 0.9, 17)
        d1 = evaluate(fit, xs, 1)
        fd = (evaluate(fit, xs + 1e-5, 0) - evaluate(fit, xs - 1e-5, 0)) / 2e-5
        np.testing.assert_allclose(d1, fd, atol=1e-6)

    def test_linear_extension_beyond_knots(self):
        t = np.linspace(0.2, 0.8, 8)
        y = np.sin(5.0 * t)
        fit = solve_weighted(Sample(t, y), np.full(8, 100.0))
        # zero curvature outside, value continues along the end slope
        assert evaluate(fit, 0.05, 2) == 0.0
        assert evaluate(fit, 0.95, 2) == 0.0
        slope = evaluate(fit, 0.2, 1)
        expected = evaluate(fit, 0.2, 0) - 0.1 * slope
        assert evaluate(fit, 0.1, 0) == pytest.approx(expected, abs=1e-12)

    def test_rejects_points_outside_domain(self):
        fit = affine_fit(np.linspace(0.0, 1.0, 5), 0.0, 1.0)
        with pytest.raises(ValueError):
            evaluate(fit, 1.5, 0)
        with pytest.raises(ValueError):
            evaluate(fit, [-0.2, 0.5], 0)
        with pytest.raises(ValueError):
            evaluate(fit, 0.5, 3)


class TestRoughness:
    def test_affine_fit_zero(self):
        assert roughness_of(affine_fit(np.linspace(0, 1, 6), 2.0, 1.0)) == 0.0

    def test_parabola_interpolation_approaches_four(self):
        # integral of (d2 t^2)^2 = 4; near-interpolation at n=200 gets within 1%
        n = 200
        t = np.arange(1, n + 1) / n
        fit = solve_weighted(Sample(t, t**2), np.full(n, 1e10))
        assert roughness_of(fit) == pytest.approx(4.0, rel=0.01)

    def test_matches_quadrature_of_second_derivative(self, rng):
        t = jittered_design(20, rng)
        y = rng.normal(size=20)
        fit = solve_weighted(Sample(t, y), np.full(20, 5.0))
        xs = np.linspace(t[0], t[-1], 200001)
        d2 = evaluate(fit, xs, 2)
        quad = np.trapezoid(d2 * d2, xs)
        assert fit.roughness == pytest.approx(quad, rel=1e-8)
        assert roughness_of(fit) == pytest.approx(fit.roughness, rel=1e-12)

    def test_stored_roughness_equals_penalty_form(self, rng):
        t = jittered_design(30, rng)
        y = rng.normal(size=30)
        fit = solve_weighted(Sample(t, y), 10.0 ** rng.uniform(-2, 2, 30))
        k = build_penalty(Sample(t, y))
        assert k.quad_form(fit.values) == pytest.approx(fit.roughness, rel=1e-7)
