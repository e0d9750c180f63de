import math

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrf, dgbtrs

import adaptspline.splines
from adaptspline import (
    SIGMA_PRESETS,
    PenaltyMatrix,
    Sample,
    SplineFit,
    affine_fit,
    bumps,
    build_penalty,
    evaluate,
    fit_local,
    make_dataset,
    prepare_system,
    rupcar,
    scale_fit,
    solve_weighted,
)
from adaptspline.splines import _shared_design as shared_design
from adaptspline.splines import check_weights

from conftest import (
    DoubleDouble,
    augmented_residual,
    dense_penalty,
    dense_weighted_fit,
    jittered_design,
    long_double,
    mp_fit,
    refined_fit,
)


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


class TestSplineFitAndWeights:
    @pytest.mark.parametrize("lengths", [(4, 3, 4), (4, 4, 5), (3, 4, 4)])
    def test_spline_fit_rejects_arrays_of_unequal_length(self, lengths):
        k, v, c = (np.zeros(m) for m in lengths)
        with pytest.raises(ValueError, match="equal-length"):
            SplineFit(k, v, c, 0.0)

    def test_two_knots_are_enough(self):
        # the smallest spline: a line through its two knots
        line = SplineFit([0.0, 1.0], [1.0, 3.0], [0.0, 0.0], 0.0)
        assert line.knots.size == 2
        np.testing.assert_allclose(line([0.0, 0.25, 1.0], 0), [1.0, 1.5, 3.0], rtol=0, atol=1e-15)
        assert line(0.5, 1) == pytest.approx(2.0, rel=1e-15) and line(0.5, 2) == 0.0

    def test_check_weights_returns_the_validated_array(self):
        lam = check_weights([1, 2, 3], 3)
        assert isinstance(lam, np.ndarray) and lam.dtype == np.float64
        assert lam.tolist() == [1.0, 2.0, 3.0]
        # a float array of the right shape is returned as it is
        given = np.array([0.5, 4.0])
        assert check_weights(given, 2) is given


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
        # n = 3 leaves the augmented band fewer than 7 unknowns; penalty
        # knots need not lie in [0, 1]
        for n, low, width in [(3, 0.0, 1.0), (4, 0.0, 1.0), (5, 0.0, 1.0), (15, 0.0, 1.0), (15, 2.0, 5.0)]:
            t = low + width * jittered_design(n, rng)
            k = PenaltyMatrix(t)
            dense = k.dense()
            np.testing.assert_allclose(dense, dense_penalty(t), rtol=1e-9, atol=1e-7)
            g = rng.standard_normal(n)
            np.testing.assert_allclose(k.apply(g), dense @ g, rtol=1e-9, atol=1e-7)
            assert k.quad_form(g) == pytest.approx(g @ dense @ g, rel=1e-9)

    def test_factors_once_per_instance(self, count_lapack, rng):
        # each call on a fresh instance factors the band again, as every
        # call did before the factors were kept; one instance factors once
        # and returns the same bytes
        t = jittered_design(64, rng)
        g = rng.standard_normal(64)
        fresh = (PenaltyMatrix(t).quad_form(g), PenaltyMatrix(t).apply(g), PenaltyMatrix(t).dense())
        assert count_lapack == {"dgbtrf": 3, "dgbtrs": 3}
        count_lapack.clear()
        k = PenaltyMatrix(t)
        for _ in range(3):
            assert k.quad_form(g) == fresh[0]
            assert np.array_equal(k.apply(g), fresh[1])
            assert np.array_equal(k.dense(), fresh[2])
        assert count_lapack == {"dgbtrf": 1, "dgbtrs": 9}

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
        # two knots, or a matrix, must each be rejected on construction:
        # increasing knots pass the check after this one
        for t in ([0.0, 1.0], [[0.0, 0.5, 1.0], [0.1, 0.6, 0.9]]):
            with pytest.raises(ValueError, match="need at least 3 knots"):
                PenaltyMatrix(np.array(t))

    @pytest.mark.parametrize("t", [[0.0, 0.5, 0.5, 1.0], [0.0, 0.7, 0.4, 1.0]])
    def test_rejects_knots_that_do_not_increase(self, t):
        with pytest.raises(ValueError, match="strictly increasing"):
            PenaltyMatrix(np.array(t))

    @pytest.mark.parametrize("g", [np.zeros(4), np.zeros(6), np.zeros((5, 1))])
    def test_rejects_a_vector_of_the_wrong_length(self, g):
        k = PenaltyMatrix(np.linspace(0.0, 1.0, 5))
        for method in (k.apply, k.quad_form):
            with pytest.raises(ValueError, match="vector length"):
                method(g)


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

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_bad_weights(self, bad):
        s = Sample([0.1, 0.5, 0.9], [1.0, 2.0, 3.0])
        weights = np.array([1.0, bad, 1.0])
        message = "strictly positive" if np.isfinite(bad) else "must be finite"
        with pytest.raises(ValueError, match=message):
            solve_weighted(s, weights)
        with pytest.raises(ValueError, match=message):
            solve_weighted(prepare_system(s), weights)

    def test_weight_shape_checked(self):
        s = Sample([0.1, 0.5, 0.9], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            solve_weighted(s, np.ones(4))
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            solve_weighted(prepare_system(s), np.ones((3, 1)))

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_matches_dense_augmented_solve(self, n, rng):
        # the system of the module docstring, assembled densely here:
        # g + diag(1/lam) Q gamma = y and Q^T g - R gamma = 0.  At n = 3 Q has
        # one column, and the band holds just that column between the two
        # pinned boundary values of gamma
        t = jittered_design(n, rng)
        y = rng.normal(size=n)
        lam = 10.0 ** rng.uniform(-3, 3, n)
        h = np.diff(t)
        q = np.zeros((n, n - 2))
        r = np.zeros((n - 2, n - 2))
        for j in range(n - 2):
            q[j, j], q[j + 1, j], q[j + 2, j] = 1 / h[j], -1 / h[j] - 1 / h[j + 1], 1 / h[j + 1]
            r[j, j] = (h[j] + h[j + 1]) / 3
            if j + 1 < n - 2:
                r[j, j + 1] = r[j + 1, j] = h[j + 1] / 6
        a = np.block([[np.eye(n), q / lam[:, None]], [q.T, -r]])
        x = np.linalg.solve(a, np.concatenate((y, np.zeros(n - 2))))
        fit = solve_weighted(Sample(t, y), lam)
        np.testing.assert_allclose(fit.values, x[:n], rtol=0, atol=1e-12 * np.ptp(y))
        scale = np.max(np.abs(x[n:]))
        np.testing.assert_allclose(fit.second_derivs[1:-1], x[n:], rtol=0, atol=1e-11 * scale)
        assert fit.second_derivs[0] == fit.second_derivs[-1] == 0.0


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
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not finite"):
            solve_weighted(s, np.full(50, 1e-310))

    def test_an_overflowing_bound_falls_back_to_the_scan(self, monkeypatch):
        # a spacing of 1e-9 puts entries near 1e9 into Q, so the bound
        # q_max / min lambda overflows at the weight 1e-300; but that weight
        # sits at index 40, where Q's entries are about 64, so no scaled
        # entry overflows and the system factors
        t = np.arange(64) / 64
        t[1] = t[0] + 1e-9
        lam = np.ones(64)
        lam[40] = 1e-300
        system = prepare_system(Sample(t, np.sin(7.0 * t)))
        assert not math.isfinite(system.q_max / 1e-300)
        # the factorization that scans every entry, as without a bound
        lu, piv = adaptspline.splines._factor(system.band, system.q_max, 1.0 / lam, math.inf)
        x, info = dgbtrs(lu, adaptspline.splines._KL, adaptspline.splines._KU, system.rhs, piv)
        assert info == 0
        scans, isfinite = [], np.isfinite
        monkeypatch.setattr(adaptspline.splines.np, "isfinite", lambda a: scans.append(np.size(a)) or isfinite(a))
        solve_weighted(system, np.ones(64))
        assert scans == []  # a finite bound spares the scan
        fit = solve_weighted(system, lam)
        assert scans == [3 * 62]
        assert np.array_equal(fit.values, x[::2])
        assert np.array_equal(fit.second_derivs, x[1::2])

    def test_spacing_beyond_double_range_raises(self):
        # 1/5e-324 overflows, so the weight-free part of the system is not finite
        s = Sample([0.0, 5e-324, 0.5, 1.0], [0.0, 1.0, 0.0, 1.0])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"), pytest.raises(ValueError):
            prepare_system(s)

    def test_close_spacing_next_to_tiny_weight(self):
        # a spacing of 1e-12 next to a weight of 1e-12 puts entries of size
        # 1e12 beside ones of size 1; the fit was measured within 3.6e-6 of
        # the spread of the 60-digit solution
        t = np.array([0.0, 0.25, 0.5, 0.5 + 1e-12, 0.75, 1.0])
        y = np.array([0.0, 1.0, -1.0, 1.0, 0.0, 1.0])
        lam = np.ones(6)
        lam[3] = 1e-12
        fit = solve_weighted(Sample(t, y), lam)
        assert np.max(np.abs(fit.values - mp_fit(t, y, lam))) <= 1e-5 * np.ptp(y)

    def test_singular_factorization_raises(self, monkeypatch):
        def singular(ab, kl, ku, **kwargs):
            return ab, np.zeros(ab.shape[1], dtype=np.int32), 1

        monkeypatch.setattr(adaptspline.splines, "dgbtrf", singular)
        s = Sample(np.linspace(0.0, 1.0, 8), np.sin(np.arange(8.0)))
        with pytest.raises(RuntimeError, match="numerically singular"):
            solve_weighted(s, np.ones(8))


def dense_augmented(t, lam):
    """The augmented matrix of the weights lam as a dense 2n x 2n array, in
    the unknowns' own order: row 2i holds the equation of g_i, g_i + (1/lam_i)
    (Q gamma)_i = y_i, and row 2i + 1 that of gamma_i, (Q^T g - R gamma)_i = 0
    at an interior knot and gamma_i = 0 at either end."""
    n = t.size
    h = np.diff(t)
    a, c = 1.0 / h[:-1], 1.0 / h[1:]
    b = -(a + c)
    d = 1.0 / lam
    m = np.zeros((2 * n, 2 * n))
    m[np.arange(0, 2 * n, 2), np.arange(0, 2 * n, 2)] = 1.0
    m[1, 1] = m[-1, -1] = 1.0
    for j in range(1, n - 1):
        for i, q in zip((j - 1, j, j + 1), (a[j - 1], b[j - 1], c[j - 1])):
            m[2 * i, 2 * j + 1] = d[i] * q
            m[2 * j + 1, 2 * i] = q
        m[2 * j + 1, 2 * j + 1] = -(h[j - 1] + h[j]) / 3.0
        if j + 1 < n - 1:
            m[2 * j + 1, 2 * j + 3] = m[2 * j + 3, 2 * j + 1] = -h[j] / 6.0
    return m


def band_storage(m, kl, ku):
    """The LAPACK ``dgbtrf`` storage of the dense matrix m with kl diagonals
    below and ku above, after checking that m has nothing outside them."""
    rows, cols = np.nonzero(m)
    assert np.all(rows - cols <= kl) and np.all(cols - rows <= ku)
    ab = np.zeros((2 * kl + ku + 1, m.shape[1]), order="F")
    ab[kl + ku + rows - cols, cols] = m[rows, cols]
    return ab


GRIDS = {"uniform": lambda n, rng: np.arange(n) / (n - 1), "jittered": jittered_design}


class TestBandLayout:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("n", [3, 4, 64, 1000])
    def test_band_is_the_augmented_matrix_in_gamma_g_row_order(self, n, grid, rng):
        t = GRIDS[grid](n, rng)
        system = prepare_system(Sample(t, rng.standard_normal(n)))
        order = np.arange(2 * n).reshape(n, 2)[:, ::-1].ravel()  # gamma_j's row, then g_j's
        expected = band_storage(dense_augmented(t, np.ones(n))[order], adaptspline.splines._KL, adaptspline.splines._KU)
        assert system.band.shape == expected.shape
        assert np.array_equal(system.band, expected)

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("n", [3, 4, 64, 1000])
    def test_solves_as_the_unknowns_order_at_three_subdiagonals(self, n, grid, rng):
        # partial pivoting picks among the same entries of each column in
        # either row order, so the solves agree bit for bit
        t = GRIDS[grid](n, rng)
        y = rng.standard_normal(n)
        system = prepare_system(Sample(t, y))
        for _ in range(3):
            lam = 10.0 ** rng.uniform(-12, 0, n)
            lu, piv, info = dgbtrf(band_storage(dense_augmented(t, lam), 3, 3), 3, 3)
            assert info == 0
            rhs = np.zeros(2 * n)
            rhs[::2] = y
            x, info = dgbtrs(lu, 3, 3, rhs, piv)
            assert info == 0
            fit = solve_weighted(system, lam)
            assert np.array_equal(fit.values, x[::2])
            assert np.array_equal(fit.second_derivs, x[1::2])

    def test_every_lapack_call_passes_the_band_shape(self, count_lapack):
        # a literal (kl, ku) left behind by a change of the band would read
        # the factors wrongly; every call must pass the module's pair
        t = np.arange(1, 129) / 128
        sample = make_dataset(bumps(), 128, SIGMA_PRESETS["bumps-hi"], seed=[3, 128])
        fit_local(sample)
        scale_fit(Sample(t, (np.sin(4 * np.pi * t) ** 2 + 0.05) * np.random.default_rng(1).standard_normal(128)))
        k = PenaltyMatrix(t)
        k.quad_form(sample.y)
        k.dense()
        assert count_lapack["dgbtrf"] > 0 and count_lapack["dgbtrs"] > 0
        assert set(count_lapack.bands) == {(adaptspline.splines._KL, adaptspline.splines._KU)}


class TestSharedDesign:
    """Samples on one grid inside a ``_shared_design`` scope share the
    equal-weight LU factors; the fits stay bit-equal to fresh solves."""

    @staticmethod
    def samples(n, count=2):
        t = np.arange(1, n + 1) / n
        return [Sample(t, np.random.default_rng([41, n, k]).standard_normal(n)) for k in range(count)]

    @pytest.mark.parametrize("n", [3, 4, 400])
    def test_hit_equals_fresh_solve(self, n, count_lapack):
        first, second = self.samples(n)
        lam = np.full(n, 0.37)
        with shared_design():
            solve_weighted(prepare_system(first), lam)
            system = prepare_system(second)
            assert system.factors is not None and list(system.factors) == [0.37]
            hit = solve_weighted(system, lam)
        assert count_lapack == {"dgbtrf": 1, "dgbtrs": 2}
        fresh = solve_weighted(second, lam)
        assert np.array_equal(hit.values, fresh.values)
        assert np.array_equal(hit.second_derivs, fresh.second_derivs)
        assert hit.roughness == fresh.roughness
        assert np.array_equal(hit.knots, second.t)

    def test_other_grid_shares_nothing(self):
        a, b = self.samples(50)
        other = Sample(jittered_design(50, np.random.default_rng(3)), b.y)
        with shared_design():
            design = prepare_system(a)
            apart = prepare_system(other)
            again = prepare_system(b)
        assert apart.factors is None and apart.band is not design.band
        assert again.factors is design.factors and again.band is design.band
        assert again.t is b.t and not np.array_equal(again.rhs, design.rhs)

    def test_nothing_kept_after_the_scope(self):
        (sample,) = self.samples(20, 1)
        assert prepare_system(sample).factors is None
        with shared_design():
            assert prepare_system(sample).factors == {}
        assert prepare_system(sample).factors is None
        with pytest.raises(KeyError), shared_design():
            solve_weighted(prepare_system(sample), np.ones(20))
            raise KeyError("leave the scope by an exception")
        assert prepare_system(sample).factors is None

    def test_unequal_weights_leave_the_table_alone(self, count_lapack):
        a, b = self.samples(30)
        lam = np.linspace(0.5, 2.0, 30)
        with shared_design():
            solve_weighted(prepare_system(a), np.full(30, 2.0))
            system = prepare_system(b)
            entry = system.factors[2.0]
            solve_weighted(system, lam)
            solve_weighted(system, lam)
            assert list(system.factors) == [2.0] and system.factors[2.0] is entry
        assert count_lapack["dgbtrf"] == 3

    def test_overflowing_equal_weight_stores_nothing(self):
        (sample,) = self.samples(50, 1)
        with shared_design():
            system = prepare_system(sample)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not finite"):
                solve_weighted(system, np.full(50, 1e-310))
            assert system.factors == {}

    def test_table_stops_at_the_budget(self, count_lapack, monkeypatch):
        first, second = self.samples(20)
        weights = (0.5, 1.0, 2.0, 4.0)
        with shared_design():
            system = prepare_system(first)
            solve_weighted(system, np.full(20, weights[0]))
            lu, piv = system.factors[weights[0]]
            monkeypatch.setattr(adaptspline.splines, "_FACTOR_BUDGET", 2 * (lu.nbytes + piv.nbytes))
            for w in weights[1:]:
                solve_weighted(system, np.full(20, w))
            assert list(system.factors) == list(weights[:2])
            other = prepare_system(second)
            fits = [solve_weighted(other, np.full(20, w)) for w in weights]
            assert list(other.factors) == list(weights[:2])
        # a kept weight runs dgbtrs only; every other solve factors again
        assert count_lapack == {"dgbtrf": 6, "dgbtrs": 8}
        for w, hit in zip(weights, fits):
            fresh = solve_weighted(second, np.full(20, w))
            assert np.array_equal(hit.values, fresh.values)
            assert np.array_equal(hit.second_derivs, fresh.second_derivs)


class TestWideWeightSpread:
    """Weights spread over many decades.

    The fits come from a start search that ran to its cap of 60 halvings,
    so their weights span about 13 decades; the solves are checked against
    60-digit ones on a grid of weights spanning up to 20 decades.
    """

    def test_local_fit(self, monkeypatch):
        monkeypatch.setattr(adaptspline.adapt, "_INIT_TOLERANCE", 1e-300)
        s = make_dataset(rupcar(6), 64, 0.05, seed=[804, 0])
        r = fit_local(s)
        assert r.start_capped
        assert np.isfinite(r.final_fit.values).all()
        assert r.final_fit.second_derivs[0] == r.final_fit.second_derivs[-1] == 0.0

    def test_scale_fit(self, monkeypatch):
        monkeypatch.setattr(adaptspline.adapt, "_INIT_TOLERANCE", 1e-300)
        n = 256
        t = np.arange(1, n + 1) / n
        z = np.random.default_rng([904, 0]).standard_normal(n)
        r = scale_fit(Sample(t, np.sin(4 * np.pi * t) ** 2 * z), max_iterations=400)
        assert r.start_capped
        assert np.isfinite(r.s.values).all()
        assert r.s.second_derivs[0] == r.s.second_derivs[-1] == 0.0

    def test_matches_60_digit_solves(self):
        # weights 10**U(-d, 0), four draws per d; measured within 6e-15 of
        # the spread
        n = 48
        t = np.arange(1, n + 1) / n
        rng = np.random.default_rng(5)
        for d in (12, 16, 20):
            for _ in range(4):
                y = rng.standard_normal(n)
                lam = 10.0 ** rng.uniform(-d, 0, n)
                fit = solve_weighted(Sample(t, y), lam)
                err = np.max(np.abs(fit.values - mp_fit(t, y, lam)))
                assert err <= 1e-10 * np.ptp(y), (d, err)
                assert fit.second_derivs[0] == fit.second_derivs[-1] == 0.0


class TestLargeN:
    """Solves at n = 10**5, where the weights are tiny against the n**3
    growth of the penalty, against the refined augmented solution."""

    @pytest.mark.parametrize("name", ["bumps", "rupcar"])
    def test_matches_refined_reference(self, name):
        n = 100_000
        s = make_dataset(bumps() if name == "bumps" else rupcar(6), n,
                         SIGMA_PRESETS[f"{name}-hi"], seed=[7, n])
        system = prepare_system(s)
        for e in (0, -10, -20, -60):
            lam = np.full(n, 2.0**e)
            fit = solve_weighted(system, lam)
            assert fit.second_derivs[0] == fit.second_derivs[-1] == 0.0
            err = np.max(np.abs(fit.values - refined_fit(s.t, s.y, lam)))
            # measured at most 1.05e-9 of the spread (rupcar, 2**-20); all
            # but ~5e-11 of it comes from rounding 1/h in the coefficients
            # of Q, which no solve of the double-precision system can undo
            assert err <= 2e-9 * np.ptp(s.y), (e, err)

    def test_double_double_residual_agrees_with_long_double(self, rng):
        if np.finfo(np.longdouble).nmant <= 52:
            pytest.skip("long double is plain double here")
        t = jittered_design(200, rng)
        y = rng.normal(size=200)
        lam = 10.0 ** rng.uniform(-8, 0, 200)
        args = (t, y, lam, y, rng.normal(size=198))
        wide = augmented_residual(*args, long_double)
        dd = augmented_residual(*args, DoubleDouble)
        assert np.max(np.abs(dd - wide)) <= 1e-15 * np.max(np.abs(wide))


def reference_evaluate(fit, x, order):
    """Value or derivative of a fitted spline, in one piece: the reference
    for evaluation split into locating the points and combining."""
    t, g, c = fit.knots, fit.values, fit.second_derivs
    x_arr = np.asarray(x, dtype=float)
    xv = np.atleast_1d(x_arr)
    idx = np.clip(np.searchsorted(t, xv, side="right") - 1, 0, t.size - 2)
    h = t[idx + 1] - t[idx]
    alpha = (t[idx + 1] - xv) / h
    beta = (xv - t[idx]) / h
    if order == 0:
        out = alpha * g[idx] + beta * g[idx + 1] + (h * h / 6.0) * (
            (alpha**3 - alpha) * c[idx] + (beta**3 - beta) * c[idx + 1]
        )
    elif order == 1:
        out = (g[idx + 1] - g[idx]) / h + (h / 6.0) * (
            (3.0 * beta * beta - 1.0) * c[idx + 1] - (3.0 * alpha * alpha - 1.0) * c[idx]
        )
    else:
        out = alpha * c[idx] + beta * c[idx + 1]
    left, right = xv < t[0], xv > t[-1]
    h0, h1 = t[1] - t[0], t[-1] - t[-2]
    slope0 = (g[1] - g[0]) / h0 - h0 * (2.0 * c[0] + c[1]) / 6.0
    slope1 = (g[-1] - g[-2]) / h1 + h1 * (c[-2] + 2.0 * c[-1]) / 6.0
    if order == 0:
        out = np.where(left, g[0] + (xv - t[0]) * slope0, out)
        out = np.where(right, g[-1] + (xv - t[-1]) * slope1, out)
    elif order == 1:
        out = np.where(left, slope0, np.where(right, slope1, out))
    else:
        out = np.where(left | right, 0.0, out)
    return float(out[0]) if x_arr.ndim == 0 else out


class TestEvaluate:
    def test_knot_values_exact(self, rng):
        # SplineFit's claim: at a knot, alpha is 1 and beta 0 exactly, so
        # evaluation returns the stored value bit for bit
        for n in np.repeat([3, 9, 64, 300], 5):
            t = jittered_design(n, rng)
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
            fit = solve_weighted(Sample(t, y), 10.0 ** rng.uniform(-6, 6, n))
            assert np.array_equal(evaluate(fit, t, 0), fit.values)
            assert all(evaluate(fit, t[i], 0) == fit.values[i] for i in (0, n // 2, n - 1))

    def test_scale_at_the_knots_is_the_scale_values(self):
        n = 256
        t = (np.arange(n) + 0.5) / n
        z = np.random.default_rng([1, n, 0]).standard_normal(n)
        r = scale_fit(Sample(t, (np.sin(4 * np.pi * t) ** 2 + 0.05) * z))
        assert np.array_equal(r.scale_at(r.s.knots), r.scale_values())

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

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_split_equals_the_one_piece_formulas(self, order, rng):
        # knots inside (0, 1), so that points extrapolate on both sides
        t = np.linspace(0.1, 0.85, 11)
        fits = [solve_weighted(Sample(t, np.sin(5.0 * t + k)), np.full(11, 30.0)) for k in range(2)]
        xs = np.concatenate(([0.0, 0.05], rng.uniform(0.0, 1.0, 40), t, [0.9, 1.0]))
        for x in (xs, xs[2:-2], 0.03, 0.5, 0.95, float(t[3]), 1.0):
            loc = adaptspline.splines._locate(t, x)  # shared by the fits on these knots
            for fit in fits:
                expected = reference_evaluate(fit, x, order)
                for got in (evaluate(fit, x, order),
                            adaptspline.splines._combine(loc, fit.values, fit.second_derivs, order)):
                    assert type(got) is type(expected)
                    assert np.array_equal(got, expected)

    @pytest.mark.parametrize("order", [True, 1.0, 3, -1, "1"])
    def test_rejects_an_order_that_is_not_0_1_or_2(self, order):
        # a bool or a float order used to run as order 1
        fit = affine_fit(np.linspace(0.0, 1.0, 5), 0.0, 1.0)
        with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
            evaluate(fit, 0.5, order)

    def test_accepts_a_numpy_integer_order(self):
        fit = affine_fit(np.linspace(0.0, 1.0, 5), 2.0, -3.0)
        assert evaluate(fit, 0.5, np.int64(1)) == evaluate(fit, 0.5, 1) == pytest.approx(-3.0)

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
        assert affine_fit(np.linspace(0, 1, 6), 2.0, 1.0).roughness == 0.0

    def test_parabola_interpolation_approaches_four(self):
        # integral of (d2 t^2)^2 = 4; near-interpolation at n=200 gets within 1%
        n = 200
        t = np.arange(1, n + 1) / n
        fit = solve_weighted(Sample(t, t**2), np.full(n, 1e10))
        assert fit.roughness == pytest.approx(4.0, rel=0.01)

    def test_matches_quadrature_of_second_derivative(self, rng):
        t = jittered_design(20, rng)
        y = rng.normal(size=20)
        fit = solve_weighted(Sample(t, y), np.full(20, 5.0))
        xs = np.linspace(t[0], t[-1], 200001)
        d2 = evaluate(fit, xs, 2)
        quad = np.trapezoid(d2 * d2, xs)
        assert fit.roughness == pytest.approx(quad, rel=1e-8)
        assert PenaltyMatrix(t).quad_form(fit.values) == pytest.approx(fit.roughness, rel=1e-12)

    def test_stored_roughness_equals_penalty_form(self, rng):
        t = jittered_design(30, rng)
        y = rng.normal(size=30)
        fit = solve_weighted(Sample(t, y), 10.0 ** rng.uniform(-2, 2, 30))
        k = build_penalty(Sample(t, y))
        assert k.quad_form(fit.values) == pytest.approx(fit.roughness, rel=1e-7)
