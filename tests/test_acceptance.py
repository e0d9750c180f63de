"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
numeric targets and tolerances are stated inline; supporting checks that
validate the measurement machinery itself are marked "supporting".
"""

import json
import math
import time

import numpy as np
import pytest

import adaptspline as asp
from adaptspline.cli import main as cli_main


def record(cid: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def interior_grid(m=4096):
    return np.linspace(0.0, 1.0, m + 2)[1:-1]


# --- criterion 1: tau calibration table ------------------------------------

def test_criterion_01_tau_calibration_table(capsys):
    targets = [
        (100, 0.95, 2.92, 0.06),
        (1000, 0.95, 2.71, 0.06),
        (10000, 0.95, 2.55, 0.06),
        (100, 0.99, 3.60, 0.10),
    ]
    results = []
    runtime_10k = None
    for n, alpha, expected, tol in targets:
        start = time.perf_counter()
        with capsys.disabled():
            pass
        cli_main([
            "calibrate", "--n", str(n), "--alpha", str(alpha),
            "--replicates", "10000", "--seed", "0",
        ])
        elapsed = time.perf_counter() - start
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        results.append((n, alpha, doc["tau"], expected, tol))
        if n == 10000:
            runtime_10k = elapsed
    with capsys.disabled():
        ok = True
        for n, alpha, got, expected, tol in results:
            hit = abs(got - expected) <= tol
            ok &= hit
            print(f"  tau(n={n}, alpha={alpha}) = {got:.3f} (target {expected} +/- {tol}): "
                  f"{'ok' if hit else 'off'}")
        ok_rt = runtime_10k < 120.0
        print(f"  runtime n=10000: {runtime_10k:.1f}s (target < 120s): {'ok' if ok_rt else 'off'}")
        passed = record("1", ok and ok_rt, "tau table within tolerance and runtime budget")
    assert passed


def test_criterion_01_supporting_all_intervals_value(capsys):
    # independent validation of the calibration machinery: the family of
    # ALL intervals at n=1000, alpha=0.95 has the documented value 2.91
    n, reps, seed = 1000, 4000, 7
    maxima = np.empty(reps)
    batch = 64
    for pos in range(0, reps, batch):
        b = min(batch, reps - pos)
        z = np.empty((b, n))
        for k in range(b):
            z[k] = np.random.default_rng([seed, pos + k]).standard_normal(n)
        c = np.zeros((b, n + 1))
        np.cumsum(z, axis=1, out=c[:, 1:])
        # the intervals of one length L at a time: c[L:] - c[:-L] are their
        # sums, and scaling the largest |sum| by 1/sqrt(L) gives the largest
        # |w|, because rounding a product by a positive constant is monotone
        best = np.zeros(b)
        for size in range(1, n + 1):
            peak = np.abs(c[:, size:] - c[:, :-size]).max(axis=1)
            peak *= 1.0 / math.sqrt(size)
            np.maximum(best, peak, out=best)
        maxima[pos:pos + b] = best
    maxima.sort()
    q = maxima[math.ceil(0.95 * reps) - 1]
    tau = q * q / math.log(n)
    with capsys.disabled():
        ok = record(
            "1-supporting", abs(tau - 2.91) <= 0.10,
            f"all-intervals tau(1000, 0.95) = {tau:.3f} (reference 2.91 +/- 0.10)",
        )
    assert ok


# --- criterion 2: threshold identity ----------------------------------------

def test_criterion_02_threshold_identity(capsys):
    spec = asp.RegionSpec(sigma=8.3868, tau=3.0, n=7001)
    with capsys.disabled():
        ok = record(
            "2", abs(spec.threshold - 43.22) <= 0.01,
            f"sigma*sqrt(tau*ln n) = {spec.threshold:.4f} (target 43.22 +/- 0.01)",
        )
    assert ok


# --- criterion 3: detection bounds -------------------------------------------

def test_criterion_03a_detection_bound_values(capsys):
    d_all = asp.min_detectable_delta(1000, 24, 1.0, 2.91, "all")
    d_dya = asp.min_detectable_delta(1000, 24, 1.0, 2.71, "dyadic")
    ok = abs(d_all - 1.39) <= 0.01 and abs(d_dya - 1.92) <= 0.01
    with capsys.disabled():
        passed = record("3a", ok, f"bounds {d_all:.3f} / {d_dya:.3f} (targets 1.39 / 1.92 +/- 0.01)")
    assert passed


def _bump_rejection_rate(delta: float, seeds: int, sigma: float = 1.0) -> float:
    n = 1000
    t = np.arange(1, n + 1) / n
    fam = asp.dyadic_family(n)
    spec = asp.RegionSpec(sigma=sigma, tau=3.0, n=n)
    candidate = np.where((t > 0.5) & (t <= 0.524), delta, 0.0)
    rejects = 0
    for seed in range(seeds):
        z = np.random.default_rng([11, seed]).standard_normal(n)
        rep = asp.in_region(asp.Sample(t, sigma * z), candidate, fam, spec)
        rejects += not rep.passed
    return rejects / seeds


def test_criterion_03b_bump_detection_monte_carlo(capsys):
    # a delta=0.7 bump over 24 of 1000 points is detectable only when the
    # noise is small enough for 0.7 to clear the dyadic bound of 3a: at
    # sigma=1 the bound is 1.99, and even a perfectly aligned block gives
    # w = 0.7*sqrt(24) = 3.43 < sqrt(3 ln 1000) = 4.55.  At sigma=0.3 (the
    # level of criterion 8) the bound is 0.60.
    sigma = 0.3
    bound = asp.min_detectable_delta(1000, 24, sigma, 3.0, "dyadic")
    assert 0.7 >= bound, f"delta=0.7 lies below the detection bound {bound:.3f}"
    rate = _bump_rejection_rate(0.7, 200, sigma)
    with capsys.disabled():
        passed = record(
            "3b", rate >= 0.90,
            f"delta=0.7 bump over 24 of 1000 points at sigma={sigma} (bound {bound:.3f}) "
            f"rejected in {rate:.1%} of 200 seeds (target >= 90%)",
        )
    assert passed


def test_criterion_03_supporting_detection_at_the_bound(capsys):
    # at the guaranteed-detectable deviation (the dyadic bound, ~1.92) the
    # region rejects essentially always
    rate = _bump_rejection_rate(1.92, 200)
    with capsys.disabled():
        ok = record("3-supporting", rate >= 0.90, f"delta=1.92 rejected in {rate:.1%} of 200 seeds")
    assert ok


# --- criterion 4: solver oracle equivalence ----------------------------------

def test_criterion_04a_dense_oracle_equivalence(capsys):
    from conftest import dense_weighted_fit, jittered_design

    rng = np.random.default_rng(20240810)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 21))
        t = jittered_design(n, rng)
        y = rng.normal(size=n)
        lam = 10.0 ** rng.uniform(-6, 6, n)
        fit = asp.solve_weighted(asp.Sample(t, y), lam)
        worst = max(worst, float(np.max(np.abs(fit.values - dense_weighted_fit(t, y, lam)))))
    with capsys.disabled():
        passed = record("4a", worst <= 1e-8, f"worst sup deviation over 50 instances: {worst:.2e} (target <= 1e-8)")
    assert passed


def test_criterion_04b_qp_oracle_feasibility(capsys):
    cp = pytest.importorskip("cvxpy")
    checked = 0
    ok = True
    details = []
    for trial in range(12):
        rng = np.random.default_rng([1000, trial])
        n = int(rng.integers(10, 25))
        t = (np.arange(n) + rng.uniform(0.2, 0.8, n)) / n
        y = np.sin(3 * t * (1 + trial % 3)) + 0.5 * rng.standard_normal(n)
        s = asp.Sample(t, y)
        report = asp.fit(s, asp.AdaptConfig(sigma=0.5))
        fam = asp.dyadic_family(n)
        spec = asp.RegionSpec(0.5, 3.0, n)
        # the QP is always feasible (g = y gives zero residual sums), so the
        # procedure's fit must be in the region and no rougher than optimal
        ev, vecs = np.linalg.eigh(asp.build_penalty(s).dense())
        factor = np.diag(np.sqrt(np.clip(ev, 0.0, None))) @ vecs.T
        g = cp.Variable(n)
        thr = spec.threshold
        cons = []
        for lo, hi in fam:
            expr = cp.sum(y[lo - 1:hi] - g[lo - 1:hi]) / math.sqrt(hi - lo + 1)
            cons += [expr <= thr, expr >= -thr]
        problem = cp.Problem(cp.Minimize(cp.sum_squares(factor @ g)), cons)
        problem.solve()
        if problem.status not in ("optimal", "optimal_inaccurate"):
            continue
        checked += 1
        in_region = asp.in_region(s, report.final_fit.values, fam, spec).passed
        bounded = problem.value <= report.roughness * (1 + 1e-6) + 1e-6
        if not (report.passed and in_region and bounded):
            ok = False
            details.append(f"trial {trial}: passed={report.passed} region={in_region} "
                           f"qp={problem.value:.3g} proc={report.roughness:.3g}")
    with capsys.disabled():
        passed = record(
            "4b", ok and checked >= 10,
            f"{checked} QP instances solved; procedure fits feasible and no smoother than the QP optimum"
            + ("" if ok else "; " + "; ".join(details)),
        )
    assert passed


# --- criterion 5: spectral bounds --------------------------------------------

def test_criterion_05_spectral_bounds(capsys):
    c1s, c2s = [], []
    zeros_ok = True
    for n in (32, 64, 128):
        t = np.arange(1, n + 1) / n
        ev = asp.build_penalty(asp.Sample(t, np.zeros(n))).eigenvalues()
        zeros_ok &= abs(ev[0]) < 1e-9 * ev[-1] and abs(ev[1]) < 1e-9 * ev[-1]
        i = np.arange(3, n + 1)
        ratios = ev[2:] / (i**4 / n)
        c1s.append(ratios.min())
        c2s.append(ratios.max())
    spread_c1 = max(c1s) / min(c1s)
    spread_c2 = max(c2s) / min(c2s)
    ok = zeros_ok and spread_c1 < 4.0 and spread_c2 < 4.0
    with capsys.disabled():
        passed = record(
            "5", ok,
            f"two zero eigenvalues at every n; c1 in [{min(c1s):.2f}, {max(c1s):.2f}] "
            f"(spread {spread_c1:.2f}x), c2 in [{min(c2s):.2f}, {max(c2s):.2f}] "
            f"(spread {spread_c2:.2f}x); target spread < 4x",
        )
    assert passed


# --- criterion 6: global-branch monotonicity ---------------------------------

def test_criterion_06_global_roughness_monotone(capsys):
    rng = np.random.default_rng(606)
    violations = 0
    for trial in range(50):
        n = int(rng.integers(32, 257))
        t = np.arange(1, n + 1) / n
        kind = trial % 3
        if kind == 0:
            y = rng.normal(size=n)
        elif kind == 1:
            y = np.sin(2 * np.pi * rng.integers(1, 5) * t) + 0.3 * rng.normal(size=n)
        else:
            y = asp.rupcar(6).f(t) + 0.05 * rng.normal(size=n)
        report = asp.fit_global(asp.Sample(t, y))
        rough = [e.roughness for e in report.trace[1:]]
        for a, b in zip(rough, rough[1:]):
            if b < a - 1e-9 * max(1.0, a):
                violations += 1
                break
    with capsys.disabled():
        passed = record(
            "6", violations == 0,
            f"roughness nondecreasing along the shared-weight doubling trace on 50/50 datasets"
            if violations == 0 else f"{violations}/50 datasets violated monotonicity",
        )
    assert passed


# --- criterion 7: MRISE desk-scale reproduction -------------------------------

def test_criterion_07a_mrise_envelope_signal(capsys):
    config = asp.study_preset("rupcar-hi", n_grid=(400,), replicates=100, seed=0)
    rows = asp.mrise_study(config)
    value = next(r["mrise"] for r in rows if r["order"] == 0)
    ok = 0.024 <= value <= 0.036
    with capsys.disabled():
        passed = record("7a", ok, f"MRISE(fit) = {value:.4f} at n=400, 100 replicates (target [0.024, 0.036])")
    assert passed


def test_criterion_07b_mrise_bumps_signal(capsys):
    config = asp.study_preset("bumps-hi", n_grid=(400,), replicates=100, seed=0)
    rows = asp.mrise_study(config)
    value = next(r["mrise"] for r in rows if r["order"] == 0)
    ok = value < 0.7
    with capsys.disabled():
        passed = record(
            "7b", ok,
            f"MRISE(fit) = {value:.4f} at n=400, 100 replicates "
            f"(target < 0.7, below the printed comparator values >= 0.74)",
        )
    assert passed


def test_criterion_07c_mrise_monotone_in_n(capsys):
    ok = True
    details = []
    for preset in ("rupcar-hi", "bumps-hi"):
        config = asp.study_preset(preset, n_grid=(400, 800, 1600, 3200), replicates=10, seed=0)
        vals = [r["mrise"] for r in asp.mrise_study(config) if r["order"] == 0]
        mono = all(b <= a * 1.05 for a, b in zip(vals, vals[1:]))
        ok &= mono
        details.append(f"{preset}: {['%.4f' % v for v in vals]}")
    with capsys.disabled():
        passed = record("7c", ok, "median RISE nonincreasing in n; " + "; ".join(details))
    assert passed


# --- criterion 8: robust variant ----------------------------------------------

def _robust_experiment(seeds: int):
    n = 1024
    scale = 0.3
    signal = asp.sine()
    grid = interior_grid()
    gm = (grid >= 0.1) & (grid <= 0.9)
    truth = signal.f(grid[gm])
    sup_ok = idem_ok = 0
    ratios = []
    for seed in range(seeds):
        contaminated = asp.make_dataset(signal, n, scale, noise="cauchy", seed=[41, seed])
        gaussian = asp.make_dataset(signal, n, scale, noise="gaussian", seed=[42, seed])
        sigma = asp.sigma_hat(contaminated)
        cleaned, _ = asp.clean_outliers(contaminated, sigma)
        again, changed = asp.clean_outliers(cleaned, sigma)
        idem_ok += bool(np.array_equal(cleaned.y, again.y) and not changed.any())
        err_c = float(np.max(np.abs(asp.evaluate(asp.fit(cleaned).final_fit, grid[gm], 0) - truth)))
        err_g = float(np.max(np.abs(asp.evaluate(asp.fit(gaussian).final_fit, grid[gm], 0) - truth)))
        ratios.append(err_c / err_g)
        sup_ok += err_c < 5.0 * err_g
    return sup_ok, idem_ok, ratios


_ROBUST_CACHE = {}


def _robust_results():
    if "r" not in _ROBUST_CACHE:
        _ROBUST_CACHE["r"] = _robust_experiment(50)
    return _ROBUST_CACHE["r"]


def test_criterion_08a_robust_sup_error_budget(capsys):
    sup_ok, _, ratios = _robust_results()
    with capsys.disabled():
        passed = record(
            "8a", sup_ok >= 45,
            f"cleaned-then-fit sup error within 5x of the Gaussian run in {sup_ok}/50 seeds "
            f"(target >= 45; median ratio {np.median(ratios):.1f}x)",
        )
    assert passed


def test_criterion_08b_cleaning_idempotent(capsys):
    _, idem_ok, _ = _robust_results()
    with capsys.disabled():
        passed = record("8b", idem_ok == 50, f"clean_outliers idempotent on {idem_ok}/50 seeds (target 50)")
    assert passed


# --- criterion 9: scale variant -------------------------------------------------

def test_criterion_09ab_sinusoidal_scale(capsys):
    n = 1024
    t = np.arange(1, n + 1) / n
    truth_knots = np.sin(4.0 * np.pi * t) ** 2
    grid = interior_grid(2048)
    truth_grid = np.sin(4.0 * np.pi * grid) ** 2
    passed_count = rise_count = 0
    for seed in range(50):
        z = np.random.default_rng([31, seed]).standard_normal(n)
        result = asp.scale_fit(asp.Sample(t, truth_knots * z))
        err = truth_grid - result.scale_at(grid)
        rise_val = math.sqrt(np.trapezoid(err * err, grid))
        passed_count += result.passed
        rise_count += rise_val < 0.15
    ok_pass = passed_count >= 45
    ok_rise = rise_count >= 40
    with capsys.disabled():
        a = record("9a", ok_pass, f"scale region entered in {passed_count}/50 seeds (target >= 45)")
        b = record("9b", ok_rise, f"RISE(sigma, s_n) < 0.15 in {rise_count}/50 seeds (target >= 40)")
    assert a and b


def test_criterion_09c_constant_scale_pointwise(capsys):
    n = 1024
    t = np.arange(1, n + 1) / n
    interior = (t >= 0.1) & (t <= 0.9)
    ok_count = 0
    for seed in range(50):
        z = np.random.default_rng([32, seed]).standard_normal(n)
        result = asp.scale_fit(asp.Sample(t, 2.0 * z))
        sv = result.scale_values()[interior]
        ok_count += bool(np.all((sv >= 1.6) & (sv <= 2.4)))
    with capsys.disabled():
        passed = record(
            "9c", ok_count >= 45,
            f"constant sigma recovered within +/-20% pointwise in {ok_count}/50 seeds (target >= 45)",
        )
    assert passed


# --- criterion 10: determinism ---------------------------------------------------

def test_criterion_10_determinism(capsys, tmp_path):
    # fit pipeline
    data = asp.make_dataset(asp.rupcar(6), 300, 0.05, seed=[10, 1])
    r1 = asp.fit(data)
    r2 = asp.fit(data)
    fit_same = (
        np.array_equal(r1.final_fit.values, r2.final_fit.values)
        and np.array_equal(r1.final_weights, r2.final_weights)
        and r1.trace == r2.trace
    )
    # calibration
    t1 = asp.calibrate_tau(128, 0.95, replicates=2000, seed=3)
    t2 = asp.calibrate_tau(128, 0.95, replicates=2000, seed=3)
    # simulation study
    config = asp.study_preset("rupcar-hi", n_grid=(100,), replicates=3, seed=4)
    s1 = asp.mrise_study(config)
    s2 = asp.mrise_study(config)
    ok = fit_same and t1 == t2 and s1 == s2
    with capsys.disabled():
        passed = record(
            "10", ok,
            f"fit/calibrate/simulate bit-identical across reruns "
            f"(fit={fit_same}, calibrate={t1 == t2}, simulate={s1 == s2})",
        )
    assert passed
