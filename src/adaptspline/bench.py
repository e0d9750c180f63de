"""Test functions, noise models, error metrics and the simulation harness.

Provides the benchmark signals used throughout (a chirp-like envelope
signal with tunable frequency, the bumps signal of Donoho & Johnstone
(1994) with its published constants, and a sine), seeded dataset
generation on the grid t_i = i/n, root integrated squared error for the
fit and its first two derivatives, and a study driver that tabulates the
median RISE over replicates per sample size.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .adapt import fit, fit_global
from .splines import Sample, SplineFit, _check_order, _combine, _is_count, _locate, _shared_design

__all__ = [
    "TestFunction",
    "StudyConfig",
    "rupcar",
    "bumps",
    "sine",
    "custom_function",
    "make_dataset",
    "rise",
    "mrise_study",
    "study_rows_to_csv",
    "study_rows_to_json",
    "SIGMA_PRESETS",
    "study_preset",
]

# Noise levels from the signal-to-noise conventions of the simulation study:
# signal spread 0.288 (envelope signal) resp. 2.2 (bumps) over SNR 3 and 7.
SIGMA_PRESETS = {
    "rupcar-lo": 0.288 / 3,
    "rupcar-hi": 0.288 / 7,
    "bumps-lo": 2.2 / 3,
    "bumps-hi": 2.2 / 7,
}

_ESTIMATORS = ("wss", "global-only")  # the adaptive fit, or its global branch alone
_RISE_GRID = 4096
_FD_STEP = 1e-6


@dataclass(frozen=True)
class TestFunction:
    """A named signal with evaluators for f, f' and f'' on [0, 1]."""

    __test__ = False  # named like a test class, so pytest would try to collect it
    name: str
    f: callable
    df: callable
    d2f: callable


def custom_function(name: str, f) -> TestFunction:
    """Wrap f with derivatives by central differences of step ``_FD_STEP``."""
    h = _FD_STEP

    def df(x):
        return (f(np.asarray(x) + h) - f(np.asarray(x) - h)) / (2.0 * h)

    def d2f(x):
        x = np.asarray(x)
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)

    return TestFunction(name, f, df, d2f)


def rupcar(j: int = 6) -> TestFunction:
    """The envelope-modulated chirp sqrt(x(1-x)) * sin(2*pi*(1+a)/(x+a)).

    ``a = 2**((9-4j)/5)``; larger j squeezes the oscillation towards the
    left end.  The derivatives are analytic; they are unbounded at the
    interval ends where the envelope has vertical tangents.
    """
    a = 2.0 ** ((9.0 - 4.0 * j) / 5.0)
    c = 2.0 * math.pi * (1.0 + a)

    def f(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):
            return np.sqrt(x * (1.0 - x)) * np.sin(c / (x + a))

    def chain(x):
        """The envelope u, the phase phi and their first derivatives at x."""
        u = np.sqrt(x * (1.0 - x))
        du = (1.0 - 2.0 * x) / (2.0 * u)
        phi = c / (x + a)
        dphi = -c / (x + a) ** 2
        return u, du, phi, dphi

    def df(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            u, du, phi, dphi = chain(x)
            return du * np.sin(phi) + u * np.cos(phi) * dphi

    def d2f(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            u, du, phi, dphi = chain(x)
            d2u = -1.0 / (4.0 * u**3)
            d2phi = 2.0 * c / (x + a) ** 3
            sv, cv = np.sin(phi), np.cos(phi)
            return d2u * sv + 2.0 * du * cv * dphi + u * (cv * d2phi - sv * dphi * dphi)

    return TestFunction(f"rupcar{j}", f, df, d2f)


def bumps() -> TestFunction:
    """The bumps signal of Donoho & Johnstone (1994), "Ideal spatial
    adaptation by wavelet shrinkage", Biometrika 81, 425-455.

    Bump k is height_k * (1 + |t - centre_k| / width_k)^-4, with the
    11 centres, heights and widths of their published table.
    The kernel has a kink at each center, so the derivative evaluators use
    central differences (step 1e-6) on the smooth closed form.
    """
    centre = np.array((0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81))
    height = np.array((4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2))
    width = np.array((0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005))

    def raw(x):
        x = np.asarray(x, dtype=float)
        u = (x[..., None] - centre) / width
        return np.sum(height * (1.0 + np.abs(u)) ** -4.0, axis=-1)

    return custom_function("bumps", raw)


def sine(cycles: float = 1.0) -> TestFunction:
    """sin(2*pi*cycles*t), the smooth reference signal for the robust variant."""
    w = 2.0 * math.pi * cycles

    def f(x):
        return np.sin(w * np.asarray(x, dtype=float))

    def df(x):
        return w * np.cos(w * np.asarray(x, dtype=float))

    def d2f(x):
        return -w * w * np.sin(w * np.asarray(x, dtype=float))

    return TestFunction("sine", f, df, d2f)


# The signals a study can name, each built with its default parameters; a
# preset names its signal before the "-".
_SIGNALS = {"rupcar": rupcar, "bumps": bumps, "sine": sine}


def make_dataset(fn: TestFunction, n: int, sigma: float, noise: str = "gaussian", seed=0) -> Sample:
    """Equispaced data t_i = i/n with y = f(t) + sigma * noise, seeded.

    ``noise`` is "gaussian" or "cauchy" (standard variates either way);
    ``sigma`` must be nonnegative and finite; ``seed`` may be an int or a
    sequence of ints.
    """
    if not _is_count(n, 3):
        raise ValueError(f"need an integer n of at least 3 data points, got {n!r}")
    if noise not in ("gaussian", "cauchy"):
        raise ValueError("noise must be 'gaussian' or 'cauchy'")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError("sigma must be a nonnegative finite number")
    t = _design(n)
    return _noisy(t, fn.f(t), sigma, noise, seed)


def _design(n: int) -> np.ndarray:
    return np.arange(1, n + 1) / n


def _noisy(t: np.ndarray, signal: np.ndarray, sigma: float, noise: str, seed) -> Sample:
    """The sample y = signal + sigma * noise on t, with the noise seeded by ``seed``."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(t.size) if noise == "gaussian" else rng.standard_cauchy(t.size)
    return Sample(t, signal + sigma * z)


def rise(fn: TestFunction, fit_: SplineFit, order: int = 0, grid: int = _RISE_GRID) -> float:
    """Root integrated squared error between the truth and a fitted spline.

    Composite trapezoid quadrature on a ``grid``-point uniform grid kept
    strictly inside (0, 1): the benchmark signals have unbounded
    derivatives at the interval ends, so the quadrature nodes exclude them.
    The rule needs two nodes, so ``grid`` is an integer of at least 2.
    """
    _check_order(order)
    if not _is_count(grid, 2):
        raise ValueError(f"grid must be an integer >= 2, got {grid!r}")
    x = _rise_grid(grid)
    return _rise_against((fn.f, fn.df, fn.d2f)[order](x), _locate(fit_.knots, x), fit_, order)


def _rise_grid(grid: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, grid + 2)[1:-1]


def _rise_against(truth: np.ndarray, loc, fit_: SplineFit, order: int) -> float:
    """RISE of a fit against the truth already evaluated on a grid that
    ``loc`` (from ``splines._locate``) located among the fit's knots."""
    diff = truth - _combine(loc, fit_.values, fit_.second_derivs, order)
    return float(np.sqrt(np.trapezoid(diff * diff, loc.x)))


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one simulation study run."""

    function: TestFunction
    sigma: float
    n_grid: tuple[int, ...] = (400, 800, 1600, 3200)
    replicates: int = 100
    seed: int = 0
    estimator: str = "wss"

    def __post_init__(self):
        try:
            grid = tuple(self.n_grid)
        except TypeError:
            grid = ()
        if not (grid and all(_is_count(n, 3) for n in grid)):
            raise ValueError(f"n_grid must be a non-empty sequence of integers >= 3, got {self.n_grid!r}")
        # plain ints, so that the rows of a study serialize to JSON
        object.__setattr__(self, "n_grid", tuple(int(n) for n in grid))
        for name, least in (("replicates", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_count(value, least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be a nonnegative finite number")
        object.__setattr__(self, "sigma", float(self.sigma))
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be {' or '.join(map(repr, _ESTIMATORS))}")


_STUDY_COLUMNS = ["function", "n", "sigma", "order", "mrise", "replicates", "seed"]


def mrise_study(config: StudyConfig) -> list[dict]:
    """Median RISE over replicates for orders 0, 1, 2 at each sample size.

    Replicate r at size n draws its dataset from a generator seeded by
    (seed, n, r), so results are reproducible bit for bit and independent
    of execution order.  Returns one row per (n, order) with the fixed
    column set function, n, sigma, order, mrise, replicates, seed.

    Each sample size builds what its replicates share once: the design
    t, the signal f(t) on it (a replicate adds only its noise) and the
    location of the RISE grid among the design points, which are the
    knots of every fit at that size (``splines._locate``; a replicate's
    three RISE values apply only the cubic formulas to its fit).  The
    truth on the RISE grid is computed once per call.

    The replicates of one sample size also share their spline design
    (``splines._shared_design``): each equal-weight system is factored
    once per sample size, and later replicates reuse its LU factors.  The
    fits are bit-identical to fits made one at a time.  The factors are
    dropped before the next sample size, and a sample size keeps at most
    ``splines._FACTOR_BUDGET`` (32 MiB) of them; past that, an equal weight
    not yet kept is factored at each solve, as outside a study.
    """
    runner = fit if config.estimator == "wss" else fit_global
    # the truth on the RISE grid is the same for every replicate
    x = _rise_grid(_RISE_GRID)
    fn = config.function
    truths = (fn.f(x), fn.df(x), fn.d2f(x))
    rows = []
    for n in config.n_grid:
        errors = {0: [], 1: [], 2: []}
        t = _design(n)
        signal = fn.f(t)
        loc = _locate(t, x)
        with _shared_design():
            for rep in range(config.replicates):
                data = _noisy(t, signal, config.sigma, "gaussian", [config.seed, n, rep])
                report = runner(data)
                for order in (0, 1, 2):
                    errors[order].append(_rise_against(truths[order], loc, report.final_fit, order))
        for order in (0, 1, 2):
            mrise = float(np.median(errors[order]))
            row = (fn.name, n, config.sigma, order, mrise, config.replicates, config.seed)
            rows.append(dict(zip(_STUDY_COLUMNS, row)))
    return rows


def study_rows_to_csv(rows: list[dict], path) -> None:
    _write_csv(path, _STUDY_COLUMNS, ([row[key] for key in _STUDY_COLUMNS] for row in rows))


def study_rows_to_json(rows: list[dict], path) -> None:
    _write_json(rows, path)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def study_preset(name: str, **overrides) -> StudyConfig:
    """Named study configuration; overrides replace any StudyConfig field."""
    if name not in SIGMA_PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(SIGMA_PRESETS)}")
    params = {"function": _SIGNALS[name.partition("-")[0]](), "sigma": SIGMA_PRESETS[name]}
    params.update(overrides)
    return StudyConfig(**params)
