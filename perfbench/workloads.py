"""The benchmark's workloads: inputs made from the seed, timed calls, checks.

A workload is built once (its set-up), then hands out rounds: each round
is the same fixed list of operations, so every run attempts whole rounds.
An operation is one timed call into the public API of ``adaptspline``
plus a ``verify`` step, run after the timing stops, that checks the
output with ``checks`` and records the accuracy figures.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np

import checks


class Op(NamedTuple):
    kind: str
    points: int
    call: Callable[[], object]
    verify: Callable[[object], None]


def derive(*keys: int) -> int:
    """A 32-bit seed for the program derived from the run seed and keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def median(values) -> float:
    return float(np.median(values))


class Workload:
    name = ""
    signals: tuple[str, ...] = ()  # signals whose accuracy the workload's fits give
    PANEL: dict[str, int] = {}  # calls per kind when run as an accuracy panel

    def __init__(self, asp, seed: int):
        self.asp = asp
        self.seed = seed
        self.acc: dict[str, list[float]] = {}

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run; raises ``checks.CheckError``."""

    def untimed_ops(self) -> list[Op]:
        """Calls the accuracy figures still need after the timed loop."""
        return []

    def record(self, metric: str, value: float) -> None:
        self.acc.setdefault(metric, []).append(float(value))

    def accuracy(self) -> dict[str, float]:
        return {name: median(values) for name, values in self.acc.items()}


class DeskStudy(Workload):
    """``mrise_study`` blocks at n = 400, alternating bumps-hi and rupcar-hi."""

    name = "desk-study"
    signals = ("bumps", "rupcar")
    N = 400
    REPLICATES = 8
    PANEL = {"bumps": 5, "rupcar": 5}
    PRESETS = (("bumps", "bumps-hi"), ("rupcar", "rupcar-hi"))
    # order-0 MRISE bands of acceptance criterion 7, checked on the run's median
    BANDS = {"bumps": (0.0, 0.7), "rupcar": (0.024, 0.036)}

    def __init__(self, asp, seed):
        super().__init__(asp, seed)
        self.configs = {
            signal: asp.study_preset(preset, n_grid=(self.N,), replicates=self.REPLICATES)
            for signal, preset in self.PRESETS
        }
        # mrise_study returns medians only; keep each fit it makes for the
        # checks.  adapt.fit is looked up at call time, so a tracer that
        # wraps it still sees the call.
        captured: list = []

        def capturing_fit(sample, config=None):
            report = asp.adapt.fit(sample, config)
            captured.append((sample, report))
            return report

        asp.bench.fit = capturing_fit
        self.captured = captured

    def round(self, index):
        ops = []
        for key, (signal, _) in enumerate(self.PRESETS):
            config = dataclasses.replace(self.configs[signal], seed=derive(self.seed, 1, index, key))
            ops.append(Op(signal, self.N * self.REPLICATES,
                          lambda c=config: self.asp.mrise_study(c),
                          lambda rows, s=signal: self._verify(s, rows)))
        return ops

    def _verify(self, signal, rows):
        fits, self.captured[:] = list(self.captured), []
        for row in rows:
            self.record(f"mrise{row['order']}.{signal}", row["mrise"])
        if len(fits) != self.REPLICATES or len(rows) != 3:
            raise checks.CheckError(f"study made {len(fits)} fits and {len(rows)} rows")
        for sample, report in fits:
            checks.check_mean_fit(sample.t, sample.y, report)

    def finish(self):
        for signal, (low, high) in self.BANDS.items():
            value = median(self.acc[f"mrise0.{signal}"])
            if not low <= value <= high:
                raise checks.CheckError(f"order-0 MRISE {value:.4f} of {signal} outside [{low}, {high}]")


class LargeN(Workload):
    """``fit`` at n = 25600 on both signals, plus one bumps-hi fit at n = 51200."""

    name = "large-n"
    signals = ("bumps", "rupcar")
    N = 25600
    N_FAILING = 51200
    POOL = 4

    def __init__(self, asp, seed):
        super().__init__(asp, seed)
        self.functions = {"bumps": asp.bumps(), "rupcar": asp.rupcar(6)}
        sigma = {"bumps": asp.SIGMA_PRESETS["bumps-hi"], "rupcar": asp.SIGMA_PRESETS["rupcar-hi"]}
        self.pool = {
            signal: [asp.make_dataset(fn, self.N, sigma[signal], seed=[seed, 2, key, k])
                     for k in range(self.POOL)]
            for key, (signal, fn) in enumerate(self.functions.items())
        }
        # RISE of f, f', f'' per (signal, pool entry); a refit of an entry
        # gives the same figures, so each entry counts once
        self.rises: dict[tuple[str, int], list[float]] = {}
        # Fails today in every probe (weighted spline system singular); its
        # input is fixed so that the failure share is the same in every run.
        # It enters no accuracy figure.
        self.failing = asp.make_dataset(self.functions["bumps"], self.N_FAILING, sigma["bumps"], seed=[0, 2])

    def round(self, index):
        ops = [self._op(signal, index % self.POOL) for signal in self.functions]
        data = self.failing
        ops.append(Op("bumps-51200", self.N_FAILING, lambda: self.asp.fit(data),
                      lambda r: checks.check_mean_fit(data.t, data.y, r)))
        return ops

    def _op(self, signal, k):
        data = self.pool[signal][k]
        return Op(signal, self.N, lambda: self.asp.fit(data), lambda r: self._verify(signal, k, r))

    def _verify(self, signal, k, report):
        data = self.pool[signal][k]
        checks.check_mean_fit(data.t, data.y, report)
        fn = self.functions[signal]
        self.rises[signal, k] = [self.asp.rise(fn, report.final_fit, order) for order in (0, 1, 2)]

    def untimed_ops(self):
        return [self._op(signal, k) for signal in self.functions for k in range(self.POOL)
                if (signal, k) not in self.rises]

    def accuracy(self):
        """Medians over the whole pool, each entry once."""
        return {f"mrise{order}.{signal}": median([r[order] for (s, _), r in self.rises.items() if s == signal])
                for signal in self.functions for order in (0, 1, 2)}


class Variants(Workload):
    """Alternating robust fits (Cauchy sine) and ``scale_fit`` (sin^2 scale) at n = 1024."""

    name = "variants"
    signals = ("sine", "scale")
    N = 1024
    CAUCHY_SCALE = 0.3
    POOL = 128
    PANEL = {"robust": 48, "scale": 16}
    SCALE_GRID = np.linspace(0.0, 1.0, 2048 + 2)[1:-1]

    def __init__(self, asp, seed):
        super().__init__(asp, seed)
        self.sine = asp.sine()
        self.robust = [asp.make_dataset(self.sine, self.N, self.CAUCHY_SCALE, noise="cauchy",
                                        seed=[seed, 3, k]) for k in range(self.POOL)]
        t = np.arange(1, self.N + 1) / self.N
        self.scale = [asp.Sample(t, np.sin(4.0 * np.pi * t) ** 2
                                 * np.random.default_rng([seed, 4, k]).standard_normal(self.N))
                      for k in range(self.POOL)]
        self.scale_truth = np.sin(4.0 * np.pi * self.SCALE_GRID) ** 2

    def _robust(self, data):
        asp = self.asp
        cleaned, _ = asp.clean_outliers(data, asp.sigma_hat(data))
        return cleaned, asp.fit(cleaned)

    def round(self, index):
        robust = self.robust[index % self.POOL]
        scale = self.scale[index % self.POOL]
        return [
            Op("robust", self.N, lambda: self._robust(robust), self._verify_robust),
            Op("scale", self.N, lambda: self.asp.scale_fit(scale),
               lambda r: self._verify_scale(scale, r)),
        ]

    def _verify_robust(self, result):
        cleaned, report = result
        again, changed = self.asp.clean_outliers(cleaned, cleaned.sigma)
        if changed.any() or not np.array_equal(again.y, cleaned.y):
            raise checks.CheckError(f"cleaning the cleaned sample replaced {int(changed.sum())} points")
        checks.check_mean_fit(cleaned.t, cleaned.y, report)
        self.record("mrise0.sine", self.asp.rise(self.sine, report.final_fit, 0))

    def _verify_scale(self, sample, result):
        checks.check_scale_fit(sample.y, result)
        err = self.scale_truth - result.scale_at(self.SCALE_GRID)
        self.record("mrise.scale", math.sqrt(np.trapezoid(err * err, self.SCALE_GRID)))


class Calibrate(Workload):
    """``calibrate_tau`` at n = 10000, alpha = 0.95, a fixed replicate count."""

    name = "calibrate"
    N = 10000
    ALPHA = 0.95
    REPLICATES = 1000

    def round(self, index):
        seed = derive(self.seed, 5, index)
        return [Op("calibrate", self.N * self.REPLICATES,
                   lambda: self.asp.calibrate_tau(self.N, self.ALPHA, replicates=self.REPLICATES, seed=seed),
                   lambda tau: checks.check_tau(tau, self.N, self.ALPHA, self.REPLICATES, seed))]


WORKLOADS = {cls.name: cls for cls in (DeskStudy, LargeN, Variants, Calibrate)}
# Which workload fits each signal at desk scale: a run that fits none of a
# signal's data reports that signal's accuracy from untimed calls of its owner.
OWNERS = {signal: cls for cls in WORKLOADS.values() if cls.PANEL for signal in cls.signals}
