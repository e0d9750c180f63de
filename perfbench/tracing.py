"""Span recorder for the traced run, and the per-layer report built from it.

The recorder wraps the functions named in ``LAYER_FUNCTIONS`` in every
``adaptspline`` module namespace that refers to them (``adapt``,
``variants`` and ``bench`` import them by name), so calls between modules
pass through the wrappers.  A span is recorded only while a timed call is
open; spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

LAYER_FUNCTIONS = (
    "splines.solve_weighted",
    "adapt.fit",
    "adapt.fit_local",
    "adapt.fit_global",
    "adapt._initial_lambda",
    "multiscale.in_region",
    "multiscale.sigma_hat",
    "multiscale.dyadic_family",
    "multiscale.calibrate_tau",
    "variants.clean_outliers",
    "variants.scale_fit",
    "bench.mrise_study",
    "bench.make_dataset",
    "bench.rise",
)
PACKAGE = "adaptspline"
_MODULES = ("", ".splines", ".multiscale", ".adapt", ".variants", ".bench")

NAME, PARENT, CALL, START, END, SIZE = range(6)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.call_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [sys.modules[PACKAGE + suffix] for suffix in _MODULES]
        for qualified in LAYER_FUNCTIONS:
            module, attr = qualified.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            wrapper = self._wrap(qualified, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.call_id is None:
                return func(*args, **kwargs)
            index = len(spans)
            size = getattr(args[0], "n", 0) if args else 0
            span = [name, stack[-1] if stack else -1, self.call_id, 0.0, 0.0, size]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def timed_call(self, call_id: int, kind: str):
        """Open the root span of one timed call; wrapped calls inside it are recorded."""
        self.call_id = call_id
        span = [kind, -1, call_id, 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self.call_id = None

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "call", "start", "end", "size"],
                       "spans": self.spans}, fh)


def per_layer(spans: list[list], calls: int, overhead_pct: float) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics, per timed call."""
    self_time = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_time[s[PARENT]] -= s[END] - s[START]

    def ancestors(i):
        i = spans[i][PARENT]
        while i >= 0:
            yield spans[i][NAME]
            i = spans[i][PARENT]

    count: dict[str, int] = {}
    own: dict[str, float] = {}
    for i, s in enumerate(spans):
        count[s[NAME]] = count.get(s[NAME], 0) + 1
        own[s[NAME]] = own.get(s[NAME], 0.0) + self_time[i]

    start = loop = scale = points = 0
    for i, s in enumerate(spans):
        if s[NAME] != "splines.solve_weighted":
            continue
        points += s[SIZE]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        start += parent == "adapt._initial_lambda"
        loop += parent in ("adapt.fit_local", "adapt.fit_global")
        scale += "variants.scale_fit" in ancestors(i)

    solve_self = own.get("splines.solve_weighted", 0.0)
    raw = {
        "splines.solve_weighted.calls": count.get("splines.solve_weighted", 0),
        "splines.solve_weighted.self_s": solve_self,
        "adapt.start_solves": start,
        "adapt.loop_solves": loop,
        "adapt.fit.self_s": sum(own.get(k, 0.0) for k in ("adapt.fit", "adapt.fit_local", "adapt.fit_global")),
        "multiscale.in_region.calls": count.get("multiscale.in_region", 0),
        "multiscale.in_region.self_s": own.get("multiscale.in_region", 0.0),
        "multiscale.sigma_hat.calls": count.get("multiscale.sigma_hat", 0),
        "multiscale.dyadic_family.calls": count.get("multiscale.dyadic_family", 0),
        "multiscale.calibrate_tau.self_s": own.get("multiscale.calibrate_tau", 0.0),
        "variants.clean_outliers.self_s": own.get("variants.clean_outliers", 0.0),
        "variants.scale_fit.self_s": own.get("variants.scale_fit", 0.0),
        "variants.scale_fit.solves": scale,
        "bench.mrise_study.self_s": own.get("bench.mrise_study", 0.0),
        "bench.make_dataset.self_s": own.get("bench.make_dataset", 0.0),
        "bench.rise.self_s": own.get("bench.rise", 0.0),
    }
    out = {name: value / calls for name, value in raw.items()}
    out["splines.solve_weighted.us_per_point"] = 1e6 * solve_self / points if points else 0.0
    out["trace.overhead_pct"] = overhead_pct
    return out
