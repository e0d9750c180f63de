#!/usr/bin/env python3
"""Benchmark of adaptspline: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload desk-study --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run is a closed loop in one thread: the next timed call starts when
the previous one returns, in whole rounds of the workload's operations,
until ``--seconds`` have passed.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of traced rounds (see README.md).  The program is
imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3  # fresh processes timed for setup_s, besides the run's own set-up
PROBE_TIMEOUT_S = 60

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)  # workload and metric names, units and bounds
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# one thread: keep the BLAS and OpenMP pools of numpy and scipy at one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def set_up(name: str, seed: int):
    """Import the program from src/ and build the workload's inputs; returns (workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import adaptspline

    if os.path.dirname(os.path.abspath(adaptspline.__file__)) != os.path.join(SRC, "adaptspline"):
        raise ImportError(f"adaptspline was imported from {adaptspline.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[name](adaptspline, seed)
    return workload, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """set-up time of a fresh workload process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name, "--seed", str(seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Loop:
    """Closed-loop runner: times each call, verifies it, counts failures."""

    def __init__(self, workload, reference=None):
        self.workload = workload
        self.reference = reference  # timed before every call, or None
        self.ref_seconds: list[float] = []
        self.attempted = self.failed = 0
        self.by_kind: dict[str, tuple[list[float], list[int]]] = {}
        self.problems: list[str] = []

    def run_op(self, op, recorder=None) -> float:
        """One timed call, then its checks; returns the call's wall time."""
        call_id = self.attempted
        self.attempted += 1
        if self.reference:
            self.ref_seconds.append(self.reference())
        span = recorder.timed_call(call_id, op.kind) if recorder else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            try:
                result, error = op.call(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                # keep only the message: the traceback holds the failed call's arrays
                result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        times, points = self.by_kind.setdefault(op.kind, ([], []))
        times.append(elapsed)
        points.append(0 if error is not None else op.points)
        if error is not None:
            self.failed += 1
            if self.failed == 1:
                print(f"{op.kind}: failed with {error}", file=sys.stderr)
        else:
            try:
                op.verify(result)
            except AssertionError as exc:  # checks.CheckError
                self.problems.append(f"{op.kind}: {exc}")
        return elapsed

    def round(self, index: int, recorder=None) -> list[float]:
        return [self.run_op(op, recorder) for op in self.workload.round(index)]

    def points_per_s(self) -> float:
        """Points of a round over its time in reference seconds.

        A round's time is the sum over kinds of each kind's median call
        time; it is divided by the run's median time of the reference
        kernel, timed before every call, and multiplied by
        ``reference.NOMINAL_S``.  Other tenants of a shared machine slow
        the kernel and the calls alike, so the ratio follows the code, not
        the host's load of the moment.
        """
        import reference

        points = sum(statistics.median(p) for _, p in self.by_kind.values())
        seconds = sum(statistics.median(t) for t, _ in self.by_kind.values())
        return points / (seconds / statistics.median(self.ref_seconds) * reference.NOMINAL_S)


def for_seconds(seconds: float, round_) -> None:
    """Call ``round_(index)`` for whole rounds until ``seconds`` have passed."""
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        round_(index)
        index += 1


def accuracy_panels(workload, seed: int, problems: list[str]) -> dict[str, float]:
    """Accuracy figures: the workload's own, after the untimed calls it still
    needs, and those of the signals it does not fit, from untimed calls of
    their owners."""
    import workloads

    rest = Loop(workload)
    for op in workload.untimed_ops():
        rest.run_op(op)
    problems.extend(f"untimed {p}" for p in rest.problems)
    if rest.failed:
        problems.append(f"untimed: {rest.failed} calls failed")
    acc = workload.accuracy()
    owners = {workloads.OWNERS[m.split(".")[-1]] for m in END_TO_END if m.startswith("mrise") and m not in acc}
    for owner in owners:
        panel = owner(workload.asp, seed)
        loop = Loop(panel)
        left = dict(owner.PANEL)
        index = 0
        while any(left.values()):
            for op in panel.round(index):
                if left[op.kind]:
                    left[op.kind] -= 1
                    loop.run_op(op)
            index += 1
        problems.extend(f"panel {p}" for p in loop.problems)
        if loop.failed:
            problems.append(f"panel {owner.name}: {loop.failed} calls failed")
        acc = {**panel.accuracy(), **acc}
    return acc


def run(name: str, seed: int, seconds: float, trace: bool):
    workload, setup_s = set_up(name, seed)
    import tracing

    if not trace:
        import reference

        loop = Loop(workload, reference.timed)
        for_seconds(seconds, loop.round)
    else:
        # Each round runs untraced and traced back to back, in alternating
        # order, so both timings of a call see the same machine load; the
        # overhead is the median ratio of a call's traced to untraced time.
        # Round 0 carries the process's first-call costs (page faults of
        # fresh arrays), so it is left out of the ratio when others exist.
        loop = Loop(workload)
        recorder = tracing.Recorder()
        ratios: list[list[float]] = []

        def traced_round(index):
            recorder.install()
            try:
                return loop.round(index, recorder)
            finally:
                recorder.uninstall()

        def paired_round(index):
            if index % 2 == 0:
                plain, traced = loop.round(index), traced_round(index)
            else:
                traced, plain = traced_round(index), loop.round(index)
            ratios.append([b / a for a, b in zip(plain, traced)])

        for_seconds(seconds, paired_round)
        kept = [r for rows in ratios[1:] or ratios for r in rows]
        overhead = 100.0 * (statistics.median(kept) - 1.0)
        os.makedirs(OUT, exist_ok=True)
        recorder.write(os.path.join(OUT, f"trace_{name}.json"))
    try:
        workload.finish()
    except AssertionError as exc:
        loop.problems.append(str(exc))

    setups = None
    if trace:
        values = tracing.per_layer(recorder.spans, sum(map(len, ratios)), overhead)
        units = PER_LAYER
    else:
        acc = accuracy_panels(workload, seed, loop.problems)
        setups = [setup_s] + [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
        values = {
            "setup_s": statistics.median(setups),
            "points_per_s": loop.points_per_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **acc,
        }
        units = END_TO_END
    for problem in loop.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    details = {"call_seconds": {kind: times for kind, (times, _) in loop.by_kind.items()},
               "reference_seconds": loop.ref_seconds, "setup_seconds": setups, "problems": loop.problems}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.setup_probe:
        print(repr(set_up(args.workload, args.seed)[1]))
        return 0
    if args.workload == "all":
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            line = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()[-1]
            print(name, line, flush=True)
        return 0

    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result_{args.workload}_trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "details": details}, fh, indent=1)
    for key, metric in result["metrics"].items():
        print(f"{args.workload:>10}  {key:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:>10}  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
