"""Mutation probe: how many one-site mutants of the engine does tier-1 kill?

Each mutant makes one change to one of the modules ``adapt``,
``multiscale``, ``variants`` and ``splines``: it flips a comparison
(``<``/``<=``, ``>``/``>=``, ``==``/``!=``), adds 1 to a small integer
constant (0 to 10), or swaps ``and``/``or``.  The probe lists every such
site, samples ``SAMPLE`` of them with ``random.Random(SEED)`` and prints
the sample.  It copies ``src/``, ``tests/``, ``perfbench/`` (a test reads
its tracer) and ``pyproject.toml`` into a temporary directory and runs
each mutant there, never in the repository: one pytest process at a
time, with ``-x`` and without the two criterion 1 tests (the τ table
fails at the seed, and the other one is slow).  The suite's own per-test
limit ends a mutant that hangs.  First it runs the copy with the four
modules passed through ``ast.unparse`` unmutated; that run must pass, or
no verdict below means anything.

    python tools/mutation_probe.py            # the baseline and the sample
    python tools/mutation_probe.py --only 3 17  # rerun sample entries 3 and 17

It prints one line per mutant and, at the end, the survivors as a
markdown table.  It uses only the standard library and pytest.
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "adaptspline"
MODULES = ("adapt", "multiscale", "variants", "splines")
SEED = 2026
SAMPLE = 40
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
# A backstop for a hang that the per-test limit cannot end, as inside a C call.
RUN_LIMIT = 1800
DESELECT = (
    "tests/test_acceptance.py::test_criterion_01_tau_calibration_table",
    "tests/test_acceptance.py::test_criterion_01_supporting_all_intervals_value",
)


def sites(tree):
    """The mutable sites of a module, as (node, slot, description), in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    found.append((node, k, f"`{SYMBOLS[type(op)]}` → `{SYMBOLS[FLIPS[type(op)]]}`"))
        elif isinstance(node, ast.BoolOp):
            found.append((node, None, "`and` → `or`" if isinstance(node.op, ast.And) else "`or` → `and`"))
        elif isinstance(node, ast.Constant) and type(node.value) is int and 0 <= node.value <= 10:
            found.append((node, None, f"`{node.value}` → `{node.value + 1}`"))
    return sorted(found, key=lambda s: (s[0].lineno, s[0].col_offset, -1 if s[1] is None else s[1]))


def mutate(node, slot):
    if isinstance(node, ast.Compare):
        node.ops[slot] = FLIPS[type(node.ops[slot])]()
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    else:
        node.value += 1


def source(module):
    return (ROOT / PACKAGE / f"{module}.py").read_text()


def all_sites():
    """Every site of the four modules, as (module, index within it, line, description)."""
    return [(m, i, node.lineno, text) for m in MODULES for i, (node, _, text) in enumerate(sites(ast.parse(source(m))))]


def mutant(module, index):
    tree = ast.parse(source(module))
    node, slot, _ = sites(tree)[index]
    mutate(node, slot)
    return ast.unparse(tree)


def run_suite(copy):
    """Run tier-1 in ``copy``; returns (passed, the first failing test or the last output line)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    cmd += [arg for test in DESELECT for arg in ("--deselect", test)]
    try:
        out = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=RUN_LIMIT)
    except subprocess.TimeoutExpired:
        return False, f"no verdict: the run passed its {RUN_LIMIT} s limit"
    lines = out.stdout.splitlines()
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return out.returncode == 0, (failed or lines[-1:] or [f"exit {out.returncode}"])[0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", type=int, nargs="+", metavar="K", help="run only these entries of the sample")
    args = parser.parse_args(argv)

    every = all_sites()
    sample = random.Random(SEED).sample(every, SAMPLE)
    print(f"{len(every)} sites in {', '.join(MODULES)}; sample of {SAMPLE} with random.Random({SEED}):")
    for k, (module, _, line, text) in enumerate(sample):
        print(f"  {k:2d}  {module}.py:{line}  {text}")

    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        for module in MODULES:
            (copy / PACKAGE / f"{module}.py").write_text(ast.unparse(ast.parse(source(module))))
        passed, detail = run_suite(copy)
        print(f"baseline (ast.unparse, unmutated): {'passed' if passed else 'FAILED: ' + detail}", flush=True)
        if not passed:
            return 1

        survivors = []
        for k in args.only or range(SAMPLE):
            module, index, line, text = sample[k]
            target = copy / PACKAGE / f"{module}.py"
            clean = target.read_text()
            target.write_text(mutant(module, index))
            try:
                passed, detail = run_suite(copy)
            finally:
                target.write_text(clean)
            print(f"  {k:2d}  {module}.py:{line}  {text}: {'SURVIVED' if passed else 'killed by ' + detail}", flush=True)
            if passed:
                survivors.append((k, module, line, text))

    print(f"\n{len(survivors)} of {len(args.only or range(SAMPLE))} mutants survived.\n")
    print("| # | Site | Mutation |\n|---|---|---|")
    for k, module, line, text in survivors:
        print(f"| {k} | `{module}.py:{line}` | {text} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
