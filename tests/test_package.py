"""The package's public names, what importing it loads, and the suite's
per-test time limit."""

import ast
import importlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import adaptspline
from adaptspline import adapt, bench, multiscale, splines, variants
from conftest import TEST_TIME_LIMIT

# Run in a fresh interpreter, because the test session has SciPy loaded
# already.  Each stage prints which of the two SciPy packages are loaded
# after the calls before it.
_STAGES = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in ("scipy.linalg", "scipy.special") if m in sys.modules)

stages = {}
import numpy as np
import adaptspline as a
from adaptspline import cli

a.calibrate_tau(64, replicates=1000)
sample = a.make_dataset(a.bumps(), 64, 0.1, seed=0)
a.sigma_hat(sample)
line = a.affine_fit(sample.t, 0.0, 0.0)
a.in_region(sample, line.values, a.dyadic_family(64), a.RegionSpec(0.1, n=64))
a.rise(a.bumps(), line)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["--help"]) == 0
    assert cli.main(["calibrate", "--n", "64", "--replicates", "1000"]) == 0
stages["import"] = loaded()

a.solve_weighted(sample, np.ones(64))
stages["solve_weighted"] = loaded()

a.chisq_quantile(0.5, 3)
stages["chisq_quantile"] = loaded()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def loaded_after():
    src = os.path.dirname(os.path.dirname(os.path.abspath(adaptspline.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _STAGES], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return json.loads(out.stdout.splitlines()[-1])


class TestImportSurface:
    def test_import_data_statistics_and_calibrate_load_no_scipy(self, loaded_after):
        assert loaded_after["import"] == []

    def test_a_solve_loads_the_linear_algebra_only(self, loaded_after):
        assert loaded_after["solve_weighted"] == ["scipy.linalg"]

    def test_a_chi_squared_quantile_loads_the_special_functions(self, loaded_after):
        assert loaded_after["chisq_quantile"] == ["scipy.linalg", "scipy.special"]


def test_the_package_exports_every_public_name_of_its_modules():
    modules = (adapt, bench, multiscale, splines, variants)
    assert sorted(adaptspline.__all__) == sorted(set().union(*(m.__all__ for m in modules)))
    assert all(getattr(adaptspline, name) is getattr(m, name) for m in modules for name in m.__all__)


def test_no_two_modules_export_the_same_name():
    # a name in two lists would be exported once, from the later module
    assert len(adaptspline.__all__) == len(set(adaptspline.__all__))


def test_the_benchmark_tracer_names_callables_of_the_package():
    # perfbench/tracing.py wraps the functions of LAYER_FUNCTIONS by name,
    # so a rename inside the package would leave a layer unmeasured
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PACKAGE == "adaptspline" and tracing.LAYER_FUNCTIONS
    for qualified in tracing.LAYER_FUNCTIONS:
        module, attr = qualified.split(".")
        assert callable(getattr(importlib.import_module(f"adaptspline.{module}"), attr, None)), qualified


def test_every_private_module_level_name_is_used_in_the_package():
    # a private helper that only tests reach is a second path for what the
    # package does elsewhere; a name counts as used when a top-level
    # statement other than its own definition, in any module, names it
    package = Path(adaptspline.__file__).parent
    statements = [(path.name, stmt) for path in sorted(package.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]

    def named(stmt):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    def defined(stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            return [stmt.name]
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        return [target.id for target in targets if isinstance(target, ast.Name)]

    uses = [set(named(stmt)) for _, stmt in statements]
    unused = [f"{module}: {name}" for i, (module, stmt) in enumerate(statements) for name in defined(stmt)
              if name.startswith("_") and not name.startswith("__")
              and not any(name in used for j, used in enumerate(uses) if j != i)]
    assert unused == []


def test_each_test_runs_under_the_time_limit():
    # the autouse fixture armed a timer whose handler fails the test
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0.0 < remaining <= TEST_TIME_LIMIT and interval == 0.0
    with pytest.raises(TimeoutError, match=f"past its {TEST_TIME_LIMIT} s limit"):
        signal.getsignal(signal.SIGALRM)(signal.SIGALRM, None)
