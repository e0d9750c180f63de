"""Command line front end.

Subcommands: fit, robust, scale, calibrate, simulate, spectrum.  Exit
codes follow one scheme everywhere: 0 success, 2 input/usage error
(an unreadable or unwritable path, or a failed allocation, among them),
3 procedure finished degenerate or with its iteration budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .adapt import AdaptConfig, fit
from .bench import _ESTIMATORS, _SIGNALS, SIGMA_PRESETS, StudyConfig, _design, mrise_study, study_preset
from .bench import _write_csv, _write_json, study_rows_to_csv, study_rows_to_json
from .multiscale import calibrate_tau, sigma_hat
from .splines import PenaltyMatrix, Sample
from .variants import _SCALE_BUDGET, ScaleRegionSpec, clean_outliers, scale_fit

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRUNCATED = 3


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_xy_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Two numeric columns, comma separated; blank lines are skipped, and
    the first other row is a header when neither of its two cells is a
    number, so a mistyped first data row is an error, not a header.  A
    UTF-8 byte-order mark is dropped.  Errors name the physical line."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"input file not found: {path}")
    ts, ys = [], []
    with open(p, newline="", encoding="utf-8-sig") as fh:
        rows = [(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1)
                if row and (len(row) > 1 or row[0].strip())]
    for index, (lineno, row) in enumerate(rows):
        if len(row) < 2:
            raise CliError(f"{path}:{lineno}: expected two comma-separated columns")
        try:
            tv, yv = float(row[0]), float(row[1])
        except ValueError:
            if index == 0 and not any(_is_number(cell) for cell in row[:2]):
                continue  # header row
            raise CliError(f"{path}:{lineno}: expected two numeric columns, got {row[:2]!r}") from None
        ts.append(tv)
        ys.append(yv)
    if len(ts) < 3:
        raise CliError(f"{path}: need at least 3 data rows")
    return np.asarray(ts), np.asarray(ys)


def _prepare_sample(t_raw: np.ndarray, y: np.ndarray, rescale: bool):
    """Validate the abscissae, optionally mapping them affinely onto [0, 1].

    Returns the sample plus the transform {"offset", "scale"} with
    t_internal = (t_raw - offset) / scale, or None without rescaling.
    """
    if np.any(np.diff(t_raw) <= 0):
        raise CliError("t column must be strictly increasing (sort the input; duplicates are not supported)")
    if rescale:
        offset = float(t_raw[0])
        scale = float(t_raw[-1] - t_raw[0])
        t = (t_raw - offset) / scale
        t[0], t[-1] = 0.0, 1.0
        return Sample(t, y), {"offset": offset, "scale": scale}
    if t_raw[0] < 0.0 or t_raw[-1] > 1.0:
        raise CliError("t values fall outside [0, 1]; pass --rescale to map them affinely")
    return Sample(t_raw, y), None


def _write_outputs(args, kind: str, json_suffix: str, columns: dict, weights, doc: dict) -> int:
    """Write the table <base>.<kind>.csv and the report <base><json_suffix>,
    and return the exit code: 0 when the run passed, else 3.

    The base is the input path without its last suffix, or --output if
    given; an --output that is a directory holds that input name instead.
    The table ends with "lambda": ``weights``, or 0 when the run fitted
    none.  The report names the table under "<kind>_csv".
    """
    base = Path(args.input).with_suffix("")
    if args.output:
        output = Path(args.output)
        base = output / base.name if output.is_dir() else output
    csv_path = base.with_name(f"{base.name}.{kind}.csv")
    json_path = base.with_name(base.name + json_suffix)
    lam = weights if weights is not None else np.zeros(len(columns["t"]))
    rows = ([repr(float(v)) for v in row] for row in zip(*columns.values(), lam))
    _write_csv(csv_path, [*columns, "lambda"], rows)
    doc[f"{kind}_csv"] = str(csv_path)
    _write_json(doc, json_path)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK if doc["passed"] else EXIT_TRUNCATED


def _outcome_keys(args, report, fit_, weights, rescale) -> dict:
    """The keys of a run's outcome that the fit and scale reports share;
    ``fit_`` and ``weights`` are the final fit and weights of ``report``."""
    return {
        "n": fit_.knots.size,
        "passed": report.passed,
        "truncated": report.truncated,
        "iterations": report.iterations,
        "chosen_branch": report.chosen_branch,
        "roughness": fit_.roughness,
        "start_halvings": report.start_halvings,
        "start_capped": report.start_capped,
        "lambda_min": float(weights.min()) if weights is not None else None,
        "lambda_max": float(weights.max()) if weights is not None else None,
        "trace": [dataclasses.asdict(e) for e in report.trace],
        "input": str(args.input),
        "rescale": rescale,
    }


def _cmd_fit(args) -> int:
    """fit, and robust: the same fit after clean_outliers at the raw-data sigma."""
    t_raw, y = _read_xy_csv(args.input)
    sample, rescale = _prepare_sample(t_raw, y, args.rescale)
    config = AdaptConfig(q=args.q, tau=args.tau, max_iterations=args.max_iter, sigma=args.sigma)
    extra = {}
    if args.command == "robust":
        sigma = config.sigma if config.sigma is not None else sigma_hat(sample)
        sample, mask = clean_outliers(sample, sigma)
        extra["replaced_indices"] = np.flatnonzero(mask).tolist()
    report = fit(sample, config)
    fit_ = report.final_fit
    d1 = fit_(sample.t, 1)
    d2 = fit_(sample.t, 2)
    if rescale is not None:
        scale = rescale["scale"]
        d1 = d1 / scale          # derivatives with respect to the raw abscissa
        d2 = d2 / (scale * scale)
    weights = report.final_weights
    doc = {
        **_outcome_keys(args, report, fit_, weights, rescale),
        "sigma_used": report.sigma_used,
        "tau": report.tau,
        "threshold_used": report.threshold_used,
        "roughness_local": report.roughness_local,
        "roughness_global": report.roughness_global,
        "derivative_units": "raw abscissa" if rescale is not None else "unit interval",
        **extra,
    }
    columns = {"t": t_raw, "fit": fit_.values, "d1": d1, "d2": d2}
    code = _write_outputs(args, "fit", ".report.json", columns, weights, doc)
    if args.plot_data:
        with open(args.plot_data, "w") as fh:
            fh.write("# t y fit d1 d2\n")
            for row in zip(t_raw, sample.y, fit_.values, d1, d2):
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    return code


def _cmd_scale(args) -> int:
    t_raw, y = _read_xy_csv(args.input)
    sample, rescale = _prepare_sample(t_raw, y, args.rescale)
    result = scale_fit(sample, alpha_n=args.alpha_n, q=args.q, max_iterations=args.max_iter)
    doc = {
        **_outcome_keys(args, result, result.s, result.weights, rescale),
        "degenerate": result.degenerate,
        "coverage": ScaleRegionSpec(sample.n, args.alpha_n).coverage,
        "floor": result.floor,
        "pinned_intervals": result.pinned_intervals,
    }
    columns = {"t": t_raw, "scale": result.scale_values()}
    return _write_outputs(args, "scale", ".scale.json", columns, result.weights, doc)


def _cmd_calibrate(args) -> int:
    tau = calibrate_tau(args.n, args.alpha, replicates=args.replicates, seed=args.seed)
    print(
        json.dumps(
            {
                "n": args.n,
                "alpha": args.alpha,
                "replicates": args.replicates,
                "seed": args.seed,
                "tau": tau,
            }
        )
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    shared = dict(n_grid=tuple(args.n_grid), replicates=args.replicates, seed=args.seed, estimator=args.estimator)
    if args.preset:
        for flag, value in (("--sigma", args.sigma), ("--function", args.function)):
            if value is not None:
                raise CliError(f"{flag} cannot be combined with --preset, which sets it")
        config = study_preset(args.preset, **shared)
    else:
        name = args.function or "rupcar"
        if name not in _SIGNALS:
            raise CliError(f"unknown function {name!r}; choose from {sorted(_SIGNALS)}")
        if args.sigma is None:
            raise CliError("--sigma is required when no --preset is given")
        config = StudyConfig(function=_SIGNALS[name](), sigma=args.sigma, **shared)
    rows = mrise_study(config)
    out = Path(args.output) if args.output else Path("mrise_study.csv")
    study_rows_to_csv(rows, out)
    if args.output_json:
        study_rows_to_json(rows, args.output_json)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    n = args.n
    if n < 3:
        raise CliError("need n >= 3")
    eigenvalues = PenaltyMatrix(_design(n)).eigenvalues()
    for value in eigenvalues:
        print(repr(float(value)))
    if args.output:
        rows = ([i, repr(float(value))] for i, value in enumerate(eigenvalues, start=1))
        _write_csv(args.output, ["index", "eigenvalue"], rows)
    return EXIT_OK


def _add_data_flags(p: argparse.ArgumentParser, max_iter: int) -> None:
    p.add_argument("input", help="CSV file with two numeric columns t,y")
    p.add_argument("--output", "-o", help="output base path, or a directory for the input stem (default: input stem)")
    p.add_argument("--q", type=float, default=AdaptConfig.q, help="weight growth factor (default %(default)g)")
    p.add_argument("--max-iter", type=int, default=max_iter, help="iteration budget (default %(default)s)")
    p.add_argument("--rescale", action="store_true", help="map [min t, max t] affinely onto [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptspline",
        description="Locally adaptive smoothing splines driven by multiscale residual tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (("fit", "fit a CSV dataset"), ("robust", "replace running-median outliers, then fit")):
        p = sub.add_parser(name, help=help_)
        _add_data_flags(p, max_iter=AdaptConfig.max_iterations)
        p.add_argument("--tau", type=float, default=AdaptConfig.tau, help="threshold constant (default %(default)g)")
        p.add_argument("--sigma", type=float, default=None, help="fixed noise scale (default: estimated)")
        p.add_argument("--plot-data", metavar="PATH", help="also write a gnuplot-ready whitespace table")
        p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("scale", help="heteroscedastic scale fit for mean-zero data")
    _add_data_flags(p, max_iter=_SCALE_BUDGET)
    p.add_argument("--alpha-n", type=float, default=None, help="per-interval coverage (default 1-n^-1.5)")
    p.set_defaults(handler=_cmd_scale)

    p = sub.add_parser("calibrate", help="calibrate the threshold constant tau by simulation")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--alpha", type=float, default=0.95, help="coverage level (default 0.95)")
    p.add_argument("--replicates", type=int, default=10000, help="simulation replicates (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("simulate", help="run the median-RISE simulation study")
    p.add_argument("--preset", choices=SIGMA_PRESETS)
    p.add_argument("--function", help=f"signal when no preset: {'|'.join(_SIGNALS)} (default rupcar)")
    p.add_argument("--sigma", type=float, default=None, help="noise level when no preset")
    p.add_argument("--n-grid", type=int, nargs="+", default=StudyConfig.n_grid)
    p.add_argument("--replicates", type=int, default=StudyConfig.replicates)
    p.add_argument("--seed", type=int, default=StudyConfig.seed)
    p.add_argument("--estimator", choices=_ESTIMATORS, default=StudyConfig.estimator)
    p.add_argument("--output", "-o", help="CSV output path (default mrise_study.csv)")
    p.add_argument("--output-json", help="also write the rows as JSON")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("spectrum", help="eigenvalues of the roughness penalty matrix")
    p.add_argument("--n", type=int, required=True, help="equispaced design size")
    p.add_argument("--output", "-o", help="CSV output path")
    p.set_defaults(handler=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (CliError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
