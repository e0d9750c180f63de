"""Command line front end.

Subcommands: fit, robust, scale, calibrate, simulate, spectrum.  Exit
codes follow one scheme everywhere: 0 success, 2 input/usage error,
3 procedure finished degenerate or with its iteration budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .adapt import AdaptConfig, FitReport, fit
from .bench import mrise_study, study_preset, study_rows_to_csv, study_rows_to_json
from .multiscale import calibrate_tau, sigma_hat
from .splines import PenaltyMatrix, Sample
from .variants import ScaleRegionSpec, clean_outliers, scale_fit

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRUNCATED = 3


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _read_xy_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Two numeric columns, comma separated, optional single header row."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"input file not found: {path}")
    ts, ys = [], []
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise CliError(f"{path}:{lineno}: expected two comma-separated columns")
            try:
                tv, yv = float(row[0]), float(row[1])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise CliError(
                    f"{path}:{lineno}: expected two numeric columns, got {row[:2]!r}"
                ) from None
            ts.append(tv)
            ys.append(yv)
    if len(ts) < 3:
        raise CliError(f"{path}: need at least 3 data rows")
    return np.asarray(ts), np.asarray(ys)


def _prepare_sample(t_raw: np.ndarray, y: np.ndarray, rescale: bool):
    """Validate the abscissae, optionally mapping them affinely onto [0, 1].

    Returns the sample plus the transform (offset, scale) with
    t_internal = (t_raw - offset) / scale, or None without rescaling.
    """
    if np.any(np.diff(t_raw) <= 0):
        raise CliError("t column must be strictly increasing (sort the input; duplicates are not supported)")
    if rescale:
        offset = float(t_raw[0])
        scale = float(t_raw[-1] - t_raw[0])
        if scale <= 0:
            raise CliError("cannot rescale: t range is empty")
        t = (t_raw - offset) / scale
        t[0], t[-1] = 0.0, 1.0
        return Sample(t, y), (offset, scale)
    if t_raw[0] < 0.0 or t_raw[-1] > 1.0:
        raise CliError("t values fall outside [0, 1]; pass --rescale to map them affinely")
    return Sample(t_raw, y), None


def _adapt_config(args) -> AdaptConfig:
    return AdaptConfig(
        q=args.q,
        tau=args.tau,
        max_iterations=args.max_iter,
        sigma=args.sigma,
    )


def _report_json(report: FitReport, extra: dict) -> dict:
    weights = report.final_weights
    doc = {
        "n": report.final_fit.knots.size,
        "sigma_used": report.sigma_used,
        "tau": report.tau,
        "threshold_used": report.threshold_used,
        "passed": report.passed,
        "truncated": report.truncated,
        "iterations": report.iterations,
        "chosen_branch": report.chosen_branch,
        "roughness": report.roughness,
        "roughness_local": report.roughness_local,
        "roughness_global": report.roughness_global,
        "start_halvings": report.start_halvings,
        "start_capped": report.start_capped,
        "lambda_min": float(weights.min()) if weights is not None else None,
        "lambda_max": float(weights.max()) if weights is not None else None,
        "trace": [
            {
                "max_abs_w": e.max_abs_w,
                "violations": e.violations,
                "lambda_min": e.lambda_min,
                "lambda_max": e.lambda_max,
                "roughness": e.roughness,
            }
            for e in report.trace
        ],
    }
    doc.update(extra)
    return doc


def _write_fit_outputs(args, sample: Sample, report: FitReport, transform, extra: dict) -> None:
    base = Path(args.output) if args.output else Path(args.input).with_suffix("")
    fit_ = report.final_fit
    t_internal = sample.t
    d1 = fit_(t_internal, 1)
    d2 = fit_(t_internal, 2)
    if transform is not None:
        offset, scale = transform
        t_out = offset + scale * t_internal
        d1 = d1 / scale          # derivatives with respect to the raw abscissa
        d2 = d2 / (scale * scale)
    else:
        t_out = t_internal
    lam = report.final_weights if report.final_weights is not None else np.zeros(sample.n)

    csv_path = base.with_suffix(".fit.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "fit", "d1", "d2", "lambda"])
        for row in zip(t_out, fit_.values, d1, d2, lam):
            writer.writerow([repr(float(v)) for v in row])

    doc = _report_json(
        report,
        {
            "input": str(args.input),
            "rescale": None if transform is None else {"offset": transform[0], "scale": transform[1]},
            "derivative_units": "raw abscissa" if transform is not None else "unit interval",
            "fit_csv": str(csv_path),
            **extra,
        },
    )
    json_path = base.with_suffix(".report.json")
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    if args.plot_data:
        with open(args.plot_data, "w") as fh:
            fh.write("# t y fit d1 d2\n")
            for row in zip(t_out, sample.y, fit_.values, d1, d2):
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")

    print(f"wrote {csv_path} and {json_path}")


def _cmd_fit(args) -> int:
    t_raw, y = _read_xy_csv(args.input)
    sample, transform = _prepare_sample(t_raw, y, args.rescale)
    config = _adapt_config(args)
    extra = {}
    if args.robust:
        sigma = config.sigma if config.sigma is not None else sigma_hat(sample)
        sample, mask = clean_outliers(sample, sigma)
        extra["replaced_indices"] = np.flatnonzero(mask).tolist()
    report = fit(sample, config)
    _write_fit_outputs(args, sample, report, transform, extra)
    return EXIT_TRUNCATED if report.truncated else EXIT_OK


def _cmd_robust(args) -> int:
    args.robust = True
    return _cmd_fit(args)


def _cmd_scale(args) -> int:
    t_raw, y = _read_xy_csv(args.input)
    sample, transform = _prepare_sample(t_raw, y, args.rescale)
    spec = ScaleRegionSpec.for_size(sample.n, args.alpha_n)
    config = AdaptConfig(q=args.q, max_iterations=args.max_iter)
    result = scale_fit(sample, spec, config)

    base = Path(args.output) if args.output else Path(args.input).with_suffix("")
    sv = result.scale_values()
    t_out = t_raw
    lam = result.weights if result.weights is not None else np.zeros(sample.n)
    csv_path = base.with_suffix(".scale.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "scale", "lambda"])
        for row in zip(t_out, sv, lam):
            writer.writerow([repr(float(v)) for v in row])
    doc = {
        "input": str(args.input),
        "n": sample.n,
        "passed": result.passed,
        "truncated": result.truncated,
        "degenerate": result.degenerate,
        "iterations": result.iterations,
        "chosen_branch": result.chosen_branch,
        "coverage": spec.coverage,
        "floor": result.floor,
        "pinned_intervals": result.pinned_intervals,
        "roughness": result.s.roughness,
        "scale_csv": str(csv_path),
        "rescale": None if transform is None else {"offset": transform[0], "scale": transform[1]},
    }
    json_path = base.with_suffix(".scale.json")
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_TRUNCATED if (result.truncated or result.degenerate) else EXIT_OK


def _cmd_calibrate(args) -> int:
    if args.replicates < 1000:
        raise CliError("need at least 1000 replicates")
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
    if args.preset:
        config = study_preset(
            args.preset,
            n_grid=tuple(args.n_grid),
            replicates=args.replicates,
            seed=args.seed,
            estimator=args.estimator,
        )
    else:
        from .bench import bumps, rupcar, sine

        functions = {"rupcar": rupcar(6), "bumps": bumps(), "sine": sine()}
        if args.function not in functions:
            raise CliError(f"unknown function {args.function!r}; choose from {sorted(functions)}")
        if args.sigma is None:
            raise CliError("--sigma is required when no --preset is given")
        from .bench import StudyConfig

        config = StudyConfig(
            function=functions[args.function],
            sigma=args.sigma,
            n_grid=tuple(args.n_grid),
            replicates=args.replicates,
            seed=args.seed,
            estimator=args.estimator,
        )
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
    t = np.arange(1, n + 1) / n
    eigenvalues = PenaltyMatrix(t).eigenvalues()
    for value in eigenvalues:
        print(repr(float(value)))
    if args.output:
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "eigenvalue"])
            for i, value in enumerate(eigenvalues, start=1):
                writer.writerow([i, repr(float(value))])
    return EXIT_OK


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="CSV file with two numeric columns t,y")
    p.add_argument("--output", "-o", help="output base path (default: input stem)")
    p.add_argument("--tau", type=float, default=3.0, help="threshold constant (default 3)")
    p.add_argument("--q", type=float, default=2.0, help="weight growth factor (default 2)")
    p.add_argument("--max-iter", type=int, default=200, help="iteration budget (default 200)")
    p.add_argument("--sigma", type=float, default=None, help="fixed noise scale (default: estimated)")
    p.add_argument("--rescale", action="store_true", help="map [min t, max t] affinely onto [0, 1]")
    p.add_argument("--plot-data", metavar="PATH", help="also write a gnuplot-ready whitespace table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptspline",
        description="Locally adaptive smoothing splines driven by multiscale residual tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a CSV dataset")
    _add_fit_flags(p)
    p.add_argument("--robust", action="store_true", help="replace running-median outliers first")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("robust", help="outlier-cleaned fit (fit --robust)")
    _add_fit_flags(p)
    p.set_defaults(handler=_cmd_robust)

    p = sub.add_parser("scale", help="heteroscedastic scale fit for mean-zero data")
    p.add_argument("input", help="CSV file with two numeric columns t,y")
    p.add_argument("--output", "-o", help="output base path (default: input stem)")
    p.add_argument("--alpha-n", type=float, default=None, help="per-interval coverage (default 1-n^-1.5)")
    p.add_argument("--q", type=float, default=2.0, help="weight growth factor (default 2)")
    p.add_argument("--max-iter", type=int, default=400, help="iteration budget (default 400)")
    p.add_argument("--rescale", action="store_true", help="map [min t, max t] affinely onto [0, 1]")
    p.set_defaults(handler=_cmd_scale)

    p = sub.add_parser("calibrate", help="calibrate the threshold constant tau by simulation")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--alpha", type=float, default=0.95, help="coverage level (default 0.95)")
    p.add_argument("--replicates", type=int, default=10000, help="simulation replicates (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("simulate", help="run the median-RISE simulation study")
    p.add_argument("--preset", choices=["rupcar-lo", "rupcar-hi", "bumps-lo", "bumps-hi"])
    p.add_argument("--function", default="rupcar", help="signal when no preset: rupcar|bumps|sine")
    p.add_argument("--sigma", type=float, default=None, help="noise level when no preset")
    p.add_argument("--n-grid", type=int, nargs="+", default=[400, 800, 1600, 3200])
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimator", choices=["wss", "global-only"], default="wss")
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
