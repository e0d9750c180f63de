import csv
import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from adaptspline import (
    AdaptConfig,
    PenaltyMatrix,
    Sample,
    StudyConfig,
    calibrate_tau,
    fit,
    mrise_study,
    rupcar,
    scale_fit,
    sigma_hat,
)
from adaptspline.cli import build_parser, main


def write_csv(path, t, y, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for a, b in zip(t, y):
            fh.write(f"{float(a)!r},{float(b)!r}\n")


def read_csv(path, reader=csv.reader):
    """The rows of a CSV file, read with the file closed afterwards."""
    with open(path) as fh:
        return list(reader(fh))


FIT_REPORT_KEYS = {
    "n", "sigma_used", "tau", "threshold_used", "passed", "truncated", "iterations",
    "chosen_branch", "roughness", "roughness_local", "roughness_global", "start_halvings",
    "start_capped", "lambda_min", "lambda_max", "trace", "input", "rescale",
    "derivative_units", "fit_csv",
}


@pytest.fixture
def noisy_csv(tmp_path):
    n = 200
    t = np.arange(1, n + 1) / n
    rng = np.random.default_rng(12)
    y = 2.0 * np.sin(2 * np.pi * t) + 0.2 * rng.standard_normal(n)
    path = tmp_path / "data.csv"
    write_csv(path, t, y, header="t,y")
    return path


class TestFitCommand:
    def test_line_data_gives_line_and_zero_roughness(self, tmp_path, capsys):
        t = np.arange(1, 51) / 50
        path = tmp_path / "line.csv"
        write_csv(path, t, 1.0 + 2.0 * t)
        assert main(["fit", str(path)]) == 0
        doc = json.loads((tmp_path / "line.report.json").read_text())
        assert doc["roughness"] == 0.0
        assert doc["passed"] is True
        rows = read_csv(tmp_path / "line.fit.csv")
        assert rows[0] == ["t", "fit", "d1", "d2", "lambda"]
        fit_vals = np.array([float(r[1]) for r in rows[1:]])
        np.testing.assert_allclose(fit_vals, 1.0 + 2.0 * t, atol=1e-9)

    def test_report_states_start_weight_search(self, noisy_csv, tmp_path):
        assert main(["fit", str(noisy_csv)]) == 0
        doc = json.loads((tmp_path / "data.report.json").read_text())
        assert doc["start_capped"] is False
        assert isinstance(doc["start_halvings"], int) and 0 < doc["start_halvings"] < 60
        assert doc["lambda_min"] >= 2.0 ** -doc["start_halvings"]

    @pytest.mark.parametrize("flag", ["--tau", "--q", "--sigma"])
    def test_non_finite_setting_exit_2(self, noisy_csv, tmp_path, capsys, flag):
        assert main(["fit", str(noisy_csv), flag, "nan"]) == 2
        assert not (tmp_path / "data.report.json").exists()

    def test_seed_flag_removed(self, noisy_csv, capsys):
        assert main(["fit", str(noisy_csv), "--seed", "1"]) == 2

    def test_robust_flag_removed(self, noisy_csv, tmp_path, capsys):
        # the robust fit has one entry point: the robust subcommand
        assert main(["fit", str(noisy_csv), "--robust"]) == 2
        assert not (tmp_path / "data.report.json").exists()

    def test_report_keys(self, noisy_csv, tmp_path):
        assert main(["fit", str(noisy_csv)]) == 0
        doc = json.loads((tmp_path / "data.report.json").read_text())
        assert set(doc) == FIT_REPORT_KEYS
        assert list(doc["trace"][0]) == ["max_abs_w", "violations", "lambda_min", "lambda_max", "roughness"]
        assert doc["fit_csv"] == str(tmp_path / "data.fit.csv")

    def test_roughness_round_trip(self, noisy_csv, tmp_path):
        assert main(["fit", str(noisy_csv)]) == 0
        doc = json.loads((tmp_path / "data.report.json").read_text())
        rows = read_csv(tmp_path / "data.fit.csv")[1:]
        t = np.array([float(r[0]) for r in rows])
        fit_vals = np.array([float(r[1]) for r in rows])
        assert PenaltyMatrix(t).quad_form(fit_vals) == pytest.approx(doc["roughness"], abs=1e-9)

    def test_plot_data_table(self, noisy_csv, tmp_path):
        plot = tmp_path / "out.plot"
        assert main(["fit", str(noisy_csv), "--plot-data", str(plot)]) == 0
        lines = plot.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines[1].split()) == 5

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "nope.csv")]) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_output_in_missing_directory_exit_2(self, noisy_csv, tmp_path, capsys):
        base = tmp_path / "missing" / "out"
        assert main(["fit", str(noisy_csv), "--output", str(base)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not base.parent.exists()

    def test_directory_as_input_exit_2(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_blank_lines_are_skipped(self, noisy_csv, tmp_path):
        rows = noisy_csv.read_text().splitlines()
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("\n".join(rows[:50] + ["", "  "] + rows[50:] + [""]) + "\n")
        assert main(["fit", str(noisy_csv)]) == main(["fit", str(gapped)]) == 0
        plain = json.loads((tmp_path / "data.report.json").read_text())
        doc = json.loads((tmp_path / "gapped.report.json").read_text())
        assert doc["n"] == plain["n"] == len(rows) - 1
        assert doc["trace"] == plain["trace"]

    def test_header_may_follow_blank_lines(self, noisy_csv, tmp_path, capsys):
        rows = noisy_csv.read_text().splitlines()
        late = tmp_path / "late.csv"
        late.write_text("\n".join(["", "  "] + rows) + "\n")
        assert main(["fit", str(noisy_csv)]) == main(["fit", str(late)]) == 0
        assert (tmp_path / "late.fit.csv").read_bytes() == (tmp_path / "data.fit.csv").read_bytes()
        # only the first row that is not blank may be a header, and errors
        # name the physical line
        twice = tmp_path / "twice.csv"
        twice.write_text("\n".join(["", "", rows[0], rows[0]] + rows[1:]) + "\n")
        assert main(["fit", str(twice)]) == 2
        assert "twice.csv:4: expected two numeric columns, got ['t', 'y']" in capsys.readouterr().err

    def test_mistyped_first_row_is_not_a_header(self, tmp_path, capsys):
        # 1.O with the letter O: a header has no number in either cell
        path = tmp_path / "typo.csv"
        path.write_text("0.1,1.O\n0.2,2.0\n0.3,3.0\n0.4,1.0\n0.5,2.0\n")
        assert main(["fit", str(path)]) == 2
        assert "typo.csv:1: expected two numeric columns, got ['0.1', '1.O']" in capsys.readouterr().err
        assert not list(tmp_path.glob("typo.*.*"))

    def test_named_header_still_reads(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("t,y\n0.1,1.0\n0.2,2.0\n0.3,3.0\n0.4,1.0\n0.5,2.0\n")
        assert main(["fit", str(path)]) == 0
        assert json.loads((tmp_path / "named.report.json").read_text())["n"] == 5

    def test_byte_order_mark_is_not_part_of_the_data(self, tmp_path):
        n = 40
        t = np.arange(1, n + 1) / n
        y = np.sin(6.0 * t) + 0.1 * np.random.default_rng([40, n]).standard_normal(n)
        body = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, y))
        inputs = {"plain": body, "marked": "\ufeff" + body, "marked_header": "\ufefft,y\n" + body}
        for name, text in inputs.items():
            (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
            assert main(["fit", str(tmp_path / f"{name}.csv")]) == 0
        assert [json.loads((tmp_path / f"{name}.report.json").read_text())["n"] for name in inputs] == [n] * 3
        tables = [(tmp_path / f"{name}.fit.csv").read_bytes() for name in inputs]
        assert tables[1] == tables[0] == tables[2]

    def test_one_column_row_names_line(self, tmp_path, capsys):
        path = tmp_path / "narrow.csv"
        path.write_text("0.1,1.0\n0.2\n0.3,3.0\n0.4,1.0\n")
        assert main(["fit", str(path)]) == 2
        assert "narrow.csv:2: expected two comma-separated columns" in capsys.readouterr().err
        assert not list(tmp_path.glob("narrow.*.*"))

    def test_fewer_than_three_rows_exit_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("t,y\n0.1,1.0\n0.2,2.0\n")
        assert main(["fit", str(path)]) == 2
        assert "need at least 3 data rows" in capsys.readouterr().err
        assert not list(tmp_path.glob("short.*.*"))

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0.1,1.0\n0.2,oops\n")
        assert main(["fit", str(path)]) == 2
        assert "bad.csv:3" in capsys.readouterr().err

    def test_non_monotone_t_exit_2(self, tmp_path, capsys):
        path = tmp_path / "unsorted.csv"
        path.write_text("0.3,1.0\n0.1,2.0\n0.5,3.0\n0.7,1.0\n")
        assert main(["fit", str(path)]) == 2
        assert "increasing" in capsys.readouterr().err

    def test_out_of_range_needs_rescale(self, tmp_path, capsys):
        t = np.linspace(10.0, 30.0, 60)
        path = tmp_path / "angles.csv"
        write_csv(path, t, np.sin(t))
        assert main(["fit", str(path)]) == 2
        assert "--rescale" in capsys.readouterr().err
        assert main(["fit", str(path), "--rescale"]) == 0
        doc = json.loads((tmp_path / "angles.report.json").read_text())
        assert doc["rescale"] == {"offset": 10.0, "scale": 20.0}
        rows = read_csv(tmp_path / "angles.fit.csv")[1:]
        t_out = np.array([float(r[0]) for r in rows])
        np.testing.assert_allclose(t_out, t, atol=1e-12)  # original units preserved

    def test_rescaled_table_carries_input_t(self, tmp_path):
        # mapping back through offset + scale * t would miss some of these by 1 ulp
        t = np.sort(np.random.default_rng(7).uniform(0.3, 7.7, 500))
        path = tmp_path / "wide.csv"
        write_csv(path, t, np.sin(t))
        assert main(["fit", str(path), "--rescale"]) == 0
        rows = read_csv(tmp_path / "wide.fit.csv")[1:]
        assert [float(r[0]) for r in rows] == t.tolist()

    def test_truncation_exit_3(self, tmp_path):
        n = 100
        t = np.arange(1, n + 1) / n
        y = np.random.default_rng(5).standard_normal(n)
        path = tmp_path / "hard.csv"
        write_csv(path, t, y)
        # an unreachable region: tiny fixed sigma and a budget of one round
        assert main(["fit", str(path), "--sigma", "1e-9", "--max-iter", "1"]) == 3

    def test_weights_that_would_overflow_exit_3(self, tmp_path):
        # the budget runs past the last finite weight: the fit ends
        # truncated there rather than failing on infinite weights
        n = 128
        t = np.arange(1, n + 1) / n
        path = tmp_path / "noise.csv"
        write_csv(path, t, np.random.default_rng([800, 9]).standard_normal(n))
        assert main(["fit", str(path), "--sigma", "1e-300", "--max-iter", "1100"]) == 3
        doc = json.loads((tmp_path / "noise.report.json").read_text())
        assert (doc["truncated"], doc["iterations"], doc["lambda_max"]) == (True, 1025, 2.0**1023)

    def test_zero_sigma_exit_2_without_outputs(self, tmp_path, capsys):
        n = 500
        t = np.arange(1, n + 1) / n
        y = 2.0 * np.sin(2 * np.pi * t) + 0.3 * np.random.default_rng(4).standard_normal(n)
        write_csv(tmp_path / "a.csv", t, y)
        assert main(["fit", str(tmp_path / "a.csv"), "--sigma", "0"]) == 2
        assert "sigma" in capsys.readouterr().err
        # integer responses: sigma_hat is 0
        write_csv(tmp_path / "b.csv", t, np.round(y))
        assert sigma_hat(Sample(t, np.round(y))) == 0.0
        assert main(["fit", str(tmp_path / "b.csv")]) == 2
        assert "noise scale is 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json")) and not list(tmp_path.glob("*.fit.csv"))

    def test_deterministic_outputs(self, noisy_csv, tmp_path):
        assert main(["fit", str(noisy_csv)]) == 0
        first = (tmp_path / "data.fit.csv").read_bytes()
        assert main(["fit", str(noisy_csv)]) == 0
        assert (tmp_path / "data.fit.csv").read_bytes() == first


class TestRobustCommand:
    def test_cauchy_contamination_cleaned(self, tmp_path):
        n = 400
        t = np.arange(1, n + 1) / n
        rng = np.random.default_rng(33)
        y = np.sin(2 * np.pi * t) + 0.3 * rng.standard_cauchy(n)
        path = tmp_path / "cauchy.csv"
        write_csv(path, t, y)
        assert main(["robust", str(path)]) == 0
        doc = json.loads((tmp_path / "cauchy.report.json").read_text())
        assert len(doc["replaced_indices"]) > 0
        assert (tmp_path / "cauchy.fit.csv").exists()

    def test_report_keys(self, tmp_path):
        n = 400
        t = np.arange(1, n + 1) / n
        y = np.sin(2 * np.pi * t) + 0.3 * np.random.default_rng(33).standard_cauchy(n)
        write_csv(tmp_path / "a.csv", t, y)
        assert main(["robust", str(tmp_path / "a.csv")]) == 0
        doc = json.loads((tmp_path / "a.report.json").read_text())
        assert set(doc) == FIT_REPORT_KEYS | {"replaced_indices"}

    def test_zero_sigma_exit_2_without_outputs(self, tmp_path, capsys):
        n = 400
        t = np.arange(1, n + 1) / n
        y = 2.0 * np.sin(2 * np.pi * t) + 0.1 * np.random.default_rng(3).standard_normal(n)
        write_csv(tmp_path / "a.csv", t, y)
        assert main(["robust", str(tmp_path / "a.csv"), "--sigma", "0"]) == 2
        assert "sigma" in capsys.readouterr().err
        # integer responses: most consecutive differences are 0, so sigma_hat is 0
        write_csv(tmp_path / "b.csv", t, np.round(y))
        assert sigma_hat(Sample(t, np.round(y))) == 0.0
        assert main(["robust", str(tmp_path / "b.csv")]) == 2
        assert not list(tmp_path.glob("*.json")) and not list(tmp_path.glob("*.fit.csv"))

    def test_fit_uses_the_raw_data_sigma(self, tmp_path):
        n = 400
        t = np.arange(1, n + 1) / n
        rng = np.random.default_rng(33)
        y = np.sin(2 * np.pi * t) + 0.3 * rng.standard_cauchy(n)
        write_csv(tmp_path / "a.csv", t, y)
        assert main(["robust", str(tmp_path / "a.csv")]) == 0
        doc = json.loads((tmp_path / "a.report.json").read_text())
        assert doc["sigma_used"] == sigma_hat(Sample(t, y))
        assert main(["robust", str(tmp_path / "a.csv"), "--sigma", "0.4"]) == 0
        doc = json.loads((tmp_path / "a.report.json").read_text())
        assert doc["sigma_used"] == 0.4


class TestScaleCommand:
    def test_heteroscedastic_fit(self, tmp_path):
        n = 512
        t = np.arange(1, n + 1) / n
        rng = np.random.default_rng(21)
        y = (0.5 + t) * rng.standard_normal(n)
        path = tmp_path / "vol.csv"
        write_csv(path, t, y)
        assert main(["scale", str(path)]) == 0
        doc = json.loads((tmp_path / "vol.scale.json").read_text())
        assert doc["passed"] is True
        rows = read_csv(tmp_path / "vol.scale.csv")
        assert rows[0] == ["t", "scale", "lambda"]
        scales = np.array([float(r[1]) for r in rows[1:]])
        assert np.all(scales > 0.0)

    def test_report_states_start_weight_search(self, tmp_path):
        n = 512
        t = np.arange(1, n + 1) / n
        y = np.sin(4.0 * np.pi * t) ** 2 * np.random.default_rng(22).standard_normal(n)
        path = tmp_path / "vol.csv"
        write_csv(path, t, y)
        assert main(["scale", str(path)]) == 0
        doc = json.loads((tmp_path / "vol.scale.json").read_text())
        assert doc["start_capped"] is False
        assert isinstance(doc["start_halvings"], int) and 0 < doc["start_halvings"] < 60
        assert doc["start_halvings"] == scale_fit(Sample(t, y)).start_halvings

    def test_report_keys(self, tmp_path):
        n = 256
        t = np.arange(1, n + 1) / n
        path = tmp_path / "vol.csv"
        write_csv(path, t, np.random.default_rng(23).standard_normal(n))
        assert main(["scale", str(path)]) == 0
        doc = json.loads((tmp_path / "vol.scale.json").read_text())
        assert set(doc) == {
            "input", "n", "passed", "truncated", "degenerate", "iterations", "chosen_branch",
            "coverage", "floor", "pinned_intervals", "start_halvings", "start_capped",
            "roughness", "scale_csv", "rescale", "trace", "lambda_min", "lambda_max",
        }
        assert doc["scale_csv"] == str(tmp_path / "vol.scale.csv")

    def test_unrepresentable_squares_exit_2(self, tmp_path, capsys):
        n = 64
        t = np.arange(1, n + 1) / n
        path = tmp_path / "tiny.csv"
        write_csv(path, t, 1e-160 * np.random.default_rng(1).standard_normal(n))
        assert main(["scale", str(path)]) == 2
        assert "max |y|" in capsys.readouterr().err
        assert not list(tmp_path.glob("tiny.scale.*"))

    def test_alpha_n_sets_the_coverage(self, tmp_path):
        n = 256
        t = np.arange(1, n + 1) / n
        y = (0.5 + t) * np.random.default_rng(24).standard_normal(n)
        path = tmp_path / "vol.csv"
        write_csv(path, t, y)
        assert main(["scale", str(path), "--alpha-n", "0.99"]) == 0
        doc = json.loads((tmp_path / "vol.scale.json").read_text())
        assert doc["coverage"] == 0.99
        result = scale_fit(Sample(t, y), alpha_n=0.99)
        assert doc["roughness"] == result.s.roughness
        assert doc["iterations"] == result.iterations

    def test_degenerate_zero_input_exit_3(self, tmp_path):
        n = 64
        t = np.arange(1, n + 1) / n
        path = tmp_path / "zero.csv"
        write_csv(path, t, np.zeros(n))
        assert main(["scale", str(path)]) == 3
        doc = json.loads((tmp_path / "zero.scale.json").read_text())
        assert doc["degenerate"] is True


class TestCalibrateCommand:
    def test_machine_readable_single_line(self, capsys):
        assert main(["calibrate", "--n", "64", "--replicates", "1500", "--seed", "4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        doc = json.loads(out[0])
        assert doc["n"] == 64 and doc["replicates"] == 1500 and doc["tau"] > 0

    def test_same_seed_same_output(self, capsys):
        main(["calibrate", "--n", "64", "--replicates", "1500", "--seed", "4"])
        first = capsys.readouterr().out
        main(["calibrate", "--n", "64", "--replicates", "1500", "--seed", "4"])
        assert capsys.readouterr().out == first

    def test_too_few_replicates_exit_2(self, capsys):
        assert main(["calibrate", "--n", "64", "--replicates", "0"]) == 2

    def test_single_point_exit_2_without_json(self, capsys):
        assert main(["calibrate", "--n", "1", "--replicates", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n >= 2" in captured.err


class TestSimulateCommand:
    def test_preset_writes_schema_csv(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        rc = main([
            "simulate", "--preset", "rupcar-hi", "--n-grid", "100",
            "--replicates", "2", "--seed", "3", "-o", str(out),
        ])
        assert rc == 0
        rows = read_csv(out, csv.DictReader)
        assert len(rows) == 3
        assert set(rows[0]) == {"function", "n", "sigma", "order", "mrise", "replicates", "seed"}
        assert rows[0]["function"] == "rupcar6"

    def test_function_and_sigma_without_preset(self, tmp_path, capsys):
        # rupcar is the signal when --function is not given
        out = tmp_path / "study.csv"
        rc = main(["simulate", "--sigma", "0.05", "--n-grid", "64", "--replicates", "2", "--seed", "3", "-o", str(out)])
        assert rc == 0
        rows = read_csv(out, csv.DictReader)
        expected = mrise_study(StudyConfig(rupcar(6), 0.05, n_grid=(64,), replicates=2, seed=3))
        assert [row["function"] for row in rows] == ["rupcar6"] * 3
        assert [float(row["mrise"]) for row in rows] == [row["mrise"] for row in expected]

    def test_unknown_function_exit_2(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        assert main(["simulate", "--function", "chirp", "--sigma", "0.1", "-o", str(out)]) == 2
        assert "unknown function 'chirp'" in capsys.readouterr().err
        assert not out.exists()

    def test_output_json_holds_the_csv_rows(self, tmp_path, capsys):
        out, out_json = tmp_path / "study.csv", tmp_path / "study.json"
        rc = main([
            "simulate", "--preset", "bumps-hi", "--n-grid", "64", "--replicates", "2",
            "-o", str(out), "--output-json", str(out_json),
        ])
        assert rc == 0
        rows = json.loads(out_json.read_text())
        assert len(rows) == 3
        assert [{k: str(v) for k, v in row.items()} for row in rows] == read_csv(out, csv.DictReader)

    def test_output_in_missing_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "study.csv"
        rc = main(["simulate", "--preset", "rupcar-hi", "--n-grid", "64", "--replicates", "1", "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.parent.exists()

    def test_requires_sigma_without_preset(self, capsys):
        assert main(["simulate", "--function", "sine", "--n-grid", "64", "--replicates", "1"]) == 2

    @pytest.mark.parametrize("flag, value", [("--sigma", "5.0"), ("--function", "sine")])
    def test_preset_rejects_the_flags_it_sets(self, flag, value, tmp_path, capsys):
        out = tmp_path / "study.csv"
        rc = main([
            "simulate", "--preset", "bumps-hi", flag, value, "--n-grid", "64",
            "--replicates", "1", "-o", str(out),
        ])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestSpectrumCommand:
    def test_two_zeros_then_increasing_tail(self, capsys):
        assert main(["spectrum", "--n", "64"]) == 0
        values = [float(v) for v in capsys.readouterr().out.split()]
        assert len(values) == 64
        assert abs(values[0]) < 1e-9 * values[-1]
        assert abs(values[1]) < 1e-9 * values[-1]
        tail = values[2:]
        assert all(a <= b for a, b in zip(tail, tail[1:]))
        assert tail[0] > 1e-6

    def test_too_few_points_exit_2(self, capsys):
        assert main(["spectrum", "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need n >= 3" in captured.err

    def test_allocation_failure_exit_2(self, monkeypatch, capsys):
        def refuse(self):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(PenaltyMatrix, "eigenvalues", refuse)
        assert main(["spectrum", "--n", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 7.28 TiB\n"

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n", "16", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["index", "eigenvalue"]
        assert len(rows) == 17


def library_default(source, name):
    """The default of a config class's field or of a function's parameter."""
    if isinstance(source, type):
        return getattr(source, name)
    return inspect.signature(source).parameters[name].default


FIT_DEFAULTS = {"q": "q", "tau": "tau", "max_iter": "max_iterations", "sigma": "sigma"}


class TestDefaults:
    """Each subcommand's defaults are those of the library call it makes."""

    @pytest.mark.parametrize(
        "argv, source, names",
        [
            (["fit", "in.csv"], AdaptConfig, FIT_DEFAULTS),
            (["robust", "in.csv"], AdaptConfig, FIT_DEFAULTS),
            (["scale", "in.csv"], scale_fit, {"q": "q", "max_iter": "max_iterations", "alpha_n": "alpha_n"}),
            (["simulate"], StudyConfig, {name: name for name in ("n_grid", "replicates", "seed", "estimator")}),
            (["calibrate", "--n", "100"], calibrate_tau, {name: name for name in ("alpha", "replicates", "seed")}),
        ],
        ids=["fit", "robust", "scale", "simulate", "calibrate"],
    )
    def test_parsed_defaults_are_the_library_defaults(self, argv, source, names):
        args = build_parser().parse_args(argv)
        parsed = {flag: getattr(args, flag) for flag in names}
        assert parsed == {flag: library_default(source, name) for flag, name in names.items()}


class TestSharedReportKeys:
    """The fit and scale reports write the outcome of their run alike."""

    SHARED = {
        "n", "passed", "truncated", "iterations", "chosen_branch", "roughness", "start_halvings",
        "start_capped", "lambda_min", "lambda_max", "trace", "input", "rescale",
    }

    @pytest.mark.parametrize("rescale", [False, True])
    @pytest.mark.parametrize("max_iter", [2, 400])
    def test_fit_and_scale_reports_share_their_outcome_keys(self, tmp_path, rescale, max_iter):
        n = 256
        t = np.arange(1, n + 1) / n
        rng = np.random.default_rng(24)
        mean = Sample(t, np.sin(2 * np.pi * t) + 0.3 * rng.standard_normal(n))
        vol = Sample(t, np.sin(4 * np.pi * t) ** 2 * rng.standard_normal(n))
        t_raw = 5.0 + 2.0 * t if rescale else t
        flags = ["--max-iter", str(max_iter)] + (["--rescale"] if rescale else [])
        runs = []
        commands = (("fit", mean, "fit", ".report.json"), ("scale", vol, "scale", ".scale.json"))
        for command, sample, kind, suffix in commands:
            path = tmp_path / f"{command}.csv"
            write_csv(path, t_raw, sample.y)
            code = main([command, str(path)] + flags)
            doc = json.loads((tmp_path / f"{command}{suffix}").read_text())
            lam = np.array([float(r[-1]) for r in read_csv(tmp_path / f"{command}.{kind}.csv")[1:]])
            runs.append((code, doc, lam, str(path)))
        # the library on the abscissae the CLI fits on
        if rescale:
            t = (t_raw - t_raw[0]) / (t_raw[-1] - t_raw[0])
            t[0], t[-1] = 0.0, 1.0
        reports = (fit(Sample(t, mean.y), AdaptConfig(max_iterations=max_iter)),
                   scale_fit(Sample(t, vol.y), max_iterations=max_iter))
        for (code, doc, lam, path), report in zip(runs, reports):
            assert self.SHARED <= set(doc)
            assert doc["n"] == lam.size == n
            assert (doc["passed"], doc["truncated"]) == (report.passed, not report.passed)
            assert code == (0 if doc["passed"] else 3)
            for key in ("iterations", "chosen_branch", "start_halvings", "start_capped"):
                assert doc[key] == getattr(report, key)
            assert doc["trace"] == [dataclasses.asdict(e) for e in report.trace]
            # the trace starts with the line and its last entry judges the
            # final fit, whose weights are the table's lambda column
            first, last = doc["trace"][0], doc["trace"][-1]
            assert first["lambda_min"] == first["lambda_max"] == 0.0
            assert (doc["lambda_min"], doc["lambda_max"]) == (lam.min(), lam.max())
            assert (last["lambda_min"], last["lambda_max"]) == (doc["lambda_min"], doc["lambda_max"])
            assert last["roughness"] == doc["roughness"]
            assert (last["violations"] == 0) == doc["passed"]
            assert doc["input"] == path
            assert doc["rescale"] == ({"offset": 5.0 + 2.0 / n, "scale": 2.0 - 2.0 / n} if rescale else None)


class TestOutputFiles:
    """Where fit and scale write their table and report, and its lambda column."""

    COMMANDS = [("fit", ".fit.csv", ".report.json"), ("scale", ".scale.csv", ".scale.json")]

    @staticmethod
    def data(command, seed):
        n = 128
        t = np.arange(1, n + 1) / n
        z = np.random.default_rng(seed).standard_normal(n)
        return t, (np.sin(2 * np.pi * t) + 0.2 * z if command == "fit" else (0.5 + t) * z)

    @pytest.mark.parametrize("command, table, report", COMMANDS)
    def test_dotted_inputs_keep_their_whole_base(self, tmp_path, command, table, report):
        for seed, name in enumerate(("run.1", "run.2")):
            write_csv(tmp_path / f"{name}.csv", *self.data(command, seed))
            assert main([command, str(tmp_path / f"{name}.csv")]) == 0
        written = {p.name for p in tmp_path.iterdir()} - {"run.1.csv", "run.2.csv"}
        assert written == {f"run.{i}{suffix}" for i in (1, 2) for suffix in (table, report)}
        for i in (1, 2):
            doc = json.loads((tmp_path / f"run.{i}{report}").read_text())
            assert doc["input"] == str(tmp_path / f"run.{i}.csv")
            assert doc[f"{command}_csv"] == str(tmp_path / f"run.{i}{table}")

    def test_dotted_output_base_is_kept_whole(self, noisy_csv, tmp_path, capsys):
        base = tmp_path / "out.v1"
        assert main(["fit", str(noisy_csv), "-o", str(base)]) == 0
        assert (tmp_path / "out.v1.fit.csv").exists() and (tmp_path / "out.v1.report.json").exists()
        assert not list(tmp_path.glob("out.fit.csv")) and not list(tmp_path.glob("out.report.json"))
        assert capsys.readouterr().out == f"wrote {base}.fit.csv and {base}.report.json\n"

    @pytest.mark.parametrize("output", ["outdir/", "outdir", "."])
    @pytest.mark.parametrize("command, table, report", COMMANDS)
    def test_an_output_directory_holds_the_input_name(self, tmp_path, monkeypatch, command, table, report, output):
        data, outdir = tmp_path / "data", tmp_path / "outdir"
        data.mkdir()
        outdir.mkdir()
        write_csv(data / "run.1.csv", *self.data(command, 0))
        monkeypatch.chdir(outdir if output == "." else tmp_path)
        assert main([command, str(data / "run.1.csv"), "-o", output]) == 0
        assert {p.name for p in outdir.iterdir()} == {f"run.1{table}", f"run.1{report}"}
        assert {p.name for p in tmp_path.iterdir()} == {"data", "outdir"}
        assert {p.name for p in data.iterdir()} == {"run.1.csv"}
        doc = json.loads((outdir / f"run.1{report}").read_text())
        assert doc[f"{command}_csv"] == str(Path(output) / f"run.1{table}")

    @pytest.mark.parametrize("command, table, report", COMMANDS)
    def test_an_accepted_line_writes_zero_lambda(self, tmp_path, command, table, report):
        n = 64
        t = np.arange(1, n + 1) / n
        # a line fits itself; homoscedastic noise has a constant scale
        y = 1.0 + 2.0 * t if command == "fit" else np.random.default_rng(23).standard_normal(n)
        write_csv(tmp_path / "line.csv", t, y)
        assert main([command, str(tmp_path / "line.csv")]) == 0
        doc = json.loads((tmp_path / f"line{report}").read_text())
        assert doc["passed"] is True and doc["lambda_min"] is None and doc["iterations"] == 0
        rows = read_csv(tmp_path / f"line{table}")
        assert rows[0][-1] == "lambda"
        assert [row[-1] for row in rows[1:]] == ["0.0"] * n
