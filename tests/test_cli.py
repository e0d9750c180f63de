import csv
import json

import numpy as np
import pytest

from adaptspline import PenaltyMatrix, Sample, scale_fit, sigma_hat
from adaptspline.cli import main


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
            "roughness", "scale_csv", "rescale",
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

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n", "16", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["index", "eigenvalue"]
        assert len(rows) == 17
