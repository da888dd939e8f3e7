import json
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from fbst.cli import main

DATA = Path(__file__).parent / "data"
DRAWS = str(DATA / "draws.csv")
BASE = ["--draws", DRAWS, "--null", "0", "--dim-theta", "3", "--dim-null", "2"]


def _json_doc(capsys, extra=()):
    code = main(["test", *BASE, "--output-format", "json", *extra])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def _usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


class TestTestCommand:
    def test_text_summary_to_stdout(self, capsys):
        assert main(["test", *BASE]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[1] == "Reference function: Flat"
        assert lines[3].startswith("Bayesian e-value against H_0: 0.8281559")

    def test_json_summary_fields(self, capsys):
        doc = _json_doc(capsys)
        assert doc["estimator"] == "grid"
        assert doc["grid_size"] == 1024
        assert doc["sample_size"] == 10000
        assert doc["reference_descriptor"] == "flat"
        assert 0.0 < doc["e_value_against"] < 1.0

    def test_monte_carlo_estimator(self, capsys):
        doc = _json_doc(capsys, ("--estimator", "mc"))
        assert doc["estimator"] == "monte_carlo"

    def test_pvalue_invariant_under_reference(self, capsys):
        flat = _json_doc(capsys)
        cauchy = _json_doc(capsys,
                           ("--ref", "cauchy:location=0,scale=0.7071"))
        assert cauchy["reference_descriptor"] == "cauchy:location=0,scale=0.7071"
        assert cauchy["p_value"] == flat["p_value"]
        assert cauchy["e_value_against"] > flat["e_value_against"]

    def test_constant_table_reference_matches_flat(self, capsys, tmp_path):
        table = tmp_path / "ref.csv"
        table.write_text("-30,1.0\n30,1.0\n", encoding="utf-8")
        flat = _json_doc(capsys)
        tabled = _json_doc(capsys, ("--ref", f"table:{table}"))
        assert tabled["e_value_against"] == flat["e_value_against"]
        assert tabled["reference_descriptor"] == f"table:{table}"

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "summary.txt"
        assert main(["test", *BASE, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8").startswith("Full Bayesian")

    def test_grid_size_flag(self, capsys):
        assert _json_doc(capsys, ("--grid-size", "256"))["grid_size"] == 256


class TestPlotCommand:
    def test_writes_parseable_svg(self, tmp_path):
        out = tmp_path / "plot.svg"
        assert main(["plot", *BASE, "--out", str(out)]) == 0
        root = ET.parse(str(out)).getroot()
        assert root.get("width") == "800"

    def test_size_flags(self, tmp_path):
        out = tmp_path / "plot.svg"
        assert main(["plot", *BASE, "--out", str(out),
                     "--width", "640", "--height", "400"]) == 0
        root = ET.parse(str(out)).getroot()
        assert root.get("viewBox") == "0 0 640 400"

    def test_no_cutoff_line(self, tmp_path):
        out = tmp_path / "plot.svg"
        assert main(["plot", *BASE, "--out", str(out),
                     "--no-cutoff-line"]) == 0
        assert "cutoff-line" not in out.read_text(encoding="utf-8")

    def test_right_boundary_crops(self, tmp_path):
        out = tmp_path / "plot.svg"
        assert main(["plot", *BASE, "--out", str(out),
                     "--right-boundary", "0"]) == 0
        root = ET.parse(str(out)).getroot()
        assert float(root.get("data-theta-max")) == 0.0

    def test_x_label_comes_from_draws_column(self, tmp_path):
        out = tmp_path / "plot.svg"
        assert main(["plot", *BASE, "--out", str(out)]) == 0
        labels = [el.text for el in ET.parse(str(out)).getroot().iter()
                  if el.get("class") == "axis-label"]
        assert "delta" in labels


class TestExitCodes:
    def test_usage_missing_dimension(self, capsys):
        _usage_error(["test", "--draws", DRAWS, "--null", "0",
                      "--dim-null", "2"])
        assert "--dim-theta" in capsys.readouterr().err

    def test_usage_bad_estimator(self, capsys):
        _usage_error(["test", *BASE, "--estimator", "exact"])

    def test_usage_bad_reference_grammar(self, capsys):
        _usage_error(["test", *BASE, "--ref", "cauchy:scale"])
        assert "key=value" in capsys.readouterr().err

    def test_usage_inverted_plot_range(self, capsys, tmp_path):
        _usage_error(["plot", *BASE, "--out", str(tmp_path / "p.svg"),
                      "--left-boundary", "1", "--right-boundary", "-1"])
        assert "invalid range" in capsys.readouterr().err

    def test_missing_draws_file_is_2(self, capsys):
        assert main(["test", "--draws", "absent.csv", "--null", "0",
                     "--dim-theta", "3", "--dim-null", "2"]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_unparseable_draws_is_2(self, capsys, tmp_path):
        bad = tmp_path / "draws.csv"
        bad.write_text("delta\n" + "0.5\n" * 40 + "oops\n", encoding="utf-8")
        assert main(["test", "--draws", str(bad), "--null", "0",
                     "--dim-theta", "3", "--dim-null", "2"]) == 2

    def test_too_few_draws_is_2(self, capsys, tmp_path):
        bad = tmp_path / "draws.csv"
        bad.write_text("delta\n0.5\n0.6\n", encoding="utf-8")
        assert main(["test", "--draws", str(bad), "--null", "0",
                     "--dim-theta", "3", "--dim-null", "2"]) == 2

    def test_vanishing_reference_is_3(self, capsys):
        assert main(["test", *BASE, "--ref", "normal:mean=0,sd=0.04"]) == 3
        assert "vanishes" in capsys.readouterr().err

    def test_table_not_covering_grid_is_3(self, capsys, tmp_path):
        table = tmp_path / "ref.csv"
        table.write_text("-0.1,1.0\n0.1,1.0\n", encoding="utf-8")
        assert main(["test", *BASE, "--ref", f"table:{table}"]) == 3

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_table_entry_is_2(self, capsys, tmp_path, bad):
        table = tmp_path / "ref.csv"
        table.write_text(f"theta,density\n-30,1.0\n{bad},1.0\n30,1.0\n",
                         encoding="utf-8")
        assert main(["test", *BASE, "--ref", f"table:{table}"]) == 2
        assert f"{table}:3: non-finite value '{bad}'" in capsys.readouterr().err

    @pytest.mark.parametrize("name,body", [
        ("draws.txt", b"\xff\n" + b"0.5\n" * 40),
        ("draws.csv", b"delta\n" + b"0.5\n" * 40_000 + b"0.\xff\n"),
        ("draws.json", b'{"delta": [' + b"0.5, " * 40 + b'"\xff"]}'),
        ("table.csv", b"theta,density\n-30,1.0\n0,\xff\n30,1.0\n"),
    ], ids=["plain", "csv", "json", "table"])
    def test_draws_not_utf8_is_2(self, capsys, tmp_path, name, body):
        path = tmp_path / name
        path.write_bytes(body)
        argv = [*BASE, "--ref", f"table:{path}"] if name == "table.csv" else \
            ["--draws", str(path), *BASE[2:]]
        assert main(["test", *argv]) == 2
        assert f"fbst: {path}: not valid UTF-8" in capsys.readouterr().err

    # under the field limit the quote holds the rest of the file in one cell:
    # the row is named by the line where it starts, and the cell is cut short
    @pytest.mark.parametrize("name,body,reason", [
        ("draws.csv", 'delta\n"0.125\n' + "0.125\n" * 30_000,
         "field larger than field limit (131072)"),
        ("table.csv", 'theta,density\n"-30,1.0\n' + "0,1.0\n" * 30_000,
         "field larger than field limit (131072)"),
        ("draws.csv", 'delta\n"0.5\n' + "0.5\n" * 30_000,
         "cannot parse '" + "0.5\\n" * 10 + "...' as a number"),
        ("table.csv", 'theta,density\n"-30,1.0\n' + "0,1.0\n" * 10_000,
         "expected two columns"),
    ], ids=["draws", "table", "draws_under_limit", "table_under_limit"])
    def test_unclosed_quote_is_2(self, capsys, tmp_path, name, body, reason):
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        argv = [*BASE, "--ref", f"table:{path}"] if name == "table.csv" else \
            ["--draws", str(path), *BASE[2:]]
        assert main(["test", *argv]) == 2
        err = capsys.readouterr().err
        assert err == f"fbst: {path}:2: {reason}\n" and len(err.encode()) < 200

    def test_json_integer_past_float_range_is_2(self, capsys, tmp_path):
        path = tmp_path / "draws.json"
        path.write_text('{"delta": [' + "0.5, " * 40 + "1" * 400 + "]}",
                        encoding="utf-8")
        assert main(["test", "--draws", str(path), *BASE[2:]]) == 2
        assert capsys.readouterr().err == \
            f"fbst: {path}: element 40 of 'delta' is not a finite number\n"

    @pytest.mark.parametrize("epoch", ["abc", "1.5", "99999999999999999999"])
    def test_bad_source_date_epoch_is_1(self, capsys, monkeypatch, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert main(["test", *BASE]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fbst: SOURCE_DATE_EPOCH={epoch!r} is not a Unix " \
            "time in whole seconds\n"

    def test_grid_size_past_the_cap_is_3(self, capsys):
        assert main(["test", *BASE, "--grid-size", "100000000000"]) == 3
        assert capsys.readouterr().err == \
            "fbst: grid_size must be between 128 and 1048576, got 100000000000\n"

    @pytest.mark.parametrize("ref", ["normal:mean=0,sd=1e-300",
                                     "cauchy:location=0,scale=1e-300",
                                     "student_t:location=0,scale=1e-300,df=3"])
    def test_tiny_scale_reference_is_one_line(self, ref):
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "fbst", "test",
                               *BASE, "--ref", ref], capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr.startswith("fbst: reference function vanishes on the grid")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

    def test_infinite_bandwidth_is_3(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["test", *BASE, "--bandwidth", "inf"]) == 3
        assert capsys.readouterr().err == \
            "fbst: bandwidth must be positive and finite, got inf\n"

    def test_bad_dimensions_are_3(self, capsys):
        assert main(["test", "--draws", DRAWS, "--null", "0",
                     "--dim-theta", "2", "--dim-null", "2"]) == 3

    def test_plot_window_outside_grid_is_3(self, capsys, tmp_path):
        assert main(["plot", *BASE, "--out", str(tmp_path / "p.svg"),
                     "--left-boundary", "50", "--right-boundary", "60"]) == 3

    def test_plot_without_plot_area_is_3(self, capsys, tmp_path):
        out = tmp_path / "p.svg"
        assert main(["plot", *BASE, "--out", str(out),
                     "--width", "50", "--height", "40"]) == 3
        assert "margins" in capsys.readouterr().err
        assert not out.exists()

    def test_plot_size_checked_before_draws_are_read(self, capsys, tmp_path):
        out = tmp_path / "p.svg"
        argv = ["plot", "--draws", str(tmp_path / "missing.csv"), *BASE[2:],
                "--out", str(out), "--width", "50", "--height", "40"]
        assert main(argv) == 3
        assert "50 x 40 px" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_is_4(self, capsys, tmp_path):
        missing = tmp_path / "no" / "summary.txt"
        assert main(["test", *BASE, "--output", str(missing)]) == 4
        missing_svg = tmp_path / "no" / "plot.svg"
        assert main(["plot", *BASE, "--out", str(missing_svg)]) == 4


class TestSelfcheck:
    def test_all_fixtures_pass(self, capsys):
        assert main(["selfcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all(line.endswith(": pass") for line in lines)


class TestGoldenFiles:
    def test_summary_bytes(self, tmp_path):
        out = tmp_path / "summary.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "fbst", "test", *BASE,
             "--output", str(out)], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (DATA / "golden_summary.txt").read_bytes()

    def test_summary_stdout_bytes(self):
        proc = subprocess.run([sys.executable, "-m", "fbst", "test", *BASE],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (DATA / "golden_summary.txt").read_bytes()

    def test_plot_bytes(self, tmp_path):
        out = tmp_path / "plot.svg"
        proc = subprocess.run(
            [sys.executable, "-m", "fbst", "plot", *BASE,
             "--out", str(out)], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (DATA / "golden_plot.svg").read_bytes()
