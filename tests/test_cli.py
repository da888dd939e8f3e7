import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from fbst import cli, core, density
from fbst import io as fbst_io
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

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_one_format_call_to_stdout_or_file(self, capsys, monkeypatch, tmp_path,
                                               output_format):
        # perfbench's tracer times the formatting through this name
        calls = []
        format_result = cli.format_result

        def counted(*args):
            calls.append(args)
            return format_result(*args)

        monkeypatch.setattr(cli, "format_result", counted)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        argv = ["test", *BASE, "--output-format", output_format]
        out = tmp_path / "summary"
        assert main(argv) == 0
        assert len(calls) == 1
        assert main([*argv, "--output", str(out)]) == 0
        assert len(calls) == 2
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    def test_grid_size_flag(self, capsys):
        assert _json_doc(capsys, ("--grid-size", "256"))["grid_size"] == 256

    def test_small_runs_import_no_thread_pool_or_masked_arrays(self, tmp_path):
        # Each takes 5-14 ms to import and neither is needed: a large fit shares
        # its blocks through plain threads, and numpy 2 imports numpy.ma only on
        # a first np.unique, which plots do without (numpy 1 imports it always).
        script = ("import sys, numpy; "
                  "unused = {'concurrent.futures'} | ({'numpy.ma'} - set(sys.modules)); "
                  "from fbst import cli; "
                  f"codes = [cli.main(['test', *{BASE!r}]), "
                  f"cli.main(['plot', *{BASE!r}, '--out', {str(tmp_path / 'p.svg')!r}])]; "
                  "print(codes, sorted(unused & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              encoding="utf-8")
        assert proc.stdout.splitlines()[-1] == "[0, 0] []", proc.stderr


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


def _draws_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return ["--draws", str(path), *BASE[2:]]


def _plot_label(tmp_path, argv):
    """The x-axis label of the plot `fbst plot` draws for these arguments."""
    out = tmp_path / "p.svg"
    assert main(["plot", *argv, "--out", str(out)]) == 0
    labels = [el.text for el in ET.parse(str(out)).getroot().iter()
              if el.get("class") == "axis-label"]
    return labels[0]


class TestColumnArgument:
    """--column is handed to the library as text: a header name first, then
    a zero-based index in a csv file; always a key in a json file."""

    ROWS = [f"{i % 4},{0.4 + 0.001 * i!r}" for i in range(2000)]

    @pytest.mark.parametrize("header,label", [
        ("chain,1", "1"),  # the header's 1 is a name, not a draw
        (None, "d"),  # no header: 1 is an index
        ("step,delta", "delta"),  # a name no cell has: 1 is an index
    ], ids=["number_in_header", "headerless", "index"])
    def test_column_one_reads_the_second_column(self, capsys, tmp_path, header, label):
        argv = _draws_file(tmp_path, "d.csv",
                           "\n".join(([header] if header else []) + self.ROWS) + "\n")
        assert main(["test", *argv, "--column", "1", "--output-format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sample_size"] == 2000
        assert _plot_label(tmp_path, [*argv, "--column", "1"]) == label

    def test_name_beats_index(self, tmp_path):
        rows = [f"{0.4 + 0.001 * i!r},{i % 4}" for i in range(2000)]
        argv = _draws_file(tmp_path, "d.csv", "\n".join(["1,chain", *rows]) + "\n")
        assert _plot_label(tmp_path, [*argv, "--column", "1"]) == "1"

    def test_digit_json_key(self, capsys, tmp_path):
        payload = {"2020": [0.4 + 0.01 * i for i in range(100)], "x": [0.0] * 100}
        argv = _draws_file(tmp_path, "d.json", json.dumps(payload))
        assert main(["test", *argv, "--column", "2020", "--output-format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["sample_size"] == 100
        assert _plot_label(tmp_path, [*argv, "--column", "2020"]) == "2020"

    def test_cmdstan_comment_lines_are_skipped(self, capsys, monkeypatch, tmp_path):
        # comment lines before the header, after adaptation and after the draws
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        header = "lp__,accept_stat__,delta"
        rows = [f"{-i / 9:.6g},0.9,{0.4 + 0.001 * i:.6g}" for i in range(2000)]
        stan = ["# model = normal_model", header, "# Adaptation terminated",
                "# Step size = 0.893", "# 1.2, 0.7", *rows, "#  Elapsed Time: 0.01 seconds"]
        outputs = []
        for name, lines in (("stan.csv", stan), ("plain.csv", [header, *rows])):
            argv = _draws_file(tmp_path, name, "\n".join(lines) + "\n")
            assert main(["test", *argv, "--column", "delta", "--output-format", "json"]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0]["sample_size"] == 2000
        assert outputs[0] == outputs[1]

    def test_plot_is_written_by_io(self, monkeypatch, tmp_path):
        written = []
        monkeypatch.setattr(cli, "write_text", lambda *args: written.append(args))
        out = str(tmp_path / "p.svg")
        assert main(["plot", *BASE, "--out", out]) == 0
        assert [path for path, _ in written] == [out]
        assert written[0][1].startswith("<svg")


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

    def test_empty_draws_path_is_2_and_says_so(self, capsys):
        assert main(["test", "--draws", "", *BASE[2:]]) == 2
        assert capsys.readouterr().err == "fbst: draws file path is empty\n"

    def test_directory_as_draws_is_2_and_says_so(self, capsys, tmp_path):
        assert main(["test", "--draws", str(tmp_path), *BASE[2:]]) == 2
        assert capsys.readouterr().err == f"fbst: {tmp_path}: is a directory\n"

    @pytest.mark.parametrize("name,text,column,message", [
        ("few.csv", "0.1\n0.2\n0.3\n", None, "need at least 30 posterior draws, got 3"),
        ("d.csv", ",theta\n" + "0.5,0.5\n" * 40, "0", "sample label must be nonempty"),
        ("d.json", json.dumps({"": [0.5] * 40}), None, "sample label must be nonempty"),
    ], ids=["too_few_draws", "empty_header_cell", "empty_json_key"])
    def test_sample_error_names_its_file(self, capsys, tmp_path, name, text, column,
                                         message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        extra = () if column is None else ("--column", column)
        assert main(["test", "--draws", str(path), *BASE[2:], *extra]) == 2
        assert capsys.readouterr().err == f"fbst: {path}: {message}\n"

    def test_mass_check_prints_a_short_total(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        draws = np.random.default_rng(1).standard_normal(200)
        path.write_text("\n".join(map(repr, draws.tolist())), encoding="utf-8")
        assert main(["test", "--draws", str(path), *BASE[2:], "--bandwidth", "1e-300"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("fbst: density integrates to ") and len(err) < 100, err

    def test_bandwidth_far_below_the_draws_is_3(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        draws = np.random.default_rng(0).standard_normal(10_000) * 1e307
        path.write_text("\n".join(map(repr, draws.tolist())), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["test", "--draws", str(path), *BASE[2:], "--bandwidth", "0.05"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("fbst: bandwidth 0.05 is too small for draws of magnitude 3.8")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_vanishing_reference_is_3(self, capsys):
        assert main(["test", *BASE, "--ref", "normal:mean=0,sd=0.04"]) == 3
        assert "vanishes" in capsys.readouterr().err

    def test_unordered_table_is_2(self, capsys, tmp_path):
        table = tmp_path / "ref.csv"
        table.write_text("theta,density\n30,1.0\n-30,1.0\n", encoding="utf-8")
        assert main(["test", *BASE, "--ref", f"table:{table}"]) == 2
        assert capsys.readouterr().err == \
            f"fbst: {table}: tabulated reference grid must be strictly increasing\n"

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
                               *BASE, "--ref", ref], capture_output=True, encoding="utf-8")
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

    def test_dim_theta_past_the_df_limit_is_3_before_the_draws_are_read(self, capsys,
                                                                          tmp_path):
        missing = tmp_path / "none.csv"
        assert main(["test", "--draws", str(missing), "--null", "0",
                     "--dim-theta", "100000000000000000000", "--dim-null", "1"]) == 3
        assert capsys.readouterr().err == ("fbst: parameter dimension must be at most "
                                           "10000, got 100000000000000000000\n")

    def test_plot_window_outside_grid_is_3(self, capsys, tmp_path):
        assert main(["plot", *BASE, "--out", str(tmp_path / "p.svg"),
                     "--left-boundary", "50", "--right-boundary", "60"]) == 3

    @pytest.mark.parametrize("bounds", [("nan", None), ("nan", "1"), ("-1", "nan")],
                             ids=["left", "left-of-two", "right-of-two"])
    def test_nan_plot_boundary_is_3_before_the_draws_are_read(self, capsys, tmp_path,
                                                               bounds):
        out = tmp_path / "p.svg"
        given = [arg for side, value in zip(("left", "right"), bounds) if value
                 for arg in (f"--{side}-boundary", value)]
        assert main(["plot", "--draws", str(tmp_path / "none.csv"), *BASE[2:],
                     "--out", str(out), *given]) == 3
        side = "left" if bounds[0] == "nan" else "right"
        assert capsys.readouterr().err == f"fbst: {side} boundary must be a number, got nan\n"
        assert not out.exists()

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

    def test_non_finite_null_checked_before_draws_are_read(self, capsys, tmp_path):
        argv = ["test", "--draws", str(tmp_path / "missing.csv"), "--null", "nan",
                "--dim-theta", "3", "--dim-null", "2"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "fbst: null value must be finite, got nan\n"

    # Each argument is checked before the draws are read, so each names its
    # own cause although the draws file does not exist.
    @pytest.mark.parametrize("extra,epoch,code,message", [
        (("--dim-theta", "2"), None, 3,
         "fbst: null dimension 2 must be below parameter dimension 2\n"),
        (("--grid-size", "64"), None, 3,
         "fbst: grid_size must be between 128 and 1048576, got 64\n"),
        (("--bandwidth", "-1"), None, 3,
         "fbst: bandwidth must be positive and finite, got -1.0\n"),
        (("--ref", "normal:mean=0,sd=-1"), None, 1,
         "parameter 'sd' must be positive, got -1.0\n"),
        (("--ref", "table:{tmp}/missing_ref.csv"), None, 2,
         "fbst: {tmp}/missing_ref.csv: reference table not found\n"),
        (("--ref", "table:"), None, 2, "fbst: reference table path is empty\n"),
        (("--ref", "table:{tmp}"), None, 2, "fbst: {tmp}: is a directory\n"),
        (("--ref", "normal:mean=0,sd=1,sd=0.5"), None, 1,
         "bad reference descriptor 'normal:mean=0,sd=1,sd=0.5': "
         "parameter 'sd' is given twice\n"),
        (("--column", "7"), None, 2,
         "fbst: {tmp}/missing.txt: a plain file has no column '7'\n"),
        ((), "abc", 1,
         "fbst: SOURCE_DATE_EPOCH='abc' is not a Unix time in whole seconds\n"),
    ], ids=["dimensions", "grid_size", "bandwidth", "family_scale", "missing_table",
            "empty_table_path", "table_is_directory", "repeated_key", "plain_column", "source_date_epoch"])
    def test_bad_argument_checked_before_draws_are_read(self, capsys, monkeypatch,
                                                        tmp_path, extra, epoch, code,
                                                        message):
        if epoch is not None:
            monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        argv = ["test", "--draws", str(tmp_path / "missing.txt"), *BASE[2:],
                *(arg.format(tmp=tmp_path) for arg in extra)]
        try:
            got = main(argv)
        except SystemExit as exc:  # a usage error
            got = exc.code
        err = capsys.readouterr().err
        assert (got, err.endswith(message.format(tmp=tmp_path))) == (code, True), err
        assert "file not found" not in err

    def test_column_on_a_bare_json_array_is_2(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps([0.5] * 40), encoding="utf-8")
        assert main(["test", "--draws", str(path), *BASE[2:], "--column", "nosuch"]) == 2
        assert capsys.readouterr().err == \
            f"fbst: {path}: a bare array has no column 'nosuch'\n"

    def test_unwritable_output_is_4(self, capsys, tmp_path):
        missing = tmp_path / "no" / "summary.txt"
        assert main(["test", *BASE, "--output", str(missing)]) == 4
        missing_svg = tmp_path / "no" / "plot.svg"
        assert main(["plot", *BASE, "--out", str(missing_svg)]) == 4


class TestSelfcheck:
    def test_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selfcheck"])
        assert exc.value.code == 1
        assert "invalid choice: 'selfcheck'" in capsys.readouterr().err


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


def _entries(cache_dir):
    return sorted(cache_dir.iterdir()) if cache_dir.exists() else []


def _with_arrays(entry, change):
    """The entry's bytes with its digest, draws, label and fit replaced by
    change(digest, draws, label, fit)."""
    handle, out = io.BytesIO(entry), io.BytesIO()
    for array in change(*[np.load(handle, allow_pickle=False) for _ in range(4)]):
        np.save(out, array, allow_pickle=False)
    return out.getvalue()


def _with_fit(entry, refit):
    """The entry's bytes with its stored fit, bandwidth first, replaced by
    refit(draws, fit): the same digest, draws and label."""
    return _with_arrays(entry, lambda digest, draws, label, fit:
                        (digest, draws, label, refit(draws, fit)))


def _with_draws(entry, redraw, relabel=lambda label: label):
    """The entry's bytes with its stored draws and label changed: the same digest and fit."""
    return _with_arrays(entry, lambda digest, draws, label, fit:
                        (digest, redraw(draws), relabel(label), fit))


def _nan_bandwidth(draws, fit):
    return np.hstack((np.nan, fit[1:]))


def _other_bandwidth(draws, fit):
    return np.hstack((2.0 * fit[0], fit[1:]))


def _other_grid_size(draws, fit):
    """The stored fit on every other node: a valid fit of another grid size."""
    grid, values = fit[1:].reshape(2, -1)
    return np.hstack((fit[0], grid[::2], values[::2]))


class TestDrawsCache:
    """`fbst test` and `fbst plot` keep a large draws file's sample and fit across
    runs (tests/conftest.py gives each test its own cache directory).  A file's
    first run leaves an empty entry, its second run fills it and later runs hit.
    Most tests lower the floor, so that the golden draws take the cached path."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """How many draws files the CLI parsed and how many fits it computed."""
        counts = {"loads": 0, "fits": 0}
        load_draws, fill_blocks = cli.load_draws, density._fill_blocks

        def load(spec):
            counts["loads"] += 1
            return load_draws(spec)

        def fill(kernel_sums, scaled_grid, scaled_draws, nodes, first, stride):
            counts["fits"] += first == 0  # the calling thread's share of each fit
            fill_blocks(kernel_sums, scaled_grid, scaled_draws, nodes, first, stride)

        monkeypatch.setattr(cli, "load_draws", load)
        monkeypatch.setattr(density, "_fill_blocks", fill)
        return counts

    @pytest.fixture
    def no_floor(self, monkeypatch):
        monkeypatch.setattr(fbst_io, "CACHE_FLOOR", 0)

    @staticmethod
    def _outputs(capsys, tmp_path, estimator):
        """Text, JSON and SVG of one test and one plot run."""
        argv = [*BASE, "--estimator", estimator]
        runs = [main(["test", *argv]), main(["test", *argv, "--output-format", "json"])]
        captured = capsys.readouterr()
        svg = tmp_path / "p.svg"
        runs.append(main(["plot", *argv, "--out", str(svg)]))
        assert runs == [0, 0, 0]
        assert capsys.readouterr().err == ""
        return captured.out, svg.read_bytes()

    @pytest.mark.parametrize("estimator", ["grid", "mc"])
    def test_hit_gives_the_bytes_of_a_miss(self, capsys, monkeypatch, tmp_path, counts,
                                           draws_cache_dir, estimator):
        # one JSON timestamp for every run, whatever second each run falls in
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        uncached = self._outputs(capsys, tmp_path, estimator)
        assert not _entries(draws_cache_dir)  # the golden draws are below the floor
        monkeypatch.setattr(fbst_io, "CACHE_FLOOR", 0)
        assert counts == {"loads": 3, "fits": 3}
        first = self._outputs(capsys, tmp_path, estimator)  # marks, fills, then hits
        assert counts == {"loads": 5, "fits": 5}
        hit = self._outputs(capsys, tmp_path, estimator)
        assert counts == {"loads": 5, "fits": 5}
        assert uncached == first == hit
        assert len(_entries(draws_cache_dir)) == 1
        if estimator == "grid":
            golden = (DATA / "golden_summary.txt").read_text(encoding="utf-8")
            assert hit[0].startswith(golden)
            assert hit[1] == (DATA / "golden_plot.svg").read_bytes()

    def test_one_run_leaves_an_empty_entry(self, capsys, no_floor, counts, draws_cache_dir):
        assert main(["test", *BASE]) == 0
        capsys.readouterr()
        [entry] = _entries(draws_cache_dir)
        assert entry.read_bytes() == b""
        assert counts == {"loads": 1, "fits": 1}

    def test_same_bytes_under_another_stem_are_another_entry(self, tmp_path, no_floor,
                                                             counts, draws_cache_dir):
        text = DATA.joinpath("draws.csv").read_text(encoding="utf-8").split("\n", 1)[1]
        labels = []
        for stem in ("alpha", "beta") * 3:
            argv = _draws_file(tmp_path, f"{stem}.txt", text)
            labels.append(_plot_label(tmp_path, argv))
        assert labels == ["alpha", "beta"] * 3
        assert counts["loads"] == 4
        assert len(_entries(draws_cache_dir)) == 2

    def test_rewritten_file_of_the_same_size_and_time_is_a_miss(self, capsys, monkeypatch,
                                                                tmp_path, no_floor, counts):
        # one JSON timestamp for every run, whatever second each run falls in
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        rng = np.random.default_rng(5)
        path = tmp_path / "theta.txt"
        docs = []
        for _ in range(2):
            before = path.stat() if path.exists() else None
            path.write_text("".join(f"{x:.6f}\n" for x in rng.uniform(1.0, 2.0, 500)),
                            encoding="utf-8")
            if before:  # as `cp -p` leaves it
                os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
                assert path.stat().st_mtime_ns == before.st_mtime_ns
            assert path.stat().st_size == 500 * 9
            docs.append([_json_doc(capsys, ("--draws", str(path))) for _ in range(3)])
        assert counts["loads"] == 3  # the second file's first run checks the digest
        assert docs[0][0] == docs[0][2] and docs[1][0] == docs[1][2]
        assert docs[0][0]["mode_location"] != docs[1][0]["mode_location"]
        monkeypatch.setattr(fbst_io, "CACHE_FLOOR", 1 << 20)
        assert _json_doc(capsys, ("--draws", str(path))) == docs[1][0]

    def test_file_changed_during_a_run_is_not_kept(self, capsys, monkeypatch, tmp_path,
                                                   no_floor, counts, draws_cache_dir):
        draws = np.random.default_rng(6).standard_normal(400).tolist()
        text = "".join(f"{x!r}\n" for x in draws)
        argv = ["test", *_draws_file(tmp_path, "chain.txt", text)]
        pipeline = cli.fbst_pipeline

        def append_then_run(*args, **kwargs):  # as a sampler still writing its file
            with open(argv[2], "a", encoding="utf-8") as handle:
                handle.write("0.5\n")
            return pipeline(*args, **kwargs)

        assert main(argv) == 0
        monkeypatch.setattr(cli, "fbst_pipeline", append_then_run)
        assert main(argv) == 0
        [entry] = _entries(draws_cache_dir)
        assert entry.read_bytes() == b""
        monkeypatch.setattr(cli, "fbst_pipeline", pipeline)
        assert [main(argv), main(argv)] == [0, 0]
        assert counts["loads"] == 3
        assert entry.read_bytes() != b""
        capsys.readouterr()

    @pytest.mark.parametrize("damage", ["truncated_fit", "half", "empty", "garbage",
                                        "nan_bandwidth", "grid_size", "bandwidth",
                                        "nan_draw", "few_draws", "empty_label"])
    def test_damaged_entry_is_recomputed_and_rewritten(self, capsys, no_floor, counts,
                                                       draws_cache_dir, damage):
        # a stored fit of another grid size or bandwidth than the key's is a miss, and so
        # are stored draws or a label that a sample refuses
        argv = ["test", *BASE, *(("--bandwidth", "0.3") if damage == "bandwidth" else ())]
        runs = [(main(argv), capsys.readouterr()) for _ in range(2)]
        [entry] = _entries(draws_cache_dir)
        good = entry.read_bytes()
        entry.write_bytes({"truncated_fit": good[:-8], "half": good[:len(good) // 2],
                           "empty": b"", "garbage": b"\x93NUMPY garbage" * 9,
                           "nan_bandwidth": _with_fit(good, _nan_bandwidth),
                           "grid_size": _with_fit(good, _other_grid_size),
                           "bandwidth": _with_fit(good, _other_bandwidth),
                           "nan_draw": _with_draws(good, lambda d: np.append(d, np.nan)),
                           "few_draws": _with_draws(good, lambda d: d[:29]),
                           "empty_label": _with_draws(good, lambda d: d,
                                                      lambda label: label[:0])}[damage])
        runs.append((main(argv), capsys.readouterr()))
        assert runs[0] == runs[1] == runs[2]
        assert runs[2][1].err == ""
        assert counts == {"loads": 3, "fits": 3}
        assert entry.read_bytes() == good

    def test_hit_holds_the_draws_once(self, tmp_path):
        # the loaded column is the sample's own read-only array, not copied again
        n = 200_000
        argv = _draws_file(tmp_path, "chain.csv", "theta\n" + "".join(
            f"{x!r}\n" for x in np.random.default_rng(2).standard_normal(n).tolist()))
        spec = fbst_io.DrawsFileSpec(argv[1])
        for _ in range(2):  # marks, then fills
            cache = fbst_io.DrawsCache(spec, None, 1024)
            assert cache.load() is None
            sample = fbst_io.load_draws(spec)
            cache.store(sample, density.kde_fit(sample))
        cache = fbst_io.DrawsCache(spec, None, 1024)
        tracemalloc.start()
        try:
            hit, fit = cache.load()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n
        assert np.array_equal(hit.draws, sample.draws) and hit.label == "theta"
        assert not hit.draws.flags.writeable
        assert fit.draws is hit.draws

    def test_fits_through_core_kde_fit_on_each_miss_only(self, capsys, monkeypatch,
                                                         no_floor):
        # perfbench's traced runs time the CLI's fits at this name
        calls, fit = [], core.kde_fit

        def counted(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(core, "kde_fit", counted)
        fits = []
        for _ in range(3):  # marks, fills, then hits
            assert main(["test", *BASE]) == 0
            fits.append(len(calls))
        capsys.readouterr()
        assert fits == [1, 2, 2]

    def test_unwritable_cache_changes_nothing(self, capsys, monkeypatch, tmp_path, no_floor,
                                              counts):
        golden = (DATA / "golden_summary.txt").read_text(encoding="utf-8")
        svg = tmp_path / "p.svg"
        assert [main(["test", *BASE]) for _ in range(2)] == [0, 0]  # fills the entry

        def refuse(*args, **kwargs):  # as a read-only entry or directory would
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(fbst_io.os, "utime", refuse)
        monkeypatch.setattr(fbst_io.os, "replace", refuse)
        assert main(["test", *BASE]) == 0
        assert counts["loads"] == 2  # still a hit
        blocker = tmp_path / "a-file"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert [main(["test", *BASE]), main(["plot", *BASE, "--out", str(svg)])] == [0, 0]
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == 4 * golden
        assert svg.read_bytes() == (DATA / "golden_plot.svg").read_bytes()

    def test_relative_cache_home_is_ignored(self, capsys, monkeypatch, tmp_path, no_floor):
        # the XDG Base Directory spec: a relative path is invalid and is ignored
        home, work = tmp_path / "home", tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("XDG_CACHE_HOME", "rel")
        assert [main(["test", *BASE]) for _ in range(2)] == [0, 0]
        capsys.readouterr()
        assert list(work.iterdir()) == []
        [entry] = _entries(home / ".cache" / "fbst")
        assert entry.read_bytes() != b""

    def test_without_blake2_runs_uncached(self, capsys, monkeypatch, no_floor, counts,
                                          draws_cache_dir):
        monkeypatch.setitem(sys.modules, "_blake2", None)  # its import now fails
        assert [main(["test", *BASE]) for _ in range(3)] == [0, 0, 0]
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == 3 * (DATA / "golden_summary.txt").read_text(encoding="utf-8")
        assert counts["loads"] == 3
        assert not draws_cache_dir.exists()

    @pytest.mark.parametrize("change", ["source", "bandwidth", "grid_size", "column",
                                        "delimiter"])
    def test_each_input_of_the_key_is_a_miss(self, capsys, monkeypatch, tmp_path, no_floor,
                                             counts, draws_cache_dir, change):
        argv = ["test", *BASE, *{"bandwidth": ("--bandwidth", "0.3"),
                                 "grid_size": ("--grid-size", "2048"),
                                 "column": ("--column", "delta"),
                                 "delimiter": ("--delimiter", ";")}.get(change, ())]
        assert [main(["test", *BASE]) for _ in range(2)] == [0, 0]
        if change == "source":  # the package as a later change to density.py leaves it
            package = tmp_path / "fbst"
            package.mkdir()
            for source in Path(fbst_io.__file__).parent.glob("*.py"):
                (package / source.name).write_bytes(source.read_bytes())
            with (package / "density.py").open("a", encoding="utf-8") as handle:
                handle.write("# changed\n")
            monkeypatch.setattr(fbst_io, "__file__", str(package / "io.py"))
        assert [main(argv) for _ in range(3)] == [0, 0, 0]
        capsys.readouterr()
        assert counts["loads"] == 4  # the changed input's third run hits
        assert len(_entries(draws_cache_dir)) == 2

    def test_entry_bound_keeps_the_newest_used(self, capsys, no_floor, counts,
                                               draws_cache_dir):
        def run(grid_size):
            assert main(["test", *BASE, "--grid-size", str(grid_size)]) == 0
            assert len(_entries(draws_cache_dir)) <= fbst_io.CACHE_ENTRIES
            return counts["loads"]

        sizes = [128 + i for i in range(fbst_io.CACHE_ENTRIES + 1)]
        for size in sizes[:-1]:
            run(size), run(size)  # marks, then fills its entry
        loads = run(sizes[0])  # a hit, which makes the oldest entry the newest used
        assert run(sizes[-1]) == loads + 1  # a first run, whose mark drops sizes[1]'s entry
        assert len(_entries(draws_cache_dir)) == fbst_io.CACHE_ENTRIES
        assert run(sizes[0]) == loads + 1
        assert run(sizes[1]) == loads + 2  # a first run again
        capsys.readouterr()

    def test_file_below_the_floor_makes_no_entry(self, capsys, tmp_path, counts,
                                                 draws_cache_dir):
        assert DATA.joinpath("draws.csv").stat().st_size < fbst_io.CACHE_FLOOR
        assert [main(["test", *BASE]), main(["test", *BASE])] == [0, 0]
        assert main(["plot", *BASE, "--out", str(tmp_path / "p.svg")]) == 0
        assert counts["loads"] == 3
        assert not draws_cache_dir.exists()
        capsys.readouterr()

    def test_failing_fit_fails_alike_cached_or_not(self, capsys, monkeypatch, tmp_path,
                                                   draws_cache_dir):
        rng = np.random.default_rng(0)
        draws = [*rng.standard_normal(10_000).tolist(), 1e4]  # one stray draw
        argv = _draws_file(tmp_path, "stray.txt", "".join(f"{x!r}\n" for x in draws))
        results = []
        for floor in (1 << 20, 0, 0, 0):
            monkeypatch.setattr(fbst_io, "CACHE_FLOOR", floor)
            results.append((main(["test", *argv]), capsys.readouterr()))
        assert results[0][0] == 3
        assert results[0][1].err.startswith("fbst: density integrates to ")
        assert results.count(results[0]) == 4
        assert not _entries(draws_cache_dir)

    def test_cached_run_imports_no_hashlib(self, draws_cache_dir):
        # hashlib would load OpenSSL, several MB of resident memory per run
        script = ("import sys; from fbst import cli, io; io.CACHE_FLOOR = 0; "
                  f"codes = [cli.main(['test', *{BASE!r}]) for _ in range(3)]; "
                  "print(codes, sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              encoding="utf-8")
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []", proc.stderr
        assert len(_entries(draws_cache_dir)) == 1

    def test_small_run_imports_no_thread_pool(self, tmp_path, draws_cache_dir):
        # a 10^4-draw fit fills its blocks on the calling thread: the 5-8 ms import waits
        argv = _draws_file(tmp_path, "theta.txt", "".join(
            f"{x!r}\n" for x in np.random.default_rng(4).normal(0.3, 1.0, 10_000).tolist()))
        script = ("import sys; from fbst import cli; "
                  f"code = cli.main(['test', *{argv!r}]); "
                  "print(code, 'concurrent.futures' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              encoding="utf-8")
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr

    def test_large_file_is_kept_across_processes(self, tmp_path, draws_cache_dir):
        rng = np.random.default_rng(1)
        argv = _draws_file(tmp_path, "chain.csv", "lp__,theta\n" + "".join(
            f"{-0.5 * x * x!r},{x!r}\n" for x in rng.standard_normal(30_000).tolist()))
        assert Path(argv[1]).stat().st_size >= fbst_io.CACHE_FLOOR
        runs = [subprocess.run([sys.executable, "-m", "fbst", "test", *argv, "--column",
                                "theta"], capture_output=True) for _ in range(3)]
        assert [(run.returncode, run.stderr) for run in runs] == [(0, b"")] * 3
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout
        [entry] = _entries(draws_cache_dir)
        assert entry.stat().st_size > 30_000 * 8
