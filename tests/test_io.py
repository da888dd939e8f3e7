import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fbst import (DimensionError, DomainError, DrawsError, DrawsFileSpec,
                  PosteriorSample, ReferenceFunction, ResultDocument, __version__,
                  fbst_pipeline, format_result, load_draws, write_result)
import fbst.io
from fbst.io import load_reference, load_reference_table, write_text

DATA = Path(__file__).parent / "data"

REFERENCE_SUMMARY = (
    "Full Bayesian Significance Test for testing a sharp hypothesis "
    "against its alternative:\n"
    "Reference function: Flat\n"
    "Testing Hypothesis H_0:Parameter= 0 against its alternative H_1\n"
    "Bayesian e-value against H_0: 0.8305998\n"
    "p-value associated with the Bayesian e-value in favour of the null "
    "hypothesis: 0.1461029\n"
    "Standardized e-value: 0.0248695\n"
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _rows(n=32):
    return [f"{0.01 * i + 0.5:.4f}" for i in range(n)]


def _doc(**overrides):
    base = dict(
        e_value_against=0.8305998, e_value_in_favor=0.1694002,
        p_value=0.1461029, sev_against=0.9751305, sev=0.0248695,
        dim_theta=3, dim_null=2, null_value=0.0,
        reference_descriptor="flat", estimator="grid",
        mode_location=-0.45, mode_density=1.31,
        relative_null_ratio=0.3477619, tool_version=__version__,
        sample_size=90000, bandwidth=0.047, grid_size=1024,
        timestamp="2026-08-19T12:00:00Z",
    )
    base.update(overrides)
    return ResultDocument(**base)


class TestDrawsFileSpec:
    def test_rejects_unknown_format(self):
        with pytest.raises(DrawsError, match="format"):
            DrawsFileSpec(path="x", format="xml")

    def test_rejects_wide_delimiter(self):
        with pytest.raises(DrawsError, match="delimiter"):
            DrawsFileSpec(path="x", format="csv", delimiter=";;")

    @pytest.mark.parametrize("column", [7, "theta"])
    def test_rejects_a_column_for_a_plain_file(self, column):
        # raised by the spec itself, so before the file is looked for
        with pytest.raises(DrawsError, match=f"^absent.txt: a plain file has no column {column!r}$"):
            DrawsFileSpec(path="absent.txt", format="plain", column=column)


    @pytest.mark.parametrize("name,format", [
        ("d.csv", "csv"), ("d.CSV", "csv"), ("chain.json", "json"), ("d.Json", "json"),
        ("d.txt", "plain"), ("draws", "plain"), ("d.csv.gz", "plain")])
    def test_format_comes_from_the_suffix(self, name, format):
        assert DrawsFileSpec(name).format == format

    def test_given_format_beats_the_suffix(self):
        assert DrawsFileSpec("d.txt", "csv").format == "csv"


class TestLoadPlain:
    def test_values_and_label(self, tmp_path):
        path = _write(tmp_path, "draws.txt", "\n".join(_rows()) + "\n")
        sample = load_draws(DrawsFileSpec(path=path, format="plain"))
        assert sample.n == 32
        assert sample.label == "draws"
        assert sample.draws[0] == 0.5

    def test_blank_lines_skipped(self, tmp_path):
        body = "\n\n".join(_rows()) + "\n\n"
        path = _write(tmp_path, "d.txt", body)
        assert load_draws(DrawsFileSpec(path=path, format="plain")).n == 32

    def test_parse_error_carries_line_number(self, tmp_path):
        rows = _rows()
        rows[2] = "oops"
        path = _write(tmp_path, "d.txt", "\n".join(rows))
        with pytest.raises(DrawsError, match=r"d\.txt:3: cannot parse 'oops'"):
            load_draws(DrawsFileSpec(path=path, format="plain"))

    def test_non_finite_rejected(self, tmp_path):
        rows = _rows()
        rows[5] = "inf"
        path = _write(tmp_path, "d.txt", "\n".join(rows))
        with pytest.raises(DrawsError, match=r"d\.txt:6: non-finite"):
            load_draws(DrawsFileSpec(path=path, format="plain"))

    def test_missing_file(self, tmp_path):
        spec = DrawsFileSpec(path=str(tmp_path / "absent.txt"), format="plain")
        with pytest.raises(DrawsError, match="file not found"):
            load_draws(spec)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "d.txt", "")
        with pytest.raises(DrawsError, match="no draws found"):
            load_draws(DrawsFileSpec(path=path, format="plain"))

    def test_too_few_draws(self, tmp_path):
        path = _write(tmp_path, "d.txt", "\n".join(_rows(5)))
        with pytest.raises(DrawsError, match="at least 30"):
            load_draws(DrawsFileSpec(path=path, format="plain"))

    @pytest.mark.parametrize("join", [
        "\r\n".join,
        "\r".join,
        lambda rows: rows[0] + "\f" + "\n".join(rows[1:]),
    ], ids=["crlf", "cr", "form_feed"])
    def test_line_breaks_as_splitlines_counts_them(self, tmp_path, join):
        path = tmp_path / "d.txt"
        rows = _rows()
        path.write_bytes(join(rows).encode("utf-8"))
        sample = load_draws(DrawsFileSpec(path=str(path), format="plain"))
        assert sample.draws.tolist() == [float(row) for row in rows]
        rows[20] = "oops"
        path.write_bytes(join(rows).encode("utf-8"))
        with pytest.raises(DrawsError, match=r"d\.txt:21: cannot parse 'oops'"):
            load_draws(DrawsFileSpec(path=str(path), format="plain"))


class TestLoadCsv:
    def test_fixture_draws_are_bit_identical(self):
        # SHA-256 of the float64 draws as read before draws were handed to
        # PosteriorSample as a list.
        sample = load_draws(DrawsFileSpec(path=str(DATA / "draws.csv"), format="csv"))
        assert hashlib.sha256(sample.draws.tobytes()).hexdigest() == \
            "fe517cb6938febf833965249bf803d96d3f0f34878d51b1d0c84221caa268dcb"

    def test_single_column_with_header(self, tmp_path):
        path = _write(tmp_path, "d.csv", "delta\n" + "\n".join(_rows()) + "\n")
        sample = load_draws(DrawsFileSpec(path=path, format="csv"))
        assert sample.label == "delta"
        assert sample.n == 32

    def test_named_column(self, tmp_path):
        lines = ["step,delta"] + [f"{i},{v}" for i, v in enumerate(_rows())]
        path = _write(tmp_path, "d.csv", "\n".join(lines) + "\n")
        spec = DrawsFileSpec(path=path, format="csv", column="delta")
        sample = load_draws(spec)
        assert sample.label == "delta"
        assert sample.draws[1] == 0.51

    def test_index_column(self, tmp_path):
        lines = ["step,delta"] + [f"{i},{v}" for i, v in enumerate(_rows())]
        path = _write(tmp_path, "d.csv", "\n".join(lines) + "\n")
        spec = DrawsFileSpec(path=path, format="csv", column=1)
        sample = load_draws(spec)
        assert sample.label == "delta"
        assert sample.draws[0] == 0.5

    def test_headerless_single_column(self, tmp_path):
        path = _write(tmp_path, "chain.csv", "\n".join(_rows()) + "\n")
        sample = load_draws(DrawsFileSpec(path=path, format="csv"))
        assert sample.label == "chain"
        assert sample.n == 32

    def test_semicolon_delimiter(self, tmp_path):
        lines = ["a;delta"] + [f"{i};{v}" for i, v in enumerate(_rows())]
        path = _write(tmp_path, "d.csv", "\n".join(lines) + "\n")
        spec = DrawsFileSpec(path=path, format="csv", column="delta",
                             delimiter=";")
        assert load_draws(spec).draws[0] == 0.5

    def test_multi_column_needs_selection(self, tmp_path):
        lines = ["a,b"] + [f"{v},{v}" for v in _rows()]
        path = _write(tmp_path, "d.csv", "\n".join(lines) + "\n")
        with pytest.raises(DrawsError, match="2 columns"):
            load_draws(DrawsFileSpec(path=path, format="csv"))

    def test_unknown_column_name(self, tmp_path):
        path = _write(tmp_path, "d.csv", "delta\n" + "\n".join(_rows()) + "\n")
        spec = DrawsFileSpec(path=path, format="csv", column="theta")
        with pytest.raises(DrawsError, match="no column named 'theta'"):
            load_draws(spec)

    def test_index_out_of_range(self, tmp_path):
        path = _write(tmp_path, "d.csv", "delta\n" + "\n".join(_rows()) + "\n")
        spec = DrawsFileSpec(path=path, format="csv", column=3)
        with pytest.raises(DrawsError, match="index 3 out of range"):
            load_draws(spec)

    def test_named_column_without_header(self, tmp_path):
        path = _write(tmp_path, "d.csv", "\n".join(_rows()) + "\n")
        spec = DrawsFileSpec(path=path, format="csv", column="delta")
        with pytest.raises(DrawsError, match="needs a header row"):
            load_draws(spec)

    def test_short_row_reported_with_line(self, tmp_path):
        lines = ["a,delta"] + [f"{i},{v}" for i, v in enumerate(_rows())]
        lines[4] = "3"
        path = _write(tmp_path, "d.csv", "\n".join(lines) + "\n")
        spec = DrawsFileSpec(path=path, format="csv", column=1)
        with pytest.raises(DrawsError, match=r"d\.csv:5: row has no column 1"):
            load_draws(spec)

    def test_bad_cell_reported_with_line(self, tmp_path):
        rows = _rows()
        rows[0] = "x"
        path = _write(tmp_path, "d.csv", "delta\n" + "\n".join(rows) + "\n")
        with pytest.raises(DrawsError, match=r"d\.csv:2: cannot parse 'x'"):
            load_draws(DrawsFileSpec(path=path, format="csv"))

    def test_line_numbers_count_blank_lines(self, tmp_path):
        rows = _rows()
        rows[10] = "x"
        path = _write(tmp_path, "d.csv", "delta\n\n\n" + "\n".join(rows) + "\n")
        with pytest.raises(DrawsError, match=r"d\.csv:14: cannot parse 'x'"):
            load_draws(DrawsFileSpec(path=path, format="csv"))

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "d.csv", "")
        with pytest.raises(DrawsError, match="file is empty"):
            load_draws(DrawsFileSpec(path=path, format="csv"))


def _two_columns(header, n=2000):
    """A header (or none) over n rows of `step,value`; the values, as read."""
    values = np.random.default_rng(2000).normal(0.4, 1.0, n)
    lines = [f"{i % 4},{float(v)!r}" for i, v in enumerate(values)]
    return "\n".join(([header] if header else []) + lines) + "\n", values


class TestColumnRule:
    """A first row is a header when all its cells are text, or when a text
    cell sits over a number in the row below; a text column names a header
    cell, else its ASCII digits are a zero-based index."""

    @pytest.mark.parametrize("column", ["1", 1])
    def test_number_in_header_is_a_name_not_a_draw(self, tmp_path, column):
        text, values = _two_columns("chain,1")
        sample = load_draws(DrawsFileSpec(_write(tmp_path, "d.csv", text), column=column))
        assert sample.label == "1"
        assert sample.draws.tolist() == values.tolist()

    def test_name_beats_index(self, tmp_path):
        text, _ = _two_columns("1,chain")
        sample = load_draws(DrawsFileSpec(_write(tmp_path, "d.csv", text), column="1"))
        assert sample.label == "1"
        assert sample.draws.tolist() == [float(i % 4) for i in range(2000)]

    def test_digits_index_a_headerless_file(self, tmp_path):
        text, values = _two_columns(None)
        sample = load_draws(DrawsFileSpec(_write(tmp_path, "d.csv", text), column="1"))
        assert sample.label == "d"
        assert sample.draws.tolist() == values.tolist()

    def test_digits_index_a_header_that_lacks_them(self, tmp_path):
        text, values = _two_columns("step,delta")
        sample = load_draws(DrawsFileSpec(_write(tmp_path, "d.csv", text), column="1"))
        assert sample.label == "delta"
        assert sample.draws.tolist() == values.tolist()

    @pytest.mark.parametrize("column", ["\u0661", "+1", " 1", "1.0"])
    def test_only_ascii_digits_index(self, tmp_path, column):
        text, _ = _two_columns("step,delta")
        spec = DrawsFileSpec(_write(tmp_path, "d.csv", text), column=column)
        with pytest.raises(DrawsError, match=re.escape(f"no column named {column!r} in header") + "$"):
            load_draws(spec)

    def test_any_text_cell_makes_a_header(self, tmp_path):
        text, values = _two_columns("NA,0.5")
        sample = load_draws(DrawsFileSpec(_write(tmp_path, "d.csv", text), column=1))
        assert sample.label == "0.5"
        assert sample.n == 2000

    @pytest.mark.parametrize("lead", ["a,", "1,,"], ids=["text_id", "empty_cell"])
    def test_text_over_text_is_no_header(self, tmp_path, lead):
        values = np.random.default_rng(2001).normal(0.4, 1.0, 50)
        text = "".join(f"{lead}{float(v)!r}\n" for v in values)
        column = lead.count(",")
        sample = load_draws(DrawsFileSpec(_write(tmp_path, "d.csv", text), column=column))
        assert sample.label == "d"
        assert sample.draws.tolist() == values.tolist()

    def test_digit_index_out_of_range(self, tmp_path):
        text, _ = _two_columns(None)
        spec = DrawsFileSpec(_write(tmp_path, "d.csv", text), column="2")
        with pytest.raises(DrawsError, match="column index 2 out of range$"):
            load_draws(spec)

    def test_digit_json_key_is_a_key(self, tmp_path):
        payload = {"2020": [0.5 + i / 64 for i in range(40)], "x": [0.0] * 40}
        path = _write(tmp_path, "d.json", json.dumps(payload))
        sample = load_draws(DrawsFileSpec(path, column="2020"))
        assert sample.label == "2020"
        assert sample.draws.tolist() == payload["2020"]
        with pytest.raises(DrawsError, match="no array named '0'$"):
            load_draws(DrawsFileSpec(path, column="0"))


def _csv_text(rows=None, header="step,delta", sep=",", end="\n"):
    """A header and 32 rows of `step<sep>value`, values printed with repr."""
    values = np.random.default_rng(32).normal(0.4, 1.3, 32)
    lines = rows or [f"{i}{sep}{float(v)!r}" for i, v in enumerate(values)]
    return end.join(([header] if header else []) + lines) + end


def _with_row(index, row, **kwargs):
    lines = _csv_text(header=None).splitlines()
    lines[index] = row
    return _csv_text(rows=lines, **kwargs)


def _outcome(spec):
    try:
        sample = load_draws(spec)
    except DrawsError as err:
        return str(err)
    return sample.label, hashlib.sha256(sample.draws.tobytes()).hexdigest()


def _read_both_ways(monkeypatch, spec):
    """Whether load_draws took the one-pass column parse, its outcome (label
    and draws digest, or error text), and the streaming reader's outcome."""
    parsed = []
    one_pass = fbst.io._loadtxt_column

    def spy(*args, **kwargs):
        parsed.append(one_pass(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(fbst.io, "_loadtxt_column", spy)
    outcome = _outcome(spec)
    monkeypatch.setattr(fbst.io, "_loadtxt_column", lambda *args, **kwargs: None)
    return any(p is not None for p in parsed), outcome, _outcome(spec)


# name: (file text, with \udcff for the byte 0xff; column; delimiter;
#        whether the one-pass parse is taken)
CSV_CASES = {
    "plain": (_csv_text(), "delta", ",", True),
    "quoted_cell": (_with_row(3, '3,"0.25"'), "delta", ",", True),
    "quoted_newline": (_with_row(5, '"five\nlines",0.75'), "delta", ",", True),
    "quoted_delimiter": (_csv_text(header="a,b,delta", rows=[
        f'"p,{i}",{i},{i / 8}' for i in range(32)]), "delta", ",", True),
    "r_style": (_csv_text(header='"","delta"', rows=[
        f'"{line.replace(",", chr(34) + ",", 1)}'
        for line in _csv_text(header=None).splitlines()]), "delta", ",", True),
    "text_after_quote": (_with_row(3, '3,"0.25"5'), "delta", ",", True),
    "quote_mid_field": (_with_row(3, '3,0."25"'), "delta", ",", False),
    "space_before_quote": (_with_row(3, '3, "0.25"'), "delta", ",", False),
    "doubled_quote": (_with_row(3, '"a ""3"", b",0.25'), "delta", ",", True),
    "empty_quoted_cell": (_with_row(3, '3,""'), "delta", ",", False),
    "two_line_header": (_csv_text(header='"step\nnumber",delta'), "delta", ",", True),
    "unclosed_quote": (_with_row(5, '5,"0.5'), "delta", ",", False),
    "bom": ("\ufeff" + _csv_text(), "delta", ",", True),
    "bom_headerless": ("\ufeff" + _csv_text(header=None, rows=[
        f"{i / 7!r}" for i in range(32)]), None, ",", True),
    "underscore": (_with_row(7, "7,1_000"), "delta", ",", False),
    "unicode_digits": (_with_row(7, "7,\u0661\u0662"), "delta", ",", False),
    "lone_cr": (_csv_text(end="\r"), "delta", ",", True),
    "crlf": (_csv_text(end="\r\n"), "delta", ",", True),
    "whitespace_line": (_with_row(9, "   "), "delta", ",", False),
    "whitespace_line_one_column": (_csv_text(header="delta", rows=[
        "   " if i == 4 else f"{i / 3!r}" for i in range(32)]), None, ",", False),
    "blank_lines": ("\n\n" + _csv_text().replace("\n1,", "\n\n\n1,"),
                    "delta", ",", True),
    "nan": (_with_row(11, "11,nan"), "delta", ",", False),
    "inf": (_with_row(11, "11,-inf"), "delta", ",", False),
    "empty_cell": (_with_row(11, "11,"), "delta", ",", False),
    "short_row": (_with_row(12, "12"), "delta", ",", False),
    "extra_cells": (_with_row(12, "12,0.5,99,x"), "delta", ",", True),
    "headerless": (_csv_text(header=None, rows=[
        f"{i / 7!r}" for i in range(32)]), None, ",", True),
    "semicolon": (_csv_text(header="step;delta", sep=";"), "delta", ";", True),
    "header_only": ("step,delta\n\n", "delta", ",", True),
    "not_utf8": (_with_row(13, "13,\udcff0.5"), "delta", ",", False),
}


class TestCsvOnePassParse:
    @pytest.mark.parametrize("name", list(CSV_CASES))
    def test_same_outcome_as_streaming_reader(self, tmp_path, monkeypatch,
                                              recwarn, name):
        text, column, delimiter, one_pass = CSV_CASES[name]
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        spec = DrawsFileSpec(path=str(path), format="csv", column=column,
                             delimiter=delimiter)
        took, outcome, streamed = _read_both_ways(monkeypatch, spec)
        assert outcome == streamed
        assert took == one_pass
        assert not recwarn.list

    def test_stan_style_file_is_bit_identical(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(200_000)
        n = 200_000
        table = np.column_stack([rng.normal(-7, 1, n), rng.uniform(size=n),
                                 rng.normal(0.3, 1.1, n), rng.gamma(2.0, 1.0, n)])
        path = tmp_path / "output.csv"
        np.savetxt(path, table, fmt="%.6g", delimiter=",", comments="",
                   header="lp__,accept_stat__,delta,sigma")
        spec = DrawsFileSpec(path=str(path), format="csv", column="delta")
        took, outcome, streamed = _read_both_ways(monkeypatch, spec)
        assert took
        assert outcome == streamed


class TestLoadJson:
    def test_bare_array(self, tmp_path):
        path = _write(tmp_path, "chain.json", json.dumps([0.5] * 30))
        sample = load_draws(DrawsFileSpec(path=path, format="json"))
        assert sample.label == "chain"
        assert sample.n == 30

    @pytest.mark.parametrize("column", ["nosuch", 0])
    def test_bare_array_rejects_a_column(self, tmp_path, column):
        path = _write(tmp_path, "chain.json", json.dumps([0.5] * 30))
        with pytest.raises(DrawsError, match=f"chain\\.json: a bare array has no column {column!r}$"):
            load_draws(DrawsFileSpec(path=path, format="json", column=column))

    def test_object_single_array(self, tmp_path):
        path = _write(tmp_path, "d.json", json.dumps({"delta": [1, 2.5] * 16}))
        sample = load_draws(DrawsFileSpec(path=path, format="json"))
        assert sample.label == "delta"
        assert sample.draws[1] == 2.5

    def test_object_named_array(self, tmp_path):
        payload = {"mu": [0.0] * 30, "delta": [0.5] * 30}
        path = _write(tmp_path, "d.json", json.dumps(payload))
        spec = DrawsFileSpec(path=path, format="json", column="delta")
        assert load_draws(spec).label == "delta"

    def test_object_needs_selection(self, tmp_path):
        payload = {"mu": [0.0] * 30, "delta": [0.5] * 30}
        path = _write(tmp_path, "d.json", json.dumps(payload))
        with pytest.raises(DrawsError, match="2 arrays"):
            load_draws(DrawsFileSpec(path=path, format="json"))

    def test_missing_array(self, tmp_path):
        path = _write(tmp_path, "d.json", json.dumps({"mu": [0.0] * 30}))
        spec = DrawsFileSpec(path=path, format="json", column="delta")
        with pytest.raises(DrawsError, match="no array named 'delta'"):
            load_draws(spec)

    def test_rejects_scalar_payload(self, tmp_path):
        path = _write(tmp_path, "d.json", "3.5")
        with pytest.raises(DrawsError, match="expected an array"):
            load_draws(DrawsFileSpec(path=path, format="json"))

    @pytest.mark.parametrize("bad", ["\"x\"", "true", "null"])
    def test_non_numeric_element(self, tmp_path, bad):
        body = "[" + ",".join(["0.5"] * 30 + [bad]) + "]"
        path = _write(tmp_path, "d.json", body)
        with pytest.raises(DrawsError, match="element 30 of 'd'"):
            load_draws(DrawsFileSpec(path=path, format="json"))

    def test_malformed_document_reports_line(self, tmp_path):
        path = _write(tmp_path, "d.json", "[0.5,\n0.6,\n")
        with pytest.raises(DrawsError, match=r"d\.json:3:"):
            load_draws(DrawsFileSpec(path=path, format="json"))


class TestLoadReferenceTable:
    def test_header_row_skipped(self, tmp_path):
        path = _write(tmp_path, "ref.csv", "theta,density\n\n-1,0.5\n1,0.25\n")
        ref = load_reference_table(path)
        assert ref.grid.tolist() == [-1.0, 1.0]
        assert ref.values.tolist() == [0.5, 0.25]
        assert ref.descriptor == f"table:{path}"

    def test_short_row_reported_with_physical_line(self, tmp_path):
        path = _write(tmp_path, "ref.csv", "theta,density\n\n-1,0.5\n1\n")
        with pytest.raises(DrawsError, match=r"ref\.csv:4: expected two columns"):
            load_reference_table(path)


class TestLoadReference:
    def test_flat_is_the_shared_instance(self):
        assert load_reference("flat") is ReferenceFunction.flat()

    def test_family_is_parsed(self):
        ref = load_reference("normal:mean=0,sd=2.5")
        assert ref.descriptor == "normal:mean=0,sd=2.5"
        assert ref.family.family == "normal"

    def test_table_is_read_from_its_file(self, tmp_path):
        path = _write(tmp_path, "ref.csv", "theta,density\n-1,0.5\n1,0.25\n")
        ref = load_reference(f"table:{path}")
        assert ref.grid.tolist() == [-1.0, 1.0]
        assert ref.descriptor == f"table:{path}"

    def test_bad_descriptor_is_a_domain_error(self):
        with pytest.raises(DomainError, match="bad reference descriptor 'normal:sd'"):
            load_reference("normal:sd")

    def test_unordered_table_names_its_file(self, tmp_path):
        path = _write(tmp_path, "ref.csv", "1,0.5\n-1,0.25\n")
        message = f"{path}: tabulated reference grid must be strictly increasing"
        with pytest.raises(DrawsError, match=f"^{re.escape(message)}$"):
            load_reference(f"table:{path}")


_BOM_DRAWS = "\n".join(repr(float(x)) for x in
                       np.random.default_rng(8).normal(0.3, 1.0, 40))


def _drawn(path, format, column=None):
    sample = load_draws(DrawsFileSpec(path, format, column))
    return sample.label, sample.draws.tolist()


# name: (file name, file text, what loading it reports)
BOM_FILES = {
    "plain": ("d.txt", _BOM_DRAWS, lambda path: _drawn(path, "plain")),
    "csv_headerless": ("d.csv", _BOM_DRAWS, lambda path: _drawn(path, "csv")),
    "csv_header": ("d.csv", "delta\n" + _BOM_DRAWS,
                   lambda path: _drawn(path, "csv", "delta")),
    "json": ("d.json", '{"delta": [' + _BOM_DRAWS.replace("\n", ", ") + "]}",
             lambda path: _drawn(path, "json", "delta")),
    "table": ("ref.csv", "\n".join(f"{i},1.0" for i in range(40)),
              lambda path: load_reference_table(path).grid.tolist()),
}


@pytest.mark.parametrize("name", list(BOM_FILES))
def test_byte_order_mark_is_skipped(tmp_path, name):
    """A UTF-8 byte-order mark, as Excel and PowerShell write, changes nothing."""
    file_name, text, load = BOM_FILES[name]
    read = []
    for folder, bom in (("plain", ""), ("bom", "\ufeff")):
        path = tmp_path / folder / file_name
        path.parent.mkdir()
        path.write_text(bom + text + "\n", encoding="utf-8")
        read.append(load(str(path)))
    assert read[0] == read[1]


class TestResultDocument:
    def test_from_result_copies_fields(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        rng = np.random.default_rng(11)
        sample = PosteriorSample(draws=rng.standard_normal(2000), label="mu")
        result, surprise = fbst_pipeline(sample, 0.5, 1, 0)
        posterior = surprise.posterior
        doc = ResultDocument.from_result(result, sample_size=sample.n,
                                         bandwidth=posterior.bandwidth,
                                         grid_size=posterior.grid.size)
        assert doc.e_value_against == result.e_value_against
        assert doc.p_value == result.p_value
        assert doc.sev == result.sev
        assert doc.reference_descriptor == "flat"
        assert doc.tool_version == __version__
        assert doc.sample_size == 2000
        assert doc.bandwidth == posterior.bandwidth
        assert doc.grid_size == posterior.grid.size
        assert doc.timestamp == "1970-01-01T00:00:00Z"

    def test_explicit_timestamp_wins(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        rng = np.random.default_rng(11)
        sample = PosteriorSample(draws=rng.standard_normal(2000), label="mu")
        result, surprise = fbst_pipeline(sample, 0.5, 1, 0)
        posterior = surprise.posterior
        doc = ResultDocument.from_result(result, sample_size=sample.n,
                                         bandwidth=posterior.bandwidth,
                                         grid_size=posterior.grid.size,
                                         timestamp="2026-01-01T00:00:00Z")
        assert doc.timestamp == "2026-01-01T00:00:00Z"

    def test_from_dict_rejects_missing_fields(self):
        payload = _doc().to_dict()
        del payload["sev"]
        del payload["timestamp"]
        with pytest.raises(DrawsError, match="missing fields.*sev.*timestamp"):
            ResultDocument.from_dict(payload)

    @pytest.mark.parametrize("dim_theta,dim_null", [(0, -1), (3, -1), (2, 2)])
    def test_from_dict_rejects_impossible_dimensions(self, dim_theta, dim_null):
        payload = {**_doc().to_dict(), "dim_theta": dim_theta, "dim_null": dim_null}
        with pytest.raises(DimensionError):
            ResultDocument.from_dict(payload)

    def test_json_round_trip_many(self):
        rng = np.random.default_rng(7)
        descriptors = ["flat", "cauchy:location=0,scale=0.7071",
                       "normal:mean=0,sd=2.5", "table:ref.csv"]
        for _ in range(1000):
            ev = float(rng.random())
            doc = _doc(
                e_value_against=ev, e_value_in_favor=1.0 - ev,
                p_value=float(10.0 ** rng.uniform(-300, 0)),
                sev=float(rng.random()), sev_against=float(rng.random()),
                null_value=float(rng.normal(scale=10)),
                dim_theta=int(rng.integers(2, 20)),
                dim_null=int(rng.integers(0, 2)),
                reference_descriptor=str(rng.choice(descriptors)),
                estimator=("grid", "monte_carlo")[int(rng.integers(2))],
                mode_location=float(rng.normal()),
                mode_density=float(rng.random() * 5),
                relative_null_ratio=float(rng.random()),
                sample_size=int(rng.integers(30, 10 ** 7)),
                bandwidth=float(10.0 ** rng.uniform(-6, 1)),
                grid_size=int(rng.integers(128, 8192)),
            )
            assert ResultDocument.from_dict(json.loads(
                format_result(doc, "json"))) == doc

    def test_file_round_trip(self, tmp_path):
        doc = _doc()
        path = tmp_path / "result.json"
        write_result(doc, str(path), format="json")
        restored = ResultDocument.from_dict(
            json.loads(path.read_text(encoding="utf-8")))
        assert restored == doc


class TestFormatResult:
    def test_reference_text_block(self):
        assert format_result(_doc(), "text") == REFERENCE_SUMMARY

    def test_user_defined_reference_line(self):
        doc = _doc(reference_descriptor="cauchy:location=0,scale=0.7071")
        text = format_result(doc, "text")
        assert "Reference function: User-defined\n" in text
        assert "Flat" not in text

    def test_null_value_rendering(self):
        text = format_result(_doc(null_value=-1.5), "text")
        assert "Testing Hypothesis H_0:Parameter= -1.5 against" in text

    def test_no_carriage_returns_or_trailing_spaces(self):
        text = format_result(_doc(), "text")
        assert "\r" not in text
        assert text.endswith("\n")
        assert all(line == line.rstrip() for line in text.splitlines())

    def test_seven_significant_digits(self):
        doc = _doc(e_value_against=0.123456789,
                   e_value_in_favor=1.0 - 0.123456789, sev=1.23456789e-5,
                   p_value=0.999999999)
        text = format_result(doc, "text")
        assert "Bayesian e-value against H_0: 0.1234568\n" in text
        assert "Standardized e-value: 1.234568e-05\n" in text
        assert "hypothesis: 1\n" in text

    def test_json_format(self):
        doc = _doc()
        rendered = format_result(doc, "json")
        assert rendered.endswith("\n")
        assert json.loads(rendered) == doc.to_dict()

    def test_unknown_format(self):
        with pytest.raises(DrawsError, match="format"):
            format_result(_doc(), "yaml")


class TestWriteResult:
    def test_text_bytes_use_lf(self, tmp_path):
        path = tmp_path / "summary.txt"
        write_result(_doc(), str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw == format_result(_doc(), "text").encode("utf-8")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_result(_doc(), str(tmp_path / "missing" / "out.txt"))


def test_write_text_is_utf8_with_lf(tmp_path):
    path = tmp_path / "out.svg"
    write_text(str(path), "<svg>\u03b8</svg>\n<!-- end -->\n")
    assert path.read_bytes() == "<svg>\u03b8</svg>\n<!-- end -->\n".encode("utf-8")
