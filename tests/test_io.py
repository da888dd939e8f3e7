import json
import math

import numpy as np
import pytest

from fbst import (DrawsError, DrawsFileSpec, PosteriorSample, ResultDocument,
                  __version__, fbst_pipeline, format_result, load_draws,
                  write_result)
from fbst.io import load_reference_table

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


class TestLoadCsv:
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


class TestLoadJson:
    def test_bare_array(self, tmp_path):
        path = _write(tmp_path, "chain.json", json.dumps([0.5] * 30))
        sample = load_draws(DrawsFileSpec(path=path, format="json"))
        assert sample.label == "chain"
        assert sample.n == 30

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


class TestResultDocument:
    def test_from_result_copies_fields(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        rng = np.random.default_rng(11)
        sample = PosteriorSample(draws=rng.standard_normal(2000), label="mu")
        result, posterior, _, _ = fbst_pipeline(sample, 0.5, 1, 0)
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
        result, posterior, _, _ = fbst_pipeline(sample, 0.5, 1, 0)
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
