"""Ingestion of posterior draws and reference tables from files, and
serialization of results."""

from __future__ import annotations

import csv
import datetime
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import FbstResult, ReferenceFunction
from .density import PosteriorSample
from .errors import DrawsError

FORMATS = ("csv", "json", "plain")

SUMMARY_HEADER = ("Full Bayesian Significance Test for testing a sharp "
                  "hypothesis against its alternative:")


@dataclass(frozen=True)
class DrawsFileSpec:
    """Where and how to read posterior draws."""

    path: str
    format: str
    column: str | int | None = None
    delimiter: str = ","

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise DrawsError(f"format must be one of {FORMATS}, got {self.format!r}")
        if len(self.delimiter) != 1:
            raise DrawsError(f"delimiter must be one character, got {self.delimiter!r}")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DrawsError(f"{where}: cannot parse {text!r} as a number") from None
    if not math.isfinite(value):
        raise DrawsError(f"{where}: non-finite value {text!r}")
    return value


def _load_plain(path: Path) -> tuple[list[float], str]:
    draws = []
    with path.open(encoding="utf-8") as handle:
        # Splitting each physical line (newlines already translated) yields
        # the lines, and line numbers, of splitting the whole text at once.
        lines = (line for physical in handle for line in physical.splitlines())
        for lineno, line in enumerate(lines, 1):
            text = line.strip()
            if not text:
                continue
            draws.append(_parse_number(text, f"{path}:{lineno}"))
    return draws, path.stem

def _csv_rows(path: Path, delimiter: str = ","):
    """Yield (physical line number, cells) for each nonblank row of a CSV file."""
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            for row in reader:
                if row:
                    yield reader.line_num, row
        except UnicodeDecodeError as err:
            raise DrawsError(f"{path}: not valid UTF-8 ({err.reason})") from None

def _loadtxt_column(path: Path, delimiter: str, index: int, skiprows: int):
    """The column after `skiprows` physical lines in one vectorised pass, or
    None where the streaming reader might differ: a quote character, a cell
    that loadtxt rejects and float() takes (1_000), a non-finite value."""
    try:
        with path.open("rb") as handle, warnings.catch_warnings(record=True):
            if any(b'"' in block for block in iter(lambda: handle.read(1 << 20), b"")):
                return None
            values = np.loadtxt(path, delimiter=delimiter, usecols=index, ndmin=1,
                                skiprows=skiprows, comments=None, encoding="utf-8")
    except (TypeError, ValueError, UserWarning):
        return None
    return values if np.isfinite(values).all() else None

def _load_csv(path: Path, column: str | int | None, delimiter: str) \
        -> tuple[list[float] | np.ndarray, str]:
    rows = _csv_rows(path, delimiter)
    lineno, header = next(rows, (0, None))
    if header is None:
        raise DrawsError(f"{path}: file is empty")
    if column is None:
        if len(header) != 1:
            raise DrawsError(
                f"{path}: {len(header)} columns; select one with a column name")
        index = 0
    elif isinstance(column, int):
        if not 0 <= column < len(header):
            raise DrawsError(f"{path}: column index {column} out of range")
        index = column
    else:
        if column not in header:
            if all(_is_number(cell) for cell in header):
                raise DrawsError(f"{path}: named column needs a header row")
            raise DrawsError(f"{path}: no column named {column!r} in header")
        index = header.index(column)
    label = header[index]
    draws = []
    if _is_number(label):  # headerless single-column files are still readable
        if isinstance(column, str):
            raise DrawsError(f"{path}: named column needs a header row")
        draws.append(_parse_number(label, f"{path}:{lineno}"))
        label = path.stem
    values = _loadtxt_column(path, delimiter, index, skiprows=lineno - len(draws))
    if values is not None:
        return values, label
    for lineno, row in rows:
        if index >= len(row):
            raise DrawsError(f"{path}:{lineno}: row has no column {index}")
        draws.append(_parse_number(row[index], f"{path}:{lineno}"))
    return draws, label

def _load_json(path: Path, column: str | int | None) -> tuple[list[float], str]:
    with path.open(encoding="utf-8") as handle:
        try:
            # integers parse as floats, so one past the float range reads as inf
            payload = json.load(handle, parse_int=float)
        except json.JSONDecodeError as err:
            raise DrawsError(f"{path}:{err.lineno}: {err.msg}") from None
    if isinstance(payload, dict):
        if column is None:
            if len(payload) != 1:
                raise DrawsError(
                    f"{path}: {len(payload)} arrays; select one with a column name")
            column = next(iter(payload))
        if column not in payload:
            raise DrawsError(f"{path}: no array named {column!r}")
        values, label = payload[column], str(column)
    elif isinstance(payload, list):
        values, label = payload, path.stem
    else:
        raise DrawsError(f"{path}: expected an array or an object of arrays")
    draws = []
    for i, value in enumerate(values):
        if not isinstance(value, float) or not math.isfinite(value):
            raise DrawsError(f"{path}: element {i} of {label!r} is not a finite number")
        draws.append(float(value))
    return draws, label

def load_draws(spec: DrawsFileSpec) -> PosteriorSample:
    """Read posterior draws per the file spec; finite values only."""
    path = Path(spec.path)
    if not path.is_file():
        raise DrawsError(f"{path}: file not found")
    try:
        if spec.format == "plain":
            draws, label = _load_plain(path)
        elif spec.format == "csv":
            draws, label = _load_csv(path, spec.column, spec.delimiter)
        else:
            draws, label = _load_json(path, spec.column)
    except UnicodeDecodeError as err:
        raise DrawsError(f"{path}: not valid UTF-8 ({err.reason})") from None
    if len(draws) == 0:
        raise DrawsError(f"{path}: no draws found")
    return PosteriorSample(draws=draws, label=label)

def load_reference_table(path_text: str) -> ReferenceFunction:
    """Read a tabulated reference: `theta,value` rows, optional header row."""
    path = Path(path_text)
    if not path.is_file():
        raise DrawsError(f"{path}: reference table not found")
    grid, values = [], []
    for i, (lineno, row) in enumerate(_csv_rows(path)):
        if i == 0 and len(row) == 2 and not _is_number(row[0]):
            continue  # header row
        if len(row) != 2:
            raise DrawsError(f"{path}:{lineno}: expected two columns")
        grid.append(_parse_number(row[0], f"{path}:{lineno}"))
        values.append(_parse_number(row[1], f"{path}:{lineno}"))
    if len(grid) < 2:
        raise DrawsError(f"{path}: reference table needs at least two rows")
    return ReferenceFunction.from_table(grid, values, source=str(path))


@dataclass(frozen=True)
class ResultDocument(FbstResult):
    """An FbstResult plus run provenance, ready for serialization."""

    tool_version: str
    sample_size: int
    bandwidth: float
    grid_size: int
    timestamp: str

    @classmethod
    def from_result(cls, result: FbstResult, sample_size: int, bandwidth: float,
                    grid_size: int, timestamp: str | None = None) -> "ResultDocument":
        return cls(**asdict(result), tool_version=__version__,
                   sample_size=int(sample_size), bandwidth=float(bandwidth),
                   grid_size=int(grid_size),
                   timestamp=timestamp if timestamp is not None else _now())

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ResultDocument":
        names = [f.name for f in fields(cls)]
        missing = [n for n in names if n not in payload]
        if missing:
            raise DrawsError(f"result document is missing fields {missing}")
        return cls(**{n: payload[n] for n in names})


def _now() -> str:
    # SOURCE_DATE_EPOCH pins the timestamp for reproducible outputs
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        when = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc) \
            if epoch else datetime.datetime.now(datetime.timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ValueError(f"SOURCE_DATE_EPOCH={epoch!r} is not a Unix time in "
                         "whole seconds") from None
    return when.strftime("%Y-%m-%dT%H:%M:%SZ")


def _sig7(value: float) -> str:
    return f"{value:.7g}"

def format_result(doc: ResultDocument, format: str = "text") -> str:
    """Render a result document as the text summary block or as JSON."""
    if format == "json":
        return json.dumps(doc.to_dict(), indent=2) + "\n"
    if format != "text":
        raise DrawsError(f"format must be 'text' or 'json', got {format!r}")
    reference = "Flat" if doc.reference_descriptor == "flat" else "User-defined"
    lines = [
        SUMMARY_HEADER,
        f"Reference function: {reference}",
        f"Testing Hypothesis H_0:Parameter= {doc.null_value:g} "
        "against its alternative H_1",
        f"Bayesian e-value against H_0: {_sig7(doc.e_value_against)}",
        "p-value associated with the Bayesian e-value in favour of the null "
        f"hypothesis: {_sig7(doc.p_value)}",
        f"Standardized e-value: {_sig7(doc.sev)}",
    ]
    return "\n".join(lines) + "\n"

def write_result(doc: ResultDocument, path: str, format: str = "text") -> None:
    """Write the rendered document to a file with LF line endings."""
    rendered = format_result(doc, format)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(rendered)
