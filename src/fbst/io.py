"""Ingestion of posterior draws and reference tables from files, and
serialization of results."""

from __future__ import annotations

import csv
import datetime
import itertools
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
from .errors import DomainError, DrawsError

FORMATS = ("csv", "json", "plain")

SUMMARY_HEADER = ("Full Bayesian Significance Test for testing a sharp "
                  "hypothesis against its alternative:")


@dataclass(frozen=True)
class DrawsFileSpec:
    """Where and how to read posterior draws."""

    path: str
    format: str | None = None  # None: csv or json by the suffix, else plain
    column: str | int | None = None
    delimiter: str = ","

    def __post_init__(self) -> None:
        if self.format is None:
            suffix = Path(self.path).suffix.lower()
            object.__setattr__(self, "format",
                               {".csv": "csv", ".json": "json"}.get(suffix, "plain"))
        if self.format not in FORMATS:
            raise DrawsError(f"format must be one of {FORMATS}, got {self.format!r}")
        if len(self.delimiter) != 1:
            raise DrawsError(f"delimiter must be one character, got {self.delimiter!r}")
        if self.format == "plain" and self.column is not None:
            raise DrawsError(f"{self.path}: a plain file has no column {self.column!r}")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_number(text: str, where: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value):
            return value
        problem = "non-finite value {!r}"
    except ValueError:
        problem = "cannot parse {!r} as a number"
    cell = text if len(text) <= 40 else text[:40] + "..."  # an open quote can hold a file
    raise DrawsError(f"{where}: " + problem.format(cell))

def _load_plain(path: Path) -> tuple[list[float], str]:
    draws = []
    with path.open(encoding="utf-8-sig") as handle:
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
    """Yield (first line, last line, cells) of each nonblank row, in physical lines."""
    with path.open(encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        last = 0  # where the row before ends
        try:
            for row in reader:
                if row:
                    yield last + 1, reader.line_num, row
                last = reader.line_num
        except UnicodeDecodeError as err:
            raise DrawsError(f"{path}: not valid UTF-8 ({err.reason})") from None
        except csv.Error as err:  # a quote open past the field limit, a NUL byte
            raise DrawsError(f"{path}:{last + 1}: {err}") from None

def _loadtxt_column(path: Path, delimiter: str, index: int, skiprows: int):
    """The column after `skiprows` physical lines in one vectorised pass, or
    None where the streaming reader might differ: a cell that loadtxt rejects
    and float() takes (1_000), a non-finite value, an unclosed quote."""
    try:
        with warnings.catch_warnings(record=True):
            values = np.loadtxt(path, delimiter=delimiter, usecols=index, ndmin=1,
                                skiprows=skiprows, comments=None, quotechar='"',
                                encoding="utf-8-sig")
    except (TypeError, ValueError, UserWarning):
        return None
    return values if np.isfinite(values).all() else None

def _load_csv(path: Path, column: str | int | None, delimiter: str) \
        -> tuple[list[float] | np.ndarray, str]:
    rows = _csv_rows(path, delimiter)
    start, end, first = next(rows, (0, 0, None))
    if first is None:
        raise DrawsError(f"{path}: file is empty")
    # a header is all text or has text over a number; a name beats a digit index
    below = next(rows, None)
    text = [not _is_number(cell) for cell in first]
    header = first if all(text) or below and any(
        t and _is_number(b) for t, b in zip(text, below[2])) else None
    if isinstance(column, str) and header and column in header:
        index = header.index(column)
    elif isinstance(column, str) and not (column.isascii() and column.isdigit()):
        raise DrawsError(f"{path}: no column named {column!r} in header" if header
                         else f"{path}: named column needs a header row")
    elif column is None and len(first) != 1:
        raise DrawsError(f"{path}: {len(first)} columns; select one with a column name")
    elif not 0 <= (index := int(column or 0)) < len(first):
        raise DrawsError(f"{path}: column index {column} out of range")
    label, skip = (header[index], end) if header else (path.stem, start - 1)
    values = _loadtxt_column(path, delimiter, index, skip)
    if values is not None:
        return values, label
    ahead = ([] if header else [(start, end, first)]) + ([below] if below else [])
    draws = []
    for lineno, _, row in itertools.chain(ahead, rows):
        if index >= len(row):
            raise DrawsError(f"{path}:{lineno}: row has no column {index}")
        draws.append(_parse_number(row[index], f"{path}:{lineno}"))
    return draws, label

def _load_json(path: Path, column: str | int | None) -> tuple[list[float], str]:
    with path.open(encoding="utf-8-sig") as handle:
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
        if column is not None:
            raise DrawsError(f"{path}: a bare array has no column {column!r}")
        values, label = payload, path.stem
    else:
        raise DrawsError(f"{path}: expected an array or an object of arrays")
    for i, value in enumerate(values):
        if not isinstance(value, float) or not math.isfinite(value):
            raise DrawsError(f"{path}: element {i} of {label!r} is not a finite number")
    return values, label

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

def load_reference(text: str) -> ReferenceFunction:
    """The reference a `--ref` text names: `table:<path>`'s file, else parsed."""
    if text.startswith("table:"):
        return load_reference_table(text[len("table:"):])
    return ReferenceFunction.parse(text)

def load_reference_table(path_text: str) -> ReferenceFunction:
    """Read a tabulated reference: `theta,value` rows, optional header row."""
    path = Path(path_text)
    if not path.is_file():
        raise DrawsError(f"{path}: reference table not found")
    grid, values = [], []
    for i, (lineno, _, row) in enumerate(_csv_rows(path)):
        if i == 0 and len(row) == 2 and not _is_number(row[0]):
            continue  # header row
        if len(row) != 2:
            raise DrawsError(f"{path}:{lineno}: expected two columns")
        grid.append(_parse_number(row[0], f"{path}:{lineno}"))
        values.append(_parse_number(row[1], f"{path}:{lineno}"))
    if len(grid) < 2:
        raise DrawsError(f"{path}: reference table needs at least two rows")
    try:
        return ReferenceFunction.from_table(grid, values, source=str(path))
    except DomainError as err:  # a theta column that is not increasing
        raise DrawsError(f"{path}: {err}") from None


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
                   timestamp=timestamp if timestamp is not None else timestamp_now())

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ResultDocument":
        names = [f.name for f in fields(cls)]
        missing = [n for n in names if n not in payload]
        if missing:
            raise DrawsError(f"result document is missing fields {missing}")
        return cls(**{n: payload[n] for n in names})


def timestamp_now() -> str:
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
    """Write the rendered document to a file."""
    write_text(path, format_result(doc, format))

def write_text(path: str, text: str) -> None:
    """Write an output file: UTF-8, with LF line endings on every platform."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
