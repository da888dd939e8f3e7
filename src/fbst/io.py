"""Ingestion of posterior draws and reference tables from files, the CLI's
cache of a large draws file's sample and fit, and serialization of results."""

from __future__ import annotations

import contextlib
import csv
import datetime
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import FbstResult, ReferenceFunction
from .density import DensityEstimate, PosteriorSample
from .errors import DomainError, DrawsError, FbstError

FORMATS = ("csv", "json", "plain")
CACHE_FLOOR = 1 << 20  # bytes: below it a hit saves under a tenth of a CLI run
CACHE_ENTRIES = 8
_CACHE_FAULTS = (OSError, ValueError, EOFError, ImportError, RuntimeError, FbstError)


@dataclass(frozen=True)
class DrawsFileSpec:
    """Where and how to read posterior draws."""

    path: str
    format: str | None = None  # None: csv or json by the suffix, else plain
    column: str | int | None = None
    delimiter: str = ","

    def __post_init__(self) -> None:
        if not self.path:  # Path("") would name the working directory
            raise DrawsError("draws file path is empty")
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

def _csv_rows(path: Path, delimiter: str = ","):
    """Yield (first line, last line, cells) of each nonblank row, in physical lines;
    a line that starts with # is a comment, read as a blank line."""
    with path.open(encoding="utf-8-sig", newline="") as handle:
        lines = ("\n" if line.startswith("#") else line for line in handle)
        reader = csv.reader(lines, delimiter=delimiter)
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

def _loadtxt_column(path: Path, delimiter: str, index: int | None, skiprows: int):
    """The column after `skiprows` physical lines in one vectorised pass (a one-column
    file's cells for index None), or None where the streaming reader might differ: a #
    after those lines (that reader skips a line that starts with one), a cell that
    loadtxt rejects and float() takes (1_000), a non-finite value, an unclosed quote."""
    with path.open("rb") as handle:  # a search for one byte costs little past the read
        # each line end in the head, where a \r\n cut by its end counts once, before the \n
        ends = [m.end() for m in re.finditer(rb"\r\n?|\n", handle.read(1 << 16))]
        handle.seek(ends[skiprows - 1] if 0 < skiprows <= len(ends) else 0)
        if any(b"#" in chunk for chunk in iter(lambda: handle.read(1 << 20), b"")):
            return None
    try:
        with warnings.catch_warnings(record=True):
            values = np.loadtxt(path, delimiter=delimiter, usecols=index, ndmin=2,
                                skiprows=skiprows, comments=None, quotechar='"',
                                encoding="utf-8-sig")
    except (TypeError, ValueError, UserWarning):
        return None
    return values[:, 0] if values.shape[1] == 1 and np.isfinite(values).all() else None

def _load_csv(path: Path, column: str | int | None, delimiter: str, headed: bool) \
        -> tuple[list[float] | np.ndarray, str]:
    rows = _csv_rows(path, delimiter)
    start, end, first = next(rows, (0, 0, None))
    if first is None:
        raise DrawsError(f"{path}: file is empty")
    # a header is all text or has text over a number; a name beats a digit index
    below = next(rows, None)
    text = [not _is_number(cell) for cell in first]
    header = first if headed and (all(text) or below and any(
        t and _is_number(b) for t, b in zip(text, below[2]))) else None
    whole = len(first) == 1 or not headed  # a one-column file: each row is one cell
    if isinstance(column, str) and header and column in header:
        index = header.index(column)
    elif isinstance(column, str) and not (column.isascii() and column.isdigit()):
        raise DrawsError(f"{path}: no column named {column!r} in header" if header
                         else f"{path}: named column needs a header row")
    elif column is None and not whole:
        raise DrawsError(f"{path}: {len(first)} columns; select one with a column name")
    elif not 0 <= (index := int(column or 0)) < len(first):
        raise DrawsError(f"{path}: column index {column} out of range")
    label, skip = (header[index], end) if header else (path.stem, start - 1)
    values = _loadtxt_column(path, delimiter, None if whole else index, skip)
    if values is not None:
        return values, label
    ahead = ([] if header else [(start, end, first)]) + ([below] if below else [])
    draws = []
    for lineno, _, row in itertools.chain(ahead, rows):
        if whole and len(row) > 1:
            raise DrawsError(f"{path}:{lineno}: row has {len(row)} cells, not one")
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
        except UnicodeDecodeError as err:
            raise DrawsError(f"{path}: not valid UTF-8 ({err.reason})") from None
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
        reason = "is a directory" if path.is_dir() else "file not found"
        raise DrawsError(f"{path}: {reason}")
    # a plain file is a one-column CSV file without a header row
    draws, label = _load_json(path, spec.column) if spec.format == "json" else \
        _load_csv(path, spec.column, spec.delimiter, spec.format == "csv")
    try:
        return PosteriorSample(draws=draws, label=label)
    except DrawsError as err:  # too few draws (or none), or an empty header cell or key
        raise DrawsError(f"{path}: {err}") from None


class DrawsCache:
    """A large draws file's sample and fit kept across runs in one .npy entry named by
    the path and the other inputs that decide them, checked by a digest of the file's
    bytes.  A first run only marks the file as seen; a step that fails is a miss."""

    def __init__(self, spec: DrawsFileSpec, bandwidth: float | None, grid_size: int):
        self.spec, self.bandwidth, self.grid_size = spec, bandwidth, grid_size
        self.path = self.identity = self.digest = None  # set as load reaches them

    def load(self) -> tuple[PosteriorSample, DensityEstimate] | None:
        """The stored sample and its stored fit; None on a miss."""
        spec = self.spec
        try:
            stat = os.stat(spec.path)
            if stat.st_size < CACHE_FLOOR:
                return None
            from _blake2 import blake2b  # hashlib would load OpenSSL: 3.5 MB resident
            key = [repr((replace(spec, path=os.path.abspath(spec.path)), self.bandwidth,
                         self.grid_size, np.__version__)).encode()]
            key += map(Path.read_bytes, sorted(Path(__file__).parent.glob("*.py")))
            base = os.environ.get("XDG_CACHE_HOME", "")  # the XDG spec ignores a relative one
            base = base if os.path.isabs(base) else Path.home() / ".cache"
            self.path = Path(base) / "fbst" / f"{blake2b(b''.join(key)).hexdigest()}.npy"
            self.identity = (stat.st_size, stat.st_mtime_ns, stat.st_ino)
            if not self.path.exists():
                return None  # the file's first run, which store marks with an empty entry
            content = blake2b()
            with open(spec.path, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 16), b""):
                    content.update(chunk)
            self.digest = content.digest()
            with contextlib.suppress(OSError):
                os.utime(self.path)  # its use, for the entry bound
            with open(self.path, "rb") as handle:
                digest, draws, label, fit = [np.load(handle, allow_pickle=False)
                                             for _ in range(4)]
            if digest.tobytes() != self.digest:
                return None
            sample = PosteriorSample.__new__(PosteriorSample)  # the loaded column, not copied
            sample.__setstate__({"draws": draws, "label": "".join(map(chr, label))})
            grid, values = fit[1:].reshape(2, -1)
            fit = DensityEstimate(grid, values, float(fit[0]), sample=sample)
            kept = fit.grid.size == self.grid_size and self.bandwidth in (None, fit.bandwidth)
            return (sample, fit) if kept else None  # bandwidth None: the key says Silverman's
        except _CACHE_FAULTS:
            return None

    def store(self, sample: PosteriorSample, fit: DensityEstimate) -> None:
        """Write the entry, unless the file changed since load; keep the CACHE_ENTRIES
        latest used files."""
        try:
            stat = os.stat(self.spec.path)
            if self.identity != (stat.st_size, stat.st_mtime_ns, stat.st_ino):
                return
            self.path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
            temp = self.path.with_suffix(f".{os.getpid()}.tmp")
            with open(temp, "wb") as handle:
                if self.digest is not None:  # else an empty entry marks a first run
                    for array in (np.frombuffer(self.digest, np.uint8), sample.draws,
                                  np.array(list(map(ord, sample.label))),
                                  np.hstack((fit.bandwidth, fit.grid, fit.values))):
                        np.save(handle, array, allow_pickle=False)
            os.replace(temp, self.path)
            entries = sorted(self.path.parent.iterdir(), key=os.path.getmtime)
            for path in entries[:-CACHE_ENTRIES]:  # a crash's temp file too
                path.unlink()
        except _CACHE_FAULTS:
            pass


def load_reference(text: str) -> ReferenceFunction:
    """The reference a `--ref` text names: a `table:<path>` file of `theta,value`
    rows with an optional header row, else what ReferenceFunction.parse reads."""
    if not text.startswith("table:"):
        return ReferenceFunction.parse(text)
    if text == "table:":
        raise DrawsError("reference table path is empty")
    path = Path(text[len("table:"):])
    if not path.is_file():
        reason = "is a directory" if path.is_dir() else "reference table not found"
        raise DrawsError(f"{path}: {reason}")
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
        return ReferenceFunction(grid=grid, values=values, source=str(path))
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


def format_result(doc: ResultDocument, format: str = "text") -> str:
    """Render a result document as the text summary block or as JSON."""
    if format == "json":
        return json.dumps(asdict(doc), indent=2) + "\n"
    if format != "text":
        raise DrawsError(f"format must be 'text' or 'json', got {format!r}")
    reference = "Flat" if doc.reference_descriptor == "flat" else "User-defined"
    lines = [
        "Full Bayesian Significance Test for testing a sharp hypothesis against "
        "its alternative:",
        f"Reference function: {reference}",
        f"Testing Hypothesis H_0:Parameter= {doc.null_value:g} "
        "against its alternative H_1",
        f"Bayesian e-value against H_0: {doc.e_value_against:.7g}",
        "p-value associated with the Bayesian e-value in favour of the null "
        f"hypothesis: {doc.p_value:.7g}",
        f"Standardized e-value: {doc.sev:.7g}",
    ]
    return "\n".join(lines) + "\n"

def write_text(path: str, text: str) -> None:
    """Write an output file: UTF-8, with LF line endings on every platform."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
