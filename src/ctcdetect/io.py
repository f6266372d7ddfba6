"""CSV and JSON file formats.

Probability CSV     -- header ``t,p_blank,p_<class>[,p_<class>...]``, one row
                       per frame in time order. The sample rate comes from a
                       JSON sidecar ``<file>.json`` holding
                       ``{"sample_rate_hz": <real>}`` or from the caller.
Detection CSV       -- header ``frame,time_s,class``.
Ground-truth CSV    -- header ``start_frame,end_frame,class``.
Velocity CSV        -- header ``t,roll_dps``.

Class columns are identified by display name; readers rebuild the Alphabet
from the header so files round-trip without extra configuration.
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import Alphabet, DataError, ProbMatrix, is_class_name, validate_prob_matrix
from .evaluation import GroundTruthEvent
from .windowing import Detection


_WRITE_BLOCK_ROWS = 1024
# ASCII file, group, record and unit separators: numpy strips them around a
# number as whitespace, Python's float() rejects them
_NUMPY_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"


class FormatError(DataError):
    """A file does not match its documented layout."""


def sidecar_path(csv_path) -> Path:
    return Path(str(csv_path) + ".json")


def read_sidecar_rate(csv_path) -> float | None:
    """Sample rate from the JSON sidecar, or None when there is no sidecar."""
    path = sidecar_path(csv_path)
    if not path.exists():
        return None
    try:
        rate = json.loads(path.read_text())["sample_rate_hz"]
        if isinstance(rate, (bool, str)):  # float() would take true and "10"
            raise TypeError(f"sample rate must be a JSON number, got {rate!r}")
        rate = float(rate)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"bad sidecar {path}: {exc}") from exc
    if not 0 < rate < math.inf:
        raise FormatError(f"bad sidecar {path}: sample rate must be in (0, inf), got {rate}")
    return rate


@contextmanager
def _csv_reader(path):
    """A csv.reader over ``path``; undecodable or unparsable text is a FormatError."""
    with open(path, newline="") as fh:
        try:
            yield csv.reader(fh)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: {exc}") from None


def _read_table(path, header: tuple[str, ...], *parsers) -> list[tuple]:
    """Rows after an exact ``header``, field ``i`` converted by ``parsers[i]``."""
    out = []
    with _csv_reader(path) as reader:
        got = next(reader, None)
        if got != list(header):
            raise FormatError(f"{path}: expected header {','.join(header)}, got {got}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                out.append(tuple(parse(field) for parse, field in zip(parsers, row)))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    return out


def _frame(field: str) -> int:
    value = int(field)
    if value < 0:
        raise ValueError(f"frame {value} is negative")
    return value


def _finite(field: str) -> float:
    value = float(field)
    if not math.isfinite(value):
        raise ValueError(f"{field!r} is not a finite number")
    return value


def _class(field: str) -> str:
    if not is_class_name(field):
        raise ValueError(
            f"class name {field!r} is empty, the blank's name or holds a comma or whitespace"
        )
    return field


def _write_table(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_prob_csv(path, m: ProbMatrix, alphabet: Alphabet) -> None:
    """Write a probability matrix plus its sample-rate sidecar."""
    names = [alphabet.name_of(c) for c in range(1, alphabet.size)]
    # one %-format per block of rows over Python floats: formatting numpy
    # scalars, or each row on its own, costs more than the rest of the write.
    # Frame numbers ride in the block as floats, exact below 2**53, which %d
    # prints as integers. A block at a time, the write holds no copy of the
    # matrix.
    row = "%d" + ",%.12g" * m.n_tokens + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["t", "p_blank"] + [f"p_{n}" for n in names])
        for lo in range(0, m.frames, _WRITE_BLOCK_ROWS):
            block = m.probs[lo : lo + _WRITE_BLOCK_ROWS]
            frames = np.arange(lo, lo + len(block), dtype=np.float64)
            fields = np.column_stack((frames, block)).ravel().tolist()
            fh.write(row * len(block) % tuple(fields))
    sidecar_path(path).write_text(
        json.dumps({"sample_rate_hz": m.sample_rate_hz}) + "\n"
    )


def read_prob_csv(
    path, sample_rate_hz: float | None = None, renormalize: bool = False
) -> tuple[ProbMatrix, Alphabet]:
    """Read a probability CSV; the sidecar supplies the rate unless given here.

    numpy's C reader parses the rows. The csv loop runs instead whenever that
    reader refuses the file or cannot vouch for it, so both accept the same
    files, give the same probabilities bit for bit and raise the same errors.
    """
    parsed = _read_prob_rows_fast(path)
    names, rows = parsed if parsed is not None else _read_prob_rows(path)
    if sample_rate_hz is None:
        sample_rate_hz = read_sidecar_rate(path) or 1.0
    alphabet = Alphabet.from_names(names)
    matrix = validate_prob_matrix(rows, sample_rate_hz, renormalize=renormalize)
    return matrix, alphabet


def _prob_class_names(path, header: list[str]) -> list[str]:
    """Class names from a probability CSV header, or a FormatError."""
    if len(header) < 3 or header[0] != "t" or header[1] != "p_blank":
        raise FormatError(
            f"{path}: expected header t,p_blank,p_<class>,... got {header}"
        )
    names = []
    for col in header[2:]:
        if not col.startswith("p_") or not is_class_name(col[2:]) or col[2:] in names:
            raise FormatError(f"{path}: bad, reserved or repeated probability column {col!r}")
        names.append(col[2:])
    return names


def _read_prob_rows(path) -> tuple[list[str], np.ndarray]:
    """Class names and probability rows, parsed field by field by the csv module.

    The reference for :func:`_read_prob_rows_fast`, and the path that reports
    every malformed row.
    """
    with _csv_reader(path) as reader:
        header = next(reader, [])
        names = _prob_class_names(path, header)
        values = array("d")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                values.extend(map(float, row[1:]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not values:
        raise FormatError(f"{path}: no probability rows")
    return names, np.frombuffer(values, dtype=np.float64).reshape(-1, len(header) - 1)


def _read_prob_rows_fast(path) -> tuple[list[str], np.ndarray] | None:
    """What :func:`_read_prob_rows` returns, parsed by ``np.loadtxt``.

    None when only the csv loop may judge the file, because the two readers
    could part ways on it:

    - no data lines, or a blank first one: ``loadtxt`` warns on input with
      no data;
    - text that is not ASCII: the loop decodes it by the locale;
    - an ASCII separator control character (``_NUMPY_ONLY_SPACE``);
    - a carriage return that ends a line alone: the loop's lines end there,
      numpy's do not;
    - a quote in the header: a quoted field may run on to the next line;
    - a line longer than the csv field size limit: the loop rejects a
      longer field, ``loadtxt`` reads it;
    - a field ``loadtxt`` cannot convert;
    - fewer rows than data lines: ``loadtxt`` skips blank lines, the loop
      rejects them.

    Every column is converted, ``t`` too, so that a row with an extra column
    cannot pass unseen.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = io.BytesIO(raw)
    first = lines.readline()
    if (
        len(first) == len(raw)
        or raw.startswith((b"\n", b"\r"), len(first))
        or not raw.isascii()
        or any(byte in raw for byte in _NUMPY_ONLY_SPACE)
        or raw.count(b"\r") != raw.count(b"\r\n")
        or b'"' in first
        or max(map(len, io.BytesIO(raw))) > csv.field_size_limit()
    ):
        return None
    try:
        header = next(csv.reader([first.decode("ascii")]), [])
    except csv.Error:
        return None
    names = _prob_class_names(path, header)
    data_lines = raw.count(b"\n", len(first)) + (not raw.endswith(b"\n"))
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    del raw, lines  # free the file's text before the copy below
    if rows.shape != (data_lines, len(header)):
        return None
    return names, np.ascontiguousarray(rows[:, 1:])


def write_detections_csv(path, detections: list[Detection], alphabet: Alphabet) -> None:
    _write_table(
        path,
        ["frame", "time_s", "class"],
        ([d.frame, f"{d.time_s:.6f}", alphabet.name_of(d.class_id)] for d in detections),
    )


def read_detections_csv(path) -> list[tuple[int, float, str]]:
    """Detections as (frame, time_s, class_name) rows, in file order."""
    return _read_table(path, ("frame", "time_s", "class"), _frame, _finite, _class)


def write_gt_csv(path, events: list[GroundTruthEvent], alphabet: Alphabet) -> None:
    _write_table(
        path,
        ["start_frame", "end_frame", "class"],
        ([e.start_frame, e.end_frame, alphabet.name_of(e.class_id)] for e in events),
    )


def read_gt_csv(path) -> list[tuple[int, int, str]]:
    """Ground-truth events as (start_frame, end_frame, class_name) rows.

    Each interval must run forward and no two may share a frame.
    """
    rows = _read_table(path, ("start_frame", "end_frame", "class"), _frame, _frame, _class)
    for lineno, (start, end, _) in enumerate(rows, start=2):
        if start > end:
            raise FormatError(f"{path}:{lineno}: event start {start} after end {end}")
    ordered = sorted(rows)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur[0] <= prev[1]:
            raise FormatError(
                f"{path}: ground-truth events overlap: [{prev[0]}, {prev[1]}] "
                f"and [{cur[0]}, {cur[1]}]"
            )
    return rows


def read_velocity_csv(path) -> np.ndarray:
    """Wrist-roll angular velocity series from a ``t,roll_dps`` CSV."""
    rows = _read_table(path, ("t", "roll_dps"), str, _finite)
    if not rows:
        raise FormatError(f"{path}: no velocity rows")
    return np.asarray([v for _, v in rows])
