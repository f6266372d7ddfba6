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
import json
import math
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import BLANK_NAME, Alphabet, DataError, ProbMatrix, validate_prob_matrix
from .evaluation import GroundTruthEvent
from .windowing import Detection


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
        rate = float(json.loads(path.read_text())["sample_rate_hz"])
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
    if field in ("", BLANK_NAME):
        raise ValueError(f"class name {field!r} is empty or the blank's name")
    return field


def _write_table(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_prob_csv(path, m: ProbMatrix, alphabet: Alphabet) -> None:
    """Write a probability matrix plus its sample-rate sidecar."""
    names = [alphabet.name_of(c) for c in range(1, alphabet.size)]
    _write_table(
        path,
        ["t", "p_blank"] + [f"p_{n}" for n in names],
        ([t] + [f"{p:.12g}" for p in m.probs[t]] for t in range(m.frames)),
    )
    sidecar_path(path).write_text(
        json.dumps({"sample_rate_hz": m.sample_rate_hz}) + "\n"
    )


def read_prob_csv(
    path, sample_rate_hz: float | None = None, renormalize: bool = False
) -> tuple[ProbMatrix, Alphabet]:
    """Read a probability CSV; the sidecar supplies the rate unless given here."""
    with _csv_reader(path) as reader:
        header = next(reader, [])
        if len(header) < 3 or header[0] != "t" or header[1] != "p_blank":
            raise FormatError(
                f"{path}: expected header t,p_blank,p_<class>,... got {header}"
            )
        names = []
        for col in header[2:]:
            if not col.startswith("p_") or col[2:] in ("", BLANK_NAME, *names):
                raise FormatError(f"{path}: bad, reserved or repeated probability column {col!r}")
            names.append(col[2:])
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
    if sample_rate_hz is None:
        sample_rate_hz = read_sidecar_rate(path) or 1.0
    alphabet = Alphabet.from_names(names)
    rows = np.frombuffer(values, dtype=np.float64).reshape(-1, len(header) - 1)
    matrix = validate_prob_matrix(rows, sample_rate_hz, renormalize=renormalize)
    return matrix, alphabet


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
