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
from array import array
from pathlib import Path

import numpy as np

from .core import Alphabet, ProbMatrix, validate_prob_matrix
from .evaluation import GroundTruthEvent
from .windowing import Detection


class FormatError(ValueError):
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
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise FormatError(f"bad sidecar {path}: {exc}") from exc
    return float(rate)


def write_prob_csv(path, m: ProbMatrix, alphabet: Alphabet) -> None:
    """Write a probability matrix plus its sample-rate sidecar."""
    names = [alphabet.name_of(c) for c in range(1, alphabet.size)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "p_blank"] + [f"p_{n}" for n in names])
        for t in range(m.frames):
            writer.writerow([t] + [f"{p:.12g}" for p in m.probs[t]])
    sidecar_path(path).write_text(
        json.dumps({"sample_rate_hz": m.sample_rate_hz}) + "\n"
    )


def read_prob_csv(
    path, sample_rate_hz: float | None = None, renormalize: bool = False
) -> tuple[ProbMatrix, Alphabet]:
    """Read a probability CSV; the sidecar supplies the rate unless given here."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if len(header) < 3 or header[0] != "t" or header[1] != "p_blank":
            raise FormatError(
                f"{path}: expected header t,p_blank,p_<class>,... got {header}"
            )
        names = []
        for col in header[2:]:
            if not col.startswith("p_"):
                raise FormatError(f"{path}: bad probability column {col!r}")
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
        sample_rate_hz = read_sidecar_rate(path)
    if sample_rate_hz is None:
        sample_rate_hz = 1.0
    alphabet = Alphabet.from_names(names)
    rows = np.frombuffer(values, dtype=np.float64).reshape(-1, len(header) - 1)
    matrix = validate_prob_matrix(rows, sample_rate_hz, renormalize=renormalize)
    return matrix, alphabet


def write_detections_csv(path, detections: list[Detection], alphabet: Alphabet) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "time_s", "class"])
        for det in detections:
            writer.writerow([det.frame, f"{det.time_s:.6f}", alphabet.name_of(det.class_id)])


def read_detections_csv(path) -> list[tuple[int, float, str]]:
    """Detections as (frame, time_s, class_name) rows, in file order."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["frame", "time_s", "class"]:
            raise FormatError(f"{path}: expected header frame,time_s,class, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 fields")
            try:
                out.append((int(row[0]), float(row[1]), row[2]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    return out


def write_gt_csv(path, events: list[GroundTruthEvent], alphabet: Alphabet) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start_frame", "end_frame", "class"])
        for ev in events:
            writer.writerow([ev.start_frame, ev.end_frame, alphabet.name_of(ev.class_id)])


def read_gt_csv(path) -> list[tuple[int, int, str]]:
    """Ground-truth events as (start_frame, end_frame, class_name) rows."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["start_frame", "end_frame", "class"]:
            raise FormatError(
                f"{path}: expected header start_frame,end_frame,class, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 fields")
            try:
                out.append((int(row[0]), int(row[1]), row[2]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    return out


def read_velocity_csv(path) -> np.ndarray:
    """Wrist-roll angular velocity series from a ``t,roll_dps`` CSV."""
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "roll_dps"]:
            raise FormatError(f"{path}: expected header t,roll_dps, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise FormatError(f"{path}:{lineno}: expected 2 fields")
            try:
                values.append(float(row[1]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not values:
        raise FormatError(f"{path}: no velocity rows")
    return np.asarray(values)
