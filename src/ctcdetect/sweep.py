"""Beam-width sweep: decode the same stream at several widths and compare."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Alphabet, ParameterError, ProbMatrix, TokenSeq
from .decode import extended_prefix_beam_search
from .evaluation import GroundTruthEvent, evaluate, prf1
from .windowing import WindowSpec, detect_pipeline


@dataclass(frozen=True)
class SweepRow:
    beam_width: int
    top_label: TokenSeq
    top_probability: float
    f1: float | None


def sweep_beam_width(
    m: ProbMatrix,
    alphabet: Alphabet,
    widths,
    window_spec: WindowSpec | None = None,
    ground_truth: list[GroundTruthEvent] | None = None,
) -> list[SweepRow]:
    """Decode at each beam width; score F1 when ground truth is supplied.

    The top label is from a whole-stream decode. With ground truth (and an
    optional window spec, defaulting to one window over the whole stream) the
    detection pipeline runs at each width and is scored event-level.
    """
    widths = [int(w) for w in widths]
    if not widths:
        raise ParameterError("no beam widths given")
    rows = []
    for width in widths:
        result = extended_prefix_beam_search(m, alphabet, width)
        top = result.top
        f1 = None
        if ground_truth is not None:
            spec = window_spec or WindowSpec(m.frames, max(1, m.frames // 2))
            detections = detect_pipeline(
                m, spec, alphabet, method="extended-beam", beam_width=width
            )
            f1 = prf1(evaluate(detections, ground_truth)).f1
        rows.append(SweepRow(width, top.label, top.probability, f1))
    return rows
