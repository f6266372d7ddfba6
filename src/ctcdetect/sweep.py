"""Beam-width sweep: decode the same stream at several widths and compare."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Alphabet, ParameterError, ProbMatrix, TokenSeq
from .decode import extended_prefix_beam_search
from .evaluation import GroundTruthEvent, evaluate, prf1
from .windowing import WindowSpec, detect_pipeline, eventize


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

    The top label is from a whole-stream decode. With ground truth, each
    width's detections are scored event-level: those of the detection
    pipeline under ``window_spec``, or without one, of that decode's top
    alignment, which is what one window over the whole stream votes.
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
            if window_spec is None:
                detections = eventize(top.alignment, m.sample_rate_hz)
            else:
                detections = detect_pipeline(m, window_spec, alphabet, "extended-beam", width)
            f1 = prf1(evaluate(detections, ground_truth)).f1
        rows.append(SweepRow(width, top.label, top.probability, f1))
    return rows
