"""Beam-width sweep: decode the same stream at several widths and compare."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Alphabet, ParameterError, ProbMatrix, TokenSeq
from .decode import check_beam_width, extended_prefix_beam_search, prefix_beam_search
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
    pipeline under ``window_spec``, or, without one or where one window
    covers the stream, of that decode's top alignment, which is what one
    window over the whole stream votes.
    """
    widths = [check_beam_width(w) for w in widths]  # every width, before the first search
    if not widths:
        raise ParameterError("no beam widths given")
    one_window = window_spec is None or m.frames <= window_spec.window_frames
    rows = []
    for width in widths:
        detections = None
        if ground_truth is not None and one_window:
            top = extended_prefix_beam_search(m, alphabet, width).top
            label, probability = top.label, top.probability
            detections = eventize(top.alignment, m.sample_rate_hz)
        else:  # no alignment is read: the plain search gives the same top
            label, probability = prefix_beam_search(m, alphabet, width)[0]
            if ground_truth is not None:
                detections = detect_pipeline(m, window_spec, alphabet, "extended-beam", width)
        f1 = None if detections is None else prf1(evaluate(detections, ground_truth)).f1
        rows.append(SweepRow(width, label, probability, f1))
    return rows
