"""Sliding-window decoding of long recordings into sparse detections.

Long probability streams are decoded window by window, the per-window
alignments are fused frame-wise by majority vote, and maximal non-blank runs
of the voted stream become one detection each, stamped at the run's median
frame. Unlike gap-constrained peak pickers, nothing here enforces a minimum
spacing between detections.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import BLANK_ID, Alphabet, ParameterError, ProbMatrix, TokenSeq, check_alphabet, check_positive
from .decode import check_beam_width

DECODE_METHODS = ("greedy", "extended-beam")


class CoverageError(ValueError):
    """A frame is covered by no window alignment."""


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry in frames."""

    window_frames: int
    stride_frames: int

    def __post_init__(self) -> None:
        if not all(isinstance(n, Integral) for n in (self.window_frames, self.stride_frames)):
            raise ParameterError(f"window and stride must be integer frame counts, got "
                                 f"{self.window_frames!r} and {self.stride_frames!r}")
        if self.window_frames < 1:
            raise ParameterError(f"window must span >= 1 frame, got {self.window_frames}")
        if not 1 <= self.stride_frames <= self.window_frames:
            raise ParameterError(
                f"stride must be in [1, window] frames, got {self.stride_frames}"
            )

    @classmethod
    def from_seconds(
        cls, window_s: float, sample_rate_hz: float, stride_s: float | None = None
    ) -> "WindowSpec":
        """Build a spec from seconds; stride defaults to half the window."""
        rate = check_positive(sample_rate_hz, "sample rate")
        window = max(1, round(check_positive(window_s * rate, "window frames")))
        stride = window // 2 if stride_s is None else round(check_positive(stride_s * rate, "stride frames"))
        return cls(window, max(1, stride))


@dataclass(frozen=True)
class Detection:
    """One detected event: class, frame index, and time in seconds."""

    class_id: int
    frame: int
    time_s: float

    def __post_init__(self) -> None:
        if self.class_id == BLANK_ID:
            raise ParameterError("detections carry event classes, not blank")


def slide_windows(m: ProbMatrix, spec: WindowSpec) -> list[tuple[int, ProbMatrix]]:
    """Split a recording into (start_frame, window) pairs covering every frame.

    The windows are _window_grid's, as in detect_pipeline, which slices rows
    instead of views; a recording shorter than the window is one view over
    all of it.
    """
    starts, frames = _window_grid(m.frames, spec)
    return [(s, m.window(s, s + frames)) for s in starts]


def _window_grid(total: int, spec: WindowSpec) -> tuple[list[int], int]:
    """The first frames of the windows over ``total`` frames, and the frames
    each spans, min(total, window). They start at 0, stride, 2*stride, ...,
    and one more is anchored to end on the final frame when the grid does
    not land a window there."""
    last_start = max(total - spec.window_frames, 0)
    starts = list(range(0, last_start + 1, spec.stride_frames))
    if starts[-1] != last_start:
        starts.append(last_start)
    return starts, min(total, spec.window_frames)


def majority_vote(
    alignments: list[tuple[int, TokenSeq]], total_frames: int, alphabet: Alphabet
) -> np.ndarray:
    """Fuse overlapping window alignments into one frame-level token stream.

    Each alignment is (start frame, tokens); the tokens may be any int
    sequence, such as a row of the int array that the beam's batch returns.

    Each frame takes the token voted by the most windows covering it. A frame
    whose lead is shared (including a class tied with blank) falls back to
    blank: disagreeing windows should not fabricate an event. Raises
    CoverageError if any frame has no vote and InvalidTokenError for a token
    outside the alphabet.
    """
    counts = np.zeros((total_frames, alphabet.size), dtype=np.int64)
    for start, tokens in alignments:
        idx = np.asarray(tokens, dtype=np.int64)
        if start < 0 or start + idx.size > total_frames:
            raise ParameterError(
                f"alignment at {start} (+{idx.size}) falls outside {total_frames} frames"
            )
        bad = idx[(idx < 0) | (idx >= alphabet.size)]
        if bad.size:
            alphabet.validate_token(int(bad[0]))  # raises InvalidTokenError
        counts[np.arange(start, start + idx.size), idx] += 1
    uncovered = np.flatnonzero(counts.sum(axis=1) == 0)
    if uncovered.size:
        raise CoverageError(f"frame {uncovered[0]} received no window vote")
    best = counts.max(axis=1)
    tied = (counts == best[:, None]).sum(axis=1) > 1
    return np.where(tied, BLANK_ID, counts.argmax(axis=1))


def eventize(frame_tokens, sample_rate_hz: float) -> list[Detection]:
    """Collapse a frame-level token stream into sparse detections.

    Every maximal run of one non-blank token becomes a single detection at the
    run's median frame (the lower of the two middles for even runs).
    """
    check_positive(sample_rate_hz, "sample rate")
    tokens = np.asarray(frame_tokens, dtype=np.int64)
    if tokens.size == 0:
        return []
    boundaries = np.flatnonzero(np.diff(tokens)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [tokens.size]))
    detections = []
    for lo, hi in zip(starts, ends):
        cls = int(tokens[lo])
        if cls == BLANK_ID:
            continue
        frame = int(lo + (hi - 1 - lo) // 2)
        detections.append(Detection(cls, frame, frame / sample_rate_hz))
    return detections


def detect_pipeline(
    m: ProbMatrix,
    spec: WindowSpec,
    alphabet: Alphabet,
    method: str = "extended-beam",
    beam_width: int = 3,
) -> list[Detection]:
    """Full recording-to-detections pipeline.

    Slides windows, decodes each one's top alignment (greedy or beam),
    majority-votes the overlaps per frame and eventizes the vote. The beam
    searches the windows by lockstep.search_windows, whose window-count
    rules change no bit.

    Greedy skips the windows: a frame's argmax does not depend on the window
    around it, so every covering window votes the same token and the vote is
    the argmax stream itself.
    """
    if method not in DECODE_METHODS:
        raise ParameterError(f"method must be one of {DECODE_METHODS}, got {method!r}")
    check_beam_width(beam_width)
    check_alphabet(m, alphabet)
    if method == "greedy":
        return eventize(np.argmax(m.probs, axis=1), m.sample_rate_hz)
    # imported on first use, so that importing the package does not compile it
    from .lockstep import search_windows

    starts, frames = _window_grid(m.frames, spec)
    alignments, *_ = search_windows(m.probs, np.array(starts), frames, beam_width)
    voted = majority_vote(list(zip(starts, alignments)), m.frames, alphabet)
    return eventize(voted, m.sample_rate_hz)
