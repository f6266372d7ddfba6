"""Sliding-window decoding of long recordings into sparse detections.

Long probability streams are decoded window by window, the per-window
alignments are fused frame-wise by majority vote, and maximal non-blank runs
of the voted stream become one detection each, stamped at the run's median
frame. Unlike gap-constrained peak pickers, nothing here enforces a minimum
spacing between detections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BLANK_ID, Alphabet, ParameterError, ProbMatrix, TokenSeq, check_alphabet
from .decode import _hypothesis, _search, check_beam_width
from .logspace import log_matrix

DECODE_METHODS = ("greedy", "extended-beam")

# fewest windows that the beam decodes in one lockstep batch. The batch costs
# about 75 ms per 512 frames however few windows it holds, so with few windows
# the window-by-window search is faster. On 512-frame windows of the perfbench
# seed-1 hour recording (2-vCPU Intel Xeon): 1 window took 73-81 ms in the
# batch against 2-5 ms alone; at 32 windows the batch still lost on some
# slices at widths 1, 3 and 10; from 64 windows it won on every slice at every
# width measured, 1 to 200 (CHANGES.md)
_LOCKSTEP_MIN_WINDOWS = 64


class CoverageError(ValueError):
    """A frame is covered by no window alignment."""


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry in frames."""

    window_frames: int
    stride_frames: int

    def __post_init__(self) -> None:
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
        frames = [x * sample_rate_hz for x in (window_s, stride_s) if x is not None]
        if not all(0 < f < math.inf for f in (sample_rate_hz, *frames)):
            raise ParameterError(f"rate {sample_rate_hz} and frames {frames} must be > 0 and finite")
        window = max(1, round(frames[0]))
        stride = window // 2 if stride_s is None else round(frames[1])
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

    Windows start at 0, stride, 2*stride, ...; when the stride grid does not
    land a window exactly on the final frame, one extra window is anchored to
    end there. Recordings shorter than the window yield a single full-length
    window. detect_pipeline does not use it; it slices rows at _window_starts.
    """
    if m.frames <= spec.window_frames:
        return [(0, m)]
    return [(s, m.window(s, s + spec.window_frames)) for s in _window_starts(m.frames, spec)]


def _window_starts(total: int, spec: WindowSpec) -> list[int]:
    """The first frames of slide_windows' windows over ``total`` frames."""
    last_start = max(total - spec.window_frames, 0)
    starts = list(range(0, last_start + 1, spec.stride_frames))
    if starts[-1] != last_start:
        starts.append(last_start)
    return starts


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
    if not 0 < sample_rate_hz < math.inf:
        raise ParameterError(f"sample rate must be in (0, inf), got {sample_rate_hz}")
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
    majority-votes the overlaps per frame and eventizes the vote.

    The beam searches 64 or more windows in lockstep batches
    (lockstep.search_windows), from 448 windows in two shares given two
    CPUs, the second in a forked worker, memory bounded per process.
    It is bit for bit the window-by-window search that fewer windows take.

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
    starts = _window_starts(m.frames, spec)
    frames = min(m.frames, spec.window_frames)
    # the vote reads each window's top alignment alone, so only it is built
    if len(starts) < _LOCKSTEP_MIN_WINDOWS:
        alignments = []
        for start in starts:
            logs = log_matrix(m.probs[start : start + frames]).tolist()
            beams, trie = _search(logs, alphabet.size, beam_width)
            alignments.append(_hypothesis(beams[0], trie, alphabet).alignment)
    else:
        # imported on first use, so that importing the package does not compile it
        from .lockstep import search_windows

        alignments, *_ = search_windows(m.probs, np.array(starts), frames, beam_width)
    voted = majority_vote(list(zip(starts, alignments)), m.frames, alphabet)
    return eventize(voted, m.sample_rate_hz)
