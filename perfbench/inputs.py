"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the benchmark seed: the same seed gives
bit-identical recordings, ground truth and decoder streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ctcdetect import Alphabet, GroundTruthEvent, ProbMatrix, SyntheticScript, gen_synthetic

RATE_HZ = 64.0
ALPHABET = Alphabet.from_names(("eat", "drink"))

# The hour recording: eight 7.5-minute segments, one per quality-grid cell,
# 40 events each, so 230,400 frames and 320 events in all.
MODES = ("spiky", "blocky")
NOISES = (0.0, 0.1, 0.2, 0.3)
CELLS = tuple((mode, noise) for mode in MODES for noise in NOISES)
SEGMENT_FRAMES = 28_800
EVENTS_PER_SEGMENT = 40
# each event's apex sits at a random offset inside its own slot, this far from
# the slot edges: neighbouring apexes are then over 2 s (128 frames) apart, the
# two-stage detector's default minimum gap, and extents never touch
APEX_MARGIN = 64

# decode-grid streams
GRID_KINDS = ("random", "uniform", "clean")
GRID_FRAMES = (512, 2048)
GRID_WIDTHS = (1, 3, 10)
CLEAN_EVENT_SPACING = 256  # one blocky event per 4 s on the clean stream
FORWARD_LABEL_LENGTHS = (2, 20)


def cell_name(mode: str, noise: float) -> str:
    return f"{mode}.n{noise:g}"


@dataclass(frozen=True)
class Segment:
    """One quality-grid cell of the hour recording: frames [lo, hi)."""

    mode: str
    noise: float
    lo: int
    hi: int

    @property
    def name(self) -> str:
        return cell_name(self.mode, self.noise)


@dataclass(frozen=True)
class Recording:
    matrix: ProbMatrix
    truth: list
    segments: tuple[Segment, ...]


def _events(rng: np.random.Generator, frames: int, count: int) -> tuple:
    slot = frames // count
    offsets = rng.integers(APEX_MARGIN, slot - APEX_MARGIN, size=count)
    classes = rng.integers(1, ALPHABET.size, size=count)
    return tuple((int(c), i * slot + int(o)) for i, (c, o) in enumerate(zip(classes, offsets)))


def hour_recording(seed: int) -> Recording:
    """The 1 h, 64 Hz, two-class recording with its ground truth."""
    rng = np.random.default_rng([seed, 1])
    parts, truth, segments = [], [], []
    for i, (mode, noise) in enumerate(CELLS):
        script = SyntheticScript(
            total_frames=SEGMENT_FRAMES,
            events=_events(rng, SEGMENT_FRAMES, EVENTS_PER_SEGMENT),
            mode=mode,
            noise_level=noise,
            seed=int(rng.integers(2**31)),
        )
        m, events = gen_synthetic(script, ALPHABET, RATE_HZ)
        lo = i * SEGMENT_FRAMES
        parts.append(m.probs)
        truth.extend(
            GroundTruthEvent(ev.class_id, ev.start_frame + lo, ev.end_frame + lo) for ev in events
        )
        segments.append(Segment(mode, noise, lo, lo + SEGMENT_FRAMES))
    return Recording(ProbMatrix(np.concatenate(parts), RATE_HZ), truth, tuple(segments))


@dataclass(frozen=True)
class GridStreams:
    """decode-grid inputs: one 2048-frame stream per kind, 512-frame prefixes."""

    streams: dict  # (kind, frames) -> ProbMatrix
    clean_truth: list  # ground truth of the 2048-frame clean stream
    labels: dict  # forward label length -> label


def grid_streams(seed: int) -> GridStreams:
    rng = np.random.default_rng([seed, 2])
    longest = max(GRID_FRAMES)
    full = {
        "random": ProbMatrix(rng.dirichlet(np.ones(ALPHABET.size), size=longest), RATE_HZ),
        "uniform": ProbMatrix(np.full((longest, ALPHABET.size), 1.0 / ALPHABET.size), RATE_HZ),
    }
    script = SyntheticScript(
        total_frames=longest,
        events=_events(rng, longest, longest // CLEAN_EVENT_SPACING),
        mode="blocky",
    )
    full["clean"], clean_truth = gen_synthetic(script, ALPHABET, RATE_HZ)
    streams = {}
    for kind, m in full.items():
        for frames in GRID_FRAMES:
            streams[kind, frames] = m if frames == longest else m.window(0, frames)
    labels = {
        n: tuple(int(c) for c in rng.integers(1, ALPHABET.size, size=n))
        for n in FORWARD_LABEL_LENGTHS
    }
    return GridStreams(streams, clean_truth, labels)
