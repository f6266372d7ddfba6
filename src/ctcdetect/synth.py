"""Deterministic synthetic probability streams with known ground truth.

Scripts place class-probability bumps at chosen apex frames on top of a blank
background, in two flavors: short confident spikes (the signature of models
trained to mark single distinctive frames) and wider blocks of elevated
probability (the signature of models trained frame-by-frame). Optional
symmetric noise mixes each row toward a random distribution. Everything is
reproducible from the script's seed, so pipeline tests can assert exact
recovery of the scripted events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Alphabet, ParameterError, ProbMatrix
from .evaluation import GroundTruthEvent

SPIKE_PEAK = 0.9
BLOCK_LEVEL = 0.85


class ScriptError(ValueError):
    """The event script is internally inconsistent (e.g. overlapping extents)."""


@dataclass(frozen=True)
class SyntheticScript:
    """Recipe for one synthetic recording.

    events are (class_id, apex_frame) pairs with strictly increasing apexes.
    spike_width_frames / block_extent_frames set how many frames around each
    apex carry elevated class probability, depending on mode.
    """

    total_frames: int
    events: tuple[tuple[int, int], ...]
    mode: str = "spiky"
    spike_width_frames: int = 3
    block_extent_frames: int = 9
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple((int(c), int(f)) for c, f in self.events)
        )
        if self.total_frames < 1:
            raise ParameterError(f"need >= 1 frame, got {self.total_frames}")
        if self.mode not in ("spiky", "blocky"):
            raise ParameterError(f"mode must be 'spiky' or 'blocky', got {self.mode!r}")
        if self.spike_width_frames < 1 or self.block_extent_frames < 1:
            raise ParameterError("spike/block widths must be >= 1 frame")
        if not 0.0 <= self.noise_level < 1.0:
            raise ParameterError(f"noise level must be in [0, 1), got {self.noise_level}")
        apexes = [f for _, f in self.events]
        if any(b <= a for a, b in zip(apexes, apexes[1:])):
            raise ScriptError("apex frames must be strictly increasing")
        for cls, _ in self.events:
            if cls < 1:
                raise ScriptError(f"event class ids must be >= 1, got {cls}")

    def extents(self) -> list[tuple[int, int, int]]:
        """(class_id, first_frame, last_frame) per event, validated."""
        width = self.spike_width_frames if self.mode == "spiky" else self.block_extent_frames
        out = []
        for cls, apex in self.events:
            lo = apex - (width - 1) // 2
            hi = lo + width - 1
            if lo < 0 or hi >= self.total_frames:
                raise ScriptError(
                    f"event at frame {apex} spans [{lo}, {hi}], outside "
                    f"0..{self.total_frames - 1}"
                )
            out.append((cls, lo, hi))
        for (_, _, prev_hi), (_, lo, _) in zip(out, out[1:]):
            if lo <= prev_hi + 1:
                raise ScriptError(
                    "event extents must be separated by at least one blank frame"
                )
        return out


def gen_synthetic(
    script: SyntheticScript, alphabet: Alphabet, sample_rate_hz: float = 1.0
) -> tuple[ProbMatrix, list[GroundTruthEvent]]:
    """Render a script into a probability matrix and its ground-truth events.

    Spiky mode puts SPIKE_PEAK class probability on each extent frame, blocky
    mode BLOCK_LEVEL; the remainder of each row sits on blank. Noise mixes
    every row with a random simplex point: row <- (1-noise)*row + noise*u,
    then rows are renormalized exactly. Bit-identical output per seed.
    """
    extents = script.extents()
    for cls, _, _ in extents:
        alphabet.validate_token(cls)
    probs = np.zeros((script.total_frames, alphabet.size))
    probs[:, 0] = 1.0
    level = SPIKE_PEAK if script.mode == "spiky" else BLOCK_LEVEL
    for cls, lo, hi in extents:
        probs[lo : hi + 1, 0] = 1.0 - level
        probs[lo : hi + 1, cls] = level
    if script.noise_level > 0.0:
        rng = np.random.default_rng(script.seed)
        u = rng.dirichlet(np.ones(alphabet.size), size=script.total_frames)
        probs = (1.0 - script.noise_level) * probs + script.noise_level * u
    probs /= probs.sum(axis=1, keepdims=True)
    matrix = ProbMatrix(probs, sample_rate_hz)
    truth = [GroundTruthEvent(cls, lo, hi) for cls, lo, hi in extents]
    return matrix, truth
