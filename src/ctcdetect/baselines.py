"""Reference detectors to compare the decoding pipeline against.

two_stage_detect()  -- thresholded maximum search over frame-level class
                       probabilities with a minimum gap between detections,
                       extended to multiple classes by applying one shared
                       threshold to all of them.
threshold_detect()  -- four-parameter wrist-roll angular-velocity detector:
                       arm on a positive threshold, fire on a negative one
                       after a dwell time, then hold off for a lockout time.
grid_search_threshold_params() -- exhaustive sweep of the four thresholds over
                       user-supplied grids, scored by event-level F1.

Both detectors return the same Detection records as the decoding pipeline so
all three can be scored by the same evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ParameterError, ProbMatrix
from .evaluation import GroundTruthEvent, PRF, evaluate, prf1
from .windowing import Detection


@dataclass(frozen=True)
class TwoStageParams:
    """Shared class-probability threshold and minimum inter-detection gap."""

    threshold: float = 0.5
    min_distance_s: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ParameterError(f"threshold must be in (0, 1), got {self.threshold}")
        if not 0 < self.min_distance_s < math.inf:
            raise ParameterError(f"minimum distance must be in (0, inf), got {self.min_distance_s}")


@dataclass(frozen=True)
class ThresholdParams:
    """Angular-velocity detector parameters.

    t1: positive velocity threshold that arms the detector (deg/s).
    t2: negative velocity threshold that fires it (deg/s).
    t3: minimum seconds between arming and firing.
    t4: seconds the detector stays off after firing.
    """

    t1: float
    t2: float
    t3: float
    t4: float

    def __post_init__(self) -> None:
        if not 0 < self.t1 < math.inf:
            raise ParameterError(f"t1 must be in (0, inf), got {self.t1}")
        if not -math.inf < self.t2 < 0:
            raise ParameterError(f"t2 must be in (-inf, 0), got {self.t2}")
        if not (0 <= self.t3 < math.inf and 0 <= self.t4 < math.inf):
            raise ParameterError(f"t3 and t4 must be in [0, inf), got {self.t3}, {self.t4}")


def two_stage_detect(m: ProbMatrix, params: TwoStageParams) -> list[Detection]:
    """Iterative thresholded maximum search over pooled class probabilities.

    Repeatedly selects the highest remaining frame probability among the
    non-blank classes that exceeds the threshold (the earliest frame on
    ties), emits a detection with that frame's most probable class, and
    suppresses all frames closer than the minimum distance on both sides.
    The frames above the threshold are visited once, best first, so the cost
    does not grow with the number of detections. Detections come back sorted
    by frame.
    """
    pooled = m.probs[:, 1:]
    score = pooled.max(axis=1)
    cls = pooled.argmax(axis=1) + 1
    rate = m.sample_rate_hz
    min_frames = params.min_distance_s * rate
    # highest score first; the stable sort keeps tied frames in frame order,
    # so each pick is the one a repeated first-index argmax would make
    above = np.flatnonzero(score > params.threshold)
    order = above[np.argsort(-score[above], kind="stable")]
    suppressed = np.zeros(score.size, dtype=bool)
    detections = []
    for peak in order.tolist():
        if suppressed[peak]:
            continue
        detections.append(Detection(int(cls[peak]), peak, peak / rate))
        lo = int(np.ceil(peak - min_frames + 1e-9))
        hi = int(np.floor(peak + min_frames - 1e-9))
        suppressed[max(lo, 0) : min(hi, score.size - 1) + 1] = True
    detections.sort(key=lambda d: d.frame)
    return detections


def threshold_detect(
    roll_dps, sample_rate_hz: float, params: ThresholdParams
) -> list[Detection]:
    """Arm/fire/lockout scan over a wrist-roll angular-velocity series.

    The detector arms when the velocity exceeds t1. Once at least t3 seconds
    have passed since arming, the first frame below t2 fires a detection at
    that frame. The detector then ignores the signal for t4 seconds and must
    re-arm before it can fire again. Detections carry the generic class 1.
    """
    series = np.asarray(roll_dps, dtype=np.float64)
    if series.ndim != 1 or series.size == 0:
        raise ParameterError("expected a non-empty 1-D velocity series")
    if not 0 < sample_rate_hz < math.inf:
        raise ParameterError(f"sample rate must be in (0, inf), got {sample_rate_hz}")
    dwell = params.t3 * sample_rate_hz
    lockout = params.t4 * sample_rate_hz
    detections = []
    armed_at = -1
    ignore_until = -1.0
    for i, v in enumerate(series):
        if i < ignore_until:
            continue
        if armed_at < 0:
            if v > params.t1:
                armed_at = i
        elif i - armed_at >= dwell and v < params.t2:
            detections.append(Detection(1, i, i / sample_rate_hz))
            ignore_until = i + lockout
            armed_at = -1
    return detections


def grid_search_threshold_params(
    roll_dps,
    sample_rate_hz: float,
    ground_truth: list[GroundTruthEvent],
    t1_grid,
    t2_grid,
    t3_grid,
    t4_grid,
) -> tuple[ThresholdParams, PRF]:
    """Exhaustive sweep of the four detector parameters over given grids.

    Scores every combination by event-level F1 against the ground truth and
    returns the best parameters with their score. Ties keep the first
    combination in grid order.
    """
    best: tuple[ThresholdParams, PRF] | None = None
    for t1, t2, t3, t4 in itertools.product(t1_grid, t2_grid, t3_grid, t4_grid):
        params = ThresholdParams(t1, t2, t3, t4)
        detections = threshold_detect(roll_dps, sample_rate_hz, params)
        score = prf1(evaluate(detections, ground_truth))
        if best is None or score.f1 > best[1].f1:
            best = (params, score)
    if best is None:
        raise ParameterError("empty parameter grid")
    return best
