import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcdetect import (
    Alphabet,
    GroundTruthEvent,
    ParameterError,
    ProbMatrix,
    ThresholdParams,
    TwoStageParams,
    gen_synthetic,
    grid_search_threshold_params,
    SyntheticScript,
    threshold_detect,
    two_stage_detect,
)

from conftest import D, E
from oracles import reference_two_stage_detect


def _peaked_probs(total: int, peaks: dict[int, tuple[int, float]]) -> np.ndarray:
    """Rows with given (class, prob) peaks at given frames, blank elsewhere."""
    rows = np.zeros((total, 3))
    rows[:, 0] = 1.0
    for frame, (cls, p) in peaks.items():
        rows[frame, 0] = 1.0 - p
        rows[frame, cls] = p
    return rows


class TestTwoStageParams:
    def test_threshold_range(self):
        with pytest.raises(ParameterError):
            TwoStageParams(threshold=0.0)
        with pytest.raises(ParameterError):
            TwoStageParams(threshold=1.0)
        with pytest.raises(ParameterError):
            TwoStageParams(min_distance_s=0.0)


class TestTwoStageDetect:
    def test_well_separated_peaks_both_found(self):
        m = ProbMatrix(_peaked_probs(260, {10: (E, 0.9), 200: (D, 0.8)}), 64.0)
        detections = two_stage_detect(m, TwoStageParams(0.5, 2.0))
        assert [(d.class_id, d.frame) for d in detections] == [(E, 10), (D, 200)]

    def test_close_peak_suppressed(self):
        # 60 frames at 64 Hz is 0.94 s, inside the 2 s exclusion zone
        m = ProbMatrix(_peaked_probs(200, {10: (E, 0.9), 70: (E, 0.8)}), 64.0)
        detections = two_stage_detect(m, TwoStageParams(0.5, 2.0))
        assert [(d.class_id, d.frame) for d in detections] == [(E, 10)]

    def test_nothing_above_threshold(self):
        m = ProbMatrix(_peaked_probs(100, {10: (E, 0.4)}), 64.0)
        assert two_stage_detect(m, TwoStageParams(0.5, 2.0)) == []

    def test_exact_gap_is_kept(self):
        # exactly 2 s apart: allowed ("at least" the minimum distance)
        m = ProbMatrix(_peaked_probs(200, {10: (E, 0.9), 138: (E, 0.8)}), 64.0)
        detections = two_stage_detect(m, TwoStageParams(0.5, 2.0))
        assert [d.frame for d in detections] == [10, 138]

    def test_suppression_is_symmetric(self):
        # the strongest peak sits last; earlier weaker peak within range dies
        m = ProbMatrix(_peaked_probs(200, {70: (E, 0.8), 120: (E, 0.9)}), 64.0)
        detections = two_stage_detect(m, TwoStageParams(0.5, 2.0))
        assert [d.frame for d in detections] == [120]

    def test_min_spacing_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rows = rng.dirichlet(np.ones(3) * 0.4, size=300)
            m = ProbMatrix(rows, 32.0)
            params = TwoStageParams(0.5, 1.0)
            detections = two_stage_detect(m, params)
            frames = [d.frame for d in detections]
            assert frames == sorted(frames)
            for a, b in zip(frames, frames[1:]):
                assert (b - a) / 32.0 >= params.min_distance_s
            pooled = m.probs[:, 1:].max(axis=1)
            for d in detections:
                assert pooled[d.frame] > params.threshold

    def test_scaling_invariance_of_selection(self):
        # shrinking all class columns by one factor and the threshold with
        # them must select the same frames (argmax order is unchanged)
        rng = np.random.default_rng(19)
        rows = rng.dirichlet(np.ones(3) * 0.4, size=200)
        m = ProbMatrix(rows, 32.0)
        base = two_stage_detect(m, TwoStageParams(0.5, 1.0))
        factor = 0.6
        scaled_rows = rows.copy()
        scaled_rows[:, 1:] *= factor
        scaled_rows[:, 0] = 1.0 - scaled_rows[:, 1:].sum(axis=1)
        scaled = ProbMatrix(scaled_rows, 32.0)
        got = two_stage_detect(scaled, TwoStageParams(0.5 * factor, 1.0))
        assert [(d.class_id, d.frame) for d in got] == [
            (d.class_id, d.frame) for d in base
        ]

    def test_reversal_mirrors_detections(self):
        rows = _peaked_probs(300, {10: (E, 0.9), 200: (D, 0.8), 260: (E, 0.7)})
        m = ProbMatrix(rows, 64.0)
        rev = ProbMatrix(rows[::-1].copy(), 64.0)
        params = TwoStageParams(0.5, 0.5)
        forward = {(d.class_id, d.frame) for d in two_stage_detect(m, params)}
        backward = {
            (d.class_id, 299 - d.frame) for d in two_stage_detect(rev, params)
        }
        assert forward == backward

    def test_gap_far_below_one_frame_keeps_every_frame(self):
        # a gap that rounds to no neighbour suppresses nothing; every frame
        # above the threshold is visited once and detected once
        m = ProbMatrix(_peaked_probs(6, {1: (E, 0.9), 2: (D, 0.9), 4: (E, 0.7)}), 1.0)
        detections = two_stage_detect(m, TwoStageParams(0.5, 1e-12))
        assert [(d.class_id, d.frame) for d in detections] == [(E, 1), (D, 2), (E, 4)]


@st.composite
def tied_streams(draw) -> ProbMatrix:
    """Short recordings whose small integer weights tie scores across frames."""
    n_tokens = draw(st.integers(2, 4))
    frames = draw(st.integers(1, 40))
    weights = st.lists(st.integers(0, 4), min_size=n_tokens, max_size=n_tokens).filter(any)
    rows = np.array(draw(st.lists(weights, min_size=frames, max_size=frames)), dtype=float)
    return ProbMatrix(rows / rows.sum(axis=1, keepdims=True), draw(st.sampled_from([1.0, 4.0, 64.0])))


@settings(deadline=None, derandomize=True, database=None)
@given(tied_streams(), st.data())
def test_two_stage_matches_argmax_loop(m, data):
    # thresholds that equal a score pin the strict "above"; gaps below one
    # frame suppress only the peak itself, and a frame exactly a whole gap
    # away is kept
    scores = sorted({s for s in m.probs[:, 1:].max(axis=1).tolist() if 0 < s < 1})
    threshold = data.draw(
        st.sampled_from(scores) if scores and data.draw(st.booleans()) else st.floats(0.01, 0.99)
    )
    gap_frames = data.draw(
        st.one_of(st.floats(1e-6, 1.0), st.integers(1, 12).map(float), st.floats(1.0, 15.0))
    )
    params = TwoStageParams(threshold, gap_frames / m.sample_rate_hz)
    assert two_stage_detect(m, params) == reference_two_stage_detect(m, params)


class TestThresholdParams:
    def test_sign_constraints(self):
        with pytest.raises(ParameterError):
            ThresholdParams(-1.0, -25.0, 2.0, 2.0)
        with pytest.raises(ParameterError):
            ThresholdParams(25.0, 25.0, 2.0, 2.0)
        with pytest.raises(ParameterError):
            ThresholdParams(25.0, -25.0, -1.0, 2.0)


def _pulse_series(total: int, pulses: dict[int, float]) -> np.ndarray:
    series = np.zeros(total)
    for frame, value in pulses.items():
        series[frame] = value
    return series


class TestThresholdDetect:
    RATE = 10.0
    PARAMS = ThresholdParams(25.0, -25.0, 2.0, 2.0)

    def test_arm_then_fire(self):
        # +30 deg/s at 2 s arms; -30 deg/s at 5 s (past the 2 s dwell) fires
        series = _pulse_series(80, {20: 30.0, 50: -30.0})
        detections = threshold_detect(series, self.RATE, self.PARAMS)
        assert [(d.class_id, d.frame, d.time_s) for d in detections] == [(1, 50, 5.0)]

    def test_negative_pulse_without_arming(self):
        series = _pulse_series(80, {50: -30.0})
        assert threshold_detect(series, self.RATE, self.PARAMS) == []

    def test_crossing_before_dwell_does_not_fire(self):
        series = _pulse_series(80, {20: 30.0, 30: -30.0})
        assert threshold_detect(series, self.RATE, self.PARAMS) == []

    def test_lockout_swallows_second_gesture(self):
        # second arm+fire pair falls inside the 2 s lockout after frame 50
        series = _pulse_series(120, {20: 30.0, 50: -30.0, 55: 30.0, 62: -30.0})
        detections = threshold_detect(series, self.RATE, self.PARAMS)
        assert [d.frame for d in detections] == [50]

    def test_rearm_after_lockout(self):
        series = _pulse_series(200, {20: 30.0, 50: -30.0, 90: 30.0, 120: -30.0})
        detections = threshold_detect(series, self.RATE, self.PARAMS)
        assert [d.frame for d in detections] == [50, 120]

    def test_spacing_at_least_lockout(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            series = rng.normal(0.0, 30.0, size=400)
            detections = threshold_detect(series, self.RATE, self.PARAMS)
            frames = [d.frame for d in detections]
            for a, b in zip(frames, frames[1:]):
                assert (b - a) / self.RATE >= self.PARAMS.t4


class TestGridSearch:
    def test_recovers_workable_params(self):
        series = _pulse_series(200, {20: 30.0, 50: -30.0, 90: 30.0, 120: -30.0})
        truth = [GroundTruthEvent(1, 45, 55), GroundTruthEvent(1, 115, 125)]
        params, score = grid_search_threshold_params(
            series, 10.0, truth, t1_grid=(25.0, 40.0), t2_grid=(-25.0, -40.0),
            t3_grid=(1.0, 2.0), t4_grid=(1.0, 2.0),
        )
        assert score.f1 == 1.0
        assert params.t1 == 25.0 and params.t2 == -25.0
