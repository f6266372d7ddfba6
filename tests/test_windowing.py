import numpy as np
import pytest

from ctcdetect import (
    Alphabet,
    CoverageError,
    Detection,
    InvalidTokenError,
    ParameterError,
    ProbMatrix,
    WindowSpec,
    detect_pipeline,
    eventize,
    extended_prefix_beam_search,
    gen_synthetic,
    greedy_decode,
    majority_vote,
    slide_windows,
    SyntheticScript,
)

from conftest import D, E
from oracles import random_stochastic


def _uniform_matrix(n_frames: int, rate: float = 1.0) -> ProbMatrix:
    return ProbMatrix(np.full((n_frames, 3), 1.0 / 3.0), rate)


class TestWindowSpec:
    def test_invalid_geometry(self):
        with pytest.raises(ParameterError):
            WindowSpec(0, 1)
        with pytest.raises(ParameterError):
            WindowSpec(8, 9)
        with pytest.raises(ParameterError):
            WindowSpec(8, 0)

    # -8 s at -1 Hz is a positive frame count, but the rate is still negative
    @pytest.mark.parametrize(
        "window_s, rate",
        [(8.0, 0.0), (8.0, -1.0), (8.0, float("nan")), (8.0, float("inf")), (-8.0, -1.0)],
    )
    def test_from_seconds_rejects_bad_rate(self, window_s, rate):
        with pytest.raises(ParameterError):
            WindowSpec.from_seconds(window_s, rate)

    @pytest.mark.parametrize("window, stride", [(8.0, 4), (8, 4.0), (8, "4"), ("8", 4), (2.5, 1)])
    def test_frame_counts_must_be_integers(self, window, stride):
        with pytest.raises(ParameterError, match="window and stride must be integer frame counts"):
            WindowSpec(window, stride)

    def test_numpy_integers_are_frame_counts(self):
        assert WindowSpec(np.int64(8), np.int32(4)) == WindowSpec(8, 4)

    def test_from_seconds_defaults_to_half_stride(self):
        spec = WindowSpec.from_seconds(8.0, 64.0)
        assert spec.window_frames == 512
        assert spec.stride_frames == 256


class TestSlideWindows:
    def test_stride_grid_lands_on_end(self):
        starts = [s for s, _ in slide_windows(_uniform_matrix(20), WindowSpec(8, 4))]
        assert starts == [0, 4, 8, 12]

    def test_final_window_anchored_to_last_frame(self):
        starts = [s for s, _ in slide_windows(_uniform_matrix(10), WindowSpec(8, 4))]
        assert starts == [0, 2]

    def test_short_recording_single_window(self):
        windows = slide_windows(_uniform_matrix(5), WindowSpec(8, 4))
        assert len(windows) == 1
        assert windows[0][0] == 0
        assert windows[0][1].frames == 5

    @pytest.mark.parametrize("total", [5, 8])
    def test_short_recording_is_a_view_like_every_window(self, total):
        # detect_pipeline's grid: windows span min(frames, window) frames, so
        # a recording no longer than the window is one read-only view over all
        # of it, not the matrix itself
        m = _uniform_matrix(total, rate=4.0)
        [(start, w)] = slide_windows(m, WindowSpec(8, 4))
        assert start == 0 and w is not m and w.frames == total
        assert np.shares_memory(w.probs, m.probs) and not w.probs.flags.writeable
        assert w.sample_rate_hz == 4.0

    def test_every_frame_covered(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            total = int(rng.integers(1, 60))
            window = int(rng.integers(1, 20))
            stride = int(rng.integers(1, window + 1))
            m = _uniform_matrix(total)
            covered = np.zeros(total, dtype=int)
            for start, w in slide_windows(m, WindowSpec(window, stride)):
                covered[start : start + w.frames] += 1
            assert (covered >= 1).all()

    def test_interior_frames_get_overlap_votes(self):
        # away from the edges every frame is covered by at least
        # ceil(window/stride) - 1 windows
        rng = np.random.default_rng(21)
        for _ in range(30):
            window = int(rng.integers(2, 16))
            stride = int(rng.integers(1, window + 1))
            total = int(rng.integers(3 * window, 6 * window))
            covered = np.zeros(total, dtype=int)
            for start, w in slide_windows(_uniform_matrix(total), WindowSpec(window, stride)):
                covered[start : start + w.frames] += 1
            need = -(-window // stride) - 1
            interior = covered[window : total - window]
            assert (interior >= max(need, 1)).all()


class TestMajorityVote:
    def test_majority_wins(self, worked_alphabet):
        voted = majority_vote([(0, (E,)), (0, (E,)), (0, (0,))], 1, worked_alphabet)
        assert voted.tolist() == [E]

    def test_tie_goes_to_blank(self, worked_alphabet):
        voted = majority_vote([(0, (E,)), (0, (D,))], 1, worked_alphabet)
        assert voted.tolist() == [0]

    def test_class_tie_falls_back_to_blank(self, worked_alphabet):
        # E and D tie at two votes each with blank trailing: no event fabricated
        voted = majority_vote(
            [(0, (E,)), (0, (D,)), (0, (E,)), (0, (D,)), (0, (0,))], 1, worked_alphabet
        )
        assert voted.tolist() == [0]

    def test_clear_majority_beats_blank_fallback(self, worked_alphabet):
        voted = majority_vote([(0, (D,)), (0, (D,)), (0, (E,))], 1, worked_alphabet)
        assert voted.tolist() == [D]

    def test_single_window_is_identity(self, worked_alphabet):
        tokens = (E, E, 0, D)
        voted = majority_vote([(0, tokens)], 4, worked_alphabet)
        assert tuple(voted.tolist()) == tokens

    @pytest.mark.parametrize("token", (-1, 3))
    def test_token_outside_alphabet_raises(self, worked_alphabet, token):
        # -1 would index the last class and 3 past the end of the count matrix
        with pytest.raises(InvalidTokenError):
            majority_vote([(0, (token, 0))], 2, worked_alphabet)

    def test_alignment_past_the_recording_raises(self, worked_alphabet):
        with pytest.raises(ParameterError, match=r"^alignment at 5 \(\+2\) falls outside 6"):
            majority_vote([(5, (0, 1))], 6, worked_alphabet)

    def test_uncovered_frame_raises(self, worked_alphabet):
        with pytest.raises(CoverageError):
            majority_vote([(0, (E,))], 2, worked_alphabet)

    def test_offsets_respected(self, worked_alphabet):
        voted = majority_vote([(0, (E, E)), (1, (E, D)), (2, (D, D))], 4, worked_alphabet)
        # frame 1: votes E,E -> E; frame 2: votes D,D -> D
        assert voted.tolist() == [E, E, D, D]


class TestEventize:
    def test_worked_alignment(self):
        detections = eventize((E, E, 0, E, 0, D, D, D), 1.0)
        assert [(d.class_id, d.frame) for d in detections] == [(E, 0), (E, 3), (D, 6)]
        assert [d.time_s for d in detections] == [0.0, 3.0, 6.0]

    def test_all_blank(self):
        assert eventize((0, 0, 0), 1.0) == []

    def test_single_frame_event(self):
        detections = eventize((E,), 2.0)
        assert [(d.class_id, d.frame, d.time_s) for d in detections] == [(E, 0, 0.0)]

    def test_adjacent_distinct_classes_split(self):
        detections = eventize((E, E, D, D), 1.0)
        assert [(d.class_id, d.frame) for d in detections] == [(E, 0), (D, 2)]

    def test_even_run_uses_lower_median(self):
        detections = eventize((0, E, E, E, E, 0), 1.0)
        assert detections[0].frame == 2

    @pytest.mark.parametrize("rate", (0.0, float("nan"), -1.0, float("inf")))
    def test_rate_must_be_positive_and_finite(self, rate):
        # 0 divided by zero; NaN, -1 and inf stamped times of NaN, -1.0 and 0.0
        with pytest.raises(ParameterError, match="sample rate"):
            eventize((0, E, E, 0), rate)

    def test_one_detection_per_run(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            tokens = rng.integers(0, 3, size=int(rng.integers(1, 40)))
            runs = 0
            prev = 0
            for tok in tokens:
                if tok != 0 and tok != prev:
                    runs += 1
                prev = tok
            assert len(eventize(tokens, 1.0)) == runs


class TestDetectionType:
    def test_rejects_blank_class(self):
        with pytest.raises(ParameterError):
            Detection(0, 3, 3.0)


class TestDetectPipeline:
    def test_scripted_events_recovered(self, worked_alphabet):
        script = SyntheticScript(total_frames=120, events=((E, 10), (D, 40), (E, 100)))
        m, _ = gen_synthetic(script, worked_alphabet, sample_rate_hz=10.0)
        spec = WindowSpec.from_seconds(4.0, 10.0)
        detections = detect_pipeline(m, spec, worked_alphabet)
        assert [d.class_id for d in detections] == [E, D, E]
        for det, apex in zip(detections, (10, 40, 100)):
            assert abs(det.frame - apex) <= 1

    def test_blank_stream_yields_nothing(self, worked_alphabet):
        script = SyntheticScript(total_frames=50, events=())
        m, _ = gen_synthetic(script, worked_alphabet, sample_rate_hz=10.0)
        spec = WindowSpec.from_seconds(2.0, 10.0)
        assert detect_pipeline(m, spec, worked_alphabet) == []

    def test_greedy_and_beam_agree_on_clean_input(self, worked_alphabet):
        script = SyntheticScript(total_frames=100, events=((E, 20), (D, 60)))
        m, _ = gen_synthetic(script, worked_alphabet, sample_rate_hz=10.0)
        spec = WindowSpec.from_seconds(3.0, 10.0)
        greedy = detect_pipeline(m, spec, worked_alphabet, method="greedy")
        beam = detect_pipeline(m, spec, worked_alphabet, method="extended-beam")
        assert greedy == beam

    def test_greedy_equals_windowed_vote(self):
        # reference: decode every window greedily, then vote; small integer
        # weights make tied frames common
        rng = np.random.default_rng(21)
        for _ in range(300):
            n_tokens = int(rng.integers(2, 5))
            ab = Alphabet(n_tokens)
            weights = rng.integers(1, 4, size=(int(rng.integers(1, 60)), n_tokens))
            m = ProbMatrix(weights / weights.sum(axis=1, keepdims=True), 10.0)
            window = int(rng.integers(1, 20))
            spec = WindowSpec(window, int(rng.integers(1, window + 1)))
            aligned = [
                (start, greedy_decode(w, ab).top.alignment) for start, w in slide_windows(m, spec)
            ]
            expected = eventize(majority_vote(aligned, m.frames, ab), m.sample_rate_hz)
            assert detect_pipeline(m, spec, ab, method="greedy") == expected

    @pytest.mark.parametrize("kind", ("random", "tenths", "one-hot"))
    @pytest.mark.parametrize("width", (1, 3, 10))
    def test_beam_equals_windowed_vote(self, kind, width):
        # reference: every window's full result and its top alignment, then the
        # vote; tenths rows tie often, one-hot rows leave most moves at log 0
        rng = np.random.default_rng([width, len(kind)])
        # a last window anchored to the end, a recording shorter than its window
        geometries = [(25, WindowSpec(8, 5)), (5, WindowSpec(8, 4))]
        assert [s for s, _ in slide_windows(_uniform_matrix(25), geometries[0][1])] == [
            0, 5, 10, 15, 17
        ]
        for _ in range(20):
            window = int(rng.integers(1, 20))
            spec = WindowSpec(window, int(rng.integers(1, window + 1)))
            geometries.append((int(rng.integers(1, 60)), spec))
        for frames, spec in geometries:
            n_tokens = int(rng.integers(2, 5))
            ab = Alphabet(n_tokens)
            if kind == "random":
                rows = random_stochastic(rng, frames, n_tokens)
            elif kind == "tenths":
                rows = rng.multinomial(10, np.full(n_tokens, 1.0 / n_tokens), size=frames) / 10.0
            else:
                rows = np.eye(n_tokens)[rng.integers(0, n_tokens, frames)]
            m = ProbMatrix(rows, 10.0)
            aligned = [
                (start, extended_prefix_beam_search(w, ab, width).top.alignment)
                for start, w in slide_windows(m, spec)
            ]
            expected = eventize(majority_vote(aligned, m.frames, ab), m.sample_rate_hz)
            assert detect_pipeline(m, spec, ab, "extended-beam", width) == expected

    def test_greedy_checks_alphabet(self):
        m = _uniform_matrix(10)
        with pytest.raises(ParameterError):
            detect_pipeline(m, WindowSpec(4, 2), Alphabet(4), method="greedy")

    def test_unknown_method_rejected(self, worked_alphabet):
        m = _uniform_matrix(10)
        with pytest.raises(ParameterError):
            detect_pipeline(m, WindowSpec(4, 2), worked_alphabet, method="viterbi")
        with pytest.raises(ParameterError):
            detect_pipeline(m, WindowSpec(4, 2), worked_alphabet, method="greedy", beam_width=0)

    def test_deterministic(self, worked_alphabet):
        script = SyntheticScript(
            total_frames=90, events=((E, 15), (D, 50)), noise_level=0.2, seed=5
        )
        m, _ = gen_synthetic(script, worked_alphabet, sample_rate_hz=10.0)
        spec = WindowSpec.from_seconds(3.0, 10.0)
        assert detect_pipeline(m, spec, worked_alphabet) == detect_pipeline(
            m, spec, worked_alphabet
        )
