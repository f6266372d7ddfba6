import numpy as np
import pytest

from ctcdetect import (
    Alphabet,
    ParameterError,
    ProbMatrix,
    WindowSpec,
    detect_pipeline,
    gen_synthetic,
    sweep_beam_width,
    SyntheticScript,
)
from ctcdetect import sweep

from conftest import D, E
from oracles import random_stochastic


class TestSweepBeamWidth:
    def test_width_one_vs_three_on_worked_example(self, worked_matrix, worked_alphabet):
        rows = sweep_beam_width(worked_matrix, worked_alphabet, (1, 3))
        assert rows[0].top_label == (E, D)
        assert rows[1].top_label == (E, E, D)
        assert rows[0].f1 is None

    def test_wide_widths_agree_with_exact_answer(self, worked_matrix, worked_alphabet):
        rows = sweep_beam_width(worked_matrix, worked_alphabet, (3, 100, 10000))
        assert {row.top_label for row in rows} == {(E, E, D)}
        assert rows[1].top_probability == pytest.approx(rows[2].top_probability, rel=1e-12)

    def test_intermediate_width_can_oscillate(self, worked_matrix, worked_alphabet):
        # pruning at width 5 happens to cost [E,E,D] more mass than its rivals,
        # so the top label briefly flips before wider beams restore it; the
        # retained top probability still grows monotonically with width
        rows = sweep_beam_width(worked_matrix, worked_alphabet, (3, 5, 10, 100))
        assert rows[1].top_label == (E, D, E, D)
        probs = [row.top_probability for row in rows]
        assert probs == sorted(probs)

    def test_zero_width_rejected(self, worked_matrix, worked_alphabet):
        with pytest.raises(ParameterError):
            sweep_beam_width(worked_matrix, worked_alphabet, (0,))
        with pytest.raises(ParameterError):
            sweep_beam_width(worked_matrix, worked_alphabet, ())

    def test_f1_scored_against_truth(self, worked_alphabet):
        script = SyntheticScript(total_frames=100, events=((E, 20), (D, 60)))
        m, truth = gen_synthetic(script, worked_alphabet, sample_rate_hz=10.0)
        spec = WindowSpec.from_seconds(4.0, 10.0)
        rows = sweep_beam_width(m, worked_alphabet, (1, 3), window_spec=spec, ground_truth=truth)
        assert all(row.f1 == 1.0 for row in rows)

    @pytest.mark.parametrize("seed", range(4))
    def test_without_window_spec_one_decode_per_width(self, monkeypatch, seed):
        # one window over the whole stream votes its own top alignment, so the
        # sweep eventizes that and runs no second search
        rng = np.random.default_rng(seed)
        m = ProbMatrix(random_stochastic(rng, int(rng.integers(1, 60)), 3), 10.0)
        ab = Alphabet(3)
        widths = (1, 2, 3, 10)
        expected = [
            detect_pipeline(m, WindowSpec(m.frames, max(1, m.frames // 2)), ab, "extended-beam", w)
            for w in widths
        ]
        scored = []
        evaluate = sweep.evaluate

        def recorded(detections, truth):
            scored.append(detections)
            return evaluate(detections, truth)

        def not_called(*args, **kwargs):
            raise AssertionError("detect_pipeline ran")

        monkeypatch.setattr(sweep, "evaluate", recorded)
        monkeypatch.setattr(sweep, "detect_pipeline", not_called)
        sweep_beam_width(m, ab, widths, ground_truth=[])
        assert scored == expected
