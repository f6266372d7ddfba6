import numpy as np
import pytest

from ctcdetect import (
    Alphabet,
    ParameterError,
    ScriptError,
    SyntheticScript,
    gen_synthetic,
)

from conftest import D, E


class TestScriptValidation:
    def test_apexes_strictly_increasing(self):
        with pytest.raises(ScriptError):
            SyntheticScript(total_frames=50, events=((E, 20), (D, 10)))

    def test_event_must_fit(self):
        script = SyntheticScript(total_frames=20, events=((E, 19),), spike_width_frames=3)
        with pytest.raises(ScriptError):
            script.extents()

    def test_overlapping_extents_rejected(self):
        script = SyntheticScript(total_frames=50, events=((E, 10), (D, 11)))
        with pytest.raises(ScriptError):
            script.extents()

    def test_touching_extents_rejected(self):
        script = SyntheticScript(
            total_frames=50, events=((E, 10), (E, 13)), spike_width_frames=3
        )
        with pytest.raises(ScriptError):
            script.extents()

    def test_event_class_must_not_be_blank(self):
        with pytest.raises(ScriptError, match="^event class ids must be >= 1, got 0$"):
            SyntheticScript(total_frames=50, events=((0, 10),))

    def test_mode_and_noise_validated(self):
        with pytest.raises(ParameterError):
            SyntheticScript(total_frames=10, events=(), mode="wavy")
        with pytest.raises(ParameterError):
            SyntheticScript(total_frames=10, events=(), noise_level=1.0)


class TestGenSynthetic:
    def test_rows_are_stochastic(self, worked_alphabet):
        script = SyntheticScript(
            total_frames=80, events=((E, 10), (D, 40)), noise_level=0.3, seed=9
        )
        m, _ = gen_synthetic(script, worked_alphabet, sample_rate_hz=10.0)
        assert np.allclose(m.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_events_is_all_blank(self, worked_alphabet):
        script = SyntheticScript(total_frames=30, events=())
        m, truth = gen_synthetic(script, worked_alphabet)
        assert truth == []
        assert np.all(m.probs[:, 0] == 1.0)

    def test_truth_spans_extents(self, worked_alphabet):
        script = SyntheticScript(total_frames=60, events=((E, 10), (D, 40)))
        _, truth = gen_synthetic(script, worked_alphabet)
        assert [(ev.class_id, ev.start_frame, ev.end_frame) for ev in truth] == [
            (E, 9, 11),
            (D, 39, 41),
        ]

    def test_spiky_puts_peak_on_extent(self, worked_alphabet):
        script = SyntheticScript(total_frames=30, events=((E, 15),))
        m, _ = gen_synthetic(script, worked_alphabet)
        assert m.probs[15, E] == pytest.approx(0.9)
        assert m.probs[14, E] == pytest.approx(0.9)
        assert m.probs[12, E] == 0.0

    def test_blocky_raises_block(self, worked_alphabet):
        script = SyntheticScript(
            total_frames=40, events=((D, 20),), mode="blocky", block_extent_frames=9
        )
        m, truth = gen_synthetic(script, worked_alphabet)
        assert truth[0].start_frame == 16 and truth[0].end_frame == 24
        assert np.all(m.probs[16:25, D] == pytest.approx(0.85))

    def test_same_seed_bit_identical(self, worked_alphabet):
        script = SyntheticScript(
            total_frames=50, events=((E, 25),), noise_level=0.4, seed=123
        )
        m1, _ = gen_synthetic(script, worked_alphabet)
        m2, _ = gen_synthetic(script, worked_alphabet)
        assert np.array_equal(m1.probs, m2.probs)

    def test_different_seed_differs(self, worked_alphabet):
        base = dict(total_frames=50, events=((E, 25),), noise_level=0.4)
        m1, _ = gen_synthetic(SyntheticScript(seed=1, **base), worked_alphabet)
        m2, _ = gen_synthetic(SyntheticScript(seed=2, **base), worked_alphabet)
        assert not np.array_equal(m1.probs, m2.probs)
