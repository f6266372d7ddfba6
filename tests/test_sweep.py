import numpy as np
import pytest

from ctcdetect import (
    Alphabet,
    ParameterError,
    ProbMatrix,
    WindowSpec,
    detect_pipeline,
    eventize,
    extended_prefix_beam_search,
    gen_synthetic,
    sweep_beam_width,
    SyntheticScript,
)
from ctcdetect import decode, sweep
from ctcdetect.evaluation import evaluate, prf1
from ctcdetect.sweep import SweepRow

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

    @pytest.mark.parametrize("ground_truth", [None, []])
    def test_every_width_checked_before_any_search(self, worked_matrix, worked_alphabet, searches,
                                                   ground_truth):
        for widths in ([1, 0], [1, 2.5], [1, "3"]):
            with pytest.raises(ParameterError, match="beam width must be"):
                sweep_beam_width(worked_matrix, worked_alphabet, widths, ground_truth=ground_truth)
        assert searches == []

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

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("extra", (0, 40))
    def test_window_over_the_whole_stream_one_search_per_width(self, searches, seed, extra):
        # a window at least as long as the stream is one window over all of
        # it, whose vote is the whole-stream decode's top alignment
        script = SyntheticScript(40, ((E, 10), (D, 28)), noise_level=0.5, seed=seed)
        m, truth = gen_synthetic(script, Alphabet(3), sample_rate_hz=10.0)
        ab, widths = Alphabet(3), (1, 2, 3, 10)
        spec = WindowSpec(40 + extra, 20)
        rows = sweep_beam_width(m, ab, widths, window_spec=spec, ground_truth=truth)
        assert searches == [40] * len(widths)
        assert [row.f1 for row in rows] == [
            prf1(evaluate(detect_pipeline(m, spec, ab, "extended-beam", w), truth)).f1
            for w in widths
        ]


def extended_sweep(m, ab, widths, window_spec=None, ground_truth=None) -> list[SweepRow]:
    """The sweep with every row read off the extended search."""
    rows = []
    for width in widths:
        top = extended_prefix_beam_search(m, ab, width).top
        f1 = None
        if ground_truth is not None:
            if window_spec is None or m.frames <= window_spec.window_frames:
                detections = eventize(top.alignment, m.sample_rate_hz)
            else:
                detections = detect_pipeline(m, window_spec, ab, "extended-beam", width)
            f1 = prf1(evaluate(detections, ground_truth)).f1
        rows.append(SweepRow(width, top.label, top.probability, f1))
    return rows


class TestSweepRowsMatchTheExtendedSearch:
    """Rows that read no alignment come from the plain search, bit for bit
    the extended search's top label and probability."""

    WIDTHS = (1, 2, 3, 5, 10)

    @pytest.fixture(params=range(3))
    def stream(self, request):
        script = SyntheticScript(120, ((E, 20), (D, 60), (E, 95)), noise_level=0.6,
                                 seed=request.param)
        return gen_synthetic(script, Alphabet(3), sample_rate_hz=10.0)

    @staticmethod
    def assert_rows(got, expected):
        assert got == expected
        assert [r.top_probability.hex() for r in got] == [
            r.top_probability.hex() for r in expected
        ]

    def test_without_ground_truth(self, stream, monkeypatch):
        m, _ = stream
        ab = Alphabet(3)
        expected = extended_sweep(m, ab, self.WIDTHS)

        def no_candidates(*args):
            raise AssertionError("an alignment candidate was built")

        monkeypatch.setattr(decode, "_candidates", no_candidates)
        self.assert_rows(sweep_beam_width(m, ab, self.WIDTHS), expected)

    def test_windowed_spec(self, stream):
        m, truth = stream
        ab, spec = Alphabet(3), WindowSpec(40, 20)
        got = sweep_beam_width(m, ab, self.WIDTHS, window_spec=spec, ground_truth=truth)
        self.assert_rows(got, extended_sweep(m, ab, self.WIDTHS, spec, truth))

    @pytest.mark.parametrize("spec", (None, WindowSpec(120, 60), WindowSpec(200, 100)))
    def test_single_window(self, stream, spec):
        m, truth = stream
        ab = Alphabet(3)
        got = sweep_beam_width(m, ab, self.WIDTHS, window_spec=spec, ground_truth=truth)
        self.assert_rows(got, extended_sweep(m, ab, self.WIDTHS, spec, truth))
