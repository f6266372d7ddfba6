import math
import warnings

import numpy as np
import pytest

from ctcdetect import (
    Alphabet,
    InvalidTokenError,
    NoAlignmentError,
    OracleSizeError,
    ProbMatrix,
    best_alignment_brute_force,
    collapse,
    ctc_loss,
    enumerate_alignments,
    log_prob_forward,
    prob_brute_force,
    prob_forward,
)

from conftest import D, E
from oracles import brute_label_probs, random_stochastic


class TestEnumerateAlignments:
    def test_worked_example_members(self, worked_alphabet):
        got = enumerate_alignments((E, E, D), 8, worked_alphabet)
        assert (E, E, 0, E, E, D, D, D) in got
        assert (E, E, 0, E, 0, D, D, D) in got
        for a in got:
            assert collapse(a, worked_alphabet) == (E, E, D)
        assert len(set(got)) == len(got)

    def test_single_frame_single_token(self, worked_alphabet):
        assert enumerate_alignments((E,), 1, worked_alphabet) == [(E,)]

    def test_adjacent_repeat_needs_separator(self, worked_alphabet):
        assert enumerate_alignments((E, E), 2, worked_alphabet) == []

    def test_scale_guard(self, worked_alphabet):
        with pytest.raises(OracleSizeError):
            enumerate_alignments((E,), 17, worked_alphabet)
        with pytest.raises(OracleSizeError):
            enumerate_alignments((E,), 16, Alphabet(8))

    def test_blank_in_label_rejected(self, worked_alphabet):
        with pytest.raises(InvalidTokenError):
            enumerate_alignments((E, 0), 4, worked_alphabet)

    def test_matches_independent_grouping(self, worked_alphabet):
        # alignment count per label must equal the independent oracle's
        rng = np.random.default_rng(11)
        probs = random_stochastic(rng, 5, 3)
        by_label = {}
        import itertools

        for a in itertools.product(range(3), repeat=5):
            by_label.setdefault(collapse(a, worked_alphabet), []).append(a)
        for label, members in by_label.items():
            # product() is lexicographic, and so must the enumeration be
            got = enumerate_alignments(label, 5, worked_alphabet)
            assert got == members


class TestProbabilities:
    def test_known_label_probabilities(self, worked_matrix, worked_alphabet):
        assert prob_brute_force(worked_matrix, (E, D), worked_alphabet) == pytest.approx(
            0.0719, abs=5e-4
        )
        assert prob_brute_force(worked_matrix, (E, E, D), worked_alphabet) == pytest.approx(
            0.1305, abs=5e-4
        )
        assert prob_forward(worked_matrix, (E, D), worked_alphabet) == pytest.approx(
            0.0719, abs=5e-4
        )
        assert prob_forward(worked_matrix, (E, E, D), worked_alphabet) == pytest.approx(
            0.1305, abs=5e-4
        )

    def test_exact_agreement_on_worked_example(self, worked_matrix, worked_alphabet):
        for label in [(), (E,), (D,), (E, D), (E, E, D), (D, E), (E, E, E, D)]:
            bf = prob_brute_force(worked_matrix, label, worked_alphabet)
            fw = prob_forward(worked_matrix, label, worked_alphabet)
            assert fw == pytest.approx(bf, rel=1e-9)

    def test_single_frame(self, worked_alphabet):
        m = ProbMatrix(np.array([[0.3, 0.5, 0.2]]))
        assert prob_forward(m, (E,), worked_alphabet) == pytest.approx(0.5)

    def test_impossible_label_is_zero_not_error(self, worked_alphabet):
        m = ProbMatrix(np.array([[0.3, 0.5, 0.2], [0.3, 0.5, 0.2]]))
        assert prob_forward(m, (E, E), worked_alphabet) == 0.0
        assert prob_forward(m, (E, D, E, D), worked_alphabet) == 0.0
        assert prob_brute_force(m, (E, E), worked_alphabet) == 0.0

    def test_too_many_events_of_one_class(self, worked_alphabet):
        rng = np.random.default_rng(0)
        m = ProbMatrix(random_stochastic(rng, 6, 3))
        # 4 E-events need at least 4 + 3 separating blanks = 7 frames
        assert prob_brute_force(m, (E, E, E, E), worked_alphabet) == 0.0

    def test_forward_matches_brute_force_on_random_instances(self, worked_alphabet):
        rng = np.random.default_rng(20)
        checked = 0
        for _ in range(40):
            n_frames = int(rng.integers(1, 9))
            n_tokens = int(rng.integers(2, 5))
            ab = Alphabet(n_tokens)
            m = ProbMatrix(random_stochastic(rng, n_frames, n_tokens))
            table = brute_label_probs(m.probs)
            labels = list(table)
            for label in rng.choice(len(labels), size=min(3, len(labels)), replace=False):
                label = labels[int(label)]
                fw = prob_forward(m, label, ab)
                assert fw == pytest.approx(table[label], rel=1e-9)
                checked += 1
        assert checked >= 100

    def test_label_symmetry_under_class_permutation(self, worked_matrix, worked_alphabet):
        # swapping the two classes' columns and the label leaves probs unchanged
        swapped = ProbMatrix(worked_matrix.probs[:, [0, 2, 1]])
        for label in [(E,), (E, D), (E, E, D)]:
            mirrored = tuple(D if t == E else E for t in label)
            assert prob_forward(swapped, mirrored, worked_alphabet) == pytest.approx(
                prob_forward(worked_matrix, label, worked_alphabet), rel=1e-12
            )


class TestCtcLoss:
    def test_worked_example_loss(self, worked_matrix, worked_alphabet):
        assert ctc_loss(worked_matrix, (E, E, D), worked_alphabet) == pytest.approx(
            -math.log(0.1305), abs=4e-3
        )

    def test_one_hot_path_has_zero_loss(self, worked_alphabet):
        rows = np.zeros((4, 3))
        for t, tok in enumerate((E, 0, D, D)):
            rows[t, tok] = 1.0
        m = ProbMatrix(rows)
        assert ctc_loss(m, (E, D), worked_alphabet) == pytest.approx(0.0, abs=1e-12)

    def test_impossible_label_is_infinite(self, worked_alphabet):
        m = ProbMatrix(np.array([[0.3, 0.5, 0.2]]))
        assert ctc_loss(m, (E, D), worked_alphabet) == math.inf


class TestForwardOnLongStreams:
    """Beyond oracle scale: 2048 uniform frames, where the answers are closed-form."""

    @pytest.fixture(scope="class")
    def uniform(self):
        return ProbMatrix(np.full((2048, 3), 1.0 / 3.0))

    def test_empty_label_is_all_blank(self, uniform, worked_alphabet):
        assert log_prob_forward(uniform, (), worked_alphabet) == pytest.approx(
            2048 * math.log(1.0 / 3.0), rel=1e-12
        )

    def test_repeats_fill_the_stream_at_capacity(self, uniform, worked_alphabet):
        # n equal events need n frames plus n - 1 separating blanks: 1024 fit, 1025 do not
        assert math.isfinite(log_prob_forward(uniform, (E,) * 1024, worked_alphabet))
        assert log_prob_forward(uniform, (E,) * 1025, worked_alphabet) == -math.inf
        assert prob_forward(uniform, (E,) * 1025, worked_alphabet) == 0.0
        assert ctc_loss(uniform, (E,) * 1025, worked_alphabet) == math.inf

    def test_alternating_label_one_token_per_frame(self, uniform, worked_alphabet):
        assert math.isfinite(log_prob_forward(uniform, (E, D) * 1024, worked_alphabet))
        assert log_prob_forward(uniform, (E, D) * 1024 + (E,), worked_alphabet) == -math.inf


class TestForwardRaisesNoWarning:
    """One-hot rows put -inf everywhere off the path; no nan may appear on the way."""

    @pytest.mark.parametrize(
        "path, label, expected",
        [
            ((E, E, 0, E, D, D, 0, 0), (E, E, D), 0.0),
            ((E, E, 0, E, D, D, 0, 0), (E, D), -math.inf),
            ((E, E, 0, E, D, D, 0, 0), (), -math.inf),
            ((E, E, 0, E, D, D, 0, 0), (E,) * 5, -math.inf),
            ((0, 0, 0), (), 0.0),
            ((0, 0, 0), (E, E), -math.inf),
        ],
    )
    def test_one_hot_rows(self, path, label, expected, worked_alphabet):
        rows = np.zeros((len(path), 3))
        rows[np.arange(len(path)), path] = 1.0
        m = ProbMatrix(rows)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert log_prob_forward(m, label, worked_alphabet) == expected
            assert prob_forward(m, label, worked_alphabet) == math.exp(expected)
            assert ctc_loss(m, label, worked_alphabet) == -expected


class TestBestAlignment:
    def test_worked_example(self, worked_matrix, worked_alphabet):
        alignment, prob = best_alignment_brute_force(worked_matrix, (E, E, D), worked_alphabet)
        assert alignment == (E, E, 0, E, 0, D, D, D)
        assert prob == pytest.approx(0.00441, abs=1e-5)

    def test_one_hot_matrix(self, worked_alphabet):
        rows = np.zeros((4, 3))
        for t, tok in enumerate((E, 0, D, D)):
            rows[t, tok] = 1.0
        m = ProbMatrix(rows)
        alignment, prob = best_alignment_brute_force(m, (E, D), worked_alphabet)
        assert alignment == (E, 0, D, D)
        assert prob == pytest.approx(1.0)

    def test_no_alignment_raises(self, worked_alphabet):
        m = ProbMatrix(np.array([[0.3, 0.5, 0.2], [0.3, 0.5, 0.2]]))
        with pytest.raises(NoAlignmentError):
            best_alignment_brute_force(m, (E, E), worked_alphabet)

    def test_never_exceeds_label_mass(self, worked_alphabet):
        rng = np.random.default_rng(33)
        for _ in range(30):
            n_frames = int(rng.integers(1, 8))
            m = ProbMatrix(random_stochastic(rng, n_frames, 3))
            for label in brute_label_probs(m.probs):
                _, best = best_alignment_brute_force(m, label, worked_alphabet)
                assert best <= prob_brute_force(m, label, worked_alphabet) + 1e-15

    def test_tie_breaks_lexicographically(self, worked_alphabet):
        # uniform rows make every alignment equally likely
        m = ProbMatrix(np.full((3, 3), 1.0 / 3.0))
        alignment, _ = best_alignment_brute_force(m, (E,), worked_alphabet)
        assert alignment == (0, 0, E)


class TestNormalization:
    def test_label_probabilities_partition_unity(self, worked_matrix):
        table = brute_label_probs(worked_matrix.probs)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)
        ab = Alphabet(3)
        for label in [(), (E,), (E, D), (E, E, D)]:
            assert prob_brute_force(worked_matrix, label, ab) == pytest.approx(
                table[label], rel=1e-9
            )
