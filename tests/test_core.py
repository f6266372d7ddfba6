import numpy as np
import pytest

from ctcdetect import (
    Alphabet,
    InvalidTokenError,
    NormalizationError,
    ParameterError,
    ProbMatrix,
    WindowSpec,
    best_alignment_brute_force,
    collapse,
    ctc_loss,
    detect_pipeline,
    extended_prefix_beam_search,
    greedy_decode,
    log_prob_forward,
    prefix_beam_search,
    prob_brute_force,
    prob_forward,
    validate_prob_matrix,
)

from conftest import D, E, WORKED_ROWS


class TestAlphabet:
    def test_blank_is_zero(self):
        ab = Alphabet(3)
        assert ab.name_of(0) == "_"
        assert [ab.name_of(t) for t in range(1, ab.size)] == ["C1", "C2"]

    def test_needs_at_least_one_class(self):
        with pytest.raises(ParameterError):
            Alphabet(1)

    def test_names_must_cover_classes(self):
        with pytest.raises(ParameterError):
            Alphabet(3, class_names=("only-one",))

    @pytest.mark.parametrize("name", ["_", ""])
    def test_blank_or_empty_class_name_rejected(self, name):
        # "_" is the blank's display name; an empty name cannot be told apart
        with pytest.raises(ParameterError):
            Alphabet.from_names(("E", name))

    def test_name_round_trip(self):
        ab = Alphabet.from_names(("eat", "drink"))
        assert ab.size == 3
        assert ab.name_of(1) == "eat"
        assert ab.id_of("drink") == 2
        assert ab.name_of(0) == "_"
        with pytest.raises(InvalidTokenError):
            ab.id_of("nope")


class TestCollapse:
    def test_worked_example(self, worked_alphabet):
        assert collapse((E, E, 0, E, E, D, D, D), worked_alphabet) == (E, E, D)

    def test_all_blank_is_empty(self, worked_alphabet):
        assert collapse((0, 0, 0), worked_alphabet) == ()

    def test_blank_separates_equal_tokens(self, worked_alphabet):
        assert collapse((E, 0, E), worked_alphabet) == (E, E)

    def test_rejects_out_of_range_token(self, worked_alphabet):
        with pytest.raises(InvalidTokenError):
            collapse((E, 7), worked_alphabet)

    def test_never_longer_and_never_blank(self, worked_alphabet):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = tuple(rng.integers(0, 3, size=rng.integers(1, 12)).tolist())
            c = collapse(a, worked_alphabet)
            assert len(c) <= len(a)
            assert 0 not in c

    def test_round_trip_through_expansion(self, worked_alphabet):
        # re-expanding a label (repeat tokens, blank between equal neighbors)
        # and collapsing again is the identity
        rng = np.random.default_rng(4)
        for _ in range(200):
            label = tuple(rng.integers(1, 3, size=rng.integers(0, 6)).tolist())
            expanded: list[int] = []
            prev = None
            for tok in label:
                if tok == prev:
                    expanded.append(0)
                expanded.extend([tok] * int(rng.integers(1, 4)))
                prev = tok
            assert collapse(tuple(expanded), worked_alphabet) == label


class TestProbMatrix:
    def test_accepts_worked_rows(self, worked_matrix):
        assert worked_matrix.frames == 8
        assert worked_matrix.n_tokens == 3

    def test_rows_are_frozen(self, worked_matrix):
        with pytest.raises(ValueError):
            worked_matrix.probs[0, 0] = 0.9

    def test_row_sum_violation_names_row(self):
        rows = [[0.3, 0.5, 0.2], [0.5, 0.5, 0.5]]
        with pytest.raises(NormalizationError, match="row 1"):
            validate_prob_matrix(rows)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="out of"):
            validate_prob_matrix([[1.2, -0.2]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, value):
        rows = np.full((3, 2), 0.5)
        rows[1, 0] = value
        with pytest.raises(NormalizationError, match="frame 1, token 0"):
            ProbMatrix(rows)
        with pytest.raises(NormalizationError):
            validate_prob_matrix(rows, renormalize=True)

    def test_renormalize_within_tolerance(self):
        m = validate_prob_matrix([[0.3334, 0.3333, 0.3333]], renormalize=True)
        assert m.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_renormalize_does_not_mask_broken_rows(self):
        with pytest.raises(NormalizationError):
            validate_prob_matrix([[0.6, 0.6]], renormalize=True)

    def test_window_slice(self, worked_matrix):
        w = worked_matrix.window(2, 5)
        assert w.frames == 3
        assert np.allclose(w.probs, worked_matrix.probs[2:5])
        with pytest.raises(ParameterError):
            worked_matrix.window(5, 2)

    def test_window_is_read_only_view(self, worked_matrix):
        w = worked_matrix.window(2, 5)
        assert np.shares_memory(w.probs, worked_matrix.probs)
        assert not w.probs.flags.writeable
        assert w.sample_rate_hz == worked_matrix.sample_rate_hz

    def test_bad_sample_rate(self):
        with pytest.raises(ParameterError):
            ProbMatrix(np.array([[0.5, 0.5]]), sample_rate_hz=0.0)


SPEC = WindowSpec(window_frames=4, stride_frames=2)

# Every library function that takes a matrix and an alphabet, with the label
# (the alphabet's last class) or other arguments it needs.
MATRIX_AND_ALPHABET = {
    "log_prob_forward": lambda m, ab: log_prob_forward(m, (ab.size - 1,), ab),
    "prob_forward": lambda m, ab: prob_forward(m, (ab.size - 1,), ab),
    "ctc_loss": lambda m, ab: ctc_loss(m, (ab.size - 1,), ab),
    "prob_brute_force": lambda m, ab: prob_brute_force(m, (ab.size - 1,), ab),
    "best_alignment_brute_force": lambda m, ab: best_alignment_brute_force(m, (ab.size - 1,), ab),
    "greedy_decode": greedy_decode,
    "prefix_beam_search": lambda m, ab: prefix_beam_search(m, ab, 3),
    "extended_prefix_beam_search": lambda m, ab: extended_prefix_beam_search(m, ab, 3),
    "detect_pipeline-greedy": lambda m, ab: detect_pipeline(m, SPEC, ab, method="greedy"),
    "detect_pipeline-extended-beam": lambda m, ab: detect_pipeline(m, SPEC, ab),
}


@pytest.mark.parametrize("size", (2, 4), ids=("alphabet-smaller", "alphabet-larger"))
@pytest.mark.parametrize("call", list(MATRIX_AND_ALPHABET.values()), ids=list(MATRIX_AND_ALPHABET))
def test_matrix_and_alphabet_must_agree(call, size):
    m = ProbMatrix(WORKED_ROWS)  # three tokens
    call(m, Alphabet(3))  # an agreeing alphabet is accepted
    with pytest.raises(ParameterError, match="matrix has 3 tokens, alphabet"):
        call(m, Alphabet(size))
