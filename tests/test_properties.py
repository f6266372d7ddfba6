"""Property tests: the forward pass and the beam decoders against enumeration,
and the vote and eventize steps against per-frame counting."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcdetect import (
    Alphabet,
    CoverageError,
    ProbMatrix,
    best_alignment_brute_force,
    collapse,
    enumerate_alignments,
    eventize,
    extended_prefix_beam_search,
    majority_vote,
    prob_forward,
)

from oracles import brute_argmax_label, brute_label_probs

# wider than the number of distinct prefixes any generated matrix can reach
UNPRUNED = 10_000
REL = 1e-9

# the same examples every run, no example database written to disk
examples = settings(deadline=None, derandomize=True, database=None)


@st.composite
def prob_matrices(draw, max_frames: int = 6) -> ProbMatrix:
    """Row-stochastic matrices; integer weights give exact zeros and ties."""
    n_tokens = draw(st.integers(2, 3))
    n_frames = draw(st.integers(1, max_frames))
    weight = st.one_of(st.integers(0, 4).map(float), st.floats(0.01, 1.0))
    row = st.lists(weight, min_size=n_tokens, max_size=n_tokens).filter(lambda r: sum(r) > 0)
    rows = np.array(draw(st.lists(row, min_size=n_frames, max_size=n_frames)))
    return ProbMatrix(rows / rows.sum(axis=1, keepdims=True))


def _near_max(scores: dict) -> list:
    """Keys whose score is the maximum up to rounding (mathematical ties)."""
    best = max(scores.values())
    return [k for k, v in scores.items() if v >= best * (1 - REL)]


@examples
@given(prob_matrices(), st.data())
def test_forward_equals_enumeration(m, data):
    ab = Alphabet(m.n_tokens)
    table = brute_label_probs(m.probs)
    label = data.draw(
        st.one_of(
            st.sampled_from(sorted(table)),
            st.lists(st.integers(1, m.n_tokens - 1), max_size=m.frames + 1).map(tuple),
        )
    )
    assert prob_forward(m, label, ab) == pytest.approx(table.get(label, 0.0), rel=REL, abs=1e-300)


@examples
@given(prob_matrices())
def test_unpruned_beam_equals_enumeration(m):
    ab = Alphabet(m.n_tokens)
    top = extended_prefix_beam_search(m, ab, UNPRUNED).top
    table = brute_label_probs(m.probs)
    labels = _near_max(table)
    assert top.label in labels
    if len(labels) == 1:
        assert top.label == brute_argmax_label(table)
    assert top.probability == pytest.approx(table[top.label], rel=REL)

    alignment, probability = best_alignment_brute_force(m, top.label, ab)
    assert top.alignment_probability == pytest.approx(probability, rel=REL)
    products = {
        a: float(np.prod(m.probs[np.arange(m.frames), a]))
        for a in enumerate_alignments(top.label, m.frames, ab)
    }
    if len(_near_max(products)) == 1:
        assert top.alignment == alignment


@examples
@given(prob_matrices(max_frames=12), st.integers(1, 6))
def test_alignments_collapse_and_are_bounded(m, width):
    ab = Alphabet(m.n_tokens)
    for hyp in extended_prefix_beam_search(m, ab, width).hypotheses:
        assert len(hyp.alignment) == m.frames
        assert collapse(hyp.alignment, ab) == hyp.label
        assert hyp.alignment_log_probability <= hyp.log_probability + 1e-12


@examples
@given(st.lists(st.integers(0, 3), max_size=40))
def test_eventize_one_detection_per_run(tokens):
    expected, frame = [], 0
    for token, run in itertools.groupby(tokens):
        length = len(list(run))
        if token != 0:
            apex = frame + (length - 1) // 2
            expected.append((token, apex, apex / 8.0))
        frame += length
    assert [(d.class_id, d.frame, d.time_s) for d in eventize(tokens, 8.0)] == expected


@st.composite
def window_votes(draw):
    """(alphabet size, frames, [(start, alignment)]) with windows inside the frames."""
    n_tokens = draw(st.integers(2, 4))
    total = draw(st.integers(1, 30))
    token_run = lambda n: st.lists(st.integers(0, n_tokens - 1), min_size=n, max_size=n)
    windows = [(0, tuple(draw(token_run(total))))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, total - 1))
        windows.append((start, tuple(draw(token_run(draw(st.integers(1, total - start)))))))
    return n_tokens, total, windows


@examples
@given(window_votes())
def test_majority_vote_counts_votes(case):
    n_tokens, total, windows = case
    votes = [Counter() for _ in range(total)]
    for start, tokens in windows:
        for offset, token in enumerate(tokens):
            votes[start + offset][token] += 1
    if not all(votes):
        with pytest.raises(CoverageError):
            majority_vote(windows, total, Alphabet(n_tokens))
        return
    expected = []
    for count in votes:
        (token, lead), *rest = count.most_common()
        expected.append(0 if rest and rest[0][1] == lead else token)
    assert majority_vote(windows, total, Alphabet(n_tokens)).tolist() == expected
