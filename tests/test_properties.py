"""Property tests: the forward pass and the beam decoders against enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcdetect import (
    Alphabet,
    ProbMatrix,
    best_alignment_brute_force,
    collapse,
    enumerate_alignments,
    extended_prefix_beam_search,
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
