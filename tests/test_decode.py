import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctcdetect import (
    BLANK_ID,
    Alphabet,
    ParameterError,
    ProbMatrix,
    SyntheticScript,
    WindowSpec,
    best_alignment_brute_force,
    collapse,
    detect_pipeline,
    eventize,
    extended_prefix_beam_search,
    gen_synthetic,
    greedy_decode,
    majority_vote,
    log_prob_forward,
    prefix_beam_search,
    prob_brute_force,
    slide_windows,
    sweep_beam_width,
)
from ctcdetect import decode, lockstep
from ctcdetect.decode import _alignment, _hypothesis, _search
from ctcdetect.lockstep import search_windows
from ctcdetect.logspace import log_matrix

from conftest import D, E, assert_no_child_left
from oracles import (
    BeamState,
    brute_argmax_label,
    brute_label_probs,
    random_confident,
    random_stochastic,
    reference_extended_prefix_beam_search,
    reference_log_prob_forward,
    reference_prefix_beam_search,
)

EXHAUSTIVE = 10_000


def _candidate(cand) -> tuple | None:
    return None if cand is None else (_alignment(cand[2]), float(np.exp(cand[0])))


def search_states(m: ProbMatrix, width: int) -> list[tuple[BeamState, ...]]:
    """The search's beam after every frame, as BeamStates.

    The search is online: the beam after frame t is the final beam of a
    search over the first t frames.
    """
    rows = log_matrix(m.probs).tolist()
    states = []
    for t in range(1, len(rows) + 1):
        beams, trie = _search(rows[:t], m.n_tokens, width)
        states.append(
            tuple(
                BeamState(trie.label(node), float(np.exp(pb)), float(np.exp(pnb)),
                          _candidate(cb), _candidate(cnb))
                for _, node, (pb, pnb, cb, cnb, _) in beams
            )
        )
    return states


def assert_states_match(states: list, reference_states: list) -> None:
    """Per frame, the search's beam is the reference's without its zero-mass entries.

    The reference keeps zero-mass entries and zero-probability alignments;
    the search carries nothing of probability 0, so where the reference holds
    a zero-probability candidate the search holds None.
    """
    assert len(states) == len(reference_states)
    for got_frame, ref_frame in zip(states, reference_states):
        ref_frame = [s for s in ref_frame if s.p_b or s.p_nb]
        assert [(s.prefix, s.p_b, s.p_nb) for s in got_frame] == [
            (s.prefix, s.p_b, s.p_nb) for s in ref_frame
        ]
        for got, ref in zip(got_frame, ref_frame):
            for g, r in ((got.alignment_b, ref.alignment_b), (got.alignment_nb, ref.alignment_nb)):
                assert g == r or (g is None and r[1] == 0.0)


class TestGreedy:
    def test_worked_example(self, worked_matrix, worked_alphabet):
        top = greedy_decode(worked_matrix, worked_alphabet).top
        assert top.alignment == (E, E, 0, 0, 0, D, D, D)
        assert top.label == (E, D)
        assert top.probability == pytest.approx(top.alignment_probability)

    def test_one_hot_matrix(self, worked_alphabet):
        rows = np.zeros((4, 3))
        for t, tok in enumerate((E, 0, D, D)):
            rows[t, tok] = 1.0
        top = greedy_decode(ProbMatrix(rows), worked_alphabet).top
        assert top.alignment == (E, 0, D, D)
        assert top.probability == pytest.approx(1.0)

    def test_tied_frame_prefers_blank(self, worked_alphabet):
        m = ProbMatrix(np.array([[0.4, 0.4, 0.2]]))
        assert greedy_decode(m, worked_alphabet).top.alignment == (0,)

    def test_probability_is_alignment_product(self, worked_matrix, worked_alphabet):
        top = greedy_decode(worked_matrix, worked_alphabet).top
        product = float(np.prod([worked_matrix.probs[t, tok] for t, tok in enumerate(top.alignment)]))
        assert top.probability == pytest.approx(product, rel=1e-12)


class TestPrefixBeamSearch:
    def test_worked_example_beats_greedy(self, worked_matrix, worked_alphabet):
        ranked = prefix_beam_search(worked_matrix, worked_alphabet, 3)
        assert ranked[0][0] == (E, E, D)

    def test_beam_width_must_be_positive(self, worked_matrix, worked_alphabet):
        with pytest.raises(ParameterError):
            prefix_beam_search(worked_matrix, worked_alphabet, 0)

    def test_exhaustive_beam_is_exact(self, worked_matrix, worked_alphabet):
        ranked = prefix_beam_search(worked_matrix, worked_alphabet, EXHAUSTIVE)
        label, prob = ranked[0]
        assert prob == pytest.approx(
            prob_brute_force(worked_matrix, label, worked_alphabet), rel=1e-12
        )

    def test_ranking_descends(self, worked_matrix, worked_alphabet):
        ranked = prefix_beam_search(worked_matrix, worked_alphabet, 10)
        probs = [p for _, p in ranked]
        assert probs == sorted(probs, reverse=True)

    def test_top_probability_monotone_in_width(self, worked_alphabet):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = ProbMatrix(random_stochastic(rng, int(rng.integers(2, 9)), 3))
            prev = 0.0
            for k in (1, 2, 3, 8, 50):
                top_p = prefix_beam_search(m, worked_alphabet, k)[0][1]
                assert top_p >= prev - 1e-12
                prev = top_p

    def test_beam_one_equals_greedy_on_confident_frames(self, worked_alphabet):
        # mirrors how confident per-frame outputs behave; on flat matrices the
        # summed mass of a shorter label can legitimately win instead (see
        # test_flat_matrix_beam_one_outranks_greedy)
        rng = np.random.default_rng(101)
        for _ in range(150):
            n_frames = int(rng.integers(2, 17))
            n_tokens = int(rng.integers(2, 6))
            m = ProbMatrix(random_confident(rng, n_frames, n_tokens))
            ab = Alphabet(n_tokens)
            assert prefix_beam_search(m, ab, 1)[0][0] == greedy_decode(m, ab).top.label

    def test_flat_matrix_beam_one_outranks_greedy(self, worked_alphabet):
        # greedy follows the single most probable alignment [A,_,A] -> [A,A],
        # but the summed mass of [A] (0.714) dwarfs [A,A] (0.198), so a
        # width-1 beam keeps [A]; the two decoders genuinely differ here
        ab = Alphabet(2)
        m = ProbMatrix(np.array([[0.4, 0.6], [0.55, 0.45], [0.4, 0.6]]))
        assert greedy_decode(m, ab).top.label == (1, 1)
        (label, prob), *_ = prefix_beam_search(m, ab, 1)
        assert label == (1,)
        assert prob_brute_force(m, (1,), ab) == pytest.approx(0.714, abs=1e-12)
        assert prob_brute_force(m, (1, 1), ab) == pytest.approx(0.198, abs=1e-12)


class TestExtendedPrefixBeamSearch:
    def test_worked_example_alignment(self, worked_matrix, worked_alphabet):
        top = extended_prefix_beam_search(worked_matrix, worked_alphabet, 3).top
        assert top.label == (E, E, D)
        assert top.alignment == (E, E, 0, E, 0, D, D, D)
        assert top.alignment_probability == pytest.approx(0.00441, abs=1e-5)

    def test_matches_plain_search_probabilities(self, worked_alphabet):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n_tokens = int(rng.integers(2, 5))
            m = ProbMatrix(random_stochastic(rng, int(rng.integers(1, 10)), n_tokens))
            ab = Alphabet(n_tokens)
            for k in (1, 3, 7):
                plain = prefix_beam_search(m, ab, k)
                ext = extended_prefix_beam_search(m, ab, k)
                assert [lbl for lbl, _ in plain] == [h.label for h in ext.hypotheses]
                for (lbl, p), h in zip(plain, ext.hypotheses):
                    assert p == pytest.approx(h.probability, rel=1e-12)

    def test_every_alignment_collapses_to_its_label(self, worked_alphabet):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n_tokens = int(rng.integers(2, 5))
            ab = Alphabet(n_tokens)
            m = ProbMatrix(random_stochastic(rng, int(rng.integers(1, 12)), n_tokens))
            for hyp in extended_prefix_beam_search(m, ab, 5).hypotheses:
                assert collapse(hyp.alignment, ab) == hyp.label
                assert len(hyp.alignment) == m.frames

    def test_alignment_product_and_mass_bounds(self, worked_alphabet):
        rng = np.random.default_rng(9)
        for _ in range(30):
            m = ProbMatrix(random_stochastic(rng, int(rng.integers(1, 10)), 3))
            for hyp in extended_prefix_beam_search(m, worked_alphabet, 4).hypotheses:
                product = float(
                    np.prod([m.probs[t, tok] for t, tok in enumerate(hyp.alignment)])
                )
                assert hyp.alignment_probability == pytest.approx(product, rel=1e-9)
                assert hyp.alignment_probability <= hyp.probability + 1e-15
                assert hyp.probability <= 1.0 + 1e-12

    def test_exhaustive_matches_both_oracles(self, worked_alphabet):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n_frames = int(rng.integers(2, 9))
            n_tokens = int(rng.integers(2, 4))
            ab = Alphabet(n_tokens)
            m = ProbMatrix(random_stochastic(rng, n_frames, n_tokens))
            top = extended_prefix_beam_search(m, ab, EXHAUSTIVE).top
            table = brute_label_probs(m.probs)
            assert top.label == brute_argmax_label(table)
            assert top.probability == pytest.approx(table[top.label], rel=1e-9)
            oracle_alignment, oracle_prob = best_alignment_brute_force(m, top.label, ab)
            assert top.alignment == oracle_alignment
            assert top.alignment_probability == pytest.approx(oracle_prob, rel=1e-9)

    def test_beam_one_alignment_equals_greedy_on_confident_frames(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n_tokens = int(rng.integers(2, 5))
            ab = Alphabet(n_tokens)
            m = ProbMatrix(random_confident(rng, int(rng.integers(2, 14)), n_tokens))
            ext = extended_prefix_beam_search(m, ab, 1).top
            greedy = greedy_decode(m, ab).top
            assert ext.label == greedy.label
            assert ext.alignment == greedy.alignment

    def test_deterministic_across_runs(self, worked_alphabet):
        rng = np.random.default_rng(14)
        m = ProbMatrix(random_stochastic(rng, 12, 3))
        first = extended_prefix_beam_search(m, worked_alphabet, 4)
        second = extended_prefix_beam_search(m, worked_alphabet, 4)
        assert first == second


class TestBeamStateInvariants:
    def test_per_frame_state_consistency(self, worked_matrix, worked_alphabet):
        states = search_states(worked_matrix, 4)
        assert len(states) == worked_matrix.frames
        for frame_no, frame_states in enumerate(states, start=1):
            assert 1 <= len(frame_states) <= 4
            for bs in frame_states:
                if bs.alignment_b is not None:
                    alignment, prob = bs.alignment_b
                    assert len(alignment) == frame_no
                    assert alignment == () or alignment[-1] == 0
                    assert collapse(alignment, worked_alphabet) == bs.prefix
                    assert prob <= bs.p_b + 1e-15
                if bs.alignment_nb is not None:
                    alignment, prob = bs.alignment_nb
                    assert len(alignment) == frame_no
                    assert alignment[-1] != 0
                    assert collapse(alignment, worked_alphabet) == bs.prefix
                    assert prob <= bs.p_nb + 1e-15


STREAM_KINDS = ("uniform", "one-hot", "tenths", "random")


def _stream(kind: str, rng: np.random.Generator, n_frames: int, n_tokens: int) -> np.ndarray:
    """Flat, one-hot (log 0 = -inf) or tenths-rounded rows, which tie often; or random rows."""
    if kind == "uniform":
        return np.full((n_frames, n_tokens), 1.0 / n_tokens)
    if kind == "one-hot":
        rows = np.zeros((n_frames, n_tokens))
        rows[np.arange(n_frames), rng.integers(0, n_tokens, n_frames)] = 1.0
        return rows
    if kind == "tenths":
        return rng.multinomial(10, np.full(n_tokens, 1.0 / n_tokens), size=n_frames) / 10.0
    return random_stochastic(rng, n_frames, n_tokens)


def assert_forward_matches_reference(m: ProbMatrix, ab: Alphabet, result) -> None:
    """The forward pass gives each decoded label the frozen pass's bits."""
    for hyp in result.hypotheses:
        got = log_prob_forward(m, hyp.label, ab)
        assert got.hex() == reference_log_prob_forward(m, hyp.label).hex()


class TestMatchesReference:
    """The single core equals the frozen chain-walking decoders bit for bit,
    and the forward pass equals the frozen one on the same streams."""

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    @pytest.mark.parametrize("width", range(1, 11))
    def test_hypotheses_alignments_and_states(self, kind, width):
        rng = np.random.default_rng([width, STREAM_KINDS.index(kind)])
        for _ in range(12):
            n_tokens = int(rng.integers(2, 5))
            ab = Alphabet(n_tokens)
            m = ProbMatrix(_stream(kind, rng, int(rng.integers(1, 30)), n_tokens))
            reference_states = []
            got = extended_prefix_beam_search(m, ab, width)
            want = reference_extended_prefix_beam_search(
                m, ab, width, capture_states=reference_states
            )
            assert got == want
            assert_states_match(search_states(m, width), reference_states)
            assert prefix_beam_search(m, ab, width) == reference_prefix_beam_search(m, ab, width)
            assert_forward_matches_reference(m, ab, got)

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_long_streams(self, kind):
        rng = np.random.default_rng(STREAM_KINDS.index(kind))
        m = ProbMatrix(_stream(kind, rng, 300, 3))
        ab = Alphabet(3)
        for width in (1, 3):
            got = extended_prefix_beam_search(m, ab, width)
            assert got == reference_extended_prefix_beam_search(m, ab, width)
            assert prefix_beam_search(m, ab, width) == reference_prefix_beam_search(m, ab, width)
            assert_forward_matches_reference(m, ab, got)

    @pytest.mark.parametrize("kind", ("uniform", "tenths", "one-hot"))
    @pytest.mark.parametrize("width", (1, 3, 10))
    def test_long_tied_streams(self, kind, width):
        # uniform and tenths rows tie exactly while labels grow to hundreds
        # of tokens, so ties are decided deep in the trie; one-hot rows leave
        # most slots at zero mass, which the search drops without states
        rng = np.random.default_rng([width, STREAM_KINDS.index(kind), 800])
        m = ProbMatrix(_stream(kind, rng, 800, 3))
        ab = Alphabet(3)
        got = extended_prefix_beam_search(m, ab, width)
        assert got == reference_extended_prefix_beam_search(m, ab, width)
        assert prefix_beam_search(m, ab, width) == reference_prefix_beam_search(m, ab, width)
        assert_forward_matches_reference(m, ab, got)

    def test_pruned_prefix_comes_back_to_its_node(self):
        # width 2: [E, D] is kept at frame 1, pruned at frame 2 while its
        # extension [E, D, E] is kept, and extended into again at frame 3
        m = ProbMatrix(
            np.array([[0.4, 0.4, 0.2], [0.3, 0.3, 0.4], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7]])
        )
        ab = Alphabet(3)
        reference_states = []
        got = extended_prefix_beam_search(m, ab, 2)
        assert got == reference_extended_prefix_beam_search(
            m, ab, 2, capture_states=reference_states
        )
        states = search_states(m, 2)
        assert_states_match(states, reference_states)
        kept = [[s.prefix for s in frame] for frame in states]
        assert (E, D) in kept[1] and (E, D) not in kept[2] and (E, D, E) in kept[2]
        assert (E, D) in kept[3]
        _, trie = _search(log_matrix(m.probs).tolist(), ab.size, 2)
        labels = [trie.label(node) for node in range(len(trie.parent))]
        assert labels.count((E, D)) == 1
        assert len(set(labels)) == len(labels)


# Every search entry point takes its beam width through check_beam_width.
SEARCH_ENTRY_POINTS = {
    "extended_prefix_beam_search": extended_prefix_beam_search,
    "prefix_beam_search": prefix_beam_search,
    "detect_pipeline": lambda m, ab, width: detect_pipeline(m, WindowSpec(2, 1), ab, beam_width=width),
    "sweep_beam_width": lambda m, ab, width: sweep_beam_width(m, ab, [width]),
}


@pytest.mark.parametrize("search", list(SEARCH_ENTRY_POINTS.values()), ids=list(SEARCH_ENTRY_POINTS))
def test_beam_width_must_be_an_integer(worked_matrix, worked_alphabet, search):
    for width in (2.5, "3", 3.0):
        with pytest.raises(ParameterError, match=f"^beam width must be an integer, got {width!r}$"):
            search(worked_matrix, worked_alphabet, width)
    with pytest.raises(ParameterError, match="^beam width must be >= 1, got 0$"):
        search(worked_matrix, worked_alphabet, 0)
    # numpy integers are integers
    assert search(worked_matrix, worked_alphabet, np.int64(3)) == search(worked_matrix, worked_alphabet, 3)


def test_tie_keys_put_the_empty_prefix_first():
    # the empty prefix is edge 0, the root below itself by a blank; tied with
    # a child or a grandchild, it is the common ancestor and its key (0,)
    # sorts first. The batch's nodes, each window's root below node 0 by a
    # blank, give keys in the same order.
    trie = decode._Trie(3)
    child = trie.add(0 * 3 + D)  # (D,)
    grandchild = trie.add(child * 3 + E)  # (D, E)
    assert trie.tie_keys([child * 3 + E, 0 * 3 + D, 0]) == [(D, E), (D,), (0,)]
    assert trie.tie_keys([0, child * 3 + E]) == [(0,), (D, E)]
    assert trie.tie_keys([grandchild * 3 + D, 0]) == [(D, E, D), (0,)]
    nodes = lockstep._Nodes(1, 3)  # window 0's root is node 1
    (b_child,) = nodes.add(np.array([1]), np.array([D]))
    keys = nodes.tie_keys([int(b_child) * 3 + E, 1 * 3 + D, 0])
    assert sorted(range(3), key=keys.__getitem__) == [2, 1, 0]


def test_tie_keys_of_one_parent_are_the_edges():
    # an edge is parent * n_tokens + token, so siblings' edges sort like their
    # tokens, and the root's own edge 0 sorts before its children's: edges of
    # one parent are their own keys, in the order the walk gives them
    trie = decode._Trie(3)
    child = trie.add(0 * 3 + D)  # (D,)
    siblings, root_and_children = [child * 3 + E, child * 3 + D], [0 * 3 + E, 0, 0 * 3 + D]
    for edges, other in ((siblings, 0 * 3 + E), (root_and_children, child * 3 + E)):
        assert trie.tie_keys(edges) == edges
        # tied with an edge of another parent, they are walked: the same order
        walked = dict(zip(edges, trie.tie_keys(edges + [other])))
        assert sorted(edges) == sorted(edges, key=walked.get)
    nodes = lockstep._Nodes(1, 3)  # window 0's root is node 1
    assert nodes.tie_keys([1 * 3 + E, 1 * 3 + D]) == [1 * 3 + E, 1 * 3 + D]


@pytest.mark.parametrize("kind", STREAM_KINDS)
def test_trie_holds_at_most_frames_times_width_nodes(kind):
    rng = np.random.default_rng(STREAM_KINDS.index(kind))
    rows = _stream(kind, rng, 500, 4)
    for width in (1, 3, 10):
        _, trie = _search(log_matrix(rows).tolist(), 4, width)
        labels = [trie.label(node) for node in range(len(trie.parent))]
        # one node per prefix, allocated only for a prefix that was kept
        assert len(set(labels)) == len(labels)
        assert len(labels) - 1 <= 500 * width
        # the tie walk relies on ids growing down every path and a blank root
        assert all(trie.parent[i] < i for i in range(len(labels)))
        assert trie.token[0] == BLANK_ID


@pytest.mark.parametrize("width", (1, 3))
def test_candidates_built_for_kept_prefixes_alone(monkeypatch, width):
    # blank and repeat moves fill slots keyed by the beam's own edges; an
    # extension into any other prefix is a row (-mass, edge, parent slot),
    # and the prune makes a slot only for a row it keeps. Candidates
    # ([logp, order, cell]) are built after it for the kept slots only: a
    # dropped slot still holds its sources (slots of the frame before), a
    # dropped row leaves nothing, and only kept candidates are ranked
    frames = []
    prune = decode._prune

    def recorded(slots, rows, beam_width, trie):
        moves = list(rows)
        beams = prune(slots, rows, beam_width, trie)
        frames.append((slots, moves, beams))
        return beams

    monkeypatch.setattr(decode, "_prune", recorded)
    rows = _stream("random", np.random.default_rng(width), 200, 4)
    _search(log_matrix(rows).tolist(), 4, width)
    assert len(frames) == 200
    # each frame against the beam it starts from, the one kept the frame before
    for (_, _, before), (slots, moves, beams) in zip(frames, frames[1:]):
        kept = {edge: s for edge, _, s in beams}
        assert len(slots) + len(moves) > len(kept)
        assert set(slots) <= {edge for edge, _, _ in before}
        parents = {node: s for _, node, s in before}
        for _, edge, parent in moves:
            # the extended prefix's one parent; a child with a slot is merged
            assert parent is parents[edge // 4] and edge not in slots
        for edge, s in slots.items():
            size = 3 if edge in kept else 5
            assert all(field is None or len(field) == size for field in s[2:4])
        for edge, s in kept.items():
            assert all(field is None or len(field) == 3 for field in s[2:4])
        orders = sorted(c[1] for s in kept.values() for c in s[2:4] if c is not None)
        assert orders == list(range(0, 4 * len(orders), 4))


@pytest.mark.parametrize("kind", STREAM_KINDS)
@pytest.mark.parametrize("width", (1, 3, 10))
def test_plain_search_builds_no_candidates(monkeypatch, kind, width):
    # the plain search runs the core without candidates: the same ranked
    # labels and bits as the extended search, and final slots that hold no
    # sources, so no slot of an earlier frame stays reachable
    rng = np.random.default_rng([width, STREAM_KINDS.index(kind), 26])
    m, ab = ProbMatrix(_stream(kind, rng, 200, 4)), Alphabet(4)
    expected = extended_prefix_beam_search(m, ab, width).hypotheses
    finals, search = [], decode._search

    def recorded(*args, **kwargs):
        beams, trie = search(*args, **kwargs)
        finals.append(beams)
        return beams, trie

    def no_candidates(*args):
        raise AssertionError("an alignment candidate was built")

    monkeypatch.setattr(decode, "_search", recorded)
    monkeypatch.setattr(decode, "_candidates", no_candidates)
    got = prefix_beam_search(m, ab, width)
    want = [(h.label, h.probability.hex()) for h in expected]
    assert [(label, p.hex()) for label, p in got] == want
    assert len(finals) == 1 and finals[0]
    assert all(s[2] is None and s[3] is None for _, _, s in finals[0])


def test_pick_compares_after_the_move():
    # two sources one ulp apart are equal once moved by a token of log
    # probability -1e4, so the smaller order must win, as for any exact tie,
    # not the source that was the more probable before the move
    lower, higher = -1.0, -1.0 + 2.0**-52
    assert lower != higher and lower - 1e4 == higher - 1e4
    trie = decode._Trie(3)
    node = trie.add(1)  # the prefix (1,), a child of the root
    first = [lower, 0, (None, 1)]  # ordered first, less probable before the move
    own = [0.0, 0.0, [higher, 4, ((None, 1), 0)], first, 0.0]
    parent = [0.0, float("-inf"), [higher, 8, (None, 0)], None, 0.0]
    slot = [-1.0, -1.0, own, parent, 0.0]
    decode._candidates([(1, node, slot)], [-1e4] * 3, trie)
    # blank part: own entry's two candidates; non-blank part: own repeat and
    # the parent's blank-ending candidate
    assert slot[2] == [lower - 1e4, 0, (first[2], 0)]
    assert slot[3] == [lower - 1e4, 3, (first[2], 1)]


# ------------------------------------------------------------ batched windows


def assert_batch_matches_search(m: ProbMatrix, spec: WindowSpec, width: int) -> list:
    """Every window's top hypothesis from the batch is _search's, bit for bit.

    The batch is called directly, since search_windows searches fewer than
    _MIN_BATCH_WINDOWS windows one by one. Returns the per-window top
    hypotheses of _search and _hypothesis.
    """
    windows = slide_windows(m, spec)
    frames = windows[0][1].frames
    starts = np.array([start for start, _ in windows])
    alignments, labels, log_ps, align_log_ps = lockstep._search_share(m.probs, starts, frames, width)
    assert alignments.shape == (len(windows), frames)
    tops = []
    for i, (_, window) in enumerate(windows):
        beams, trie = _search(log_matrix(window.probs).tolist(), m.n_tokens, width)
        top = _hypothesis(beams[0], trie, Alphabet(m.n_tokens))
        assert labels[i] == top.label
        assert tuple(alignments[i].tolist()) == top.alignment
        assert float(log_ps[i]).hex() == top.log_probability.hex()
        assert float(align_log_ps[i]).hex() == top.alignment_log_probability.hex()
        tops.append(top)
    return tops


def _window_rows(kind: str, rng: np.random.Generator, frames: int, n_tokens: int) -> np.ndarray:
    if kind == "random":
        return random_stochastic(rng, frames, n_tokens)
    if kind == "tenths":
        return rng.multinomial(10, np.full(n_tokens, 1.0 / n_tokens), size=frames) / 10.0
    if kind == "uniform":
        return np.full((frames, n_tokens), 1.0 / n_tokens)
    return np.eye(n_tokens)[rng.integers(0, n_tokens, frames)]


def _use_cpus(monkeypatch, cpus: int | None) -> list:
    """Make search_windows see ``cpus`` usable CPUs (None: no affinity call)
    and no cgroup CPU quota, and count the forks it makes from this process."""
    monkeypatch.setattr(lockstep, "_quota_cpus", lambda: None)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _windows(n_windows: int, seed: int, kind: str = "random") -> tuple[np.ndarray, np.ndarray]:
    """Rows for ``n_windows`` windows of 8 frames at stride 4, and their starts."""
    rng = np.random.default_rng(seed)
    return _window_rows(kind, rng, 4 * n_windows + 4, 3), np.arange(0, 4 * n_windows, 4)


# the fewest windows search_windows splits in two
SPLIT = 2 * lockstep._MIN_SHARE_WINDOWS


def assert_same_windows(result, expected) -> None:
    """Two search_windows results hold the same alignments, labels and bits."""
    assert result[0].tolist() == expected[0].tolist() and result[1] == expected[1]
    for i in (2, 3):
        assert [x.hex() for x in result[i].tolist()] == [x.hex() for x in expected[i].tolist()]


# the tied-and-untied batch's top log-probabilities per window and its
# detections, pinned from the per-window search
MIXED_BATCH_LOG_PROBS = ["-0x1.30fb4573f8e88p+2"] * 9 + [
    "-0x1.27298cb477231p+2", "-0x1.ed1da2b5f5cb5p+1", "-0x1.bd772a3e32e39p+1",
    "-0x1.a88a7af406d7cp+1", "-0x1.18b895dd5104bp+1", "-0x1.4a3c3417eac6dp+1",
    "-0x1.b33c1d4eb68c1p+1", "-0x1.f467f37424646p+1", "-0x1.fa5244c4163d5p+1",
    "-0x1.212c6f481a97ep+2", "-0x1.040cb96a07168p+2", "-0x1.21b6da07e2fa3p+2",
]
MIXED_BATCH_DETECTIONS = [
    (1, 2), (2, 14), (2, 18), (2, 22), (2, 26), (2, 30), (2, 34), (2, 38), (2, 42), (2, 45),
    (1, 46), (2, 47), (1, 52), (1, 58), (2, 60), (1, 62), (2, 66), (1, 70), (2, 71), (2, 74),
    (1, 77), (2, 80), (1, 82), (2, 83), (2, 90), (1, 92), (2, 94), (1, 95),
]


class TestSearchWindows:
    @pytest.mark.parametrize("kind", ("random", "tenths", "uniform", "one-hot"))
    @pytest.mark.parametrize("width", (1, 2, 3, 10))
    def test_matches_search_on_every_window(self, kind, width):
        # tenths and uniform rows tie often or always, one-hot rows leave
        # most moves at log 0 and the rest at -inf
        rng = np.random.default_rng([width, len(kind)])
        # a last window anchored to the end, a recording shorter than its window
        geometries = [(25, WindowSpec(8, 5)), (5, WindowSpec(8, 4))]
        assert [s for s, _ in slide_windows(ProbMatrix(np.full((25, 2), 0.5), 1.0),
                                            geometries[0][1])] == [0, 5, 10, 15, 17]
        for _ in range(8):
            window = int(rng.integers(1, 20))
            spec = WindowSpec(window, int(rng.integers(1, window + 1)))
            geometries.append((int(rng.integers(1, 60)), spec))
        for frames, spec in geometries:
            for n_tokens in (2, 3, 4):
                m = ProbMatrix(_window_rows(kind, rng, frames, n_tokens), 10.0)
                assert_batch_matches_search(m, spec, width)
        # six tokens: extension rows come five to an entry, so that an entry
        # or token misread from a row's index shows
        for frames, spec in geometries:
            assert_batch_matches_search(ProbMatrix(_window_rows(kind, rng, frames, 6), 10.0),
                                        spec, width)
        # 512-frame windows of three tokens, as the pipeline's: masses fall
        # past -100 nats, which the short windows above never add
        assert_batch_matches_search(ProbMatrix(_window_rows(kind, rng, 1300, 3), 10.0),
                                    WindowSpec(512, 256), width)

    def test_windows_in_batches(self, monkeypatch):
        # a budget this small puts two windows in each batch, the last one alone
        monkeypatch.setattr(lockstep, "_BATCH_CELLS", 2 * 3 * (8 + 32 * 3))
        batches = []
        search_batch = lockstep._search_batch

        def recorded(probs, starts, frames, beam_width):
            batches.append(len(starts))
            return search_batch(probs, starts, frames, beam_width)

        monkeypatch.setattr(lockstep, "_search_batch", recorded)
        m = ProbMatrix(random_stochastic(np.random.default_rng(3), 37, 3), 10.0)
        assert_batch_matches_search(m, WindowSpec(8, 3), 3)
        assert batches == [2] * 5 + [1]

    @pytest.mark.parametrize("n_windows", (1, 63, 64, 70))
    def test_pipeline_batches_from_64_windows(self, monkeypatch, n_windows):
        # fewer windows are searched one by one, which is faster for them;
        # both paths give the per-window search's detections
        rng = np.random.default_rng(n_windows)
        m = ProbMatrix(random_stochastic(rng, 8 + 4 * (n_windows - 1), 3), 10.0)
        spec, ab = WindowSpec(8, 4), Alphabet(3)
        tops = assert_batch_matches_search(m, spec, 3)
        assert len(tops) == n_windows
        aligned = [(s, top.alignment) for (s, _), top in zip(slide_windows(m, spec), tops)]
        expected = eventize(majority_vote(aligned, m.frames, ab), m.sample_rate_hz)
        batched = []
        batch = lockstep._search_share

        def recorded(probs, starts, frames, beam_width):
            batched.append(len(starts))
            return batch(probs, starts, frames, beam_width)

        monkeypatch.setattr(lockstep, "_search_share", recorded)
        assert detect_pipeline(m, spec, ab, "extended-beam", 3) == expected
        assert batched == ([n_windows] if n_windows >= 64 else [])

    @pytest.mark.parametrize("n_windows", (1, lockstep._MIN_BATCH_WINDOWS - 1))
    @pytest.mark.parametrize("kind", ("random", "tenths", "uniform", "one-hot"))
    @pytest.mark.parametrize("width", (1, 3, 10))
    def test_one_by_one_matches_the_batch(self, monkeypatch, n_windows, kind, width):
        # below _MIN_BATCH_WINDOWS, search_windows searches each window alone
        probs, starts = _windows(n_windows, width, kind)
        batch = lockstep._search_share(probs, starts, 8, width)
        batched = []
        monkeypatch.setattr(lockstep, "_search_share", lambda *args: batched.append(args))
        alone = search_windows(probs, starts, 8, width)
        assert batched == []
        assert alone[0].shape == (n_windows, 8)
        # one alignment type on every path, the smallest that holds a token
        assert alone[0].dtype == batch[0].dtype == np.min_scalar_type(2)
        assert alone[0].tolist() == batch[0].tolist()
        assert alone[1] == batch[1]
        for i in (2, 3):
            assert [x.hex() for x in alone[i].tolist()] == [x.hex() for x in batch[i].tolist()]

    def test_batch_holds_nothing_sized_by_the_width(self):
        # a batch's arrays hold the rows its beams hold, so a width they
        # never reach costs no memory
        beams = lockstep._Lockstep(3, 3, 10**6)
        arrays = [value for held in (beams, beams.nodes) for value in vars(held).values()
                  if isinstance(value, np.ndarray)]
        assert arrays and max(array.size for array in arrays) <= 100

    def test_wide_beam_on_clean_windows(self):
        # one-hot rows keep one entry per beam: a width of a million searches
        # the batch as width 3 does, to the bit and the alignment type
        probs, starts = _windows(lockstep._MIN_BATCH_WINDOWS, 5, "one-hot")
        narrow = search_windows(probs, starts, 8, 3)
        wide = search_windows(probs, starts, 8, 10**6)
        assert wide[0].dtype == narrow[0].dtype
        assert_same_windows(wide, narrow)

    def test_package_import_leaves_the_batch_unloaded(self):
        # the pipeline imports the batch on its first beam decode, so that
        # importing the package, as every CLI command does, and a greedy
        # detection do not compile it; only a forked search needs signal, so a
        # beam detection of fewer windows loads neither it nor traceback
        code = (
            "import sys, numpy, ctcdetect, ctcdetect.cli\n"
            "print('ctcdetect.lockstep' in sys.modules)\n"
            "m = ctcdetect.ProbMatrix(numpy.full((40, 3), 1 / 3), 10.0)\n"
            "spec, ab = ctcdetect.WindowSpec(8, 4), ctcdetect.Alphabet(3)\n"
            "ctcdetect.detect_pipeline(m, spec, ab, 'greedy')\n"
            "print('ctcdetect.lockstep' in sys.modules)\n"
            "ctcdetect.detect_pipeline(m, spec, ab, 'extended-beam')\n"
            "print('ctcdetect.lockstep' in sys.modules)\n"
            "print('signal' in sys.modules, 'traceback' in sys.modules)\n"
        )
        src = str(Path(decode.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.split() == ["False", "False", "True", "False", "False"]

    def test_ten_minute_recording(self):
        # 64 Hz, 8 s windows at half stride: 149 windows of 512 frames
        rate, half = 64.0, 5 * 60 * 64
        ab = Alphabet(3)
        parts = []
        for seed, mode in enumerate(("spiky", "blocky")):
            rng = np.random.default_rng(seed)
            slots = np.arange(0, half, half // 20)
            apexes = slots + rng.integers(20, half // 20 - 20, size=slots.size)
            events = tuple(zip(rng.integers(1, 3, size=slots.size).tolist(), apexes.tolist()))
            script = SyntheticScript(half, events, mode=mode, noise_level=0.2, seed=seed)
            parts.append(gen_synthetic(script, ab, rate)[0].probs)
        m = ProbMatrix(np.concatenate(parts), rate)
        spec = WindowSpec.from_seconds(8.0, rate)
        tops = assert_batch_matches_search(m, spec, 3)
        assert len(tops) == 149

    def test_tied_and_untied_windows_in_one_batch(self, monkeypatch):
        # the first half ties on every frame, the second does not; windows
        # across the middle go from one to the other, so tied and untied
        # windows advance in the same frames. Rows holding exact 0.0 and 1.0
        # put -inf and 0.0 into the moves; any NaN raises a RuntimeWarning,
        # which the suite turns into an error
        with pytest.raises(RuntimeWarning):
            np.array([float("-inf")]) - np.array([float("-inf")])
        rng = np.random.default_rng(14)
        uniform = np.full((48, 3), 1.0 / 3.0)
        noisy = random_stochastic(rng, 48, 3)
        noisy[[4, 5, 11, 12, 20, 33, 34]] = [
            [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
            [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.25, 0.75, 0.0],
        ]
        m = ProbMatrix(np.concatenate((uniform, noisy)), 4.0)
        spec = WindowSpec(16, 4)
        walked = []
        order_ties = lockstep._Lockstep._order_ties

        def recorded(self, ranked, mass, node):
            walked.append(len(mass))
            order_ties(self, ranked, mass, node)

        monkeypatch.setattr(lockstep._Lockstep, "_order_ties", recorded)
        tops = assert_batch_matches_search(m, spec, 3)
        # the tie walk ran, in fewer than all window frames
        assert 0 < len(walked) < 21 * 16
        assert [top.log_probability.hex() for top in tops] == MIXED_BATCH_LOG_PROBS
        ab = Alphabet(3)
        aligned = [(s, top.alignment) for (s, _), top in zip(slide_windows(m, spec), tops)]
        expected = eventize(majority_vote(aligned, m.frames, ab), m.sample_rate_hz)
        detections = detect_pipeline(m, spec, ab, "extended-beam", 3)
        assert detections == expected
        assert [(d.class_id, d.frame) for d in detections] == MIXED_BATCH_DETECTIONS

    @pytest.mark.parametrize("cpus, n_shares, n_forks", ((2, 2, 1), (3, 2, 1)))
    @pytest.mark.parametrize("kind", ("random", "tenths"))
    def test_shares_match_one_share(self, monkeypatch, cpus, n_shares, n_forks, kind):
        # the windows go in two halves however many CPUs are usable: this
        # process searches the first, one forked worker the second
        n_windows = 3 * lockstep._MIN_SHARE_WINDOWS
        probs, starts = _windows(n_windows, cpus, kind)
        _use_cpus(monkeypatch, 1)
        one = search_windows(probs, starts, 8, 3)
        forks = _use_cpus(monkeypatch, cpus)
        searched, search_share = [], lockstep._search_share

        def recorded(probs, starts, frames, beam_width):
            searched.append(len(starts))  # in this process only, not the worker's copy
            return search_share(probs, starts, frames, beam_width)

        monkeypatch.setattr(lockstep, "_search_share", recorded)
        shared = search_windows(probs, starts, 8, 3)
        assert forks == [os.getpid()] * n_forks and searched == [n_windows // n_shares]
        assert_no_child_left()
        assert shared[0].dtype == one[0].dtype == np.min_scalar_type(2)
        assert shared[0].shape == (n_windows, 8)
        assert shared[0].tolist() == one[0].tolist()
        assert shared[1] == one[1]
        for i in (2, 3):
            assert [x.hex() for x in shared[i].tolist()] == [x.hex() for x in one[i].tolist()]

    @pytest.mark.parametrize(
        "cpus, n_windows, n_forks", ((2, SPLIT - 1, 0), (2, SPLIT, 1), (None, SPLIT, 0))
    )
    def test_shares_from_twice_the_share_minimum(self, monkeypatch, cpus, n_windows, n_forks):
        # no share holds fewer windows than _MIN_SHARE_WINDOWS, below which
        # two shares were not faster; without an affinity call there is one
        probs, starts = _windows(n_windows, n_windows)
        forks = _use_cpus(monkeypatch, cpus)
        alignments, *_ = search_windows(probs, starts, 8, 3)
        assert len(forks) == n_forks and len(alignments) == n_windows
        assert_no_child_left()

    @pytest.mark.parametrize("quota, n_forks", ((None, 1), (1.5, 0), (2.0, 1)))
    def test_cpu_quota_limits_the_shares(self, monkeypatch, quota, n_forks):
        # a quota of under two whole CPUs keeps the search in one process
        # whatever the affinity mask shows, and more CPUs fork no more workers
        probs, starts = _windows(SPLIT, 11)
        for cpus in (4, 64):
            forks = _use_cpus(monkeypatch, cpus)
            monkeypatch.setattr(lockstep, "_quota_cpus", lambda: quota)
            alignments, *_ = search_windows(probs, starts, 8, 3)
            assert len(forks) == n_forks and len(alignments) == SPLIT
            assert_no_child_left()

    @pytest.mark.parametrize(
        "files, quota",
        (
            ({}, None),
            ({"cpu.max": "max 100000\n"}, None),
            ({"cpu.max": "150000 100000\n"}, 1.5),
            ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
            ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2.0),
            ({"cpu/cpu.cfs_quota_us": "50000\n"}, None),
        ),
    )
    def test_cgroup_cpu_quota(self, tmp_path, files, quota):
        # cgroup v2 writes "quota period" or "max period" to cpu.max; v1
        # writes the quota, -1 for none, and the period to two files
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        assert lockstep._quota_cpus(tmp_path) == quota

    def test_failed_worker_raises_in_the_parent(self, monkeypatch):
        # the worker sends nothing, so this process searches its windows too,
        # and raises what one share raises
        parent, searched, search_batch = os.getpid(), [], lockstep._search_batch

        def failing(probs, starts, frames, beam_width):
            if os.getpid() == parent:
                searched.append(int(starts[0]))
            if starts[0] > 0:
                raise ValueError(f"no search from frame {starts[0]}")
            return search_batch(probs, starts, frames, beam_width)

        monkeypatch.setattr(lockstep, "_search_batch", failing)
        forks = _use_cpus(monkeypatch, 2)
        probs, starts = _windows(SPLIT, 5)
        second = 4 * lockstep._MIN_SHARE_WINDOWS
        with pytest.warns(RuntimeWarning, match=r"no whole result \(exit code 1\)"):
            with pytest.raises(ValueError, match=f"^no search from frame {second}$"):
                search_windows(probs, starts, 8, 3)
        assert len(forks) == 1 and searched == [0, second]
        assert_no_child_left()

    def test_dying_worker_costs_time_not_the_result(self, monkeypatch):
        # a worker that dies before it sends anything leaves its windows to
        # this process, which then gives what one share gives
        probs, starts = _windows(SPLIT, 5)
        _use_cpus(monkeypatch, 1)
        one = search_windows(probs, starts, 8, 3)
        forks = _use_cpus(monkeypatch, 2)
        parent, search_batch = os.getpid(), lockstep._search_batch

        def dying(probs, starts, frames, beam_width):
            if os.getpid() != parent:
                os._exit(3)
            return search_batch(probs, starts, frames, beam_width)

        monkeypatch.setattr(lockstep, "_search_batch", dying)
        with pytest.warns(RuntimeWarning, match=r"\(exit code 3\); this process searches its"):
            assert_same_windows(search_windows(probs, starts, 8, 3), one)
        assert len(forks) == 1
        assert_no_child_left()

    def test_worker_killed_while_sending_costs_time_not_the_result(self, monkeypatch):
        # a worker killed halfway through its result (say by the OOM killer)
        # leaves a pickle cut short, which this process does not load
        probs, starts = _windows(SPLIT, 9)
        _use_cpus(monkeypatch, 1)
        one = search_windows(probs, starts, 8, 3)
        forks = _use_cpus(monkeypatch, 2)
        parent, dump = os.getpid(), pickle.dump

        def cut_short(result, pipe):
            if os.getpid() == parent:
                return dump(result, pipe)
            data = pickle.dumps(result)
            pipe.write(data[: len(data) // 2])
            pipe.flush()
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(pickle, "dump", cut_short)
        with pytest.warns(RuntimeWarning, match=f"killed by signal {int(signal.SIGKILL)}"):
            assert_same_windows(search_windows(probs, starts, 8, 3), one)
        assert len(forks) == 1
        assert_no_child_left()

    def test_ignored_sigchld(self, monkeypatch):
        # while SIGCHLD is ignored the kernel reaps each worker itself, so
        # waitpid finds no child; the results, or the failures, still come
        probs, starts = _windows(SPLIT, 10)
        _use_cpus(monkeypatch, 1)
        one = search_windows(probs, starts, 8, 3)
        forks = _use_cpus(monkeypatch, 2)
        parent, search_batch = os.getpid(), lockstep._search_batch

        def dying(probs, starts, frames, beam_width):
            if os.getpid() != parent:
                os._exit(3)
            return search_batch(probs, starts, frames, beam_width)

        def failing_late(probs, starts, frames, beam_width):
            if os.getpid() != parent:
                os._exit(0)
            time.sleep(0.5)  # the worker has ended and been reaped by now
            raise ValueError("no search in the parent")

        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            shared = search_windows(probs, starts, 8, 3)
            monkeypatch.setattr(lockstep, "_search_batch", dying)
            with pytest.warns(RuntimeWarning, match="status unknown while SIGCHLD is ignored"):
                died = search_windows(probs, starts, 8, 3)
            monkeypatch.setattr(lockstep, "_search_batch", failing_late)
            with pytest.raises(ValueError, match="no search in the parent"):
                search_windows(probs, starts, 8, 3)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 3
        assert_no_child_left()
        assert_same_windows(shared, one)
        assert_same_windows(died, one)

    def test_healthy_worker_warns_nothing(self, monkeypatch):
        # the warning is for a lost share alone, not for every forked search
        probs, starts = _windows(SPLIT, 12)
        forks = _use_cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alignments, *_ = search_windows(probs, starts, 8, 3)
        assert len(forks) == 1 and len(alignments) == SPLIT
        assert_no_child_left()

    def test_failed_own_share_stops_the_workers(self, monkeypatch):
        # the worker would search for a minute; the parent's failure kills it
        search_batch = lockstep._search_batch

        def failing(probs, starts, frames, beam_width):
            if starts[0] == 0:
                raise ValueError("no search in the parent")
            time.sleep(60)
            return search_batch(probs, starts, frames, beam_width)

        monkeypatch.setattr(lockstep, "_search_batch", failing)
        forks = _use_cpus(monkeypatch, 2)
        probs, starts = _windows(SPLIT, 6)
        began = time.perf_counter()
        with pytest.raises(ValueError, match="no search in the parent"):
            search_windows(probs, starts, 8, 3)
        assert len(forks) == 1 and time.perf_counter() - began < 30
        assert_no_child_left()

    def test_fork_warning_of_a_threaded_process_is_ignored(self, monkeypatch):
        # Python 3.12 and later warn on fork when another thread runs, as
        # numpy's BLAS pool does; only that warning is silenced, only there
        fork = os.fork

        def warning_fork(message):
            def forked():
                warnings.warn(message, DeprecationWarning, stacklevel=2)
                return fork()

            return forked

        _use_cpus(monkeypatch, 3)
        probs, starts = _windows(SPLIT, 7)
        threads = (f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may "
                   "lead to deadlocks in the child.")
        monkeypatch.setattr(os, "fork", warning_fork(threads))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alignments, *_ = search_windows(probs, starts, 8, 3)
        assert len(alignments) == SPLIT
        assert_no_child_left()
        monkeypatch.setattr(os, "fork", warning_fork("fork is going away"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeprecationWarning, match="fork is going away"):
                search_windows(probs, starts, 8, 3)
        assert_no_child_left()
