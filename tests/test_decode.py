import numpy as np
import pytest

from ctcdetect import (
    BLANK_ID,
    Alphabet,
    ParameterError,
    ProbMatrix,
    best_alignment_brute_force,
    collapse,
    extended_prefix_beam_search,
    greedy_decode,
    prefix_beam_search,
    prob_brute_force,
)
from ctcdetect import decode
from ctcdetect.decode import _alignment, _search
from ctcdetect.logspace import log_matrix

from conftest import D, E
from oracles import (
    BeamState,
    brute_argmax_label,
    brute_label_probs,
    random_confident,
    random_stochastic,
    reference_extended_prefix_beam_search,
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


class TestMatchesReference:
    """The single core equals the frozen chain-walking decoders bit for bit."""

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

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_long_streams(self, kind):
        rng = np.random.default_rng(STREAM_KINDS.index(kind))
        m = ProbMatrix(_stream(kind, rng, 300, 3))
        ab = Alphabet(3)
        for width in (1, 3):
            got = extended_prefix_beam_search(m, ab, width)
            assert got == reference_extended_prefix_beam_search(m, ab, width)
            assert prefix_beam_search(m, ab, width) == reference_prefix_beam_search(m, ab, width)

    @pytest.mark.parametrize("kind", ("uniform", "tenths", "one-hot"))
    @pytest.mark.parametrize("width", (1, 3, 10))
    def test_long_tied_streams(self, kind, width):
        # uniform and tenths rows tie exactly while labels grow to hundreds
        # of tokens, so ties are decided deep in the trie; one-hot rows leave
        # most slots at zero mass, which the search drops without states
        rng = np.random.default_rng([width, STREAM_KINDS.index(kind), 800])
        m = ProbMatrix(_stream(kind, rng, 800, 3))
        ab = Alphabet(3)
        assert extended_prefix_beam_search(m, ab, width) == reference_extended_prefix_beam_search(
            m, ab, width
        )
        assert prefix_beam_search(m, ab, width) == reference_prefix_beam_search(m, ab, width)

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
