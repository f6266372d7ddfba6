"""Decoders from per-frame token probabilities to label sequences.

greedy_decode()               -- per-frame argmax alignment, collapsed.
prefix_beam_search()          -- beam search over label prefixes, summing the
                                 probability mass of all alignments per prefix.
extended_prefix_beam_search() -- prefix beam search that additionally tracks,
                                 per prefix, the single most probable alignment
                                 ending in blank and in non-blank, so every
                                 decoded label comes with its best alignment
                                 (and hence event timings).

Both beam searches run on one core; prefix_beam_search is a view of the
extended search's hypotheses.

Each beam entry keeps two probabilities: p_b, the mass of alignments for the
prefix that end in blank, and p_nb, the mass ending in the prefix's last
token. Per frame each surviving prefix is advanced three ways -- repeat the
last token, append a blank, append a class token (which extends the prefix) --
and entries landing on the same prefix merge by summing. Appending a token
equal to the prefix's last one only draws on p_b: without a separating blank
the repeat would collapse into the previous event rather than start a new one.

All mass bookkeeping is in natural-log space.

Prefix nodes: a prefix is a node of a trie built per decode, which stores
each node's parent, last token and depth; node 0 is the empty prefix. A
prefix is also named by its edge, parent * n_tokens + token (-1 for the empty
prefix), and a ``children`` map takes an edge to its node. Slots are keyed by
edge, so extending a prefix costs O(1) whatever the label length. Pruning
allocates a node only for a kept edge that has none, so the trie holds at
most frames x beam_width nodes beside the root, and a pruned prefix that
comes back finds its old node: one prefix is one node, so merges stay exact.
Label tuples are built only for returned hypotheses.

Nothing of probability 0 (log 0) is carried: a move by a token of
probability exactly 0 passes on neither mass nor an alignment, so a part of
a slot holds an alignment candidate exactly when it holds mass, and pruning
drops zero-mass slots. The beam only ever holds prefixes with mass.

Alignment candidates: the best alignment ending in blank and the best ending
in non-blank are kept per entry as backpointer cells (parent cell, token), so
appending a frame is O(1). A cell is turned back into a token sequence only
for a returned hypothesis.

The search is online: the beam after frame t is the final beam of a search
over the first t frames.

Determinism: beams are pruned by total mass with ties broken toward the
lexicographically smaller prefix; alignment candidates tie-break toward the
lexicographically smaller alignment. Prefixes of exactly equal mass that
reach the kept part of the beam are ordered by walking their nodes up to the
deepest common ancestor: no step for siblings, one for a prefix and its
extension, in general the distance to that ancestor, never more than the
label length. Alignments compare in O(1) through a per-frame rank: after
each frame is pruned, the surviving candidates are sorted by (rank of their
parent cell, token) and ranked 0, 1, ... in that order. Every candidate alive
at frame t spans t + 1 frames and no two are the same sequence, so for them
lexicographic order is exactly the order of their parents and then their
last token.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .core import BLANK_ID, Alphabet, ParameterError, ProbMatrix, TokenSeq, check_alphabet, collapse
from .logspace import NEG_INF, log_add, log_matrix

# A cell is (parent_cell | None, token). A candidate is [log_probability,
# order, cell]: while a frame is built, order is parent rank * n_tokens +
# token, which sorts like the alignments; after pruning it is reset to the
# candidate's own rank * n_tokens, ready to have the next token added. Slot
# layout per prefix: [log_pb, log_pnb, cand_b, cand_nb, log_total], the
# total being filled in by _prune. A beam entry is (edge, node, slot).


@dataclass(frozen=True)
class Hypothesis:
    """One decoded label with its mass and its best single alignment."""

    label: TokenSeq
    probability: float
    log_probability: float
    alignment: TokenSeq
    alignment_probability: float
    alignment_log_probability: float


@dataclass(frozen=True)
class DecodeResult:
    hypotheses: tuple[Hypothesis, ...]

    @property
    def top(self) -> Hypothesis:
        return self.hypotheses[0]


def check_beam_width(beam_width: int) -> None:
    """Raise ParameterError unless the beam keeps at least one prefix."""
    if beam_width < 1:
        raise ParameterError(f"beam width must be >= 1, got {beam_width}")


def _alignment(cell) -> TokenSeq:
    out = []
    while cell is not None:
        cell, token = cell
        out.append(token)
    out.reverse()
    return tuple(out)


class _Trie:
    """Prefix nodes of one decode: parent, last token and depth by node id."""

    def __init__(self, n_tokens: int) -> None:
        self.n_tokens = n_tokens
        # int arrays rather than lists: no int object per entry
        self.parent = array("i", [-1])
        self.token = array("i", [-1])
        self.depth = array("i", [0])
        self.children = {-1: 0}

    def add(self, edge: int) -> int:
        """Allocate the node for an edge that has none."""
        parent, token = divmod(edge, self.n_tokens)
        node = self.children[edge] = len(self.parent)
        self.parent.append(parent)
        self.token.append(token)
        self.depth.append(self.depth[parent] + 1)
        return node

    def label(self, node: int) -> TokenSeq:
        out = []
        while node:
            out.append(self.token[node])
            node = self.parent[node]
        out.reverse()
        return tuple(out)

    def tie_keys(self, edges: list[int]) -> list[TokenSeq]:
        """Sort keys for the distinct prefixes that ``edges`` name.

        Each key is the prefix's tokens below the deepest ancestor common to
        all of them, so the keys sort exactly like the prefixes. Only the
        parents are walked, each up to that ancestor and each step once.
        """
        n, parent, token, depth = self.n_tokens, self.parent, self.token, self.depth
        heads = {e // n if e >= 0 else 0 for e in edges}
        tails = {head: [] for head in heads}
        front = {head: [head] for head in heads}  # ancestor -> heads below it
        while len(front) > 1:
            node = max(front, key=depth.__getitem__)
            below = front.pop(node)
            for head in below:
                tails[head].append(token[node])
            front.setdefault(parent[node], []).extend(below)
        # the empty prefix, when tied, makes the root the common ancestor
        return [tuple(reversed(tails[e // n])) + (e % n,) if e >= 0 else () for e in edges]


def _advance(
    slot: list, end: int, mass: float, cands: tuple, token: int, lp_token: float
) -> None:
    """Move mass and alignment candidates one frame into ``slot`` by ``token``.

    ``end`` is 0 for the blank-ending part of the slot and 1 for the
    non-blank-ending part. The more probable candidate wins; equal
    log-probabilities go to the lexicographically smaller alignment, which is
    the smaller order. Nothing moves at probability 0, so a part of a slot
    holds a candidate exactly when it holds mass.
    """
    v = mass + lp_token
    if v == NEG_INF:
        return
    cur = slot[end]
    slot[end] = v if cur == NEG_INF else log_add(cur, v)
    best = slot[end + 2]
    for cand in cands:
        if cand is not None:
            logp = cand[0] + lp_token
            if best is None or logp > best[0] or (logp == best[0] and cand[1] + token < best[1]):
                best = [logp, cand[1] + token, (cand[2], token)]
    slot[end + 2] = best


def _prune(slots: dict, beam_width: int, trie: _Trie) -> list:
    """Keep the beam_width best slots with mass and rank their alignment candidates.

    Slots are ordered by total mass descending, then prefix ascending; the
    kept ones are returned in that order as (edge, node, slot). Zero-mass
    slots are dropped. Each kept candidate's order is reset to its rank
    among all kept candidates times n_tokens.
    """
    rows = []
    for edge, s in slots.items():
        s[4] = tot = log_add(s[0], s[1])
        if tot != NEG_INF:
            rows.append((-tot, edge, s))
    rows.sort(key=itemgetter(0))
    n_kept = min(len(rows), beam_width)
    head = [r[0] for r in rows[: n_kept + 1]]
    if len(set(head)) < len(head):
        # exactly equal totals that reach the kept part go in prefix order
        i = 0
        while i < n_kept:
            j = i + 1
            while j < len(rows) and rows[j][0] == rows[i][0]:
                j += 1
            if j - i > 1:
                run = rows[i:j]
                keys = trie.tie_keys([r[1] for r in run])
                rows[i:j] = [r for _, r in sorted(zip(keys, run), key=itemgetter(0))]
            i = j
    beams = []
    cands = []
    children = trie.children
    for _, edge, s in rows[:n_kept]:
        node = children.get(edge)
        beams.append((edge, trie.add(edge) if node is None else node, s))
        if s[2] is not None:
            cands.append(s[2])
        if s[3] is not None:
            cands.append(s[3])
    cands.sort(key=itemgetter(1))
    order, step = 0, trie.n_tokens
    for c in cands:
        c[1] = order
        order += step
    return beams


def greedy_decode(m: ProbMatrix, alphabet: Alphabet) -> DecodeResult:
    """Decode by taking the most probable token at every frame.

    Per-frame ties go to the lowest token index, so blank wins a tied frame.
    The reported total probability is the alignment's own product; greedy
    considers exactly one alignment.
    """
    check_alphabet(m, alphabet)
    picks = np.argmax(m.probs, axis=1)
    alignment = tuple(int(t) for t in picks)
    log_p = float(log_matrix(m.probs)[np.arange(m.frames), picks].sum())
    label = collapse(alignment, alphabet)
    p = float(np.exp(log_p))
    hyp = Hypothesis(label, p, log_p, alignment, p, log_p)
    return DecodeResult((hyp,))


def prefix_beam_search(
    m: ProbMatrix, alphabet: Alphabet, beam_width: int
) -> list[tuple[TokenSeq, float]]:
    """Beam search over label prefixes; returns ranked (label, probability).

    Probabilities are the summed mass of every alignment of the label that
    survived pruning; with a beam wide enough that nothing is ever pruned they
    are exact. Zero-mass prefixes are dropped from the result. Labels,
    ranking and probabilities are those of extended_prefix_beam_search.
    """
    result = extended_prefix_beam_search(m, alphabet, beam_width)
    return [(h.label, h.probability) for h in result.hypotheses]


def extended_prefix_beam_search(
    m: ProbMatrix, alphabet: Alphabet, beam_width: int
) -> DecodeResult:
    """Prefix beam search that also recovers the best alignment per label.

    Each beam entry carries, beside its mass, the single most probable
    alignment ending in blank and ending in non-blank; they advance through
    the same repeat / blank / extend cases as the mass and are resolved to one
    winner per entry at each frame. The returned alignment for a hypothesis is
    the better of its two candidates.
    """
    check_beam_width(beam_width)
    check_alphabet(m, alphabet)
    beams, trie = _search(log_matrix(m.probs).tolist(), alphabet.size, beam_width)
    hypotheses = []
    for _, node, (pb, pnb, cb, cnb, tot) in beams:
        # every kept prefix has mass, so it has a candidate for the part that
        # holds it; the better of the two wins, equal ones go to the smaller order
        logp_align, _, cell = max(
            (c for c in (cb, cnb) if c is not None), key=lambda c: (c[0], -c[1])
        )
        alignment = _alignment(cell)
        label = trie.label(node)
        assert collapse(alignment, alphabet) == label
        hypotheses.append(
            Hypothesis(
                label=label,
                probability=float(np.exp(tot)),
                log_probability=tot,
                alignment=alignment,
                alignment_probability=float(np.exp(logp_align)),
                alignment_log_probability=logp_align,
            )
        )
    return DecodeResult(tuple(hypotheses))


def _search(log_rows: list, n_tokens: int, beam_width: int) -> tuple[list, _Trie]:
    """Run the beam over ``log_rows``; the final (edge, node, slot) beams and the trie.

    Slots are keyed by edge, so extending a prefix needs no trie lookup;
    _prune turns the kept edges into nodes.
    """
    trie = _Trie(n_tokens)
    last_token = trie.token
    advance, NEG = _advance, NEG_INF

    beams = [(-1, 0, [0.0, NEG, [0.0, 0, None], None, 0.0])]
    for lp in log_rows:
        lp_blank = lp[BLANK_ID]
        slots: dict[int, list] = {}
        for edge, node, (pb, pnb, cb, cnb, tot) in beams:
            both = (cb, cnb)
            s = slots.get(edge)
            if s is None:
                slots[edge] = s = [NEG, NEG, None, None, NEG]
            last = last_token[node]
            if node:
                advance(s, 1, pnb, (cnb,), last, lp[last])
            advance(s, 0, tot, both, BLANK_ID, lp_blank)
            child = node * n_tokens
            for c in range(1, n_tokens):
                child += 1
                s2 = slots.get(child)
                if s2 is None:
                    slots[child] = s2 = [NEG, NEG, None, None, NEG]
                if c == last:
                    # extending with the last token again: only blank-ending
                    # mass (and its candidate) can start the new event
                    advance(s2, 1, pb, (cb,), c, lp[c])
                else:
                    advance(s2, 1, tot, both, c, lp[c])
        beams = _prune(slots, beam_width, trie)
    return beams, trie
