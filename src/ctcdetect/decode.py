"""Decoders from per-frame token probabilities to label sequences.

greedy_decode()               -- per-frame argmax alignment, collapsed.
prefix_beam_search()          -- beam search over label prefixes, summing the
                                 probability mass of all alignments per prefix.
extended_prefix_beam_search() -- prefix beam search that additionally tracks,
                                 per prefix, the single most probable alignment
                                 ending in blank and in non-blank, so every
                                 decoded label comes with its best alignment
                                 (and hence event timings).

Both beam searches run on one core; prefix_beam_search runs it without
step 3 below, so it builds no alignment candidate.

Each beam entry keeps two probabilities: p_b, the mass of alignments for the
prefix that end in blank, and p_nb, the mass ending in the prefix's last
token. Each frame takes three steps:

1. Mass moves. Every surviving prefix is advanced three ways -- repeat the
   last token, append a blank, append a class token (which extends the
   prefix). Appending a token equal to the prefix's last one only draws on
   p_b: without a separating blank the repeat would collapse into the
   previous event rather than start a new one. Blank and repeat stay on the
   prefix and fill its own slot, keyed by the beam's own edge, which records
   the entry it came from. An extension into a prefix that has an own slot
   merges into it by summing, and the slot records the parent's entry. An
   extension into any other prefix is that prefix's only move, since one
   prefix has one parent, so it stays a row (-mass, edge, parent's slot):
   no slot, no map entry and no sum.
2. Prune. The beam_width best of the own slots and the rows by total mass
   are kept; a row gets its slot only when it is kept.
3. Candidates. The kept slots alone get their alignment candidates, built
   from the recorded sources; they never decide what is kept, nor its bits.

None of this can change a bit against summing every move into a slot of
its own prefix. A row's mass is its prefix's total: the blank part holds
nothing, and log(0 + e^v) is v exactly. A slot's blank part has one source,
its own entry; its non-blank part has at most two, its own repeat and its
parent's extension; and two log-probabilities add the same either way
round, so merge order is free. A prefix whose entry moved no mass has no
own slot, and its extension row is then its only move, as above. Among the
candidates competing for one part, no two share an order (see
Determinism), so the winner does not depend on the order they are compared
in either.

All mass bookkeeping is in natural-log space.

Prefix nodes: a prefix is a node of a trie built per decode, which stores
each node's parent and last token; node 0 is the empty prefix. A prefix is
also named by its edge, parent * n_tokens + token, the empty prefix by edge
0 as the root below itself by a blank (every other token is >= 1), and a
``children`` map takes an edge to its node. Slots and rows are keyed by
edge, so extending a prefix costs O(1) whatever the label length. Pruning
allocates a node only for a kept edge that has none, so the trie holds at
most frames x beam_width nodes beside the root, and a pruned prefix that
comes back finds its old node: one prefix is one node, so merges stay
exact. Label tuples are built only for returned hypotheses.

Nothing of probability 0 (log 0) is carried: a move by a token of
probability exactly 0 passes on neither mass nor an alignment, and a slot is
made only when mass reaches it. So a part of a slot holds an alignment
candidate exactly when it holds mass, and the beam only ever holds prefixes
with mass.

Alignment candidates: the best alignment ending in blank and the best ending
in non-blank are kept per entry as backpointer cells (parent cell, token), so
appending a frame is O(1). A cell is turned back into a token sequence only
for a returned hypothesis.

The search is online: the beam after frame t is the final beam of a search
over the first t frames.

Batched windows: lockstep runs this search over many windows at once.

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
from math import exp, log1p
from numbers import Integral
from operator import itemgetter

import numpy as np

from .core import BLANK_ID, Alphabet, ParameterError, ProbMatrix, TokenSeq, check_alphabet, collapse
from .logspace import NEG_INF, log_matrix

# A cell is (parent_cell | None, token). A candidate is [log_probability,
# order, cell]: while a frame is built, order is parent rank * n_tokens +
# token, which sorts like the alignments; after pruning it is reset to the
# candidate's own rank * n_tokens, ready to have the next token added. Slot
# layout per prefix: [log_pb, log_pnb, cand_b, cand_nb, log_total], the
# total being filled in by _prune. While a frame's mass moves, the two
# candidate fields hold the sources instead: the slot of the prefix's own
# entry and that of its parent's entry, each None if it moved no mass here.
# An extension row is (-log_mass, edge, parent's slot). A beam entry is
# (edge, node, slot).

_first, _order = itemgetter(0), itemgetter(1)


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


def check_beam_width(beam_width: int) -> int:
    """``beam_width`` if it is an integer >= 1, else ParameterError."""
    if not isinstance(beam_width, Integral):
        raise ParameterError(f"beam width must be an integer, got {beam_width!r}")
    if beam_width < 1:
        raise ParameterError(f"beam width must be >= 1, got {beam_width}")
    return beam_width


def _alignment(cell) -> TokenSeq:
    out = []
    while cell is not None:
        cell, token = cell
        out.append(token)
    out.reverse()
    return tuple(out)


class _Trie:
    """Prefix nodes of one decode: parent and last token by node id.

    A node is appended after its parent, so ids grow down every path. The
    root, node 0, is the empty prefix, below itself by a blank: edge 0.
    """

    def __init__(self, n_tokens: int) -> None:
        self.n_tokens = n_tokens
        # parents in an int array: no int object per entry; tokens are small
        # ints, which Python shares, and a list reads faster on the hot path
        self.parent = array("i", [-1])  # the root has no parent node to walk to
        self.token = [BLANK_ID]
        self.children = {0: 0}

    def add(self, edge: int) -> int:
        """Allocate the node for an edge that has none."""
        parent, token = divmod(edge, self.n_tokens)
        node = self.children[edge] = len(self.parent)
        self.parent.append(parent)
        self.token.append(token)
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
        n, parent, token = self.n_tokens, self.parent, self.token
        heads = {e // n for e in edges}
        tails = {head: [] for head in heads}
        front = {head: [head] for head in heads}  # ancestor -> heads below it
        while len(front) > 1:
            node = max(front)  # ids grow down paths: no front node's ancestor
            below = front.pop(node)
            for head in below:
                tails[head].append(token[node])
            front.setdefault(parent[node], []).extend(below)
        # the empty prefix's (0,) sorts first: every other key starts with a class
        return [tuple(reversed(tails[e // n])) + (e % n,) for e in edges]


def _prune(slots: dict, rows: list, beam_width: int, trie: _Trie) -> list:
    """Keep the beam_width best of the own slots and the extension rows by mass.

    ``rows`` holds (-mass, edge, parent slot) for every extension into a
    prefix without an own slot; the own slots are added to it as (-total,
    edge, slot). Rows are ordered by mass descending, then prefix ascending; the
    kept ones are returned in that order as (edge, node, slot), an extension
    row getting its slot only here.
    """
    for edge, s in slots.items():
        # log(e^p_b + e^p_nb), inline: the higher part, then the lower's share
        hi, lo = s[0], s[1]
        if hi < lo:
            hi, lo = lo, hi
        rows.append((-hi if lo == NEG_INF else -(hi + log1p(exp(lo - hi))), edge, s))
    rows.sort(key=_first)
    n_kept = min(len(rows), beam_width)
    head = rows[: n_kept + 1]
    if len(set(map(_first, head))) < len(head):
        _order_tied(rows, n_kept, trie)
    children = trie.children
    beams = []
    for neg_tot, edge, s in rows[:n_kept]:
        tot = -neg_tot
        if edge in slots:
            s[4] = tot
        else:
            s = [NEG_INF, tot, None, s, tot]
        node = children.get(edge)
        beams.append((edge, trie.add(edge) if node is None else node, s))
    return beams


def _order_tied(rows: list, n_kept: int, trie: _Trie) -> None:
    """Put the runs of exactly equal totals that reach the first ``n_kept`` of
    ``rows``, (total, edge, ...) tuples sorted by total, in prefix order."""
    i = 0
    while i < n_kept:
        j = i + 1
        while j < len(rows) and rows[j][0] == rows[i][0]:
            j += 1
        if j - i > 1:
            run = rows[i:j]
            keys = trie.tie_keys([r[1] for r in run])
            rows[i:j] = [r for _, r in sorted(zip(keys, run), key=_first)]
        i = j


def _candidates(beams: list, lp: list, trie: _Trie) -> None:
    """Build the alignment candidates of the kept slots, then rank them.

    A kept slot's two source fields are replaced by its blank-ending and
    non-blank-ending candidates; a part holds one exactly when it holds mass.
    Of a part's sources, the one that is more probable once moved by the
    part's token wins; equal log-probabilities go to the lexicographically
    smaller alignment, which is the smaller order. Each candidate's order is
    then reset to its rank among all kept candidates times n_tokens.
    """
    n, last_token = trie.n_tokens, trie.token
    lp_blank = lp[BLANK_ID]
    cands = []
    for edge, _, s in beams:
        pb, pnb, own, parent, _ = s
        cb = cnb = None
        if pb != NEG_INF:
            # the blank part's one source: this prefix's entry, either part.
            # The part holds mass, so lp_blank is finite and any source
            # beats v = -inf.
            src = own[2]
            v = NEG_INF if src is None else src[0] + lp_blank
            alt = own[3]
            if alt is not None:
                w = alt[0] + lp_blank
                if w > v or w == v and alt[1] < src[1]:
                    src, v = alt, w
            cb = [v, src[1] + BLANK_ID, (src[2], BLANK_ID)]
            cands.append(cb)
        if pnb != NEG_INF:
            # at most two sources: this prefix's repeat and its parent's
            # extension, which draws on the parent's blank-ending alignment
            # alone when the token repeats the parent's last one
            token = edge % n
            lp_token = lp[token]
            src = None if own is None else own[3]
            v = NEG_INF if src is None else src[0] + lp_token
            if parent is not None:
                alt = parent[2]
                if alt is not None:
                    w = alt[0] + lp_token
                    if w > v or w == v and alt[1] < src[1]:
                        src, v = alt, w
                alt = parent[3]
                if alt is not None and last_token[edge // n] != token:
                    w = alt[0] + lp_token
                    if w > v or w == v and alt[1] < src[1]:
                        src, v = alt, w
            cnb = [v, src[1] + token, (src[2], token)]
            cands.append(cnb)
        s[2], s[3] = cb, cnb
    cands.sort(key=_order)
    for rank, c in enumerate(cands):
        c[1] = rank * n


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
    ranking and probabilities are those of extended_prefix_beam_search,
    found without building a single alignment.
    """
    check_beam_width(beam_width)
    check_alphabet(m, alphabet)
    log_rows = log_matrix(m.probs).tolist()
    beams, trie = _search(log_rows, alphabet.size, beam_width, alignments=False)
    return [(trie.label(node), float(np.exp(s[4]))) for _, node, s in beams]


def extended_prefix_beam_search(
    m: ProbMatrix, alphabet: Alphabet, beam_width: int
) -> DecodeResult:
    """Prefix beam search that also recovers the best alignment per label.

    Each beam entry carries, beside its mass, the single most probable
    alignment ending in blank and ending in non-blank; at each frame they are
    built for the kept entries alone, from the same repeat / blank / extend
    moves as the mass, one winner per part. The returned alignment for a
    hypothesis is the better of its two candidates.
    """
    check_beam_width(beam_width)
    check_alphabet(m, alphabet)
    beams, trie = _search(log_matrix(m.probs).tolist(), alphabet.size, beam_width)
    return DecodeResult(tuple(_hypothesis(beam, trie, alphabet) for beam in beams))


def _hypothesis(beam: tuple, trie: _Trie, alphabet: Alphabet) -> Hypothesis:
    """The Hypothesis of one final (edge, node, slot) beam entry."""
    _, node, (_, _, cb, cnb, tot) = beam
    # every kept prefix has mass, so it has a candidate for the part that
    # holds it; the better of the two wins, equal ones go to the smaller order
    logp_align, _, cell = max(
        (c for c in (cb, cnb) if c is not None), key=lambda c: (c[0], -c[1])
    )
    alignment = _alignment(cell)
    label = trie.label(node)
    assert collapse(alignment, alphabet) == label
    return Hypothesis(
        label=label,
        probability=float(np.exp(tot)),
        log_probability=tot,
        alignment=alignment,
        alignment_probability=float(np.exp(logp_align)),
        alignment_log_probability=logp_align,
    )


def _search(log_rows: list, n_tokens: int, beam_width: int, alignments=True) -> tuple[list, _Trie]:
    """Run the beam over ``log_rows``; the final (edge, node, slot) beams and the trie.

    Each frame moves mass into the beam's own slots and into extension rows,
    keyed by edge, so extending a prefix needs no trie lookup; _prune keeps
    the best and turns their edges into nodes, and _candidates builds the
    kept slots' alignment candidates, unless ``alignments`` is false.
    """
    trie = _Trie(n_tokens)
    last_token = trie.token
    tokens = range(1, n_tokens)

    beams = [(0, 0, [0.0, NEG_INF, [0.0, 0, None], None, 0.0])]
    for lp in log_rows:
        lp_blank = lp[BLANK_ID]
        # blank and repeat stay on the prefix; the root (token blank) has no
        # non-blank mass, so its repeat moves nothing
        slots: dict[int, list] = {}
        for edge, node, s in beams:
            b = s[4] + lp_blank
            r = s[1] + lp[last_token[node]]
            if b != NEG_INF or r != NEG_INF:
                slots[edge] = [b, r, s, None, NEG_INF]
        rows = []
        for _, node, s in beams:
            pb, _, _, _, tot = s
            last = last_token[node]
            base = node * n_tokens  # a child's edge is base + its token
            for c in tokens:
                # extending with the last token again: only blank-ending mass
                # can start the new event
                v = (pb if c == last else tot) + lp[c]
                if v != NEG_INF:
                    child = base + c
                    into = slots.get(child)
                    if into is None:
                        # the child's only move: one prefix has one parent
                        rows.append((-v, child, s))
                    else:
                        # log(e^into[1] + e^v), inline
                        p = into[1]
                        if p == NEG_INF:
                            into[1] = v
                        elif p < v:
                            into[1] = v + log1p(exp(p - v))
                        else:
                            into[1] = p + log1p(exp(v - p))
                        into[3] = s
        beams = _prune(slots, rows, beam_width, trie)
        if alignments:
            _candidates(beams, lp, trie)
        else:  # no candidates: drop the sources, or every frame's slots stay reachable
            for _, _, s in beams:
                s[2] = s[3] = None
    return beams, trie
