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
token. Each frame takes three steps:

1. Mass moves. Every surviving prefix is advanced three ways -- repeat the
   last token, append a blank, append a class token (which extends the
   prefix) -- and moves landing on the same prefix merge by summing into one
   slot. Appending a token equal to the prefix's last one only draws on p_b:
   without a separating blank the repeat would collapse into the previous
   event rather than start a new one. A slot records where its mass came
   from: its own entry (blank and repeat) and its parent's (extension).
2. Prune. The beam_width slots of highest total mass are kept.
3. Candidates. The kept slots alone get their alignment candidates, built
   from the recorded sources; the candidates never decide what is kept.

The merge order of step 1 cannot change a bit: a slot's blank part has one
source, its own entry; its non-blank part has at most two, its own repeat
and its parent's extension, since one prefix has one parent; and two
log-probabilities add the same either way round. Among the candidates
competing for one part, no two share an order (see Determinism), so the
winner does not depend on the order they are compared in either.

All mass bookkeeping is in natural-log space.

Prefix nodes: a prefix is a node of a trie built per decode, which stores
each node's parent and last token; node 0 is the empty prefix. A prefix is
also named by its edge, parent * n_tokens + token (-1 for the empty prefix),
and a ``children`` map takes an edge to its node. Slots are keyed by edge, so
extending a prefix costs O(1) whatever the label length. Pruning allocates a
node only for a kept edge that has none, so the trie holds at most frames x
beam_width nodes beside the root, and a pruned prefix that comes back finds
its old node: one prefix is one node, so merges stay exact. Label tuples are
built only for returned hypotheses.

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
# total being filled in by _prune. While a frame's mass moves, the two
# candidate fields hold the sources instead: the slot of the prefix's own
# entry and that of its parent's entry, each None if it moved no mass here.
# A beam entry is (edge, node, slot).


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
    """Prefix nodes of one decode: parent and last token by node id.

    A node is appended after its parent, so ids grow down every path. The
    root, node 0, is the empty prefix; its token is the blank.
    """

    def __init__(self, n_tokens: int) -> None:
        self.n_tokens = n_tokens
        # parents in an int array: no int object per entry; tokens are small
        # ints, which Python shares, and a list reads faster on the hot path
        self.parent = array("i", [-1])
        self.token = [BLANK_ID]
        self.children = {-1: 0}

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
        heads = {e // n if e >= 0 else 0 for e in edges}
        tails = {head: [] for head in heads}
        front = {head: [head] for head in heads}  # ancestor -> heads below it
        while len(front) > 1:
            node = max(front)  # ids grow down paths: no front node's ancestor
            below = front.pop(node)
            for head in below:
                tails[head].append(token[node])
            front.setdefault(parent[node], []).extend(below)
        # the empty prefix, when tied, makes the root the common ancestor
        return [tuple(reversed(tails[e // n])) + (e % n,) if e >= 0 else () for e in edges]


def _prune(slots: dict, beam_width: int, trie: _Trie) -> list:
    """Keep the beam_width best slots by mass.

    Slots are ordered by total mass descending, then prefix ascending; the
    kept ones are returned in that order as (edge, node, slot).
    """
    first = itemgetter(0)
    rows = [(-log_add(s[0], s[1]), edge, s) for edge, s in slots.items()]
    rows.sort(key=first)
    n_kept = min(len(rows), beam_width)
    head = rows[: n_kept + 1]
    if len(set(map(first, head))) < len(head):
        # exactly equal totals that reach the kept part go in prefix order
        i = 0
        while i < n_kept:
            j = i + 1
            while j < len(rows) and rows[j][0] == rows[i][0]:
                j += 1
            if j - i > 1:
                run = rows[i:j]
                keys = trie.tie_keys([r[1] for r in run])
                rows[i:j] = [r for _, r in sorted(zip(keys, run), key=first)]
            i = j
    children = trie.children
    beams = []
    for neg_tot, edge, s in rows[:n_kept]:
        s[4] = -neg_tot
        node = children.get(edge)
        beams.append((edge, trie.add(edge) if node is None else node, s))
    return beams


def _pick(a, b, lp_token: float):
    """The better of candidates ``a`` and ``b`` once moved by a token of ``lp_token``.

    The more probable wins; equal log-probabilities go to the
    lexicographically smaller alignment, which is the smaller order. None
    stands for a part without mass and loses to any candidate.
    """
    if a is None:
        return b
    if b is None:
        return a
    la, lb = a[0] + lp_token, b[0] + lp_token
    return a if la > lb or (la == lb and a[1] < b[1]) else b


def _candidates(beams: list, lp: list, trie: _Trie) -> None:
    """Build the alignment candidates of the kept slots, then rank them.

    A kept slot's two source fields are replaced by its blank-ending and
    non-blank-ending candidates; a part holds one exactly when it holds mass.
    Each candidate's order is then reset to its rank among all kept
    candidates times n_tokens.
    """
    n, last_token = trie.n_tokens, trie.token
    lp_blank = lp[BLANK_ID]
    cands = []
    for edge, _, s in beams:
        pb, pnb, own, parent, _ = s
        cb = cnb = None
        if pb != NEG_INF:
            # the blank part's one source: this prefix's entry, either part
            src = _pick(own[2], own[3], lp_blank)
            cb = [src[0] + lp_blank, src[1] + BLANK_ID, (src[2], BLANK_ID)]
            cands.append(cb)
        if pnb != NEG_INF:
            # at most two sources: this prefix's repeat and its parent's
            # extension, which draws on the parent's blank-ending alignment
            # alone when the token repeats the parent's last one
            token = edge % n
            lp_token = lp[token]
            src = None if own is None else own[3]
            if parent is not None:
                src = _pick(src, parent[2], lp_token)
                if last_token[edge // n] != token:
                    src = _pick(src, parent[3], lp_token)
            cnb = [src[0] + lp_token, src[1] + token, (src[2], token)]
            cands.append(cnb)
        s[2], s[3] = cb, cnb
    cands.sort(key=itemgetter(1))
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
    ranking and probabilities are those of extended_prefix_beam_search.
    """
    result = extended_prefix_beam_search(m, alphabet, beam_width)
    return [(h.label, h.probability) for h in result.hypotheses]


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

    Each frame moves mass into slots keyed by edge, so extending a prefix
    needs no trie lookup; _prune keeps the best and turns their edges into
    nodes, and _candidates builds the kept slots' alignment candidates.
    """
    trie = _Trie(n_tokens)
    last_token = trie.token
    tokens = range(1, n_tokens)

    beams = [(-1, 0, [0.0, NEG_INF, [0.0, 0, None], None, 0.0])]
    for lp in log_rows:
        lp_blank = lp[BLANK_ID]
        slots: dict[int, list] = {}
        for edge, node, s in beams:
            pb, pnb, _, _, tot = s
            last = last_token[node]
            # blank and repeat stay on the prefix; the root (token blank) has
            # no non-blank mass, so its repeat moves nothing
            b = tot + lp_blank
            r = pnb + lp[last]
            if b != NEG_INF or r != NEG_INF:
                own = slots.get(edge)
                if own is None:
                    slots[edge] = [b, r, s, None, NEG_INF]
                else:
                    own[0] = b
                    own[1] = log_add(own[1], r)
                    own[2] = s
            base = node * n_tokens  # a child's edge is base + its token
            for c in tokens:
                # extending with the last token again: only blank-ending mass
                # can start the new event
                v = (pb if c == last else tot) + lp[c]
                if v != NEG_INF:
                    child = base + c
                    ext = slots.get(child)
                    if ext is None:
                        slots[child] = [NEG_INF, v, None, s, NEG_INF]
                    else:
                        ext[1] = log_add(ext[1], v)
                        ext[3] = s
        beams = _prune(slots, beam_width, trie)
        _candidates(beams, lp, trie)
    return beams, trie
