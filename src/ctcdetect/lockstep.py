"""Extended prefix beam search over all windows of a recording at once.

search_windows runs decode's extended prefix beam search over all windows of
a recording together, one frame at a time; detect_pipeline calls it for a
recording cut into at least 64 windows, and fewer windows, like a single
stream, go through decode._search one by one. Each window is a column of
arrays with a row per beam entry, as many rows as the fullest beam holds, so
the moves, the merge of an extension into its own slot, the prune to each
window's width best, and the candidate picks with their order tie-break are
numpy operations along the windows. Each of those is an exact IEEE add,
compare or sort, so every window gets the bits that _search gives it. The
log-adds are the exception: numpy's vectorised exp and log1p may round
differently from math's, which would move masses by their last bit. So every
hi + log1p(exp(lo - hi)) takes math.exp and math.log1p over the gathered
differences, and the -inf cases are masked exactly where the scalar code
branches on them, so no -inf - -inf is formed. A window whose best width + 1
totals hold an exact tie orders that tie with _Trie.tie_keys, in Python, and
only such windows do; the prefix nodes are arrays, each window's below a
root of its own. A frame's rows are gathered for all windows and logged as
the batch reaches them, so no logged copy of the whole recording is held.
Alignments are kept as one small backpointer per candidate per frame, its
source row times n_tokens plus its token, and the top alignments of all
windows are traced back together; each is checked to collapse to its
window's top label, as decode._hypothesis checks.

The pipeline imports this module when it first decodes by beam, so importing
the package does not compile it.
"""

from __future__ import annotations

from math import exp, log1p

import numpy as np

from .core import BLANK_ID, TokenSeq
from .decode import _first, _Trie
from .logspace import NEG_INF, log_matrix


def _log1p_exp(d: np.ndarray) -> np.ndarray:
    """log1p(exp(d)) per element by math's exp and log1p, as the scalar core rounds."""
    return np.fromiter(map(log1p, map(exp, d.tolist())), float, d.size)


class _Nodes:
    """The prefix nodes of a batch of windows, in arrays.

    It holds what _Trie holds: ``child[node, token]`` is the node of that
    extension, or -1 while it has none. Node w + 1 is window w's empty
    prefix, and each window's prefixes are its own nodes; those roots hang
    below node 0 by a blank, so that tie_keys, walking up, finds the common
    ancestor of one window's prefixes exactly as in _Trie. ``row[node]`` is
    the node's row in its window's beam, -1 if it is not in the beam.
    """

    tie_keys = _Trie.tie_keys

    def __init__(self, n_windows: int, n_tokens: int) -> None:
        self.n_tokens, self.size = n_tokens, n_windows + 1
        self.parent = np.zeros(self.size, np.int64)
        self.parent[0] = -1
        self.token = np.full(self.size, BLANK_ID, np.int64)
        self.child = np.full((self.size, n_tokens), -1, np.int64)
        self.row = np.full(self.size, -1, np.int64)

    def add(self, parents: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """The nodes of the prefixes (parents, tokens), allocating those that have none."""
        nodes = self.child[parents, tokens]
        new = np.flatnonzero(nodes < 0)
        if new.size:
            ids = np.arange(self.size, self.size + new.size)
            self.size += new.size
            if self.size > len(self.parent):
                grow = self.size  # doubling: amortised O(1) per node
                self.parent = np.concatenate((self.parent, np.empty(grow, np.int64)))
                self.token = np.concatenate((self.token, np.empty(grow, np.int64)))
                self.child = np.concatenate((self.child, np.full((grow, self.n_tokens), -1)))
                self.row = np.concatenate((self.row, np.full(grow, -1)))
            self.parent[ids], self.token[ids] = parents[new], tokens[new]
            self.child[parents[new], tokens[new]] = nodes[new] = ids
        return nodes

    def labels(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The labels of ``nodes``: their tokens end to end, and their lengths."""
        roots = len(nodes) + 1  # nodes below this id are empty prefixes
        steps = []
        while (nodes >= roots).any():
            steps.append(np.where(nodes >= roots, self.token[nodes], -1))
            nodes = np.where(nodes >= roots, self.parent[nodes], nodes)
        # one row per node, its tokens right-aligned
        grid = np.array(steps[::-1], np.int64).T.reshape(len(nodes), -1)
        held = grid >= 0
        return grid[held], held.sum(axis=1)


class _Lockstep:
    """The beams of W windows, advanced together one frame at a time.

    Column w of every array belongs to window w, so each operation runs along
    the windows. The (k, W) arrays hold a beam entry per row, in kept order,
    k being the most entries any window keeps, at most the width; a row past
    the window's own entry count holds no mass. Per entry: its node, its edge
    (-1 for the empty prefix), its last token, and p_b, p_nb and their total.
    Candidates are (2k, W): row 2i is entry i's blank-ending candidate and row
    2i + 1 its non-blank-ending one, with their log-probabilities (-inf where
    there is none) and orders (rank times n_tokens, as in _candidates).
    Extension rows are (k * (n_tokens - 1), W), the extension of entry i by
    token c in row i * (n_tokens - 1) + c - 1.
    """

    def __init__(self, n_windows: int, n_tokens: int, beam_width: int) -> None:
        w, k, n = n_windows, beam_width, n_tokens
        self.n, self.width = n, k
        self.nodes = _Nodes(w, n)
        # each window's beam holds its empty prefix alone
        self.node = np.arange(1, w + 1)[None, :]
        self.edge = np.full((1, w), -1, np.int64)
        self.last = np.full((1, w), BLANK_ID, np.int64)
        self.pb = np.zeros((1, w))
        self.pnb = np.full((1, w), NEG_INF)
        self.tot = self.pb.copy()
        self.cand = np.array([[0.0], [NEG_INF]]).repeat(w, axis=1)
        self.order = np.zeros((2, w), np.int64)
        self.back_dtype = np.min_scalar_type(2 * k * n - 1)
        # a row index r picks element r * W + window of a flattened array
        self.window = np.arange(w)
        self.classes = np.arange(1, n)[:, None]
        self.row_tokens = np.repeat(np.tile(self.classes, (k, 1)), w, axis=1)
        self.even = np.arange(0, 2 * k, 2)[:, None]
        self.index = np.repeat(np.arange(2 * k)[:, None], w, axis=1)  # each row's own
        self.nodes.row[self.node[0]] = 0

    def _at(self, rows: np.ndarray) -> np.ndarray:
        """Flat indices of element (rows[i, w], w) of a (any, W) array."""
        return rows * len(self.window) + self.window

    def advance(self, lp: np.ndarray) -> np.ndarray:
        """One frame, ``lp`` holding the windows' log-probabilities, (n_tokens,
        W); returns each candidate's source row * n_tokens + its token."""
        b, r, into, rows, merge = self._moves(lp)
        pnb, tot = self._log_adds(b, r, into)
        kept = self._prune(tot, rows)
        return self._candidates(lp, kept, b, pnb, merge)

    def _moves(self, lp: np.ndarray):
        """Blank, repeat and extension masses, with the merges of _search.

        Returns the blank and repeat moves onto each entry's own prefix, the
        extension from its parent's entry that merges into it (-inf if none),
        the extension rows, -inf where merged or massless, and what
        _candidates needs of the moves.
        """
        n = self.n
        lp_last = lp.take(self._at(self.last))
        b = self.tot + lp[BLANK_ID]
        r = self.pnb + lp_last
        # extending with the last token again draws on blank-ending mass alone
        again = self.last[:, None] == self.classes
        v = np.where(again, self.pb[:, None], self.tot[:, None]) + lp[1:]
        rows = v.reshape(-1, r.shape[1])
        # an entry's own slot takes the extension from its parent's entry, if
        # that is in the beam: the row of the node its edge hangs from
        nodes = self.nodes
        parent = nodes.row.take(nodes.parent.take(self.node))
        merges = (parent >= 0) & ((b != NEG_INF) | (r != NEG_INF))
        ext = self._at(np.maximum(parent, 0) * (n - 1) + self.last - 1)
        into = np.where(merges, rows.take(ext), NEG_INF)
        rows.put(ext[merges], NEG_INF)
        return b, r, into, rows, (again, lp_last, merges, ext)

    def _log_adds(self, b, r, into):
        """p_nb = log(e^r + e^into) and the total log(e^b + e^p_nb) per entry."""
        # hi + log1p(exp(lo - hi)) where both parts hold mass, else the one
        # that does; no -inf - -inf is formed
        pnb = np.maximum(r, into)
        lo = np.minimum(r, into)
        both = lo != NEG_INF
        pnb[both] += _log1p_exp(lo[both] - pnb[both])
        tot = np.maximum(b, pnb)
        lo = np.minimum(b, pnb)
        both = lo != NEG_INF
        tot[both] += _log1p_exp(lo[both] - tot[both])
        return pnb, tot

    def _prune(self, tot, rows):
        """Each window's width best own slots and extension rows, as in _prune.

        Sets the kept entries' totals and edges and returns their rows among
        (own slots, extension rows). Only a window whose best width + 1
        totals hold an exact tie orders it by tie_keys.
        """
        n = self.n
        mass = np.concatenate((tot, rows))
        child = self.node[:, None] * n + self.classes
        edges = np.concatenate((self.edge, child.reshape(rows.shape)))
        k = min(self.width, int((mass != NEG_INF).sum(axis=0).max()))
        ranked = np.argsort(-mass, axis=0)
        head = mass.take(self._at(ranked[: k + 1]))
        tied = (head[1:] == head[:-1]) & (head[1:] != NEG_INF)
        for w in np.flatnonzero(tied.any(axis=0)).tolist():
            self._order_ties(ranked[:, w], mass[:, w], edges[:, w])
        kept = ranked[:k]
        self.tot, self.edge = mass.take(self._at(kept)), edges.take(self._at(kept))
        return kept

    def _order_ties(self, ranked, mass, edges) -> None:
        """Put the runs of equal totals that reach the kept part in prefix order."""
        held = int((mass != NEG_INF).sum())
        rows = ranked[:held].tolist()
        tots, run_edges = mass[rows].tolist(), edges[rows].tolist()
        n_kept = min(held, self.width)
        i = 0
        while i < n_kept:
            j = i + 1
            while j < held and tots[j] == tots[i]:
                j += 1
            if j - i > 1:
                keys = self.nodes.tie_keys(run_edges[i:j])
                rows[i:j] = [row for _, row in sorted(zip(keys, rows[i:j]), key=_first)]
            i = j
        ranked[:n_kept] = rows[:n_kept]

    def _candidates(self, lp, kept, b, pnb, merge) -> np.ndarray:
        """Build the kept entries' candidates and move the rest of their state.

        The picks of _candidates, made for every own slot and extension row at
        once, then taken for the kept ones: of a part's sources, the one that
        is more probable once moved wins, equal ones going to the smaller
        order. A part without mass gets -inf, as all of its sources do.
        """
        again, lp_last, merges, ext = merge
        n, k = self.n, len(self.node)  # k entries before the frame
        cb, cnb = self.cand[0::2], self.cand[1::2]
        ob, onb = self.order[0::2], self.order[1::2]
        # blank-ending, per own slot: the entry's two candidates
        v, w = cb + lp[BLANK_ID], cnb + lp[BLANK_ID]
        take = (w > v) | (w == v) & (onb < ob)
        even = self.even[:k]
        blank = np.where(take, w, v), np.where(take, onb, ob), even + take
        # non-blank-ending, per extension row: the parent's blank-ending
        # candidate, or its other one unless the token repeats the parent's last
        v, w = cb[:, None] + lp[1:], cnb[:, None] + lp[1:]
        take = ~again & ((w > v) | (w == v) & (onb < ob)[:, None])
        ext_v = np.where(take, w, v).reshape(-1, v.shape[2])
        ext_o = np.where(take, onb[:, None], ob[:, None]).reshape(ext_v.shape)
        ext_s = (even[:, None] + take).reshape(ext_v.shape)
        # non-blank-ending, per own slot: its repeat, or the merged extension's
        v, w, o = cnb + lp_last, ext_v.take(ext), ext_o.take(ext)
        take = merges & ((w > v) | (w == v) & (o < onb))
        own_v, own_o = np.where(take, w, v), np.where(take, o, onb)
        own_s = np.where(take, ext_s.take(ext), even + 1)

        own = kept < k
        at = self._at(kept)
        at_j = self._at(np.where(own, kept, 0))  # an own slot's entry
        last = np.concatenate((self.last, self.row_tokens[: len(ext_v)])).take(at)
        node = self.node.take(at_j)
        live = self.tot != NEG_INF
        new = live & ~own
        if new.any():
            parents = self.node.take(self._at((kept - k) // (n - 1)))
            node[new] = self.nodes.add(parents[new], last[new])
        self.nodes.row[self.node] = -1
        self.nodes.row[node[live]] = self.index[: len(kept)][live]
        self.pb = np.where(own, b.take(at_j), NEG_INF)
        self.pnb = np.where(own, pnb.take(at_j), self.tot)
        self.node, self.last = node, last

        shape, none = (2 * len(kept), len(self.window)), 2 * self.width * n
        cand, order = np.empty(shape), np.empty(shape, np.int64)
        back = np.empty(shape, self.back_dtype)
        cand[0::2] = cb = np.where(own, blank[0].take(at_j), NEG_INF)
        cand[1::2] = cnb = np.concatenate((own_v, ext_v)).take(at)
        order[0::2] = np.where(cb != NEG_INF, blank[1].take(at_j), none)
        cnb_o = np.concatenate((own_o, ext_o)).take(at) + last
        order[1::2] = np.where(cnb != NEG_INF, cnb_o, none)
        back[0::2] = blank[2].take(at_j) * n + BLANK_ID
        back[1::2] = np.concatenate((own_s, ext_s)).take(at) * n + last
        # each candidate's order becomes its rank in its window times n
        rank = np.empty_like(order)
        rank.put(self._at(np.argsort(order, axis=0, kind="stable")), self.index[: len(order)])
        self.cand, self.order = cand, rank * n
        return back


# about how many cells one batch of windows may hold: each of its beam entries
# keeps two backpointers per frame and a few dozen per-frame values per token.
# Over the 899 windows of the perfbench seed-1 hour recording (2-vCPU Intel
# Xeon), peak RSS above the loaded recording and time of search_windows:
# width 3, one batch, +7.7 MB in 0.8 s (at 1 << 19, +3.1 MB in 1.3 s); width
# 50, +17 MB in 13.0 s (1 << 19: +5.5 MB in 17.1 s; 1 << 23: +51 MB in
# 13.5 s); width 200, +22 MB in 52 s (1 << 23: +70 MB in 51 s)
_BATCH_CELLS = 1 << 21


def search_windows(
    probs: np.ndarray, starts: np.ndarray, frames: int, beam_width: int
) -> tuple[np.ndarray, list[TokenSeq], np.ndarray, np.ndarray]:
    """Each window's top hypothesis, the windows searched in lockstep.

    Window w covers rows starts[w] to starts[w] + frames of ``probs``.
    Returns the top alignments as rows of one small-int array, the top
    labels, and the top label's and alignment's log-probabilities, each bit
    for bit what _search and _hypothesis give for that window alone. The
    windows go in batches small enough that a wide beam keeps memory bounded.
    """
    size = max(1, _BATCH_CELLS // (beam_width * (frames + 32 * probs.shape[1])))
    batches = [
        _search_batch(probs, starts[i : i + size], frames, beam_width)
        for i in range(0, len(starts), size)
    ]
    alignments, labels, log_ps, alignment_log_ps = zip(*batches)
    return (
        np.concatenate(alignments),
        [label for part in labels for label in part],
        np.concatenate(log_ps),
        np.concatenate(alignment_log_ps),
    )


def _search_batch(probs: np.ndarray, starts: np.ndarray, frames: int, beam_width: int):
    """search_windows for one batch of windows."""
    n_windows, n_tokens = len(starts), probs.shape[1]
    beams = _Lockstep(n_windows, n_tokens, beam_width)
    # each frame's rows of every window, token-major so that each operation
    # runs along the windows
    back = [
        beams.advance(log_matrix(probs.take(starts + t, axis=0)).T.copy()) for t in range(frames)
    ]
    # the top entry's better candidate, equal ones going to the smaller order
    (cb, cnb), order = beams.cand[:2], beams.order
    row = (cnb != NEG_INF) & ((cnb > cb) | (cnb == cb) & (order[1] < order[0]))
    alignment_log_probs = np.where(row, cnb, cb)
    row = row.astype(np.int64)
    alignments = np.empty((n_windows, frames), beams.back_dtype)
    for t in range(frames - 1, -1, -1):
        row, alignments[:, t] = np.divmod(back[t].take(beams._at(row)).astype(np.int64), n_tokens)
    tokens, lengths = beams.nodes.labels(beams.node[0])
    # collapse(alignment) == label for every window, as _hypothesis asserts
    events = alignments != BLANK_ID
    events[:, 1:] &= alignments[:, 1:] != alignments[:, :-1]
    assert (events.sum(axis=1) == lengths).all() and (alignments[events] == tokens).all()
    bounds = np.cumsum(lengths).tolist()
    labels = [tuple(tokens[i:j].tolist()) for i, j in zip([0] + bounds, bounds)]
    return alignments, labels, beams.tot[0], alignment_log_probs
