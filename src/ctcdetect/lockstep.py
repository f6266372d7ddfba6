"""Extended prefix beam search over all windows of a recording.

search_windows gives each window's top hypothesis, bit for bit what
decode._search and _hypothesis give for that window alone. The window count
picks how the windows are searched, and these are the package's only
window-count rules:

- fewer than _MIN_BATCH_WINDOWS (64): one by one, by decode._search;
- from 64: together, in lockstep batches of at most about _BATCH_CELLS
  cells, so that a wide beam keeps its memory bounded;
- from twice _MIN_SHARE_WINDOWS (448), given two usable CPUs: in two
  contiguous halves, the parent searching the first and one worker made by
  os.fork the second, which sends its results back pickled through a pipe;
  if the worker fails, the parent warns and searches the second half too.

A window's result does not depend on the path, batch or half that holds
it, so the rules change no bit.

A batch runs decode's extended prefix beam search over its windows
together, one frame at a time. Each window is a column of arrays with a row
per beam entry, as many rows as the fullest beam holds, so the moves, the
merge of an extension into its own slot, the prune to each window's width
best, and the kept rows' candidate picks with their order tie-break are
numpy operations along the windows. Each is an exact IEEE add, compare or
sort, or a log-add by np.logaddexp, which rounds as the scalar core's
inline math form does (the contract in logspace, pinned by
tests/test_logspace.py), so every window gets the bits that _search gives
it. A window whose best width + 1 totals hold an exact tie orders that tie
with decode._order_tied, in Python, and only such windows do; the prefix
nodes are arrays, each window's below a root of its own. A frame's rows are
gathered for all windows and logged as the batch reaches them, so no logged
copy of the whole recording is held. Alignments are kept as one small
backpointer per candidate per frame, its source row times n_tokens plus its
token, and the top alignments of all windows are traced back together; each
is checked to collapse to its window's top label, as decode._hypothesis
checks. No array is sized by the width, so a batch's memory follows the
rows its beams really hold.

The pipeline imports this module when it first decodes by beam, so importing
the package does not compile it.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import warnings
from pathlib import Path

import numpy as np

from .core import BLANK_ID, Alphabet, TokenSeq
from .decode import _hypothesis, _order_tied, _search, _Trie
from .logspace import NEG_INF, log_matrix


class _Nodes:
    """The prefix nodes of a batch of windows, in arrays.

    It holds what _Trie holds: ``child[node, token]`` is the node of that
    extension, or -1 while it has none. Node w + 1 is window w's empty
    prefix, and each window's prefixes are its own nodes; those roots hang
    below node 0 by a blank, so each is named by edge 0, as _Trie's root is,
    and tie_keys, walking up, finds the common ancestor of one window's
    prefixes exactly as in _Trie. ``row[node]`` is the node's row in its
    window's beam, -1 if it is not in the beam.
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
    the window's own entry count holds no mass. Per entry: its node, and p_b,
    p_nb and their total; its edge and last token are read from its node.
    Candidates are (2k, W): row 2i is entry i's blank-ending candidate and row
    2i + 1 its non-blank-ending one, with their log-probabilities (-inf where
    there is none) and orders (rank times n_tokens, as in _candidates).
    Extension rows are (k * (n_tokens - 1), W), the extension of entry i by
    token c in row i * (n_tokens - 1) + c - 1. No array is sized by the
    width, so memory follows the rows the beams really hold.
    """

    def __init__(self, n_windows: int, n_tokens: int, beam_width: int) -> None:
        w, n = n_windows, n_tokens
        self.n, self.width = n, beam_width
        self.nodes = _Nodes(w, n)
        # each window's beam holds its empty prefix alone
        self.node = np.arange(1, w + 1)[None, :]
        self.pb = np.zeros((1, w))
        self.pnb = np.full((1, w), NEG_INF)
        self.tot = self.pb.copy()
        self.cand = np.array([[0.0], [NEG_INF]]).repeat(w, axis=1)
        self.order = np.zeros((2, w), np.int64)
        # a row index r picks element r * W + window of a flattened array
        self.window = np.arange(w)
        self.classes = np.arange(1, n)[:, None]
        self.nodes.row[self.node[0]] = 0

    def _at(self, rows: np.ndarray) -> np.ndarray:
        """Flat indices of element (rows[i, w], w) of a (any, W) array."""
        return rows * len(self.window) + self.window

    def advance(self, lp: np.ndarray) -> np.ndarray:
        """One frame, ``lp`` holding the windows' log-probabilities, (n_tokens,
        W); returns each candidate's source row * n_tokens + its token."""
        last = self.nodes.token.take(self.node)
        b, r, into, rows, parent = self._moves(lp, last)
        pnb = np.logaddexp(r, into)
        tot = np.logaddexp(b, pnb)
        kept = self._prune(tot, rows)
        return self._candidates(lp, last, kept, b, pnb, parent)

    def _moves(self, lp: np.ndarray, last: np.ndarray):
        """Blank, repeat and extension masses, with the merges of _search.

        Returns the blank and repeat moves onto each entry's own prefix, the
        extension from its parent's entry that merges into it (-inf if none),
        the extension rows, -inf where merged or massless, and each entry's
        merged parent row, -1 if none merges into it.
        """
        b = self.tot + lp[BLANK_ID]
        r = self.pnb + lp.take(self._at(last))
        # extending with the last token again draws on blank-ending mass alone
        again = last[:, None] == self.classes
        v = np.where(again, self.pb[:, None], self.tot[:, None]) + lp[1:]
        rows = v.reshape(-1, r.shape[1])
        # an entry's own slot, if it holds mass, takes the extension from its
        # parent's entry, if that is in the beam
        nodes = self.nodes
        parent = nodes.row.take(nodes.parent.take(self.node))
        parent[(b == NEG_INF) & (r == NEG_INF)] = -1
        merges = parent >= 0
        ext = self._at(np.maximum(parent, 0) * (self.n - 1) + last - 1)
        into = np.where(merges, rows.take(ext), NEG_INF)
        rows.put(ext[merges], NEG_INF)
        return b, r, into, rows, parent

    def _prune(self, tot, rows):
        """Each window's width best own slots and extension rows, as in _prune.

        Sets the kept entries' totals and returns their rows among (own slots,
        extension rows). Only a window whose best width + 1 totals hold an
        exact tie orders it by tie_keys.
        """
        mass = np.concatenate((tot, rows))
        k = min(self.width, int((mass != NEG_INF).sum(axis=0).max()))
        ranked = np.argsort(-mass, axis=0)
        head = mass.take(self._at(ranked[: k + 1]))
        tied = (head[1:] == head[:-1]) & (head[1:] != NEG_INF)
        for w in np.flatnonzero(tied.any(axis=0)).tolist():
            self._order_ties(ranked[:, w], mass[:, w], self.node[:, w])
        kept = ranked[:k]
        self.tot = mass.take(self._at(kept))
        return kept

    def _order_ties(self, ranked, mass, node) -> None:
        """Put the runs of equal totals that reach the kept part in prefix order,
        by the edges of the window's entry nodes ``node``."""
        n, nodes = self.n, self.nodes
        own = nodes.parent.take(node) * n + nodes.token.take(node)
        edges = np.concatenate((own, (node[:, None] * n + self.classes.T).ravel()))
        held = ranked[: int((mass != NEG_INF).sum())]
        rows = list(zip(mass[held].tolist(), edges[held].tolist(), held.tolist()))
        n_kept = min(len(rows), self.width)
        _order_tied(rows, n_kept, self.nodes)
        ranked[:n_kept] = [row for _, _, row in rows[:n_kept]]

    def _candidates(self, lp, last, kept, b, pnb, parent) -> np.ndarray:
        """Build the kept entries' candidates and move the rest of their state.

        The picks of _candidates, for the kept rows alone: of a part's sources,
        the one that is more probable once moved wins, equal ones going to the
        smaller order. A part without mass gets -inf, as all of its sources do.
        """
        n, k = self.n, len(self.node)  # k entries before the frame
        own, ext_row = kept < k, kept - k  # ext_row: its index among extension rows
        j = np.where(own, kept, 0)  # an own slot's entry
        at_j = self._at(j)
        # the entry whose extension reaches the row, and the row's token
        src = np.where(own, parent.take(at_j), ext_row // (n - 1))
        token = np.where(own, last.take(at_j), ext_row % (n - 1) + 1)
        at_s = self._at(np.maximum(src, 0))
        cb, cnb = self.cand[0::2], self.cand[1::2]
        ob, onb = self.order[0::2], self.order[1::2]
        cnb_j, onb_j, even = cnb.take(at_j), onb.take(at_j), 2 * j
        # blank-ending, for an own slot: its entry's two candidates
        v, w, o = cb.take(at_j) + lp[BLANK_ID], cnb_j + lp[BLANK_ID], ob.take(at_j)
        take = (w > v) | (w == v) & (onb_j < o)
        blank = np.where(own, np.where(take, w, v), NEG_INF)
        blank_o, blank_s = np.where(take, onb_j, o), even + take
        # non-blank-ending: the source's blank-ending candidate, or its other
        # one unless the token repeats the source's last
        lp_token = lp.take(self._at(token))
        v, w = cb.take(at_s) + lp_token, cnb.take(at_s) + lp_token
        o, p = ob.take(at_s), onb.take(at_s)
        take = (last.take(at_s) != token) & ((w > v) | (w == v) & (p < o))
        ext, ext_o, ext_s = np.where(take, w, v), np.where(take, p, o), 2 * src + take
        # or, for an own slot, its repeat
        v = np.where(own, cnb_j + lp_token, NEG_INF)
        take = (src >= 0) & ((ext > v) | (ext == v) & (ext_o < onb_j))
        nb, nb_o = np.where(take, ext, v), np.where(take, ext_o, onb_j) + token
        nb_s = np.where(take, ext_s, even + 1)
        live = self.tot != NEG_INF
        node = self.node.take(at_j)
        new = live & ~own
        if new.any():
            node[new] = self.nodes.add(self.node.take(at_s)[new], token[new])
        self.nodes.row[self.node] = -1
        self.nodes.row[node[live]] = np.nonzero(live)[0]
        self.pb = np.where(own, b.take(at_j), NEG_INF)
        self.pnb = np.where(own, pnb.take(at_j), self.tot)
        self.node = node
        shape, none = (2 * len(kept), len(self.window)), 2 * k * n  # above all orders, backs
        cand, order = np.empty(shape), np.empty(shape, np.int64)
        back = np.empty(shape, np.min_scalar_type(none - 1))
        cand[0::2], cand[1::2] = blank, nb
        order[0::2] = np.where(blank != NEG_INF, blank_o, none)
        order[1::2] = np.where(nb != NEG_INF, nb_o, none)
        back[0::2] = blank_s * n + BLANK_ID
        back[1::2] = nb_s * n + token
        # each candidate's order becomes its rank in its window times n
        rank = np.empty_like(order)
        rank[np.argsort(order, axis=0, kind="stable"), self.window] = np.arange(len(order))[:, None]
        self.cand, self.order = cand, rank * n
        return back


# fewest windows that are searched in lockstep batches. A batch costs about
# 75 ms per 512 frames however few windows it holds, so with few windows the
# window-by-window search is faster. On 512-frame windows of the perfbench
# seed-1 hour recording (2-vCPU Intel Xeon): 1 window took 73-81 ms in the
# batch against 2-5 ms alone; at 32 windows the batch still lost on some
# slices at widths 1, 3 and 10; from 64 windows it won on every slice at every
# width measured, 1 to 200 (CHANGES.md)
_MIN_BATCH_WINDOWS = 64

# about how many cells one batch of windows may hold: each of its beam entries
# keeps two backpointers per frame and a few dozen per-frame values per token.
# The bound holds per process: the parent and the worker run one batch at a
# time. Over the 899 windows of the perfbench seed-1 hour recording (2-vCPU
# Intel Xeon), searched in one share, peak RSS above the loaded recording and
# time of search_windows: width 3, one batch, +7.7 MB in 0.8 s (at 1 << 19,
# +3.1 MB in 1.3 s); width 50, +17 MB in 13.0 s (1 << 19: +5.5 MB in 17.1 s;
# 1 << 23: +51 MB in 13.5 s); width 200, +22 MB in 52 s (1 << 23: +70 MB in
# 51 s)
_BATCH_CELLS = 1 << 21

# the fewest windows a share may hold. Each share pays the batch's fixed cost
# per frame, and the worker its fork. Rounds of detect_pipeline over the first
# n windows of the perfbench hour recording won by two shares against one
# (width 3, 2-vCPU Intel Xeon): seed 1, 7 rounds, n = 128 and 256 3 (both
# slower in the median), 384 6, 512 4, 899 7 (CPU 0.91 s against 0.75 s);
# 11 rounds, seed 1 and seed 7, n = 256 9 and 7, 320 6 and 8, 384 8 and 7,
# 448 10 and 10
_MIN_SHARE_WINDOWS = 224


def search_windows(
    probs: np.ndarray, starts: np.ndarray, frames: int, beam_width: int
) -> tuple[np.ndarray, list[TokenSeq], np.ndarray, np.ndarray]:
    """Each window's top hypothesis, the windows searched by the module's rules.

    Window w covers rows starts[w] to starts[w] + frames of ``probs``.
    Returns the top alignments as rows of one array typed to fit a token, the
    top labels, and the top label's and alignment's log-probabilities, each bit
    for bit what _search and _hypothesis give for that window alone.

    Where a worker is forked (_usable_cpus counts the CPUs), one that fails
    or dies sends no whole result, and this process warns (RuntimeWarning,
    naming the worker's exit code or signal) and searches its windows
    itself; so the result, or the exception, is that of one share, and the
    worker never outlives the call.
    """
    if len(starts) < _MIN_BATCH_WINDOWS:
        return _joined([_search_one(probs[s : s + frames], beam_width) for s in starts.tolist()])
    if len(starts) < 2 * _MIN_SHARE_WINDOWS or _usable_cpus() < 2:
        return _search_share(probs, starts, frames, beam_width)
    own, other = np.array_split(starts, 2)
    pid, pipe = _fork_share(probs, other, frames, beam_width)
    data = status = None
    try:
        with pipe:
            first = _search_share(probs, own, frames, beam_width)
            # read to the end before waiting: the results overflow the pipe's
            # buffer, so the worker exits only once they are read
            data = pipe.read()
    finally:
        if data is None:  # this process failed: the worker's result is not wanted
            import signal  # here, as only a forked search uses it
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored: reaped already
            status = os.waitpid(pid, 0)[1]
    try:
        second = pickle.loads(data)
    except Exception:  # the worker failed or died: nothing, or a result cut short
        code = None if status is None else os.waitstatus_to_exitcode(status)
        how = ("its status unknown while SIGCHLD is ignored" if code is None
               else f"exit code {code}" if code >= 0 else f"killed by signal {-code}")
        warnings.warn(f"the forked search worker sent no whole result ({how}); this process "
                      f"searches its {len(other)} windows", RuntimeWarning, stacklevel=2)
        second = _search_share(probs, other, frames, beam_width)
    return _joined([first, second])


def _usable_cpus() -> int:
    """The CPUs this process may run on, by os.sched_getaffinity (1 where it
    is missing, as on macOS and Windows), cut to the whole CPUs of a cgroup
    CPU quota: in a container run with, say, --cpus 1 the mask still shows
    every CPU of the host, and two shares on one CPU took 25% longer."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        return 1
    quota = _quota_cpus()
    return cpus if quota is None else max(1, min(cpus, int(quota)))


def _quota_cpus(root: Path = Path("/sys/fs/cgroup")) -> float | None:
    """The CPUs' worth of time per period that the cgroup v2 (cpu.max) or v1
    (cpu.cfs_quota_us) quota at ``root`` grants; None without a quota."""
    try:
        quota, period = (root / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = (root / "cpu" / "cpu.cfs_quota_us").read_text()
            period = (root / "cpu" / "cpu.cfs_period_us").read_text()
        except OSError:
            return None
    try:
        grant = int(quota) / int(period)
    except (ValueError, ZeroDivisionError):  # "max": no quota
        return None
    return grant if grant > 0 else None  # v1 writes -1 for no quota


def _fork_share(probs: np.ndarray, starts: np.ndarray, frames: int, beam_width: int):
    """Fork a worker that searches ``starts`` and pickles the result into a
    pipe, exiting non-zero if anything fails; returns its pid and the pipe's
    read end."""
    read, write = os.pipe()
    try:
        # Python 3.12 and later warn on a fork while another thread runs, as
        # numpy's BLAS pool does. The worker runs numpy elementwise, sort and
        # take operations and math, no BLAS, then leaves by os._exit, so it
        # takes no lock that another thread held at the fork
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                DeprecationWarning,
            )
            pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pickle.dump(_search_share(probs, starts, frames, beam_width), pipe)
            os._exit(0)
        finally:
            # no atexit hooks, and no flush of stdio buffers the parent holds
            os._exit(1)
    os.close(write)
    return pid, open(read, "rb")


def _search_share(probs: np.ndarray, starts: np.ndarray, frames: int, beam_width: int):
    """search_windows for one share of windows, in batches of _BATCH_CELLS."""
    size = max(1, _BATCH_CELLS // (beam_width * (frames + 32 * probs.shape[1])))
    return _joined(
        [
            _search_batch(probs, starts[i : i + size], frames, beam_width)
            for i in range(0, len(starts), size)
        ]
    )


def _joined(parts):
    """The results of consecutive runs of windows, as one run's."""
    alignments, labels, log_ps, alignment_log_ps = zip(*parts)
    return (
        np.concatenate(alignments),
        [label for part in labels for label in part],
        np.concatenate(log_ps),
        np.concatenate(alignment_log_ps),
    )


def _search_one(rows: np.ndarray, beam_width: int):
    """search_windows for one window, by decode._search alone."""
    n_tokens = rows.shape[1]
    beams, trie = _search(log_matrix(rows).tolist(), n_tokens, beam_width)
    top = _hypothesis(beams[0], trie, Alphabet(n_tokens))
    alignment = np.array([top.alignment], np.min_scalar_type(n_tokens - 1))
    return alignment, [top.label], [top.log_probability], [top.alignment_log_probability]


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
    alignments = np.empty((n_windows, frames), np.min_scalar_type(n_tokens - 1))
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
