"""Exact sequence probability of a label under per-frame token probabilities.

The probability of a label sequence is the sum, over every frame-level
alignment that collapses to it, of the product of per-frame token
probabilities. Two independent routes compute it:

prob_brute_force()          -- enumerates the full token^frames space and
                               filters (small inputs only; the test oracle).
prob_forward()              -- dynamic program over the blank-augmented label;
                               works for arbitrary lengths.
ctc_loss()                  -- negative log of prob_forward.
best_alignment_brute_force()-- argmax single alignment for a label, by the
                               same enumeration (oracle for decoder output).
enumerate_alignments()      -- the filtered alignment set itself.

The brute-force routes deliberately share no recurrence with the forward pass
so each can check the other.
"""

from __future__ import annotations

import numpy as np

from .core import BLANK_ID, Alphabet, InvalidTokenError, ProbMatrix, TokenSeq, check_alphabet
from .logspace import NEG_INF, log_matrix, log_sum

#: Enumeration guards: the oracle refuses inputs beyond this scale.
MAX_ORACLE_FRAMES = 16
MAX_ORACLE_SPACE = 2**24

_CHUNK_ROWS = 1 << 18


class OracleSizeError(ValueError):
    """The brute-force enumeration would exceed its scale guard."""


class NoAlignmentError(ValueError):
    """No alignment of the requested length collapses to the label."""


def _check_label(label, alphabet: Alphabet) -> TokenSeq:
    label = tuple(int(t) for t in label)
    for tok in label:
        alphabet.validate_token(tok)
        if tok == BLANK_ID:
            raise InvalidTokenError("label sequences must be blank-free")
    return label


def _matching_alignments_array(label, n_frames: int, alphabet: Alphabet) -> np.ndarray:
    """All alignments of length n_frames collapsing to label, as an int array.

    Checks the label, then the oracle scale guard. Walks the full
    alphabet**n_frames space in lexicographic order, in chunks, and keeps rows
    whose non-blank run heads spell the label. A run head is a frame holding a
    non-blank token that differs from the previous frame's token; the run
    heads of an alignment, in order, are exactly its collapse.
    """
    label = _check_label(label, alphabet)
    n_tokens = alphabet.size
    if n_frames > MAX_ORACLE_FRAMES or n_tokens**n_frames > MAX_ORACLE_SPACE:
        raise OracleSizeError(
            f"{n_tokens}^{n_frames} alignments exceed the oracle guard "
            f"(frames <= {MAX_ORACLE_FRAMES}, space <= 2^24)"
        )
    shape = (n_tokens,) * n_frames
    total = n_tokens**n_frames
    lab = np.asarray(label, dtype=np.int64)
    n_lab = lab.size
    matches = []
    for lo in range(0, total, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, total)
        rows = np.stack(
            np.unravel_index(np.arange(lo, hi, dtype=np.int64), shape), axis=1
        )
        head = rows != BLANK_ID
        head[:, 1:] &= rows[:, 1:] != rows[:, :-1]
        cand = head.sum(axis=1) == n_lab
        rows = rows[cand]
        # an empty label compares (k, 0) arrays, which are all equal
        spelled = rows[head[cand]].reshape(len(rows), n_lab)
        matches.append(rows[(spelled == lab).all(axis=1)])
    return np.concatenate(matches)


def enumerate_alignments(label, n_frames: int, alphabet: Alphabet) -> list[TokenSeq]:
    """Every alignment of the given length that collapses to the label.

    Found by filtering the full alphabet^frames enumeration, so it is
    independent of any dynamic-programming shortcut. Raises OracleSizeError
    beyond the scale guard. The returned list is in lexicographic order and
    may be empty (e.g. two equal adjacent labels cannot fit in two frames).
    """
    rows = _matching_alignments_array(label, n_frames, alphabet)
    return [tuple(int(t) for t in row) for row in rows]


def _alignment_log_probs(m: ProbMatrix, rows: np.ndarray) -> np.ndarray:
    log_p = log_matrix(m.probs)
    # summands lie in [-inf, 0], so no sum is -inf + inf
    return log_p[np.arange(m.frames), rows].sum(axis=1)


def prob_brute_force(m: ProbMatrix, label, alphabet: Alphabet) -> float:
    """Probability of the label by explicit enumeration (log-space sum).

    Returns 0.0 when no alignment exists. Subject to the oracle scale guard.
    """
    check_alphabet(m, alphabet)
    rows = _matching_alignments_array(label, m.frames, alphabet)
    return float(np.exp(log_sum(_alignment_log_probs(m, rows))))  # log_sum of none is log 0


def best_alignment_brute_force(
    m: ProbMatrix, label, alphabet: Alphabet
) -> tuple[TokenSeq, float]:
    """Most probable single alignment for the label, with its probability.

    Ties resolve to the lexicographically smallest token sequence (the
    enumeration is lexicographic and argmax keeps the first maximum).
    Raises NoAlignmentError when the label cannot be embedded at all.
    """
    check_alphabet(m, alphabet)
    label = tuple(label)  # read twice, so it may not be an iterator
    rows = _matching_alignments_array(label, m.frames, alphabet)
    if rows.shape[0] == 0:
        raise NoAlignmentError(f"label {tuple(map(int, label))} has no alignment in {m.frames} frames")
    scores = _alignment_log_probs(m, rows)
    best = int(np.argmax(scores))
    return tuple(int(t) for t in rows[best]), float(np.exp(scores[best]))


def log_prob_forward(m: ProbMatrix, label, alphabet: Alphabet) -> float:
    """Log-probability of the label via the forward pass.

    Runs over the blank-augmented state sequence blank,y1,blank,y2,...,blank
    (Graves et al. 2006). A state may be entered from itself, its predecessor,
    or (for a non-blank state whose label differs from the one two back) from
    two states back -- the last rule is what forbids silently merging equal
    adjacent labels. Alignments end in the last two states (the one state of an empty label).
    """
    check_alphabet(m, alphabet)
    label = _check_label(label, alphabet)
    log_p = log_matrix(m.probs)
    aug = np.empty(2 * len(label) + 1, dtype=np.int64)
    aug[0::2] = BLANK_ID
    aug[1::2] = label
    skip = np.flatnonzero(aug[2:] != aug[:-2]) + 2
    skip_from = skip - 2

    # two state buffers take turns; a third takes each frame's scores
    alpha, nxt, scores = np.full(aug.size, NEG_INF), np.empty(aug.size), np.empty(aug.size)
    alpha[:2] = log_p[0, aug[:2]]
    for t in range(1, m.frames):
        nxt[0] = alpha[0]
        np.logaddexp(alpha[1:], alpha[:-1], out=nxt[1:])
        nxt[skip] = np.logaddexp(nxt[skip], alpha[skip_from])
        nxt += log_p[t].take(aug, out=scores)
        alpha, nxt = nxt, alpha
    return float(np.logaddexp.reduce(alpha[-2:]))


def prob_forward(m: ProbMatrix, label, alphabet: Alphabet) -> float:
    """Probability of the label via the forward pass; 0.0 when impossible."""
    return float(np.exp(log_prob_forward(m, label, alphabet)))


def ctc_loss(m: ProbMatrix, label, alphabet: Alphabet) -> float:
    """Negative log-probability of the label; +inf when the label is impossible."""
    return -log_prob_forward(m, label, alphabet)
