"""Independent brute-force oracles for the test suite.

Everything here recomputes results from first principles (full enumeration,
linear-space products) without touching the library's own enumeration or
dynamic-programming internals, so the two sides can check each other.

The last section is a frozen, verbatim copy of the original beam decoders,
which compared tied alignment candidates by rebuilding both whole chains.
It is the reference for the library's single search core: same hypotheses,
probabilities, alignments and tie-breaks, bit for bit. After it comes a
frozen copy of the original two-stage detector, which ran one argmax over
the whole recording per detection, and one of the original forward pass,
which copied its state vector and gathered its frame's scores every frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ctcdetect import DecodeResult, Detection, Hypothesis, TwoStageParams
from ctcdetect.core import BLANK_ID, Alphabet, ParameterError, ProbMatrix, TokenSeq, collapse
from ctcdetect.logspace import NEG_INF, log_matrix


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without leaving log space; the beam cores inline it."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def collapse_plain(tokens) -> tuple[int, ...]:
    out = []
    prev = None
    for t in tokens:
        if t != prev:
            out.append(t)
        prev = t
    return tuple(x for x in out if x != 0)


def _all_alignments(n_frames: int, n_tokens: int, chunk: int = 1 << 19):
    total = n_tokens**n_frames
    shape = (n_tokens,) * n_frames
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        yield np.stack(np.unravel_index(idx, shape), axis=1)


def brute_label_probs(probs: np.ndarray) -> dict[tuple[int, ...], float]:
    """Probability of every reachable label, by grouping all alignments.

    Linear-space products (fine at oracle scale), grouped by the collapsed
    label of each alignment. Values over all labels sum to 1 for any
    row-stochastic input.
    """
    n_frames, n_tokens = probs.shape
    frame_idx = np.arange(n_frames)
    acc: dict[tuple[int, ...], float] = {}
    for rows in _all_alignments(n_frames, n_tokens):
        prods = probs[frame_idx, rows].prod(axis=1)
        for row, p in zip(rows.tolist(), prods.tolist()):
            key = collapse_plain(row)
            acc[key] = acc.get(key, 0.0) + p
    return acc


def brute_argmax_label(label_probs: dict) -> tuple[int, ...]:
    """Most probable label; exact ties go to the lexicographically smallest."""
    best = max(label_probs.values())
    return min(k for k, v in label_probs.items() if v == best)


def random_stochastic(rng: np.random.Generator, n_frames: int, n_tokens: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n_tokens), size=n_frames)


def random_confident(
    rng: np.random.Generator, n_frames: int, n_tokens: int, floor: float = 0.75
) -> np.ndarray:
    """Rows with one dominant token of probability >= floor (no per-frame ties).

    Mimics the confident per-frame distributions that trained sequence models
    emit; on such input the per-frame argmax path dominates its label's mass.
    """
    m = np.empty((n_frames, n_tokens))
    for t in range(n_frames):
        dom = int(rng.integers(n_tokens))
        p = float(rng.uniform(floor, 0.995))
        rest = rng.dirichlet(np.ones(n_tokens - 1)) * (1.0 - p)
        m[t] = np.insert(rest, dom, p)
    return m


# --- frozen reference beam decoders -----------------------------------------

@dataclass(frozen=True)
class BeamState:
    """Snapshot of one beam entry after a frame has been resolved.

    alignment_b / alignment_nb are (alignment, probability) for the best
    candidate ending in blank / non-blank, or None where no such alignment
    exists yet.
    """

    prefix: TokenSeq
    p_b: float
    p_nb: float
    alignment_b: tuple[TokenSeq, float] | None
    alignment_nb: tuple[TokenSeq, float] | None


# An alignment chain cell is (parent_cell | None, token); a candidate is
# (log_probability, chain). Slot layout per prefix while a frame is being
# built: [log_pb, log_pnb, cand_b, cand_nb].
_Chain = tuple
_Candidate = tuple


def _materialize(chain: _Chain | None) -> TokenSeq:
    out = []
    while chain is not None:
        chain, token = chain
        out.append(token)
    out.reverse()
    return tuple(out)


def _offer(slot: list, idx: int, logp: float, chain: _Chain) -> None:
    """Keep the better of the incumbent candidate and (logp, chain)."""
    cur = slot[idx]
    if cur is None or logp > cur[0]:
        slot[idx] = (logp, chain)
    elif logp == cur[0] and _materialize(chain) < _materialize(cur[1]):
        slot[idx] = (logp, chain)


def _ranked_prefixes(slots: dict) -> list:
    """Slot entries ordered by total mass descending, then prefix ascending."""
    # prefixes are unique dict keys, so the sort never reaches the slot lists
    rows = [(-log_add(s[0], s[1]), prefix, s) for prefix, s in slots.items()]
    rows.sort()
    return [(prefix, s) for _, prefix, s in rows]


def reference_prefix_beam_search(
    m: ProbMatrix, alphabet: Alphabet, beam_width: int
) -> list[tuple[TokenSeq, float]]:
    """Beam search over label prefixes; returns ranked (label, probability).

    Probabilities are the summed mass of every alignment of the label that
    survived pruning; with a beam wide enough that nothing is ever pruned they
    are exact. Zero-mass prefixes are dropped from the result.
    """
    if beam_width < 1:
        raise ParameterError(f"beam width must be >= 1, got {beam_width}")
    if m.n_tokens != alphabet.size:
        raise ParameterError(f"matrix has {m.n_tokens} tokens, alphabet {alphabet.size}")
    n_tokens = alphabet.size
    log_rows = log_matrix(m.probs).tolist()
    la, NEG = log_add, NEG_INF

    beams: dict[TokenSeq, list] = {(): [0.0, NEG]}
    for lp in log_rows:
        lp_blank = lp[BLANK_ID]
        slots: dict[TokenSeq, list] = {}
        for prefix, (pb, pnb) in beams.items():
            tot = la(pb, pnb)
            s = slots.get(prefix)
            if s is None:
                slots[prefix] = s = [NEG, NEG]
            last = prefix[-1] if prefix else -1
            if prefix and pnb != NEG:
                s[1] = la(s[1], pnb + lp[last])
            if tot != NEG:
                s[0] = la(s[0], tot + lp_blank)
            for c in range(1, n_tokens):
                ext = prefix + (c,)
                s2 = slots.get(ext)
                if s2 is None:
                    slots[ext] = s2 = [NEG, NEG]
                if c == last:
                    if pb != NEG:
                        s2[1] = la(s2[1], pb + lp[c])
                elif tot != NEG:
                    s2[1] = la(s2[1], tot + lp[c])
        beams = dict(_ranked_prefixes(slots)[:beam_width])

    out = []
    for prefix, (pb, pnb) in _ranked_prefixes(beams):
        tot = log_add(pb, pnb)
        if tot != NEG_INF:
            out.append((prefix, float(np.exp(tot))))
    return out


def reference_extended_prefix_beam_search(
    m: ProbMatrix,
    alphabet: Alphabet,
    beam_width: int,
    capture_states: list | None = None,
) -> DecodeResult:
    """Prefix beam search that also recovers the best alignment per label.

    Prefix probabilities and ranking are identical to prefix_beam_search. In
    addition each beam entry carries the single most probable alignment ending
    in blank and ending in non-blank; they advance through the same
    repeat / blank / extend cases as the mass and are resolved to one winner
    per entry at each frame. The returned alignment for a hypothesis is the
    better of its two candidates.

    When ``capture_states`` is a list, a tuple of BeamState snapshots is
    appended per frame (after pruning and candidate resolution).
    """
    if beam_width < 1:
        raise ParameterError(f"beam width must be >= 1, got {beam_width}")
    if m.n_tokens != alphabet.size:
        raise ParameterError(f"matrix has {m.n_tokens} tokens, alphabet {alphabet.size}")
    n_tokens = alphabet.size
    log_rows = log_matrix(m.probs).tolist()
    la, offer, NEG = log_add, _offer, NEG_INF

    # prefix -> [log_pb, log_pnb, cand_b, cand_nb]
    beams: dict[TokenSeq, list] = {(): [0.0, NEG, (0.0, None), None]}
    for lp in log_rows:
        lp_blank = lp[BLANK_ID]
        slots: dict[TokenSeq, list] = {}
        for prefix, (pb, pnb, cb, cnb) in beams.items():
            tot = la(pb, pnb)
            s = slots.get(prefix)
            if s is None:
                slots[prefix] = s = [NEG, NEG, None, None]
            last = prefix[-1] if prefix else -1
            if prefix:
                lp_last = lp[last]
                if pnb != NEG:
                    v = pnb + lp_last
                    s[1] = v if s[1] == NEG else la(s[1], v)
                if cnb is not None:
                    v = cnb[0] + lp_last
                    cur = s[3]
                    if cur is None or v > cur[0]:
                        s[3] = (v, (cnb[1], last))
                    elif v == cur[0]:
                        offer(s, 3, v, (cnb[1], last))
            if tot != NEG:
                v = tot + lp_blank
                s[0] = v if s[0] == NEG else la(s[0], v)
            if cb is not None:
                v = cb[0] + lp_blank
                cur = s[2]
                if cur is None or v > cur[0]:
                    s[2] = (v, (cb[1], BLANK_ID))
                elif v == cur[0]:
                    offer(s, 2, v, (cb[1], BLANK_ID))
            if cnb is not None:
                v = cnb[0] + lp_blank
                cur = s[2]
                if cur is None or v > cur[0]:
                    s[2] = (v, (cnb[1], BLANK_ID))
                elif v == cur[0]:
                    offer(s, 2, v, (cnb[1], BLANK_ID))
            for c in range(1, n_tokens):
                lp_c = lp[c]
                ext = prefix + (c,)
                s2 = slots.get(ext)
                if s2 is None:
                    slots[ext] = s2 = [NEG, NEG, None, None]
                if c == last:
                    # extending with the last token again: only blank-ending
                    # mass (and its candidate) can start the new event
                    if pb != NEG:
                        v = pb + lp_c
                        s2[1] = v if s2[1] == NEG else la(s2[1], v)
                    if cb is not None:
                        v = cb[0] + lp_c
                        cur = s2[3]
                        if cur is None or v > cur[0]:
                            s2[3] = (v, (cb[1], c))
                        elif v == cur[0]:
                            offer(s2, 3, v, (cb[1], c))
                else:
                    if tot != NEG:
                        v = tot + lp_c
                        s2[1] = v if s2[1] == NEG else la(s2[1], v)
                    if cb is not None:
                        v = cb[0] + lp_c
                        cur = s2[3]
                        if cur is None or v > cur[0]:
                            s2[3] = (v, (cb[1], c))
                        elif v == cur[0]:
                            offer(s2, 3, v, (cb[1], c))
                    if cnb is not None:
                        v = cnb[0] + lp_c
                        cur = s2[3]
                        if cur is None or v > cur[0]:
                            s2[3] = (v, (cnb[1], c))
                        elif v == cur[0]:
                            offer(s2, 3, v, (cnb[1], c))
        beams = dict(_ranked_prefixes(slots)[:beam_width])
        if capture_states is not None:
            capture_states.append(tuple(_snapshot(p, b) for p, b in beams.items()))

    hypotheses = []
    for prefix, (pb, pnb, cb, cnb) in _ranked_prefixes(beams):
        tot = log_add(pb, pnb)
        if tot == NEG_INF:
            continue
        cand = _better_candidate(cb, cnb)
        if cand is None:
            continue
        logp_align, chain = cand
        alignment = _materialize(chain)
        assert collapse(alignment, alphabet) == prefix
        hypotheses.append(
            Hypothesis(
                label=prefix,
                probability=float(np.exp(tot)),
                log_probability=tot,
                alignment=alignment,
                alignment_probability=float(np.exp(logp_align)),
                alignment_log_probability=logp_align,
            )
        )
    return DecodeResult(tuple(hypotheses))


def _better_candidate(cb: _Candidate | None, cnb: _Candidate | None) -> _Candidate | None:
    if cb is None:
        return cnb
    if cnb is None:
        return cb
    if cb[0] != cnb[0]:
        return cb if cb[0] > cnb[0] else cnb
    return cb if _materialize(cb[1]) < _materialize(cnb[1]) else cnb


def _snapshot(prefix: TokenSeq, beam) -> BeamState:
    pb, pnb, cb, cnb = beam
    return BeamState(
        prefix=prefix,
        p_b=float(np.exp(pb)),
        p_nb=float(np.exp(pnb)),
        alignment_b=None if cb is None else (_materialize(cb[1]), float(np.exp(cb[0]))),
        alignment_nb=None if cnb is None else (_materialize(cnb[1]), float(np.exp(cnb[0]))),
    )


# --- frozen reference two-stage detector ------------------------------------

def reference_two_stage_detect(m: ProbMatrix, params: TwoStageParams) -> list[Detection]:
    pooled = m.probs[:, 1:]
    score = pooled.max(axis=1).copy()
    cls = pooled.argmax(axis=1) + 1
    rate = m.sample_rate_hz
    min_frames = params.min_distance_s * rate
    detections = []
    while True:
        peak = int(np.argmax(score))
        if score[peak] <= params.threshold:
            break
        detections.append(Detection(int(cls[peak]), peak, peak / rate))
        lo = int(np.ceil(peak - min_frames + 1e-9))
        hi = int(np.floor(peak + min_frames - 1e-9))
        score[max(lo, 0) : min(hi, score.size - 1) + 1] = -1.0
    detections.sort(key=lambda d: d.frame)
    return detections


# --- frozen reference forward pass ------------------------------------------

def reference_log_prob_forward(m: ProbMatrix, label) -> float:
    """The forward pass's log-probability of a valid, blank-free label."""
    log_p = log_matrix(m.probs)
    aug = np.empty(2 * len(label) + 1, dtype=np.int64)
    aug[0::2] = BLANK_ID
    aug[1::2] = label
    skip = np.flatnonzero(aug[2:] != aug[:-2]) + 2

    alpha = np.full(aug.size, NEG_INF)
    alpha[:2] = log_p[0, aug[:2]]
    for t in range(1, m.frames):
        prev = alpha.copy()
        alpha[1:] = np.logaddexp(alpha[1:], prev[:-1])
        alpha[skip] = np.logaddexp(alpha[skip], prev[skip - 2])
        alpha += log_p[t, aug]
    return float(np.logaddexp.reduce(alpha[-2:]))
