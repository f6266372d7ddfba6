"""Output checks. Each returns a list of problems; an empty list is a pass.

The checks recompute what they need (collapse, CSV parsing) without calling
the library, so a defect there cannot hide itself. ``self_test`` feeds each
check a known-bad output and reports any that slips through.
"""

from __future__ import annotations

import csv
import io
import json
import math

# slack for comparing log-probabilities computed along different paths
LOG_TOL = 1e-9


class Checker:
    """Counts checked operations and keeps the problems of failed ones.

    A check returns None when the output cannot be checked at all (say, a
    probability that underflowed to 0.0); the operation is then listed as
    unchecked, neither passed nor failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.unchecked: list[str] = []

    def record(self, op: str, problems: list[str] | None) -> None:
        if problems is None:
            self.unchecked.append(op)
            return
        self.attempted += 1
        if problems:
            self.failures.append((op, problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def _collapse(tokens) -> tuple[int, ...]:
    out, prev = [], None
    for t in tokens:
        if t != prev and t != 0:
            out.append(t)
        prev = t
    return tuple(out)


def _close_le(a: float, b: float) -> bool:
    """a <= b up to LOG_TOL relative slack (log-space values)."""
    return a <= b + LOG_TOL * max(1.0, abs(b))


def detections(csv_bytes: bytes, total_frames: int, class_names) -> list[str]:
    """A detections CSV parses, is sorted by frame, and stays in range."""
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
    if not rows or rows[0] != ["frame", "time_s", "class"]:
        return [f"bad header {rows[:1]}"]
    problems, prev = [], -1
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            frame, _, name = int(row[0]), float(row[1]), row[2]
        except (ValueError, IndexError):
            problems.append(f"line {lineno}: unparseable {row}")
            continue
        if frame < prev:
            problems.append(f"line {lineno}: frame {frame} after {prev}")
        if not 0 <= frame < total_frames:
            problems.append(f"line {lineno}: frame {frame} outside 0..{total_frames - 1}")
        if name not in class_names:
            problems.append(f"line {lineno}: unknown class {name!r}")
        prev = frame
    return problems


def eval_counts(eval_bytes: bytes, truth_per_class: dict) -> list[str]:
    """tp + fn equals the number of ground-truth events of each class."""
    try:
        classes = json.loads(eval_bytes)["classes"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable eval output: {exc!r}"]
    problems = []
    for name, n in truth_per_class.items():
        counts = classes.get(name, {}).get("counts", {})
        got = counts.get("tp", 0) + counts.get("fn", 0)
        if got != n:
            problems.append(f"class {name}: tp + fn = {got}, {n} events")
    return problems


def same_as_first(digests: list) -> list[str]:
    """Every pass of a run gave identical outputs."""
    return [
        f"pass {i} output differs from pass 0"
        for i, d in enumerate(digests)
        if d != digests[0]
    ]


def extended_result(result, frames: int) -> list[str]:
    """Alignments collapse to their labels and never outweigh them; order holds."""
    hyps = result.hypotheses
    if not hyps:
        return ["no hypotheses"]
    problems = []
    for i, h in enumerate(hyps):
        if len(h.alignment) != frames:
            problems.append(f"hyp {i}: alignment of {len(h.alignment)} frames, not {frames}")
        if _collapse(h.alignment) != tuple(h.label):
            problems.append(f"hyp {i}: alignment does not collapse to its label")
        if not _close_le(h.alignment_log_probability, h.log_probability):
            problems.append(f"hyp {i}: alignment more probable than its label")
    problems += ordered([h.log_probability for h in hyps])
    return problems


def ordered(scores) -> list[str]:
    """Hypotheses come in non-increasing probability order."""
    return [
        f"hyp {i + 1} ({b}) ranked below a less probable one ({a})"
        for i, (a, b) in enumerate(zip(scores, scores[1:]))
        if b > a
    ]


def prefix_result(ranked) -> list[str]:
    if not ranked:
        return ["no hypotheses"]
    return ordered([p for _, p in ranked])


def same_top_label(result, ranked) -> list[str]:
    """The extended search and prefix_beam_search agree on the top label."""
    extended = tuple(result.hypotheses[0].label) if result.hypotheses else None
    prefix = tuple(ranked[0][0]) if ranked else None
    if extended is None or extended != prefix:
        return [f"top labels differ: extended {extended}, prefix {prefix}"]
    return []


def beam_below_forward(beam_log_p: float, forward_log_p: float) -> list[str]:
    """Pruning only loses mass: the beam's value is a lower bound."""
    if not _close_le(beam_log_p, forward_log_p):
        return [f"beam log-probability {beam_log_p} exceeds exact {forward_log_p}"]
    return []


def prefix_below_forward(probability: float, forward_log_p: float) -> list[str] | None:
    """beam_below_forward for prefix_beam_search, which reports probabilities,
    not logs: a probability that underflowed to 0.0 cannot be compared, so the
    check returns None (unchecked) rather than passing it."""
    if probability == 0.0:
        return None
    return beam_below_forward(math.log(probability), forward_log_p)


def self_test() -> list[str]:
    """Feed every check a known-bad output; list the ones that pass it."""
    from ctcdetect import DecodeResult, Hypothesis

    names = ("eat", "drink")
    good_csv = b"frame,time_s,class\n3,0.05,eat\n9,0.14,drink\n"

    def hyp(label, alignment, logp, align_logp):
        return Hypothesis(label, 0.0, logp, alignment, 0.0, align_logp)

    good_result = DecodeResult((hyp((1,), (0, 1, 1), -1.0, -2.0), hyp((), (0, 0, 0), -3.0, -3.0)))
    good_eval = json.dumps(
        {"classes": {"eat": {"counts": {"tp": 1, "fn": 1}}, "drink": {"counts": {"tp": 0, "fn": 2}}}}
    ).encode()
    truth = {"eat": 2, "drink": 2}
    good = {
        "detections": detections(good_csv, 10, names),
        "eval": eval_counts(good_eval, truth),
        "passes": same_as_first(["a", "a"]),
        "extended": extended_result(good_result, 3),
        "prefix": prefix_result([((1,), 0.5), ((), 0.2)]),
        "top label": same_top_label(good_result, [((1,), 0.5)]),
        "forward": beam_below_forward(-2.0, -1.5),
        "prefix forward": prefix_below_forward(0.2, -1.5),
    }
    bad = {
        "unsorted detections": detections(
            b"frame,time_s,class\n9,0.14,eat\n3,0.05,eat\n", 10, names
        ),
        "detection out of range": detections(b"frame,time_s,class\n10,0.15,eat\n", 10, names),
        "unknown class": detections(b"frame,time_s,class\n3,0.05,sip\n", 10, names),
        "unparseable detection": detections(b"frame,time_s,class\nx,0.05,eat\n", 10, names),
        "bad header": detections(b"frame,class\n3,eat\n", 10, names),
        "tp + fn off": eval_counts(good_eval, {"eat": 3, "drink": 2}),
        "passes differ": same_as_first(["a", "b"]),
        "alignment not collapsing": extended_result(
            DecodeResult((hyp((1,), (1, 0, 1), -1.0, -2.0),)), 3
        ),
        "alignment above label": extended_result(
            DecodeResult((hyp((1,), (0, 1, 1), -2.0, -1.0),)), 3
        ),
        "alignment length": extended_result(DecodeResult((hyp((1,), (1, 1), -1.0, -2.0),)), 3),
        "extended order": extended_result(
            DecodeResult((hyp((), (0, 0, 0), -3.0, -3.0), hyp((1,), (0, 1, 1), -1.0, -2.0))), 3
        ),
        "prefix order": prefix_result([((), 0.2), ((1,), 0.5)]),
        "no hypotheses": prefix_result([]),
        "top labels differ": same_top_label(good_result, [((1, 2), 0.5)]),
        "top label missing": same_top_label(good_result, []),
        "beam above forward": beam_below_forward(-1.0, -1.5),
        "prefix above forward": prefix_below_forward(0.5, -1.5),
    }
    missed = [f"good {name} output flagged: {p}" for name, p in good.items() if p]
    missed += [f"bad output passed: {name}" for name, p in bad.items() if not p]
    if prefix_below_forward(0.0, -900.0) is not None:
        missed.append("underflowed prefix probability not reported as unchecked")
    return missed
