"""Event-level scoring of sparse detections against labeled intervals.

A detection landing inside a ground-truth event of its own class is a true
positive if it is the first one there, otherwise a duplicate (fp1). A
detection inside an event of another class is a wrong-class hit (fp3),
credited to the detection's class and leaving the event still open for its
own class. A detection outside every event is spurious (fp2). Events that
never receive a same-class detection are misses (fn). Interval bounds are
inclusive on both ends.

Counts are kept per class and merge by addition; precision counts every
false-positive kind.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, fields

from .core import BLANK_ID, DataError, ParameterError
from .windowing import Detection


class OrderingError(DataError):
    """Detections were not supplied in frame order."""


@dataclass(frozen=True)
class GroundTruthEvent:
    """A labeled event interval; frames are inclusive on both ends."""

    class_id: int
    start_frame: int
    end_frame: int

    def __post_init__(self) -> None:
        if self.class_id == BLANK_ID:
            raise ParameterError("ground-truth events carry event classes, not blank")
        if self.start_frame > self.end_frame:
            raise ParameterError(
                f"event start {self.start_frame} after end {self.end_frame}"
            )


@dataclass
class ClassCounts:
    tp: int = 0
    fp1: int = 0
    fp2: int = 0
    fp3: int = 0
    fn: int = 0

    def __add__(self, other: "ClassCounts") -> "ClassCounts":
        return ClassCounts(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))


@dataclass
class EvalCounts:
    """Per-class match counts, keyed by class id."""

    per_class: dict[int, ClassCounts] = field(default_factory=dict)

    def counts_for(self, class_id: int) -> ClassCounts:
        return self.per_class.setdefault(class_id, ClassCounts())

    def total(self, classes=None) -> ClassCounts:
        selected = self.per_class.keys() if classes is None else classes
        out = ClassCounts()
        for cls in selected:
            out = out + self.per_class.get(cls, ClassCounts())
        return out


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


def check_intervals(intervals: list[tuple[int, int]]) -> None:
    """Raise ParameterError unless the (start, end) ground-truth intervals are
    sorted by start and no two share a frame."""
    for (start0, end0), (start, end) in zip(intervals, intervals[1:]):
        if start < start0:
            raise ParameterError("ground-truth events must be sorted by start frame")
        if start <= end0:
            raise ParameterError(f"ground-truth events overlap: [{start0}, {end0}] and [{start}, {end}]")


def evaluate(
    detections: list[Detection], ground_truth: list[GroundTruthEvent]
) -> EvalCounts:
    """Score detections against ground-truth events.

    Detections must be sorted by frame (OrderingError otherwise); ground-truth
    events must be sorted and non-overlapping. Every class seen in either
    input gets a row in the result, so tp + fn always equals the ground-truth
    event count per class.
    """
    for prev, cur in zip(detections, detections[1:]):
        if cur.frame < prev.frame:
            raise OrderingError("detections must be sorted by frame")
    check_intervals([(e.start_frame, e.end_frame) for e in ground_truth])

    counts = EvalCounts()
    for event in ground_truth:
        counts.counts_for(event.class_id)
    for det in detections:
        counts.counts_for(det.class_id)

    starts = [e.start_frame for e in ground_truth]
    taken = [False] * len(ground_truth)
    for det in detections:
        idx = bisect.bisect_right(starts, det.frame) - 1
        event = ground_truth[idx] if idx >= 0 else None
        row = counts.counts_for(det.class_id)
        if event is None or det.frame > event.end_frame:
            row.fp2 += 1
        elif event.class_id != det.class_id:
            row.fp3 += 1
        elif taken[idx]:
            row.fp1 += 1
        else:
            taken[idx] = True
            row.tp += 1
    for event, got in zip(ground_truth, taken):
        if not got:
            counts.counts_for(event.class_id).fn += 1
    return counts


def prf1(counts: EvalCounts, classes=None) -> PRF:
    """Precision, recall, and F1 over the summed counts of selected classes.

    Precision counts all three false-positive kinds against true positives;
    zero denominators yield 0 rather than an error.
    """
    c = counts.total(classes)
    denom_p = c.tp + c.fp1 + c.fp2 + c.fp3
    denom_r = c.tp + c.fn
    precision = c.tp / denom_p if denom_p else 0.0
    recall = c.tp / denom_r if denom_r else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return PRF(precision, recall, f1)
