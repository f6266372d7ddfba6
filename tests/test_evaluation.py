import pytest

from ctcdetect import (
    ClassCounts,
    Detection,
    EvalCounts,
    GroundTruthEvent,
    OrderingError,
    ParameterError,
    evaluate,
    prf1,
)
from ctcdetect.io import FormatError, read_gt_csv

from conftest import D, E


def _dets(*pairs):
    return [Detection(cls, frame, float(frame)) for cls, frame in pairs]


FIXTURE_TRUTH = [
    GroundTruthEvent(E, 10, 20),
    GroundTruthEvent(E, 30, 40),
    GroundTruthEvent(D, 50, 60),
]
FIXTURE_DETS = _dets((E, 12), (E, 15), (E, 25), (D, 33), (E, 55))


class TestEvaluate:
    def test_hand_traced_fixture(self):
        counts = evaluate(FIXTURE_DETS, FIXTURE_TRUTH)
        e = counts.per_class[E]
        assert (e.tp, e.fp1, e.fp2, e.fp3, e.fn) == (1, 1, 1, 1, 1)
        d = counts.per_class[D]
        assert (d.tp, d.fp1, d.fp2, d.fp3, d.fn) == (0, 0, 0, 1, 1)

    def test_no_detections_all_missed(self):
        counts = evaluate([], FIXTURE_TRUTH)
        assert counts.per_class[E].fn == 2
        assert counts.per_class[D].fn == 1
        total = counts.total()
        assert (total.tp, total.fp1, total.fp2, total.fp3) == (0, 0, 0, 0)

    def test_boundary_frames_are_inside(self):
        truth = [GroundTruthEvent(E, 10, 20)]
        counts = evaluate(_dets((E, 10)), truth)
        assert counts.per_class[E].tp == 1
        counts = evaluate(_dets((E, 20)), truth)
        assert counts.per_class[E].tp == 1
        counts = evaluate(_dets((E, 21)), truth)
        assert counts.per_class[E].fp2 == 1

    def test_wrong_class_leaves_event_open(self):
        truth = [GroundTruthEvent(E, 10, 20)]
        counts = evaluate(_dets((D, 12), (E, 15)), truth)
        assert counts.per_class[D].fp3 == 1
        assert counts.per_class[E].tp == 1
        assert counts.per_class[E].fn == 0

    def test_unsorted_detections_rejected(self):
        with pytest.raises(OrderingError):
            evaluate(_dets((E, 15), (E, 12)), FIXTURE_TRUTH)

    def test_unsorted_truth_rejected(self):
        with pytest.raises(ParameterError, match="must be sorted by start frame"):
            evaluate([], [GroundTruthEvent(E, 30, 40), GroundTruthEvent(D, 10, 20)])

    @pytest.mark.parametrize(
        "args, message", [((0, 1, 2), "not blank"), ((E, 5, 2), "^event start 5 after end 2$")]
    )
    def test_truth_event_needs_a_class_and_a_forward_interval(self, args, message):
        with pytest.raises(ParameterError, match=message):
            GroundTruthEvent(*args)

    def test_overlapping_truth_rejected(self):
        with pytest.raises(ParameterError):
            evaluate([], [GroundTruthEvent(E, 10, 20), GroundTruthEvent(D, 15, 25)])

    def test_tp_plus_fn_is_event_count(self):
        import numpy as np

        rng = np.random.default_rng(31)
        for _ in range(50):
            truth = []
            cursor = 0
            for _ in range(int(rng.integers(0, 6))):
                start = cursor + int(rng.integers(1, 10))
                end = start + int(rng.integers(0, 8))
                truth.append(GroundTruthEvent(int(rng.integers(1, 3)), start, end))
                cursor = end + 1
            detections = sorted(
                (
                    Detection(int(rng.integers(1, 3)), int(rng.integers(0, 80)), 0.0)
                    for _ in range(int(rng.integers(0, 10)))
                ),
                key=lambda d: d.frame,
            )
            counts = evaluate(detections, truth)
            for cls in (1, 2):
                expected = sum(1 for ev in truth if ev.class_id == cls)
                row = counts.per_class.get(cls)
                got = (row.tp + row.fn) if row else 0
                assert got == expected

    def test_translation_invariance(self):
        shifted_truth = [
            GroundTruthEvent(ev.class_id, ev.start_frame + 100, ev.end_frame + 100)
            for ev in FIXTURE_TRUTH
        ]
        shifted_dets = [
            Detection(d.class_id, d.frame + 100, d.time_s) for d in FIXTURE_DETS
        ]
        assert evaluate(FIXTURE_DETS, FIXTURE_TRUTH) == evaluate(shifted_dets, shifted_truth)

    def test_outside_detection_adds_exactly_one_fp2(self):
        base = evaluate(FIXTURE_DETS, FIXTURE_TRUTH)
        extra = evaluate(FIXTURE_DETS + _dets((D, 90)), FIXTURE_TRUTH)
        assert extra.per_class[D].fp2 == base.per_class[D].fp2 + 1
        assert extra.per_class[E] == base.per_class[E]
        d_base, d_extra = base.per_class[D], extra.per_class[D]
        assert (d_extra.tp, d_extra.fp1, d_extra.fp3, d_extra.fn) == (
            d_base.tp,
            d_base.fp1,
            d_base.fp3,
            d_base.fn,
        )


class TestPrf1:
    def test_fixture_scores(self):
        counts = evaluate(FIXTURE_DETS, FIXTURE_TRUTH)
        score = prf1(counts, classes=[E])
        assert score.precision == pytest.approx(0.25)
        assert score.recall == pytest.approx(0.5)
        assert score.f1 == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_perfect_detection(self):
        truth = [GroundTruthEvent(E, 0, 5), GroundTruthEvent(D, 10, 15)]
        counts = evaluate(_dets((E, 3), (D, 12)), truth)
        score = prf1(counts)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_zero_everything_gives_zero(self):
        score = prf1(EvalCounts())
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_class_counts_add_field_by_field(self):
        total = ClassCounts(1, 2, 3, 4, 5) + ClassCounts(10, 20, 30, 40, 50)
        assert total == ClassCounts(11, 22, 33, 44, 55)

    def test_micro_equals_summed_counts(self):
        counts = evaluate(FIXTURE_DETS, FIXTURE_TRUTH)
        both = prf1(counts)
        total = counts.total()
        assert both.precision == pytest.approx(
            total.tp / (total.tp + total.fp1 + total.fp2 + total.fp3)
        )
        assert both.recall == pytest.approx(total.tp / (total.tp + total.fn))


def _evaluate(tmp_path, intervals):
    evaluate([], [GroundTruthEvent(E, start, end) for start, end in intervals])


def _read_gt_csv(tmp_path, intervals):
    path = tmp_path / "gt.csv"
    path.write_text("start_frame,end_frame,class\n" + "".join(f"{s},{e},E\n" for s, e in intervals))
    read_gt_csv(path)


# The interval rule has one owner, evaluation.check_intervals; the reader
# sorts its rows first and prefixes the message with the file's path.
@pytest.mark.parametrize(
    "check, error", [(_evaluate, ParameterError), (_read_gt_csv, FormatError)],
    ids=["evaluate", "read_gt_csv"],
)
@pytest.mark.parametrize(
    "intervals, overlap",
    [([(0, 5), (6, 8)], None),
     ([(3, 3), (4, 4), (5, 9)], None),
     ([(0, 5), (5, 8)], "[0, 5] and [5, 8]"),
     ([(0, 10), (3, 4)], "[0, 10] and [3, 4]"),
     ([(2, 2), (2, 2)], "[2, 2] and [2, 2]"),
     ([(0, 1), (3, 6), (6, 6)], "[3, 6] and [6, 6]")],
    ids=["adjacent", "single-frames", "one-shared-frame", "nested", "equal", "last-pair"],
)
def test_ground_truth_intervals_have_one_rule(tmp_path, check, error, intervals, overlap):
    if overlap is None:
        check(tmp_path, intervals)
        return
    with pytest.raises(error) as info:
        check(tmp_path, intervals)
    prefix = f"{tmp_path / 'gt.csv'}: " if error is FormatError else ""
    assert str(info.value) == f"{prefix}ground-truth events overlap: {overlap}"
