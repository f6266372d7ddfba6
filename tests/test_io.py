import json

import numpy as np
import pytest

from ctcdetect import (
    Alphabet,
    Detection,
    GroundTruthEvent,
    ProbMatrix,
    SyntheticScript,
    gen_synthetic,
)
from ctcdetect import io as fileio
from ctcdetect.io import (
    FormatError,
    read_detections_csv,
    read_gt_csv,
    read_prob_csv,
    read_sidecar_rate,
    read_velocity_csv,
    write_detections_csv,
    write_gt_csv,
    write_prob_csv,
)

from conftest import D, E


class TestProbCsv:
    def test_round_trip_with_sidecar(self, tmp_path, worked_matrix, worked_alphabet):
        path = tmp_path / "probs.csv"
        write_prob_csv(path, worked_matrix, worked_alphabet)
        m, alphabet = read_prob_csv(path)
        assert alphabet.class_names == ("E", "D")
        assert m.sample_rate_hz == worked_matrix.sample_rate_hz
        assert np.allclose(m.probs, worked_matrix.probs, atol=1e-12)

    def test_written_bytes(self, tmp_path, monkeypatch):
        # rows use %.12g and CRLF line ends; the header is CSV-quoted; frame
        # numbers run on across the blocks the rows are written in
        monkeypatch.setattr(fileio, "_WRITE_BLOCK_ROWS", 2)
        path = tmp_path / "probs.csv"
        rows = np.array([[0.0, 1.0, 0.0], [1 / 3, 1 / 3, 1 / 3], [1e-300, 0.5, 0.5]])
        write_prob_csv(path, ProbMatrix(rows, 4.0), Alphabet.from_names(("eat", 'sip"x"')))
        assert path.read_bytes() == (
            b't,p_blank,p_eat,"p_sip""x"""\r\n'
            b"0,0,1,0\r\n"
            b"1,0.333333333333,0.333333333333,0.333333333333\r\n"
            b"2,1e-300,0.5,0.5\r\n"
        )
        assert json.loads((tmp_path / "probs.csv.json").read_text()) == {"sample_rate_hz": 4.0}

    def test_explicit_rate_wins_over_sidecar(self, tmp_path, worked_matrix, worked_alphabet):
        path = tmp_path / "probs.csv"
        write_prob_csv(path, worked_matrix, worked_alphabet)
        m, _ = read_prob_csv(path, sample_rate_hz=25.0)
        assert m.sample_rate_hz == 25.0

    def test_missing_sidecar_is_none(self, tmp_path):
        assert read_sidecar_rate(tmp_path / "nope.csv") is None

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,p_blank,p_E\n0,0.5,0.5\n")
        with pytest.raises(FormatError):
            read_prob_csv(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,p_blank,p_E\n0,0.5,0.5\n1,oops,0.5\n")
        with pytest.raises(FormatError, match=":3"):
            read_prob_csv(path)

    def test_renormalize_passthrough(self, tmp_path):
        path = tmp_path / "near.csv"
        path.write_text("t,p_blank,p_E\n0,0.5002,0.5\n")
        m, _ = read_prob_csv(path, renormalize=True)
        assert m.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_corrupt_sidecar_rejected(self, tmp_path, worked_matrix, worked_alphabet):
        path = tmp_path / "probs.csv"
        write_prob_csv(path, worked_matrix, worked_alphabet)
        (tmp_path / "probs.csv.json").write_text("{not json")
        with pytest.raises(FormatError):
            read_prob_csv(path)


class TestDetectionCsv:
    def test_round_trip(self, tmp_path, worked_alphabet):
        path = tmp_path / "dets.csv"
        detections = [Detection(E, 10, 1.0), Detection(D, 64, 6.4)]
        write_detections_csv(path, detections, worked_alphabet)
        rows = read_detections_csv(path)
        assert rows == [(10, 1.0, "E"), (64, 6.4, "D")]

    def test_header_checked(self, tmp_path):
        path = tmp_path / "dets.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(FormatError):
            read_detections_csv(path)

    @pytest.mark.parametrize("row", ["-4,0.1,E", "4,nan,E", "4,inf,E", "4,-inf,E"])
    def test_negative_frame_or_non_finite_time_rejected_with_line(self, tmp_path, row):
        path = tmp_path / "dets.csv"
        path.write_text(f"frame,time_s,class\n1,0.1,E\n{row}\n")
        with pytest.raises(FormatError, match=r"dets\.csv:3:"):
            read_detections_csv(path)


class TestGtCsv:
    def test_round_trip(self, tmp_path, worked_alphabet):
        path = tmp_path / "gt.csv"
        events = [GroundTruthEvent(E, 9, 11), GroundTruthEvent(D, 39, 41)]
        write_gt_csv(path, events, worked_alphabet)
        assert read_gt_csv(path) == [(9, 11, "E"), (39, 41, "D")]

    @pytest.mark.parametrize(
        "rows, message",
        [("0,5,E\n9,7,D\n", r"gt\.csv:3: event start 9 after end 7"),
         ("20,25,E\n0,5,D\n5,8,E\n", r"overlap: \[0, 5\] and \[5, 8\]"),
         ("9,11,E\n-5,3,E\n", r"gt\.csv:3: frame -5 is negative"),
         ("9,11,E\n-5,-3,D\n", r"gt\.csv:3: frame -5 is negative")],
        ids=["reversed", "overlapping", "negative-start", "negative-interval"],
    )
    def test_reversed_or_overlapping_rejected(self, tmp_path, rows, message):
        path = tmp_path / "gt.csv"
        path.write_text("start_frame,end_frame,class\n" + rows)
        with pytest.raises(FormatError, match=message):
            read_gt_csv(path)


class TestVelocityCsv:
    def test_reads_series(self, tmp_path):
        path = tmp_path / "gyro.csv"
        path.write_text("t,roll_dps\n0,1.5\n1,-2.0\n")
        series = read_velocity_csv(path)
        assert series.tolist() == [1.5, -2.0]

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "gyro.csv"
        path.write_text("t,roll_dps\n")
        with pytest.raises(FormatError):
            read_velocity_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected_with_line(self, tmp_path, value):
        path = tmp_path / "gyro.csv"
        path.write_text(f"t,roll_dps\n0,1.5\n1,{value}\n")
        with pytest.raises(FormatError, match=r"gyro\.csv:3:"):
            read_velocity_csv(path)
