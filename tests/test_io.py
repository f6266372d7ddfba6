import csv
import json
import mmap
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from oracles import reference_fast_reader_refusal


# 0 and 1, a value %.12g rounds, and values %.12g prints with an exponent
_PROBABILITIES = st.sampled_from([0.0, 1.0, 1 / 3, 1e-05, 1e-300]) | st.floats(0, 1)


@st.composite
def prob_rows(draw) -> list[list[float]]:
    """A few rows of 2 to 5 tokens summing to 1: each value is drawn, capped
    by what the row has left, and what is left goes to a drawn column."""
    n_tokens = draw(st.integers(2, 5))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row, left = [], 1.0
        for _ in range(n_tokens - 1):
            row.append(min(draw(_PROBABILITIES), left))
            left -= row[-1]
        row.insert(draw(st.integers(0, n_tokens - 1)), left)
        rows.append(row)
    return rows


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

    @pytest.mark.parametrize("block", [1, 2, 3, None], ids=["block1", "block2", "block3", "default"])
    @settings(deadline=None, derandomize=True, database=None, max_examples=60)
    @given(data=st.data())
    def test_bytes_match_per_row_format(self, tmp_path_factory, block, data):
        # the writer formats a block of rows at once; its bytes must be those
        # of the per-row format it replaced, kept here as the reference, for
        # frame counts around every multiple of the block size
        rows = data.draw(prob_rows())
        size = block or fileio._WRITE_BLOCK_ROWS
        frames = data.draw(st.integers(1, 3)) * size + data.draw(st.sampled_from([-1, 0, 1]))
        m = ProbMatrix(np.resize(rows, (max(frames, 1), len(rows[0]))), 25.0)
        alphabet = Alphabet.from_names([f"c{i}" for i in range(1, m.n_tokens)])
        path = tmp_path_factory.getbasetemp() / "per-row.csv"
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(fileio, "_WRITE_BLOCK_ROWS", block)
            write_prob_csv(path, m, alphabet)
        header = ",".join(["t", "p_blank"] + [f"p_{n}" for n in alphabet.class_names])
        row = "%d" + ",%.12g" * m.n_tokens + "\r\n"
        per_row = "".join(row % (t, *p) for t, p in enumerate(m.probs.tolist()))
        assert path.read_bytes() == (header + "\r\n" + per_row).encode()
        assert json.loads((tmp_path_factory.getbasetemp() / "per-row.csv.json").read_text()) == {
            "sample_rate_hz": 25.0
        }

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

    @pytest.mark.parametrize("name", ["a\x00b", "a\x7fb"])
    def test_class_name_with_control_character_rejected(self, tmp_path, name):
        # on Python 3.10 csv itself rejects a NUL, in either reader
        path = tmp_path / "bad.csv"
        path.write_text(f"t,p_blank,p_{name}\n0,0.5,0.5\n")
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


_LIMIT = csv.field_size_limit()
# fields the loop accepts, and fields it rejects or reads differently from
# numpy: an empty field, underscores, quotes, a non-numeric t, hex, NUL,
# separator controls, non-ASCII text, and unquoted numbers one char inside
# and outside the csv field size limit
_NUMBERS = st.one_of(
    st.floats(0, 1).map(repr),
    st.floats(0, 1).map("{:.12g}".format),
    st.sampled_from(["0", "1", ".5", "5.", "+0.5", "-0", "1e-300", "0.25E+0", " 0.5", "0.5 ",
                     "\t1\x0b", "\x0c0", "nan", "-inf", "Infinity"]),
)
_ODD = st.sampled_from(["", "1_0", '"0.5"', '"0,5"', "#0", "x", "0x1p-3", "0.5\x00", "\x1c0",
                        "\u00e90", "0." + "0" * (_LIMIT - 2), "0." + "0" * (_LIMIT - 1)])


@st.composite
def prob_csv_bytes(draw) -> bytes:
    """Probability CSVs, half of them well formed, half with the traps between
    the readers: odd fields, short and long rows, blank lines, a quoted or bad
    header column, lone carriage returns and no final newline."""
    names = draw(st.sampled_from([["E"], ["E", "D"]]))
    header = ["t", "p_blank"] + [f"p_{n}" for n in names]
    header[-1] = draw(st.sampled_from([header[-1]] * 6 + [f'"{header[-1]}"', "p_", "p__", "x"]))
    width = len(header)
    good = st.lists(_NUMBERS, min_size=width, max_size=width)
    odd = st.lists(st.one_of(_NUMBERS, _ODD), min_size=width - 1, max_size=width + 1)
    rows = draw(st.lists(good, max_size=6) | st.lists(good | odd | st.just([]), max_size=6))
    end = st.sampled_from(["\n", "\r\n"])
    ends = draw(
        st.lists(end | st.just("\r"), min_size=len(rows) + 1, max_size=len(rows) + 1)
        | end.map(lambda e: [e] * (len(rows) + 1))
    )
    lines = [",".join(header)] + [",".join(row) for row in rows]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode()


def _rows_or_error(read, path):
    try:
        got = read(path)
    except FormatError as exc:
        return str(exc)
    return got if got is None else (got[0], got[1].shape, got[1].tobytes())


class TestProbCsvReaders:
    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(content=prob_csv_bytes())
    def test_fast_path_matches_loop(self, tmp_path_factory, content):
        # whatever numpy's reader returns, the csv loop returns bit for bit;
        # a header it rejects gives the loop's message
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(content)
        fast = _rows_or_error(fileio._read_prob_rows_fast, path)
        if fast is not None:
            assert fast == _rows_or_error(fileio._read_prob_rows, path)

    @pytest.mark.parametrize(
        "content",
        [b"t,p_blank,p_E\n0,0.5,0.5\n1,1,0\n",
         b"t,p_blank,p_E\r\n0,0.5,0.5\r\n1,1,0",
         b"t,p_blank,p_E,p_D\n0, 0.25 ,nan,-inf\n",
         b"t,p_blank,p_E\n0,1e-300,1\n"],
        ids=["lf", "crlf-no-final-newline", "spaces-and-non-finite", "tiny"],
    )
    def test_fast_path_takes_plain_files(self, tmp_path, content):
        path = tmp_path / "p.csv"
        path.write_bytes(content)
        assert fileio._read_prob_rows_fast(path) is not None

    @pytest.mark.parametrize(
        "content",
        [b'\xef\xbb\xbft,p_blank,p_E\n0,1,0\n',
         b"t,p_blank,p_E\n0,1,\x1c0\n",
         b"t,p_blank,p_E\r\r\n0,1,0\n",
         b't,p_blank,"p_E"\n0,1,0\n',
         b"t,p_blank,p_E",
         b"t,p_blank,p_E\n\n",
         b"t,p_blank,p_E\n0,1,0\n\n1,1,0\n",
         b"t,p_blank,p_E\n0,1,0." + b"0" * _LIMIT,
         b"t,p_blank,p_E\n#0,1,0\n",
         b"t,p_blank,p_E\n0,1_0,0\n",
         b"t,p_blank,p_E\n0,1,0,0\n"],
        ids=["non-ascii", "separator-control", "lone-carriage-return", "quoted-header",
             "no-data-line", "only-blank", "interior-blank", "over-limit", "non-numeric-t",
             "underscore", "extra-column"],
    )
    # numpy warns on input with no data: a missed guard shows as that warning
    @pytest.mark.filterwarnings("error")
    def test_loop_judges_what_numpy_cannot_vouch_for(self, tmp_path, content):
        path = tmp_path / "p.csv"
        path.write_bytes(content)
        assert fileio._read_prob_rows_fast(path) is None


def _scan_matches_reference(content: bytes) -> None:
    refused, data_lines = reference_fast_reader_refusal(content)
    expected = None if refused else data_lines
    # small blocks split lines and CR LF pairs between two masks
    for block in (1, 3, 4093, fileio._SCAN_BLOCK) if len(content) < 4093 else (4093, fileio._SCAN_BLOCK):
        with mock.patch.object(fileio, "_SCAN_BLOCK", block):
            assert fileio._data_lines(content) == expected
    if content:  # the reader scans an anonymous map, which lacks some of bytes' methods
        with mmap.mmap(-1, len(content)) as mapped:
            mapped[:] = content
            assert fileio._data_lines(mapped) == expected


_HEADER = b"t,p_blank,p_E\n"
_ZEROS = _LIMIT - len(b"0,1,0.\n")  # zeros that make a data line exactly _LIMIT bytes long


class TestProbCsvByteScan:
    """The fast reader's one-scan byte guards against the four passes they replace."""

    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(content=prob_csv_bytes())
    def test_matches_the_four_pass_guards(self, content):
        _scan_matches_reference(content)

    @pytest.mark.parametrize(
        "content",
        [b"", b"\n", b"\r", b"\r\n", b"\n0,1,0\r\n", b"\n0,1,0\r",
         _HEADER + b"0,1,0\r", b"t,p_blank,p_E\r\n0,1,0\r\n1,1,0\r", _HEADER + b"0,1,0\n1,1,\r0",
         _HEADER + b"0,1,0\r\r\n", b"t,p_blank,p_E\r\n0,1,0\r\n1,1,0",
         b"t,p_blank,p_E", _HEADER, b"t,p_blank,p_E\r\n",
         _HEADER + b"0,1,0." + b"0" * _ZEROS + b"\n", _HEADER + b"0,1,0." + b"0" * (_ZEROS + 1) + b"\n",
         _HEADER + b"0,1,0." + b"0" * (_ZEROS + 1), _HEADER + b"0,1,0." + b"0" * (_ZEROS + 2),
         b"t,p_blank,p_" + b"E" * (_LIMIT - 13) + b"\n0,1,0\n",
         b"t,p_blank,p_" + b"E" * (_LIMIT - 12) + b"\n0,1,0\n"],
        ids=["empty", "newline", "carriage-return", "crlf", "blank-header", "blank-header-cr-last-byte",
             "cr-last-byte", "crlf-then-cr-last-byte", "lone-cr-before-last-byte",
             "cr-cr-lf", "crlf-no-final-newline",
             "header-only", "header-only-newline", "header-only-crlf",
             "line-at-limit", "line-past-limit", "last-line-at-limit", "last-line-past-limit",
             "header-at-limit", "header-past-limit"],
    )
    def test_matches_the_four_pass_guards_at_the_edges(self, content):
        _scan_matches_reference(content)

    def test_written_recordings_take_the_fast_path(self, tmp_path):
        # the writer prints exponents (1.2e-05) for a noisy recording's small
        # values and exact 0 and 1 for a clean one's; should the byte guards
        # refuse them, every read would fall back to the slower csv loop
        alphabet = Alphabet.from_names(["E", "D"])
        parts = [
            gen_synthetic(SyntheticScript(200, ((E, 50), (D, 120)), noise_level=noise, seed=3),
                          alphabet, 64.0)[0].probs
            for noise in (0.0, 0.001)
        ]
        path = tmp_path / "rec.csv"
        write_prob_csv(path, ProbMatrix(np.vstack(parts), 64.0), alphabet)
        text = path.read_text()
        assert "e-05" in text and ",0," in text and ",1," in text
        fast, loop = fileio._read_prob_rows_fast(path), fileio._read_prob_rows(path)
        assert fast is not None
        assert fast[0] == loop[0] and fast[1].tobytes() == loop[1].tobytes()


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


@pytest.mark.parametrize(
    "read, text",
    [(read_prob_csv, "t,p_blank,p_a\x01b\n0,0.5,0.5\n"),
     (read_detections_csv, "frame,time_s,class\n4,0.4,a\x01b\n"),
     (read_gt_csv, "start_frame,end_frame,class\n0,5,a\x01b\n")],
    ids=["probability-header", "detection", "ground-truth"],
)
def test_class_name_error_states_the_rule(tmp_path, read, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    rule = "class name 'a\\x01b' must be non-empty, not '_', printable and hold no comma or space"
    with pytest.raises(FormatError, match=re.escape(rule)):
        read(path)


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
