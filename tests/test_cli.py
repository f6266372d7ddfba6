import json

import numpy as np
import pytest

from ctcdetect import Alphabet, ProbMatrix
from ctcdetect.cli import EXIT_FORMAT, EXIT_IO, EXIT_OK, EXIT_PARAMETER, main
from ctcdetect.io import read_detections_csv, write_prob_csv

from conftest import WORKED_ROWS


@pytest.fixture()
def worked_csv(tmp_path, worked_alphabet):
    path = tmp_path / "probs.csv"
    write_prob_csv(path, ProbMatrix(WORKED_ROWS, 1.0), worked_alphabet)
    return path


def _gen_recording(tmp_path, events="E@20,D@60", frames=100, rate=10.0, extra=()):
    probs = tmp_path / "rec.csv"
    gt = tmp_path / "rec_gt.csv"
    code = main(
        [
            "gen",
            "--frames",
            str(frames),
            "--events",
            events,
            "--classes",
            "E,D",
            "--sample-rate-hz",
            str(rate),
            "--output",
            str(probs),
            "--gt-output",
            str(gt),
            *extra,
        ]
    )
    assert code == EXIT_OK
    return probs, gt


class TestDecodeCommand:
    def test_extended_beam_json(self, worked_csv, capsys):
        assert main(["decode", str(worked_csv), "--beam-width", "3"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        top = payload["hypotheses"][0]
        assert top["label"] == ["E", "E", "D"]
        assert top["alignment"] == ["E", "E", "_", "E", "_", "D", "D", "D"]
        assert top["probability"] == pytest.approx(0.1001, abs=5e-4)

    def test_greedy_json(self, worked_csv, capsys):
        assert main(["decode", str(worked_csv), "--method", "greedy"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["hypotheses"][0]["label"] == ["E", "D"]

    def test_plain_beam_has_no_alignment(self, worked_csv, capsys):
        assert main(["decode", str(worked_csv), "--method", "beam"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert "alignment" not in payload["hypotheses"][0]

    def test_output_file_matches_stdout(self, worked_csv, tmp_path, capsys):
        assert main(["decode", str(worked_csv)]) == EXIT_OK
        stdout = capsys.readouterr().out
        out = tmp_path / "decode.json"
        assert main(["decode", str(worked_csv), "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_text() == stdout

    def test_bad_beam_width(self, worked_csv):
        assert main(["decode", str(worked_csv), "--beam-width", "0"]) == EXIT_PARAMETER

    def test_missing_file(self, tmp_path):
        assert main(["decode", str(tmp_path / "nope.csv")]) == EXIT_IO

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_probability_is_format_error(self, worked_csv, tmp_path, cell):
        lines = worked_csv.read_text().splitlines()
        fields = lines[3].split(",")
        fields[2] = cell
        lines[3] = ",".join(fields)
        worked_csv.write_text("\n".join(lines) + "\n")
        assert main(["decode", str(worked_csv)]) == EXIT_FORMAT
        out = tmp_path / "dets.csv"
        assert main(["detect", str(worked_csv), "--output", str(out)]) == EXIT_FORMAT


class TestLossCommand:
    def test_known_values_with_oracle(self, worked_csv, capsys):
        assert main(["loss", str(worked_csv), "--label", "E,E,D", "--oracle"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["probability"] == pytest.approx(0.1305, abs=5e-4)
        assert payload["loss"] == pytest.approx(2.0365, abs=4e-3)
        assert payload["oracle_abs_diff"] < 1e-12

    def test_impossible_label(self, worked_csv, capsys):
        # five equal events need nine frames; the worked stream has eight
        assert main(["loss", str(worked_csv), "--label", "E,E,E,E,E"]) == EXIT_OK
        out = capsys.readouterr().out
        assert '"probability": 0.0' in out and '"loss": Infinity' in out

    def test_unknown_class_is_format_error(self, worked_csv):
        assert main(["loss", str(worked_csv), "--label", "X"]) == EXIT_FORMAT


class TestDetectAndEval:
    def test_end_to_end_round_trip(self, tmp_path, capsys):
        probs, gt = _gen_recording(tmp_path)
        out = tmp_path / "dets.csv"
        code = main(
            ["detect", str(probs), "--window-s", "4", "--output", str(out)]
        )
        assert code == EXIT_OK
        rows = read_detections_csv(out)
        assert [r[2] for r in rows] == ["E", "D"]
        code = main(
            ["eval", "--detections", str(out), "--ground-truth", str(gt)]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["combined"]["f1"] == 1.0
        assert payload["classes"]["E"]["counts"]["tp"] == 1

    def test_detect_requires_rate(self, tmp_path, worked_alphabet):
        # a probability CSV without sidecar and no flag cannot be windowed
        path = tmp_path / "bare.csv"
        write_prob_csv(path, ProbMatrix(WORKED_ROWS, 1.0), worked_alphabet)
        path.with_name("bare.csv.json").unlink()
        out = tmp_path / "dets.csv"
        assert main(["detect", str(path), "--output", str(out)]) == EXIT_PARAMETER


class TestBaselineCommands:
    def test_two_stage(self, tmp_path, capsys):
        probs, _ = _gen_recording(tmp_path, events="E@20,E@35", rate=10.0)
        out = tmp_path / "two.csv"
        code = main(
            [
                "baseline",
                "two-stage",
                str(probs),
                "--threshold",
                "0.5",
                "--min-dist-s",
                "2",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = read_detections_csv(out)
        # events 1.5 s apart: the minimum-gap rule keeps only one
        assert len(rows) == 1

    def test_threshold(self, tmp_path):
        gyro = tmp_path / "gyro.csv"
        lines = ["t,roll_dps"] + [f"{i},0.0" for i in range(80)]
        gyro.write_text("\n".join(lines) + "\n")
        text = gyro.read_text().splitlines()
        text[21] = "20,30.0"
        text[51] = "50,-30.0"
        gyro.write_text("\n".join(text) + "\n")
        out = tmp_path / "thr.csv"
        code = main(
            [
                "baseline",
                "threshold",
                str(gyro),
                "--t1",
                "25",
                "--t2",
                "-25",
                "--t3",
                "2",
                "--t4",
                "2",
                "--sample-rate-hz",
                "10",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert read_detections_csv(out) == [(50, 5.0, "intake")]


class TestSweepCommand:
    def test_sweep_csv(self, worked_csv, capsys):
        assert main(["sweep", str(worked_csv), "--widths", "1,3"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beam_width,top_label,top_probability,f1"
        assert lines[1].startswith("1,E D,")
        assert lines[2].startswith("3,E E D,")

    def test_sweep_with_truth(self, tmp_path, capsys):
        probs, gt = _gen_recording(tmp_path)
        code = main(
            [
                "sweep",
                str(probs),
                "--widths",
                "1,3",
                "--ground-truth",
                str(gt),
                "--window-s",
                "4",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.endswith("1.000000") for line in lines[1:])

    def test_zero_width(self, worked_csv):
        assert main(["sweep", str(worked_csv), "--widths", "0"]) == EXIT_PARAMETER


class TestGenCommand:
    def test_deterministic_per_seed(self, tmp_path):
        a, _ = _gen_recording(tmp_path, extra=("--noise", "0.3", "--seed", "7"))
        first = a.read_text()
        b, _ = _gen_recording(tmp_path, extra=("--noise", "0.3", "--seed", "7"))
        assert b.read_text() == first

    def test_overlapping_events_rejected(self, tmp_path):
        code = main(
            [
                "gen",
                "--frames",
                "50",
                "--events",
                "E@10,D@11",
                "--sample-rate-hz",
                "10",
                "--output",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_PARAMETER


# A valid two-class stream; the table below breaks one thing at a time.
_ROWS = "t,p_blank,p_E\n" + "".join(f"{t},0.5,0.5\n" for t in range(40))
_RATED = {"p.csv": _ROWS, "p.csv.json": '{"sample_rate_hz": 10}'}


def _sidecar(text):
    return {"p.csv": _ROWS, "p.csv.json": text}


_DETECT = ["detect", "p.csv", "--output", "o.csv"]
_EVAL = ["eval", "--detections", "d.csv", "--ground-truth", "g.csv"]
_DETS = "frame,time_s,class\n1,0.1,E\n"
_GT = "start_frame,end_frame,class\n0,5,E\n"
_EVAL_FILES = {"d.csv": _DETS, "g.csv": _GT}
# later flags override these defaults
_THRESHOLD = ["baseline", "threshold", "v.csv", "--t1", "1", "--t2", "-1", "--t3", "0",
              "--t4", "0", "--sample-rate-hz", "10", "--output", "o.csv"]

MALFORMED = [
    # a file's contents or its sidecar: DataError, exit 4
    pytest.param({"p.csv": "t,p_blank,p_E\n0,1.2,-0.2\n"}, ["decode", "p.csv"], EXIT_FORMAT,
                 id="probability-above-one"),
    pytest.param({"p.csv": "t,p_blank,p_E,p_E\n0,0.5,0.25,0.25\n"}, ["decode", "p.csv"],
                 EXIT_FORMAT, id="repeated-class-column"),
    pytest.param({"p.csv": "t,p_blank,p__\n0,0.5,0.5\n1,0.5,0.5\n"}, ["decode", "p.csv"],
                 EXIT_FORMAT, id="class-column-named-blank"),
    pytest.param({"p.csv": "t,p_blank,p_\n0,0.5,0.5\n"}, ["decode", "p.csv"], EXIT_FORMAT,
                 id="class-column-name-empty"),
    pytest.param({"p.csv": 't,p_blank,"p_a,b"\n0,0.5,0.5\n'}, ["decode", "p.csv"], EXIT_FORMAT,
                 id="class-column-name-with-comma"),
    pytest.param({"p.csv": "t,p_blank,p_a b\n0,0.5,0.5\n"}, ["decode", "p.csv"], EXIT_FORMAT,
                 id="class-column-name-with-space"),
    pytest.param({"p.csv": "t,p_blank,p_E \n0,0.5,0.5\n"}, ["decode", "p.csv"], EXIT_FORMAT,
                 id="class-column-name-with-trailing-space"),
    pytest.param({"p.csv": "t,p_blank,p_E\n0,0.5,0.5\n1,1.0\n"}, ["decode", "p.csv"],
                 EXIT_FORMAT, id="probability-row-short"),
    pytest.param({"p.csv": "t,p_blank,p_E\n0,0.5,0.5,0.0\n"}, ["decode", "p.csv"], EXIT_FORMAT,
                 id="probability-row-long"),
    pytest.param({"p.csv": "t,p_blank,p_E\n"}, ["decode", "p.csv"], EXIT_FORMAT,
                 id="probability-header-only"),
    pytest.param({"p.csv": "t,p_blank,p_E\n\n"}, ["decode", "p.csv"], EXIT_FORMAT,
                 id="probability-header-then-blank-line"),
    pytest.param({"p.csv": "t,p_blank,p_E\n0,0.5,0.5\n\n1,0.5,0.5\n"}, ["decode", "p.csv"],
                 EXIT_FORMAT, id="probability-blank-line-between-rows"),
    pytest.param({"p.csv": "t,p_blank,p_E\n0,1,0." + "0" * 200_000 + "\n"}, ["decode", "p.csv"],
                 EXIT_FORMAT, id="probability-unquoted-field-over-limit"),
    pytest.param({"d.csv": "frame,time_s,class\n4,0.4\n", "g.csv": _GT}, _EVAL, EXIT_FORMAT,
                 id="detection-row-short"),
    pytest.param({"d.csv": "frame,time_s,class\n4,0.4,_\n", "g.csv": _GT}, _EVAL, EXIT_FORMAT,
                 id="detection-class-named-blank"),
    pytest.param({"d.csv": "frame,time_s,class\n4,0.4,\n", "g.csv": _GT}, _EVAL, EXIT_FORMAT,
                 id="detection-class-empty"),
    pytest.param({"d.csv": 'frame,time_s,class\n4,0.4,"a,b"\n', "g.csv": _GT}, _EVAL,
                 EXIT_FORMAT, id="detection-class-with-comma"),
    pytest.param({"d.csv": "frame,time_s,class\n4,0.4,a\tb\n", "g.csv": _GT}, _EVAL,
                 EXIT_FORMAT, id="detection-class-with-tab"),
    pytest.param({"d.csv": _DETS, "g.csv": "start_frame,end_frame,class\n0,5,_\n"}, _EVAL,
                 EXIT_FORMAT, id="ground-truth-class-named-blank"),
    pytest.param({"d.csv": _DETS, "g.csv": "start_frame,end_frame,class\n0,5,\n"}, _EVAL,
                 EXIT_FORMAT, id="ground-truth-class-empty"),
    pytest.param({"d.csv": _DETS, "g.csv": 'start_frame,end_frame,class\n0,5,"a,b"\n'}, _EVAL,
                 EXIT_FORMAT, id="ground-truth-class-with-comma"),
    pytest.param({"d.csv": _DETS, "g.csv": "start_frame,end_frame,class\n0,5,a b\n"}, _EVAL,
                 EXIT_FORMAT, id="ground-truth-class-with-space"),
    pytest.param({"p.csv": b"t,p_blank,p_E\n0,0.5\xff,0.5\n"}, ["decode", "p.csv"], EXIT_FORMAT,
                 id="csv-not-utf8"),
    pytest.param({"p.csv": 't,p_blank,p_E\n0,0.5,"' + "1" * 200_000 + '"\n'}, ["decode", "p.csv"],
                 EXIT_FORMAT, id="csv-field-over-limit"),
    pytest.param({"d.csv": _DETS,
                  "g.csv": b"start_frame,end_frame,class\n0,5,E\xff\n"}, _EVAL, EXIT_FORMAT,
                 id="ground-truth-not-utf8"),
    pytest.param({"d.csv": _DETS, "g.csv": "start_frame,end_frame,class\n5,0,E\n"}, _EVAL,
                 EXIT_FORMAT, id="ground-truth-reversed"),
    pytest.param({"d.csv": _DETS, "g.csv": "start_frame,end_frame,class\n0,5,E\n3,8,E\n"},
                 _EVAL, EXIT_FORMAT, id="ground-truth-overlapping"),
    pytest.param({"d.csv": "frame,time_s,class\n-4,0.1,E\n", "g.csv": _GT}, _EVAL, EXIT_FORMAT,
                 id="detection-frame-negative"),
    pytest.param({"d.csv": "frame,time_s,class\n4,nan,E\n", "g.csv": _GT}, _EVAL, EXIT_FORMAT,
                 id="detection-time-nan"),
    pytest.param({"d.csv": "frame,time_s,class\n4,inf,E\n", "g.csv": _GT}, _EVAL, EXIT_FORMAT,
                 id="detection-time-inf"),
    pytest.param({"d.csv": _DETS, "g.csv": "start_frame,end_frame,class\n-5,3,E\n"}, _EVAL,
                 EXIT_FORMAT, id="ground-truth-frame-negative"),
    pytest.param({"d.csv": "frame,time_s,class\n-4,nan,E\n",
                  "g.csv": "start_frame,end_frame,class\n-5,-3,E\n"}, _EVAL, EXIT_FORMAT,
                 id="negative-frames-and-nan-time"),
    pytest.param({"v.csv": "t,roll_dps\n0,nan\n"}, _THRESHOLD, EXIT_FORMAT, id="velocity-nan"),
    pytest.param({"v.csv": "t,roll_dps\n0,1.0\n1,-inf\n"}, _THRESHOLD, EXIT_FORMAT,
                 id="velocity-inf"),
    pytest.param(_sidecar('{"sample_rate_hz": null}'), _DETECT, EXIT_FORMAT, id="sidecar-null"),
    pytest.param(_sidecar('{"sample_rate_hz": "fast"}'), _DETECT, EXIT_FORMAT,
                 id="sidecar-string"),
    pytest.param(_sidecar('{"sample_rate_hz": Infinity}'), _DETECT, EXIT_FORMAT,
                 id="sidecar-infinity"),
    pytest.param(_sidecar('{"sample_rate_hz": true}'), _DETECT, EXIT_FORMAT, id="sidecar-true"),
    pytest.param(_sidecar('{"sample_rate_hz": "10"}'), _DETECT, EXIT_FORMAT,
                 id="sidecar-numeric-string"),
    pytest.param(_sidecar('{"sample_rate_hz": 1' + "0" * 400 + "}"), ["decode", "p.csv"],
                 EXIT_FORMAT, id="sidecar-too-large-for-float"),
    pytest.param(_sidecar(b'{"sample_rate_hz": 10\xff}'), ["decode", "p.csv"], EXIT_FORMAT,
                 id="sidecar-not-utf8"),
    # a flag value: ParameterError, exit 5
    pytest.param(_RATED, ["decode", "p.csv", "--sample-rate-hz", "nan"], EXIT_PARAMETER,
                 id="rate-nan"),
    pytest.param(_RATED, _DETECT + ["--sample-rate-hz", "inf"], EXIT_PARAMETER, id="rate-inf"),
    pytest.param(_RATED, ["decode", "p.csv", "--method", "greedy", "--beam-width", "-5"],
                 EXIT_PARAMETER, id="greedy-decode-width-negative"),
    pytest.param(_RATED, _DETECT + ["--method", "greedy", "--beam-width", "0"], EXIT_PARAMETER,
                 id="greedy-detect-width-zero"),
    pytest.param(_RATED, _DETECT + ["--window-s", "inf"], EXIT_PARAMETER, id="window-inf"),
    pytest.param(_RATED, _DETECT + ["--stride-s", "inf"], EXIT_PARAMETER, id="stride-inf"),
    pytest.param(_RATED, _DETECT + ["--window-s", "0"], EXIT_PARAMETER, id="window-zero"),
    pytest.param(_RATED, _DETECT + ["--stride-s", "-3"], EXIT_PARAMETER, id="stride-negative"),
    pytest.param(_RATED, ["baseline", "two-stage", "p.csv", "--min-dist-s", "nan",
                          "--output", "o.csv"], EXIT_PARAMETER, id="min-dist-nan"),
    pytest.param({"v.csv": "t,roll_dps\n0,1.0\n"}, _THRESHOLD + ["--t1", "nan"], EXIT_PARAMETER,
                 id="threshold-t1-nan"),
    pytest.param({"v.csv": "t,roll_dps\n0,1.0\n"}, _THRESHOLD + ["--sample-rate-hz", "inf"],
                 EXIT_PARAMETER, id="threshold-rate-inf"),
    pytest.param(_EVAL_FILES, _EVAL + ["--sample-rate-hz", "0"], EXIT_PARAMETER,
                 id="eval-rate-zero"),
    pytest.param(_EVAL_FILES, _EVAL + ["--sample-rate-hz", "nan"], EXIT_PARAMETER,
                 id="eval-rate-nan"),
    pytest.param(_EVAL_FILES, _EVAL + ["--sample-rate-hz", "-10"], EXIT_PARAMETER,
                 id="eval-rate-negative"),
    pytest.param({}, ["gen", "--frames", "10", "--events", "E@5", "--sample-rate-hz", "nan",
                      "--output", "g.csv"], EXIT_PARAMETER, id="gen-rate-nan"),
    pytest.param({}, ["gen", "--frames", "10", "--events", "_@5", "--sample-rate-hz", "10",
                      "--output", "g.csv"], EXIT_PARAMETER, id="gen-event-class-named-blank"),
    pytest.param({}, ["gen", "--frames", "10", "--events", "@5", "--sample-rate-hz", "10",
                      "--output", "g.csv"], EXIT_PARAMETER, id="gen-event-class-empty"),
    pytest.param({}, ["gen", "--frames", "10", "--classes", "E,_", "--sample-rate-hz", "10",
                      "--output", "g.csv"], EXIT_PARAMETER, id="gen-class-named-blank"),
    pytest.param({}, ["gen", "--frames", "10", "--classes", "E,a b", "--sample-rate-hz", "10",
                      "--output", "g.csv"], EXIT_PARAMETER, id="gen-class-with-space"),
]


@pytest.mark.parametrize("files, argv, code", MALFORMED)
def test_malformed_input_exit_code(tmp_path, monkeypatch, capsys, files, argv, code):
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("ctcdetect: ") and "Traceback" not in err
