import json
import os
import signal
import warnings

import numpy as np
import pytest

from ctcdetect import Alphabet, ProbMatrix, decode, extended_prefix_beam_search, lockstep
from ctcdetect.cli import EXIT_FORMAT, EXIT_IO, EXIT_OK, EXIT_PARAMETER, _parser, build_parser, main
from ctcdetect.io import read_detections_csv, read_gt_csv, read_prob_csv, write_prob_csv

from conftest import WORKED_ROWS, assert_no_child_left


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

    @pytest.mark.parametrize("width", (1, 3, 10))
    def test_plain_beam_bytes_are_the_extended_search_rows(self, tmp_path, capsys, width):
        # the plain search prints, byte for byte, the extended search's
        # labels and probabilities without their alignments
        probs, _ = _gen_recording(tmp_path, extra=("--noise", "0.5", "--seed", str(width)))
        m, ab = read_prob_csv(probs)
        rows = [
            {"label": [ab.name_of(t) for t in hyp.label], "probability": hyp.probability}
            for hyp in extended_prefix_beam_search(m, ab, width).hypotheses
        ]
        payload = {"method": "beam", "beam_width": width, "hypotheses": rows}
        capsys.readouterr()
        argv = ["decode", str(probs), "--method", "beam", "--beam-width", str(width)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_plain_beam_and_sweep_build_no_alignment(self, tmp_path, monkeypatch, capsys):
        # neither reads an alignment, so neither builds a candidate
        probs, _ = _gen_recording(tmp_path, extra=("--noise", "0.5"))

        def no_candidates(*args):
            raise AssertionError("an alignment candidate was built")

        monkeypatch.setattr(decode, "_candidates", no_candidates)
        capsys.readouterr()
        assert main(["decode", str(probs), "--method", "beam", "--beam-width", "10"]) == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["hypotheses"]) == 10
        assert main(["sweep", str(probs), "--widths", "1,3,10"]) == EXIT_OK
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

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

    def test_killed_worker_leaves_the_detections_as_one_share(self, tmp_path, monkeypatch):
        # 448 windows of 8 frames at stride 4 go in two shares given two CPUs;
        # a worker killed (say by the OOM killer) costs time, not the output
        probs, _ = _gen_recording(tmp_path, frames=1796, rate=1.0, extra=("--noise", "0.3"))
        monkeypatch.setattr(lockstep, "_quota_cpus", lambda: None)
        parent, search_share, fork = os.getpid(), lockstep._search_share, os.fork
        forks = []

        def killed(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return search_share(*args)

        def counted():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(lockstep, "_search_share", killed)
        monkeypatch.setattr(os, "fork", counted)
        written = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            out = tmp_path / f"dets{cpus}.csv"
            detect = ["detect", str(probs), "--window-s", "8", "--stride-s", "4"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([*detect, "--output", str(out)]) == EXIT_OK
            written.append(out.read_bytes())
            # the user is told, on stderr, that the worker was lost
            lost = [
                f"the forked search worker sent no whole result (killed by signal "
                f"{int(signal.SIGKILL)}); this process searches its 224 windows"
            ]
            assert [str(w.message) for w in caught] == ([] if cpus == 1 else lost)
        assert forks == [parent] and written[0] == written[1]
        assert_no_child_left()

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

    def test_one_window_searches_once_per_width(self, tmp_path, capsys, searches):
        # the default 8 s window covers the 40-frame, 10 Hz stream, so each
        # width's whole-stream search is also its detections' one window
        probs, gt = _gen_recording(
            tmp_path, events="E@10,D@28", frames=40, extra=("--noise", "0.5", "--seed", "1")
        )
        capsys.readouterr()
        assert main(["sweep", str(probs), "--widths", "1,3", "--ground-truth", str(gt)]) == EXIT_OK
        assert searches == [40, 40]
        assert capsys.readouterr().out.strip().splitlines() == [
            "beam_width,top_label,top_probability,f1",
            "1,E D,1.14940027e-07,1.000000",
            "3,D E E E D D E,3.31009936e-05,0.444444",
        ]

    def test_zero_width(self, worked_csv):
        assert main(["sweep", str(worked_csv), "--widths", "0"]) == EXIT_PARAMETER


class TestGenCommand:
    def test_deterministic_per_seed(self, tmp_path):
        a, _ = _gen_recording(tmp_path, extra=("--noise", "0.3", "--seed", "7"))
        first = a.read_text()
        b, _ = _gen_recording(tmp_path, extra=("--noise", "0.3", "--seed", "7"))
        assert b.read_text() == first

    def test_empty_event_parts_skipped(self, tmp_path):
        _, gt = _gen_recording(tmp_path, events="E@20,,D@60,")
        assert read_gt_csv(gt) == [(19, 21, "E"), (59, 61, "D")]

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
    pytest.param({"p.csv": "t,p_blank,p_a\x01b\n0,0.5,0.5\n"}, ["decode", "p.csv"], EXIT_FORMAT,
                 id="class-column-name-with-control-character"),
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
    pytest.param({"d.csv": "frame,time_s,class\n4,0.4,a\x01b\n", "g.csv": _GT}, _EVAL,
                 EXIT_FORMAT, id="detection-class-with-control-character"),
    pytest.param({"d.csv": _DETS, "g.csv": "start_frame,end_frame,class\n0,5,_\n"}, _EVAL,
                 EXIT_FORMAT, id="ground-truth-class-named-blank"),
    pytest.param({"d.csv": _DETS, "g.csv": "start_frame,end_frame,class\n0,5,\n"}, _EVAL,
                 EXIT_FORMAT, id="ground-truth-class-empty"),
    pytest.param({"d.csv": _DETS, "g.csv": 'start_frame,end_frame,class\n0,5,"a,b"\n'}, _EVAL,
                 EXIT_FORMAT, id="ground-truth-class-with-comma"),
    pytest.param({"d.csv": _DETS, "g.csv": "start_frame,end_frame,class\n0,5,a b\n"}, _EVAL,
                 EXIT_FORMAT, id="ground-truth-class-with-space"),
    pytest.param({"d.csv": _DETS, "g.csv": "start_frame,end_frame,class\n0,5,a\x01b\n"}, _EVAL,
                 EXIT_FORMAT, id="ground-truth-class-with-control-character"),
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
    pytest.param(_RATED, ["sweep", "p.csv", "--widths", "1,3", "--window-s", "nan"],
                 EXIT_PARAMETER, id="sweep-window-nan"),
    pytest.param(_RATED, ["sweep", "p.csv", "--widths", "1,3", "--stride-s", "-5"],
                 EXIT_PARAMETER, id="sweep-stride-negative"),
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
    pytest.param({}, ["gen", "--frames", "10", "--events", "E10", "--sample-rate-hz", "10",
                      "--output", "g.csv"], EXIT_PARAMETER, id="gen-event-without-frame"),
    pytest.param({}, ["gen", "--frames", "10", "--sample-rate-hz", "10", "--output", "g.csv"],
                 EXIT_PARAMETER, id="gen-no-classes"),
    pytest.param({}, ["gen", "--frames", "0", "--classes", "E", "--sample-rate-hz", "10",
                      "--output", "g.csv"], EXIT_PARAMETER, id="gen-frames-zero"),
    pytest.param({}, ["gen", "--frames", "10", "--classes", "E", "--spike-width", "0",
                      "--sample-rate-hz", "10", "--output", "g.csv"], EXIT_PARAMETER,
                 id="gen-spike-width-zero"),
    pytest.param({"d.csv": "frame,time_s,class\n", "g.csv": "start_frame,end_frame,class\n"},
                 _EVAL, EXIT_PARAMETER, id="eval-no-classes"),
]


def _write_files(tmp_path, files) -> None:
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)


@pytest.mark.parametrize("files, argv, code", MALFORMED)
def test_malformed_input_exit_code(tmp_path, monkeypatch, capsys, files, argv, code):
    _write_files(tmp_path, files)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("ctcdetect: ") and "Traceback" not in err


# Every flag or sidecar number that must lie in (0, inf): its files, the
# command that the number's text ends, the name its message gives it, and
# the factor that turns the text into the value shown (window and stride are
# checked in frames, at the sidecar's 10 Hz). A flag exits 5; the sidecar,
# given the same numbers in JSON, exits 4.
_TWO_STAGE = ["baseline", "two-stage", "p.csv", "--output", "o.csv", "--min-dist-s"]
_GEN = ["gen", "--frames", "10", "--classes", "E", "--output", "g.csv", "--sample-rate-hz"]
_VELOCITY = {"v.csv": "t,roll_dps\n0,1.0\n"}
POSITIVE = [
    pytest.param(_RATED, ["decode", "p.csv", "--sample-rate-hz"], "sample rate", 1, id="decode-rate"),
    pytest.param(_RATED, _DETECT + ["--sample-rate-hz"], "sample rate", 1, id="detect-rate"),
    pytest.param(_RATED, _DETECT + ["--window-s"], "window frames", 10, id="detect-window"),
    pytest.param(_RATED, _DETECT + ["--stride-s"], "stride frames", 10, id="detect-stride"),
    pytest.param(_RATED, ["sweep", "p.csv", "--window-s"], "window frames", 10, id="sweep-window"),
    pytest.param(_RATED, _TWO_STAGE, "minimum distance", 1, id="two-stage-min-dist"),
    pytest.param(_VELOCITY, _THRESHOLD + ["--t1"], "t1", 1, id="threshold-t1"),
    pytest.param(_VELOCITY, _THRESHOLD + ["--sample-rate-hz"], "sample rate", 1, id="threshold-rate"),
    pytest.param(_EVAL_FILES, _EVAL + ["--sample-rate-hz"], "sample rate", 1, id="eval-rate"),
    pytest.param({}, _GEN, "sample rate", 1, id="gen-rate"),
    pytest.param(None, ["decode", "p.csv"], "sample rate", 1, id="sidecar"),
]
_JSON = {"0": "0", "-0": "-0.0", "-1": "-1", "nan": "NaN", "inf": "Infinity"}


@pytest.mark.parametrize("text", list(_JSON))
@pytest.mark.parametrize("files, argv, what, factor", POSITIVE)
def test_positive_numbers_have_one_rule(tmp_path, monkeypatch, capsys, files, argv, what, factor,
                                        text):
    if files is None:
        files = _sidecar(f'{{"sample_rate_hz": {_JSON[text]}}}')
        code, prefix = EXIT_FORMAT, "data error: bad sidecar p.csv.json: "
    else:
        argv, code, prefix = argv + [text], EXIT_PARAMETER, "parameter error: "
    _write_files(tmp_path, files)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    value = float(text) * factor
    assert capsys.readouterr().err == f"ctcdetect: {prefix}{what} must be in (0, inf), got {value}\n"


# eval's exact output for a small two-class case with every kind of count:
# E has a hit, a second detection in its event (fp1), one inside a D event
# (fp3) and a miss; D a hit, one outside every event (fp2) and a miss
EVAL_TEXT = """\
{
  "classes": {
    "D": {
      "counts": {
        "tp": 1,
        "fp1": 0,
        "fp2": 1,
        "fp3": 0,
        "fn": 1
      },
      "precision": 0.5,
      "recall": 0.5,
      "f1": 0.5
    },
    "E": {
      "counts": {
        "tp": 1,
        "fp1": 1,
        "fp2": 0,
        "fp3": 1,
        "fn": 1
      },
      "precision": 0.3333333333333333,
      "recall": 0.5,
      "f1": 0.4
    }
  },
  "combined": {
    "precision": 0.4,
    "recall": 0.5,
    "f1": 0.4444444444444445
  },
  "combined_macro_f1": 0.45
}
"""


def test_eval_output_text(tmp_path, monkeypatch, capsys):
    (tmp_path / "d.csv").write_text(
        "frame,time_s,class\n2,0.2,E\n3,0.3,E\n12,1.2,E\n22,2.2,D\n30,3.0,D\n"
    )
    (tmp_path / "g.csv").write_text(
        "start_frame,end_frame,class\n0,5,E\n10,15,D\n20,25,D\n40,45,E\n"
    )
    monkeypatch.chdir(tmp_path)
    assert main(_EVAL) == EXIT_OK
    assert capsys.readouterr().out == EVAL_TEXT


def test_ground_truth_row_order_changes_no_output(tmp_path, capsys):
    # read_gt_csv returns its rows by start frame, so eval and sweep print the
    # same bytes for a ground-truth file and for its rows reversed
    probs, gt = _gen_recording(tmp_path, events="E@10,D@30,E@50,D@70",
                               extra=("--noise", "0.4", "--seed", "2"))
    header, *rows = gt.read_text().splitlines()
    reversed_gt = tmp_path / "reversed_gt.csv"
    reversed_gt.write_text("\n".join([header, *rows[::-1]]) + "\n")
    assert read_gt_csv(reversed_gt) == read_gt_csv(gt) == sorted(read_gt_csv(gt))
    dets = tmp_path / "dets.csv"
    assert main(["detect", str(probs), "--window-s", "4", "--output", str(dets)]) == EXIT_OK
    outs = []
    for truth in (gt, reversed_gt):
        capsys.readouterr()
        assert main(["eval", "--detections", str(dets), "--ground-truth", str(truth)]) == EXIT_OK
        assert main(["sweep", str(probs), "--widths", "1,3", "--window-s", "4",
                     "--ground-truth", str(truth)]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and '"tp": ' in outs[0]


def test_one_parser_serves_every_call(worked_csv, capsys):
    # main builds its parser once per process, so no call may see what an
    # earlier one parsed: a default follows an explicit --method, and usage
    # (2) and parameter (5) errors come between successful runs
    assert _parser() is _parser() is not build_parser()
    csv = str(worked_csv)
    runs = [
        ["decode", csv, "--method", "greedy"],
        ["decode", csv],
        ["decode", csv, "--method", "viterbi"],
        ["decode", csv, "--beam-width", "0"],
        ["sweep", csv, "--widths", "1,3"],
        ["decode", csv],
    ]
    results = []
    for _ in range(2):
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            results.append((code, out, err))
    assert results[:6] == results[6:]
    codes = [code for code, _, _ in results[:6]]
    assert codes == [EXIT_OK, EXIT_OK, 2, EXIT_PARAMETER, EXIT_OK, EXIT_OK]
    greedy, default = (json.loads(results[i][1]) for i in (0, 1))
    assert greedy["method"] == "greedy"
    assert default["method"] == "extended-beam"
    assert default["hypotheses"][0]["label"] == ["E", "E", "D"]
    assert "invalid choice: 'viterbi'" in results[2][2]
    assert results[3][2].startswith("ctcdetect: parameter error: ")
    assert len(results[4][1].strip().splitlines()) == 3
    assert results[5] == results[1]
