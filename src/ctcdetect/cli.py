"""Command-line interface.

Subcommands: decode, detect, loss, eval, baseline two-stage, baseline
threshold, sweep, gen. Frame-indexed streams travel as CSV, structured
results as JSON. Exit codes are listed in ``_EPILOG`` (``--help``); an
error's class alone picks one: OSError 3, core.DataError 4, ValueError 5.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import io as fileio
from .baselines import ThresholdParams, TwoStageParams, threshold_detect, two_stage_detect
from .core import Alphabet, DataError, ParameterError, ProbMatrix
from .ctc import log_prob_forward, prob_brute_force
from .decode import check_beam_width, extended_prefix_beam_search, greedy_decode
from .evaluation import GroundTruthEvent, evaluate, prf1
from .synth import SyntheticScript, gen_synthetic
from .sweep import sweep_beam_width
from .windowing import Detection, WindowSpec, detect_pipeline

EXIT_OK = 0
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_PARAMETER = 5

_EPILOG = """\
exit codes:
  0  success
  2  usage error (bad flags)
  3  I/O error (missing or unwritable file)
  4  data error: malformed file contents or sidecar, or an unknown class name
  5  parameter error: a flag or parameter value outside its range (NaN, inf too)
"""


def _names(alphabet: Alphabet, tokens) -> list[str]:
    return [alphabet.name_of(t) for t in tokens]


def _truth(gt_rows, alphabet: Alphabet) -> list[GroundTruthEvent]:
    """Ground-truth rows as events sorted by start frame."""
    return sorted(
        (GroundTruthEvent(alphabet.id_of(name), lo, hi) for lo, hi, name in gt_rows),
        key=lambda e: e.start_frame,
    )


def _load_probs(args, require_rate: bool) -> tuple[ProbMatrix, Alphabet]:
    rate = args.sample_rate_hz
    if rate is None:
        rate = fileio.read_sidecar_rate(args.input)
        if rate is None and require_rate:
            raise ParameterError(
                "a sample rate is needed (pass --sample-rate-hz or provide a "
                f"{fileio.sidecar_path(args.input).name} sidecar)"
            )
    return fileio.read_prob_csv(
        args.input, sample_rate_hz=rate, renormalize=args.renormalize
    )


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_decode(args) -> int:
    m, alphabet = _load_probs(args, require_rate=False)
    check_beam_width(args.beam_width)
    payload = {"method": args.method, "beam_width": args.beam_width, "hypotheses": []}
    if args.method == "greedy":
        hyps = greedy_decode(m, alphabet).hypotheses
    else:
        hyps = extended_prefix_beam_search(m, alphabet, args.beam_width).hypotheses
    for hyp in hyps:
        row = {"label": _names(alphabet, hyp.label), "probability": hyp.probability}
        if args.method != "beam":  # plain prefix beam search reports no alignment
            row["log_probability"] = hyp.log_probability
            row["alignment"] = _names(alphabet, hyp.alignment)
            row["alignment_probability"] = hyp.alignment_probability
        payload["hypotheses"].append(row)
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_detect(args) -> int:
    m, alphabet = _load_probs(args, require_rate=True)
    spec = WindowSpec.from_seconds(args.window_s, m.sample_rate_hz, args.stride_s)
    detections = detect_pipeline(
        m, spec, alphabet, method=args.method, beam_width=args.beam_width
    )
    fileio.write_detections_csv(args.output, detections, alphabet)
    return EXIT_OK


def _cmd_loss(args) -> int:
    m, alphabet = _load_probs(args, require_rate=False)
    label = tuple(alphabet.id_of(name.strip()) for name in args.label.split(",") if name.strip())
    log_prob = log_prob_forward(m, label, alphabet)
    prob = float(np.exp(log_prob))
    payload = {"label": _names(alphabet, label), "probability": prob, "loss": -log_prob}
    if args.oracle:
        oracle = prob_brute_force(m, label, alphabet)
        payload["oracle_probability"] = oracle
        payload["oracle_abs_diff"] = abs(oracle - prob)
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_eval(args) -> int:
    det_rows = fileio.read_detections_csv(args.detections)
    gt_rows = fileio.read_gt_csv(args.ground_truth)
    names = sorted({r[2] for r in det_rows} | {r[2] for r in gt_rows})
    if not names:
        raise ParameterError("no classes found in either file")
    alphabet = Alphabet.from_names(names)
    rate = args.sample_rate_hz
    if not 0 < rate < math.inf:
        raise ParameterError(f"sample rate must be in (0, inf), got {rate}")
    detections = [
        Detection(alphabet.id_of(name), frame, frame / rate)
        for frame, _, name in det_rows
    ]
    counts = evaluate(detections, _truth(gt_rows, alphabet))
    per_class = {}
    macro_f1 = []
    for cls in sorted(counts.per_class):
        c = counts.per_class[cls]
        score = prf1(counts, classes=[cls])
        per_class[alphabet.name_of(cls)] = {
            "counts": {"tp": c.tp, "fp1": c.fp1, "fp2": c.fp2, "fp3": c.fp3, "fn": c.fn},
            "precision": score.precision,
            "recall": score.recall,
            "f1": score.f1,
        }
        macro_f1.append(score.f1)
    combined = prf1(counts)
    payload = {
        "classes": per_class,
        "combined": {
            "precision": combined.precision,
            "recall": combined.recall,
            "f1": combined.f1,
        },
        "combined_macro_f1": sum(macro_f1) / len(macro_f1) if macro_f1 else 0.0,
    }
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_baseline_two_stage(args) -> int:
    m, alphabet = _load_probs(args, require_rate=True)
    params = TwoStageParams(threshold=args.threshold, min_distance_s=args.min_dist_s)
    detections = two_stage_detect(m, params)
    fileio.write_detections_csv(args.output, detections, alphabet)
    return EXIT_OK


def _cmd_baseline_threshold(args) -> int:
    series = fileio.read_velocity_csv(args.input)
    params = ThresholdParams(args.t1, args.t2, args.t3, args.t4)
    detections = threshold_detect(series, args.sample_rate_hz, params)
    alphabet = Alphabet.from_names(("intake",))
    fileio.write_detections_csv(args.output, detections, alphabet)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    m, alphabet = _load_probs(args, require_rate=args.ground_truth is not None)
    widths = [int(w) for w in args.widths.split(",") if w.strip()]
    truth = None
    spec = None
    if args.ground_truth:
        truth = _truth(fileio.read_gt_csv(args.ground_truth), alphabet)
        spec = WindowSpec.from_seconds(args.window_s, m.sample_rate_hz, args.stride_s)
    rows = sweep_beam_width(m, alphabet, widths, window_spec=spec, ground_truth=truth)
    lines = ["beam_width,top_label,top_probability,f1"]
    for row in rows:
        label = " ".join(_names(alphabet, row.top_label))
        f1 = "" if row.f1 is None else f"{row.f1:.6f}"
        lines.append(f"{row.beam_width},{label},{row.top_probability:.9g},{f1}")
    _emit(args, "\n".join(lines))
    return EXIT_OK


def _parse_events(spec: str, class_names: list[str]) -> list[tuple[int, int]]:
    events = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, frame = part.partition("@")
        if not frame:
            raise ParameterError(f"event {part!r} is not of the form <class>@<frame>")
        if name not in class_names:
            class_names.append(name)
        events.append((class_names.index(name) + 1, int(frame)))
    return events


def _cmd_gen(args) -> int:
    class_names = [n.strip() for n in args.classes.split(",") if n.strip()] if args.classes else []
    events = _parse_events(args.events, class_names) if args.events else []
    if not class_names:
        raise ParameterError("no classes: give --classes or at least one event")
    script = SyntheticScript(
        total_frames=args.frames,
        events=tuple(events),
        mode=args.mode,
        spike_width_frames=args.spike_width,
        block_extent_frames=args.block_extent,
        noise_level=args.noise,
        seed=args.seed,
    )
    alphabet = Alphabet.from_names(class_names)
    m, truth = gen_synthetic(script, alphabet, args.sample_rate_hz)
    fileio.write_prob_csv(args.output, m, alphabet)
    if args.gt_output:
        fileio.write_gt_csv(args.gt_output, truth, alphabet)
    return EXIT_OK


def _add_prob_input(sub, require_rate_hint: bool = False) -> None:
    sub.add_argument("input", help="probability CSV (t,p_blank,p_<class>,...)")
    sub.add_argument(
        "--sample-rate-hz",
        type=float,
        default=None,
        help="frames per second" + (" (required unless a sidecar exists)" if require_rate_hint else ""),
    )
    sub.add_argument(
        "--renormalize",
        action="store_true",
        help="rescale rows whose sum is within 1e-3 of 1",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctcdetect",
        description="Decode per-frame class probabilities into sparse event detections.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("decode", help="decode one probability stream to labels")
    _add_prob_input(p)
    p.add_argument("--method", choices=("greedy", "beam", "extended-beam"), default="extended-beam")
    p.add_argument("--beam-width", type=int, default=3)
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_decode)

    p = commands.add_parser("detect", help="sliding-window detection over a recording")
    _add_prob_input(p, require_rate_hint=True)
    p.add_argument("--window-s", type=float, default=8.0)
    p.add_argument("--stride-s", type=float, default=None, help="default: half the window")
    p.add_argument("--method", choices=("greedy", "extended-beam"), default="extended-beam")
    p.add_argument("--beam-width", type=int, default=3)
    p.add_argument("--output", required=True, help="detections CSV (frame,time_s,class)")
    p.set_defaults(func=_cmd_detect)

    p = commands.add_parser("loss", help="sequence probability and loss of a label")
    _add_prob_input(p)
    p.add_argument("--label", required=True, help="comma-separated class names, e.g. E,E,D")
    p.add_argument("--oracle", action="store_true", help="cross-check by enumeration")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_loss)

    p = commands.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--detections", required=True, help="detections CSV")
    p.add_argument("--ground-truth", required=True, help="ground-truth CSV")
    p.add_argument("--sample-rate-hz", type=float, default=1.0,
                   help="frames per second; stamps detection times only, not scores")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_eval)

    baseline = commands.add_parser("baseline", help="reference detectors")
    baseline_sub = baseline.add_subparsers(dest="baseline_command", required=True)

    p = baseline_sub.add_parser("two-stage", help="thresholded maximum search")
    _add_prob_input(p, require_rate_hint=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--min-dist-s", type=float, default=2.0)
    p.add_argument("--output", required=True, help="detections CSV")
    p.set_defaults(func=_cmd_baseline_two_stage)

    p = baseline_sub.add_parser("threshold", help="angular-velocity thresholding")
    p.add_argument("input", help="velocity CSV (t,roll_dps)")
    p.add_argument("--t1", type=float, required=True, help="positive arming threshold (deg/s)")
    p.add_argument("--t2", type=float, required=True, help="negative firing threshold (deg/s)")
    p.add_argument("--t3", type=float, required=True, help="dwell seconds before firing")
    p.add_argument("--t4", type=float, required=True, help="lockout seconds after firing")
    p.add_argument("--sample-rate-hz", type=float, required=True)
    p.add_argument("--output", required=True, help="detections CSV")
    p.set_defaults(func=_cmd_baseline_threshold)

    p = commands.add_parser("sweep", help="compare beam widths on one stream")
    _add_prob_input(p)
    p.add_argument("--widths", default="1,2,3,5", help="comma-separated beam widths")
    p.add_argument("--ground-truth", default=None, help="optional ground-truth CSV for F1")
    p.add_argument("--window-s", type=float, default=8.0)
    p.add_argument("--stride-s", type=float, default=None)
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = commands.add_parser("gen", help="generate a synthetic probability stream")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--events", default="", help="comma-separated <class>@<frame>, e.g. E@10,D@40")
    p.add_argument("--classes", default="", help="class names; defaults to those in --events")
    p.add_argument("--mode", choices=("spiky", "blocky"), default="spiky")
    p.add_argument("--spike-width", type=int, default=3)
    p.add_argument("--block-extent", type=int, default=9)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-rate-hz", type=float, required=True)
    p.add_argument("--output", required=True, help="probability CSV (sidecar written alongside)")
    p.add_argument("--gt-output", default=None, help="optional ground-truth CSV")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"ctcdetect: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataError as exc:
        print(f"ctcdetect: data error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as exc:
        print(f"ctcdetect: parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
