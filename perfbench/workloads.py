"""One pass of each workload, untraced and traced.

The untraced hour passes drive ``ctcdetect.cli.main`` in-process, exactly as
a user's ``ctcdetect detect`` / ``eval`` / ``baseline two-stage`` would. The
traced hour passes rebuild the same work from the library's public calls and
record a span around each one. The decode-grid pass is library calls only,
so one implementation serves both modes through the tracer it is given.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ctcdetect import (
    Alphabet,
    Detection,
    GroundTruthEvent,
    TwoStageParams,
    WindowSpec,
    eventize,
    evaluate,
    extended_prefix_beam_search,
    greedy_decode,
    log_prob_forward,
    majority_vote,
    prefix_beam_search,
    prf1,
    slide_windows,
    two_stage_detect,
)
from ctcdetect import cli
from ctcdetect import io as fileio

from inputs import ALPHABET, GRID_FRAMES, GRID_KINDS, GRID_WIDTHS, RATE_HZ

HOUR_WORKLOADS = {"hour-beam": "extended-beam", "hour-greedy": "greedy"}
WINDOW_S = 8.0
BEAM_WIDTH = 3
GREEDY_FRAMES = max(GRID_FRAMES)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class HourFiles:
    """Input and output files of the hour workloads, all in one directory."""

    def __init__(self, root: Path) -> None:
        self.probs = str(root / "recording.csv")
        self.truth = str(root / "truth.csv")
        self.detections = str(root / "detections.csv")
        self.evaluation = str(root / "evaluation.json")
        self.reference = str(root / "two_stage.csv")
        self.reference_evaluation = str(root / "two_stage_evaluation.json")

    def read(self, *names: str) -> dict[str, bytes]:
        return {n: Path(getattr(self, n)).read_bytes() for n in names}


def write_hour_inputs(files: HourFiles, recording) -> None:
    fileio.write_prob_csv(files.probs, recording.matrix, ALPHABET)
    fileio.write_gt_csv(files.truth, recording.truth, ALPHABET)


# ---------------------------------------------------------------- untraced


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ctcdetect {' '.join(argv)} exited with {code}")


def _cli_eval(files: HourFiles, detections: str, out: str) -> None:
    _cli(["eval", "--detections", detections, "--ground-truth", files.truth,
          "--sample-rate-hz", f"{RATE_HZ:g}", "--output", out])


def cli_reference(files: HourFiles) -> None:
    """``baseline two-stage`` with its defaults, then ``eval`` of its output."""
    _cli(["baseline", "two-stage", files.probs, "--output", files.reference])
    _cli_eval(files, files.reference, files.reference_evaluation)


def cli_hour_pass(files: HourFiles, workload: str) -> None:
    """One untraced hour pass; outputs land in ``files``."""
    _cli(["detect", files.probs, "--method", HOUR_WORKLOADS[workload],
          "--beam-width", str(BEAM_WIDTH), "--window-s", f"{WINDOW_S:g}",
          "--output", files.detections])
    _cli_eval(files, files.detections, files.evaluation)
    if workload == "hour-greedy":
        cli_reference(files)


def hour_outputs(workload: str) -> tuple[str, ...]:
    base = ("detections", "evaluation")
    return base + ("reference", "reference_evaluation") if workload == "hour-greedy" else base


# ------------------------------------------------------------------ traced


def _traced_load(tracer, path: str):
    with tracer.span("read_prob_csv"):
        rate = fileio.read_sidecar_rate(path)
        return fileio.read_prob_csv(path, sample_rate_hz=rate)


def _traced_eval(tracer, files: HourFiles, detections: str, out: str) -> None:
    """The work of ``ctcdetect eval``, one span per layer call."""
    with tracer.span("read_eval_inputs"):
        det_rows = fileio.read_detections_csv(detections)
        gt_rows = fileio.read_gt_csv(files.truth)
        alphabet = Alphabet.from_names(sorted({r[2] for r in det_rows} | {r[2] for r in gt_rows}))
        dets = [Detection(alphabet.id_of(n), f, f / RATE_HZ) for f, _, n in det_rows]
        truth = sorted(
            (GroundTruthEvent(alphabet.id_of(n), lo, hi) for lo, hi, n in gt_rows),
            key=lambda e: e.start_frame,
        )
    with tracer.span("evaluate"):
        counts = evaluate(dets, truth)
    with tracer.span("prf1"):
        per_class = {}
        for cls in sorted(counts.per_class):
            c, score = counts.per_class[cls], prf1(counts, classes=[cls])
            per_class[alphabet.name_of(cls)] = {
                "counts": {"tp": c.tp, "fp1": c.fp1, "fp2": c.fp2, "fp3": c.fp3, "fn": c.fn},
                "f1": score.f1,
            }
        combined = prf1(counts)
    with tracer.span("write_eval_json"):
        Path(out).write_text(json.dumps({"classes": per_class, "combined": {"f1": combined.f1}}))


def traced_hour_pass(tracer, files: HourFiles, workload: str) -> dict[str, list[Detection]]:
    """One hour pass rebuilt from public calls; returns detections by detector."""
    with tracer.span("pass", workload=workload):
        m, alphabet = _traced_load(tracer, files.probs)
        spec = WindowSpec.from_seconds(WINDOW_S, m.sample_rate_hz)
        with tracer.span("slide_windows"):
            windows = slide_windows(m, spec)
        aligned = []
        for start, window in windows:
            with tracer.span("decode", start=start):
                if workload == "hour-greedy":
                    result = greedy_decode(window, alphabet)
                else:
                    result = extended_prefix_beam_search(window, alphabet, BEAM_WIDTH)
            aligned.append((start, result.top.alignment))
        with tracer.span("majority_vote"):
            voted = majority_vote(aligned, m.frames, alphabet)
        with tracer.span("eventize"):
            found = eventize(voted, m.sample_rate_hz)
        with tracer.span("write_detections_csv"):
            fileio.write_detections_csv(files.detections, found, alphabet)
        _traced_eval(tracer, files, files.detections, files.evaluation)
        if workload != "hour-greedy":
            return {"extended": found}
        m, alphabet = _traced_load(tracer, files.probs)
        with tracer.span("two_stage_detect"):
            reference = two_stage_detect(m, TwoStageParams())
        with tracer.span("write_detections_csv"):
            fileio.write_detections_csv(files.reference, reference, alphabet)
        _traced_eval(tracer, files, files.reference, files.reference_evaluation)
    return {"greedy": found, "two_stage": reference}


# ------------------------------------------------------------- decode grid


def grid_pass(tracer, grid) -> dict:
    """Every decode-grid call once; returns results keyed by cell.

    Keys: ("extended" | "prefix", kind, frames, width), ("greedy", kind) and
    ("forward", kind, label_length).
    """
    out = {}
    with tracer.span("pass", workload="decode-grid"):
        for kind in GRID_KINDS:
            for frames in GRID_FRAMES:
                m = grid.streams[kind, frames]
                for width in GRID_WIDTHS:
                    cell = {"kind": kind, "frames": frames, "width": width}
                    with tracer.span("decode.extended", **cell):
                        out["extended", kind, frames, width] = extended_prefix_beam_search(
                            m, ALPHABET, width
                        )
                    with tracer.span("decode.prefix", **cell):
                        out["prefix", kind, frames, width] = prefix_beam_search(m, ALPHABET, width)
            m = grid.streams[kind, GREEDY_FRAMES]
            with tracer.span("decode.greedy", kind=kind, frames=GREEDY_FRAMES):
                out["greedy", kind] = greedy_decode(m, ALPHABET)
            for length, label in grid.labels.items():
                with tracer.span("ctc.forward", kind=kind, length=length):
                    out["forward", kind, length] = log_prob_forward(m, label, ALPHABET)
    return out


def grid_digests(results: dict) -> dict[str, str]:
    """sha256 of each decode cell's labels and alignments, by cell name."""
    out = {}
    for key, result in results.items():
        if key[0] == "prefix":
            payload = [list(label) for label, _ in result]
        elif key[0] in ("extended", "greedy"):
            payload = [[list(h.label), list(h.alignment)] for h in result.hypotheses]
        else:
            continue
        out[".".join(map(str, key))] = sha256(json.dumps(payload).encode())
    return out
