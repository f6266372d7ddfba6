"""ctcdetect benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload hour-beam --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy. ``--trace 0`` times whole passes of
the named workload and prints the end-to-end metrics. ``--trace 1`` runs
untraced and traced passes of every workload and prints the per-layer
metrics (see perfbench/README.md for the map from layers to metrics).
``--workload all`` runs each workload, then a traced run, in a child process
of its own. Apart from those, everything runs sequentially in one process.
Results, the environment, output digests and (traced) spans go to
``.perfbench/``; the last line of standard output is the JSON summary.
"""

import os

# Set before numpy loads. One thread, as the CLI runs. No transparent huge
# pages for numpy's large arrays: whether the kernel can supply them depends
# on the machine's memory state, and it moved peak_rss_mb by up to 8 MB
# between otherwise identical runs.
ENV_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
os.environ.update(ENV_PINS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("hour-beam", "hour-greedy", "decode-grid")
SETUP_SAMPLES = 5
MIN_PASSES = 2
GRID_TRACE_PASSES = 3
CRITERION9_FRAMES = 512

E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "f1": "ratio",
    "f1_reference": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--workload",
        required=True,
        choices=WORKLOADS + ("all",),
        help="'all': each workload untraced, then one traced run, each in its own process",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="untraced measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_package() -> None:
    """Import the package and the benchmark modules from this checkout."""
    if not (SRC / "ctcdetect" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'ctcdetect'}")
    sys.path.insert(0, str(SRC))
    global checks, inputs, tracing, workloads, np, ctc
    import ctcdetect as ctc

    if not Path(ctc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported ctcdetect from {ctc.__file__}, not {SRC}")
    import numpy as np
    import checks
    import inputs
    import tracing
    import workloads


def _package_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "ctcdetect" or k.startswith("ctcdetect.")}


def package_import_s() -> float:
    """Seconds to import ctcdetect afresh in this process.

    The package's modules are dropped from ``sys.modules``, imported again
    from ``src/`` and then put back, so the rest of the run keeps using the
    objects it already holds. numpy and the standard library stay loaded:
    their import is outside this project.
    """
    loaded = _package_modules()
    for name in loaded:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("ctcdetect")
    elapsed = perf_counter() - start
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(loaded)
    return elapsed


def environment(seed: int) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
        "env_pins": {v: os.environ[v] for v in ENV_PINS},
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ checks


def check_hour_outputs(checker, label: str, outputs: dict, recording) -> None:
    names = inputs.ALPHABET.class_names
    truth = {n: sum(e.class_id == i for e in recording.truth) for i, n in enumerate(names, 1)}
    frames = recording.matrix.frames
    for det, ev in (("detections", "evaluation"), ("reference", "reference_evaluation")):
        if det in outputs:
            checker.record(f"{label} {det}", checks.detections(outputs[det], frames, names))
            checker.record(f"{label} {ev}", checks.eval_counts(outputs[ev], truth))


def check_grid(checker, label: str, results: dict) -> None:
    for key, result in results.items():
        if key[0] == "extended":
            _, kind, frames, width = key
            checker.record(f"{label} {key}", checks.extended_result(result, frames))
            ranked = results["prefix", kind, frames, width]
            checker.record(f"{label} {key} top label", checks.same_top_label(result, ranked))
        elif key[0] == "prefix":
            checker.record(f"{label} {key}", checks.prefix_result(result))
        elif key[0] == "greedy":
            checker.record(f"{label} {key}", checks.extended_result(result, workloads.GREEDY_FRAMES))


def check_against_forward(checker, grid, results: dict) -> None:
    """Beam top probabilities never exceed the exact forward value."""
    for key, result in results.items():
        if key[0] != "extended" or not result.hypotheses:
            continue  # an empty result already failed its own check
        _, kind, frames, width = key
        top = result.top
        exact = ctc.log_prob_forward(grid.streams[kind, frames], top.label, inputs.ALPHABET)
        checker.record(
            f"forward bound {key}", checks.beam_below_forward(top.log_probability, exact)
        )
        ranked = results["prefix", kind, frames, width]
        if ranked and tuple(ranked[0][0]) == tuple(top.label):
            # a differing top label already failed its own check
            checker.record(
                f"forward bound prefix{key[1:]}", checks.prefix_below_forward(ranked[0][1], exact)
            )


# --------------------------------------------------------- metric helpers


def combined_f1(eval_bytes: bytes) -> float:
    return float(json.loads(eval_bytes)["combined"]["f1"])


def clean_stream_f1(grid, results: dict) -> tuple[float, float]:
    """Event F1 of the width-3 extended decode and of two-stage, clean stream."""
    frames = max(inputs.GRID_FRAMES)
    alignment = results["extended", "clean", frames, workloads.BEAM_WIDTH].top.alignment
    found = ctc.eventize(alignment, inputs.RATE_HZ)
    reference = ctc.two_stage_detect(grid.streams["clean", frames], ctc.TwoStageParams())
    return (
        ctc.prf1(ctc.evaluate(found, grid.clean_truth)).f1,
        ctc.prf1(ctc.evaluate(reference, grid.clean_truth)).f1,
    )


def measure_passes(seconds: float, run_pass, inspect, set_up_until) -> list[float]:
    """Time passes until ``seconds`` have gone by (at least MIN_PASSES).

    ``inspect(i, value)`` gets what pass ``i`` returned and runs outside the
    timed region, so checks and digests cost no pass time.
    ``set_up_until(n)`` repeats the set-up until it has been done ``n`` times;
    it is called between passes so that the SETUP_SAMPLES set-ups spread over
    the whole measuring time (the host's speed drifts over seconds, and
    set-ups taken back to back would all see one speed).
    """
    walls = []
    start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - start < seconds:
        t = perf_counter()
        value = run_pass()
        walls.append(perf_counter() - t)
        inspect(len(walls) - 1, value)
        share = min(1.0, (perf_counter() - start) / seconds)
        set_up_until(1 + int((SETUP_SAMPLES - 1) * share))
    set_up_until(SETUP_SAMPLES)
    return walls


# ------------------------------------------------------------ untraced run


def build_inputs(workload: str, seed: int, files):
    """Everything a workload needs before its first pass: the hour recording
    (written to ``files``) or the decode-grid streams."""
    if workload in workloads.HOUR_WORKLOADS:
        recording = inputs.hour_recording(seed)
        workloads.write_hour_inputs(files, recording)
        return recording
    return inputs.grid_streams(seed)


def input_digest(built, files) -> str:
    if isinstance(built, inputs.Recording):
        return workloads.sha256(b"".join(files.read("probs", "truth").values()))
    return workloads.sha256(b"".join(m.probs.tobytes() for m in built.streams.values()))


def untraced_run(workload, seed, seconds, files, checker):
    import_times, build_times, input_digests = [], [], []

    def set_up_once():
        """A fresh import of the package plus an input build."""
        import_times.append(package_import_s())
        t = perf_counter()
        built = build_inputs(workload, seed, files)
        build_times.append(perf_counter() - t)
        input_digests.append(input_digest(built, files))
        return built

    def set_up_until(samples: int) -> None:
        # later builds are only timed and compared, then dropped at once:
        # keeping them alive would raise peak_rss_mb
        while len(build_times) < samples:
            set_up_once()

    built = set_up_once()
    digests, first, extra = [], [], {}
    if workload in workloads.HOUR_WORKLOADS:
        recording = built

        def inspect(i, _):
            out = files.read(*workloads.hour_outputs(workload))
            check_hour_outputs(checker, f"{workload} pass {i}", out, recording)
            digests.append({k: workloads.sha256(v) for k, v in out.items()})
            if not first:
                first.append(out)

        walls = measure_passes(
            seconds, lambda: workloads.cli_hour_pass(files, workload), inspect, set_up_until
        )
        f1 = combined_f1(first[0]["evaluation"])
        if workload == "hour-beam":
            workloads.cli_reference(files)
            reference = files.read("reference", "reference_evaluation")
            check_hour_outputs(checker, f"{workload} reference", reference, recording)
            extra = {k: workloads.sha256(v) for k, v in reference.items()}
            f1_reference = combined_f1(reference["reference_evaluation"])
        else:
            f1_reference = combined_f1(first[0]["reference_evaluation"])
    else:
        grid = built

        def inspect(i, results):
            check_grid(checker, f"pass {i}", results)
            digests.append(workloads.grid_digests(results))
            if not first:
                first.append(results)

        walls = measure_passes(
            seconds, lambda: workloads.grid_pass(tracing.NullTracer(), grid), inspect, set_up_until
        )
        check_against_forward(checker, grid, first[0])
        f1, f1_reference = clean_stream_f1(grid, first[0])
    checker.record(f"{workload} passes identical", checks.same_as_first(digests))
    checker.record(f"{workload} set-ups identical", checks.same_as_first(input_digests))
    setup_times = [a + b for a, b in zip(import_times, build_times)]
    record = {
        "setup_samples_s": setup_times,
        "import_samples_s": import_times,
        "build_samples_s": build_times,
        "input_digest": input_digests[0],
        "digests": {**digests[0], **extra},
        "pass_walls_s": walls,
    }
    metrics = {
        "setup_s": median(setup_times),
        "pass_s": median(walls),
        "peak_rss_mb": peak_rss_mb(),
        "f1": f1,
        "f1_reference": f1_reference,
    }
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, record


# -------------------------------------------------------------- traced run


def traced_run(workload, seed, files, checker):
    t = perf_counter()
    recording = inputs.hour_recording(seed)
    gen_s = perf_counter() - t
    workloads.write_hour_inputs(files, recording)
    grid = inputs.grid_streams(seed)

    # each traced pass runs right after its untraced twin, so that machine
    # drift between the two shows as little as it can in trace.overhead_s
    untraced_wall, tracer, found = {}, tracing.Tracer(), {}
    for name in WORKLOADS:
        tracer.pass_id = name
        if name == "decode-grid":
            if workload == name:
                t = perf_counter()
                workloads.grid_pass(tracing.NullTracer(), grid)
                untraced_wall[name] = perf_counter() - t
            for i in range(GRID_TRACE_PASSES):
                check_grid(checker, f"traced pass {i}", workloads.grid_pass(tracer, grid))
            continue
        t = perf_counter()
        workloads.cli_hour_pass(files, name)
        untraced_wall[name] = perf_counter() - t
        untraced_out = files.read(*workloads.hour_outputs(name))
        found.update(workloads.traced_hour_pass(tracer, files, name))
        traced_out = files.read(*workloads.hour_outputs(name))
        check_hour_outputs(checker, f"traced {name}", traced_out, recording)
        for out in ("detections", "reference"):
            if out in traced_out:
                same = [workloads.sha256(untraced_out[out]), workloads.sha256(traced_out[out])]
                checker.record(f"traced {name} {out} equal untraced", checks.same_as_first(same))

    primary = workload if workload in workloads.HOUR_WORKLOADS else "hour-beam"
    grid_table = quality_grid(recording, found)
    metrics = layer_metrics(tracer, primary, recording, grid_table)
    metrics["synth.gen_s"] = (gen_s, "s")
    roots = [s for s in tracer.of_pass(workload) if s.parent is None]
    traced_wall = median(r.duration for r in roots)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall[workload], "s")
    own = tracing.self_times(tracer.spans)
    metrics["trace.unaccounted_s"] = (median(own[r.id] for r in roots), "s")
    self_time_s: dict[str, dict[str, float]] = {}
    for span in tracer.spans:
        by_name = self_time_s.setdefault(span.pass_id, {})
        by_name[span.name] = by_name.get(span.name, 0.0) + own[span.id]
    record = {
        "untraced_pass_s": untraced_wall,
        "self_time_s": self_time_s,
        "quality_grid": grid_table,
        "spans": [s.as_dict() for s in tracer.spans],
    }
    return metrics, record


def layer_metrics(tracer, primary: str, recording, grid_table: dict) -> dict:
    spans = tracer.of_pass(primary)
    sums: dict[str, float] = {}
    for s in spans:
        sums[s.name] = sums.get(s.name, 0.0) + s.duration
    decodes = [s for s in spans if s.name == "decode"]
    window_ms = sorted(s.duration * 1e3 for s in decodes)
    m = {
        "io.read_prob_csv_s": (sums["read_prob_csv"], "s"),
        "io.write_detections_csv_s": (sums["write_detections_csv"], "s"),
        "io.read_eval_inputs_s": (sums["read_eval_inputs"], "s"),
        "windowing.slide_windows_s": (sums["slide_windows"], "s"),
        "windowing.windows": (len(decodes), "count"),
        "windowing.majority_vote_s": (sums["majority_vote"], "s"),
        "windowing.eventize_s": (sums["eventize"], "s"),
        "decode.window_s": (sums["decode"], "s"),
        "decode.calls": (len(decodes), "count"),
        "decode.window_ms_p50": (median(window_ms), "ms"),
        # highest percentile with at least ten windows beyond it
        "decode.window_ms_tail": (window_ms[max(0, len(window_ms) - 11)], "ms"),
        "evaluation.evaluate_s": (sums["evaluate"], "s"),
    }
    for seg in recording.segments:
        cell = [s.duration * 1e3 for s in decodes if seg.lo <= s.attrs["start"] < seg.hi]
        m[f"decode.window_ms.{seg.name}"] = (median(cell), "ms")
    two_stage = [s for s in tracer.of_pass("hour-greedy") if s.name == "two_stage_detect"]
    m["baselines.two_stage_s"] = (sum(s.duration for s in two_stage), "s")

    # each decode-grid cell: the median over the GRID_TRACE_PASSES traced passes
    samples: dict[tuple, list] = {}
    for s in tracer.of_pass("decode-grid"):
        if s.parent is not None:
            key = (s.name,) + tuple(s.attrs.values())
            samples.setdefault(key, []).append(s.duration * 1e3)
    grid_ms = {key: median(v) for key, v in samples.items()}
    width = workloads.BEAM_WIDTH
    for kind in inputs.GRID_KINDS:
        for decoder in ("extended", "prefix"):
            for frames in inputs.GRID_FRAMES:
                for w in inputs.GRID_WIDTHS:
                    value = grid_ms["decode." + decoder, kind, frames, w]
                    m[f"decode.{decoder}.{kind}.T{frames}.w{w}_ms"] = (value, "ms")
        frames = workloads.GREEDY_FRAMES
        m[f"decode.greedy.{kind}.T{frames}_ms"] = (grid_ms["decode.greedy", kind, frames], "ms")
        lo, hi = (grid_ms["decode.extended", kind, f, width] for f in inputs.GRID_FRAMES)
        m[f"decode.extended.{kind}.w{width}.growth"] = (hi / lo, "ratio")
    worst = max(grid_ms["decode.extended", k, CRITERION9_FRAMES, width] for k in inputs.GRID_KINDS)
    m["decode512_worst_ms"] = (worst, "ms")
    for length in inputs.FORWARD_LABEL_LENGTHS:
        values = [grid_ms["ctc.forward", kind, length] for kind in inputs.GRID_KINDS]
        m[f"ctc.forward.L{length}_ms"] = (median(values), "ms")

    for detector, cells in grid_table.items():
        m[f"evaluation.detections.{detector}"] = (sum(c["detections"] for c in cells.values()), "count")
        for cell, row in cells.items():
            m[f"evaluation.f1.{detector}.{cell}"] = (row["f1"], "ratio")
    return m


def quality_grid(recording, found: dict) -> dict:
    """detector -> cell -> {"f1", "detections"}, scored segment by segment."""
    table = {}
    for detector, dets in found.items():
        table[detector] = {}
        for seg in recording.segments:
            mine = [d for d in dets if seg.lo <= d.frame < seg.hi]
            truth = [e for e in recording.truth if seg.lo <= e.start_frame < seg.hi]
            score = ctc.prf1(ctc.evaluate(mine, truth))
            table[detector][seg.name] = {"f1": score.f1, "detections": len(mine)}
    return table


# ------------------------------------------------------------------ output


def print_quality_grid(table: dict) -> None:
    cells = list(next(iter(table.values())))
    print("quality grid: F1 (detections) per cell; 40 events per cell")
    print(f"  {'detector':<10}" + "".join(f"{c:>15}" for c in cells))
    for detector, row in table.items():
        print(f"  {detector:<10}" + "".join(
            f"{row[c]['f1']:>8.3f} ({row[c]['detections']:>4})" for c in cells
        ))


def run_all(args) -> int:
    """Every workload untraced, then one traced run, each in a child process
    (so each has its own import time and peak memory); end-to-end metrics
    come back prefixed with their workload."""
    runs = [(w, 0) for w in WORKLOADS] + [(WORKLOADS[0], 1)]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}" if trace == 0 else name] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    load_package()
    checker = checks.Checker()
    checker.record("checker self-test", checks.self_test())

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(exist_ok=True)
    try:
        files = workloads.HourFiles(work)
        if args.trace:
            metrics, record = traced_run(args.workload, args.seed, files, checker)
        else:
            metrics, record = untraced_run(args.workload, args.seed, args.seconds, files, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "failed_frac": checker.failed / checker.attempted,
        "failures": checker.failures,
        "unchecked": checker.unchecked,
        **record,
        "result": result,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}  ({path.name})")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if args.trace:
        print_quality_grid(record["quality_grid"])
    for op, problems in checker.failures:
        print(f"FAILED {op}: {'; '.join(problems[:3])}")
    print(f"failed_frac = {checker.failed}/{checker.attempted} = {detail['failed_frac']:.6g}")
    if checker.unchecked:
        print(f"unchecked ({len(checker.unchecked)}): {'; '.join(checker.unchecked)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
