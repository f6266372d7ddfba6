"""ctcdetect: decode per-frame class probabilities into sparse event detections.

The package turns a row-stochastic probability stream (one row per frame, one
column per token with blank at index 0) into timestamped detections, and
ships the exact sequence-probability machinery, decoders, sliding-window
pipeline, reference detectors, and event-level evaluation needed to study the
approach end to end.
"""

from .baselines import (
    ThresholdParams,
    TwoStageParams,
    grid_search_threshold_params,
    threshold_detect,
    two_stage_detect,
)
from .core import (
    BLANK_ID,
    Alphabet,
    DataError,
    InvalidTokenError,
    NormalizationError,
    ParameterError,
    ProbMatrix,
    collapse,
    validate_prob_matrix,
)
from .ctc import (
    NoAlignmentError,
    OracleSizeError,
    best_alignment_brute_force,
    ctc_loss,
    enumerate_alignments,
    log_prob_forward,
    prob_brute_force,
    prob_forward,
)
from .decode import (
    DecodeResult,
    Hypothesis,
    extended_prefix_beam_search,
    greedy_decode,
    prefix_beam_search,
)
from .evaluation import (
    ClassCounts,
    EvalCounts,
    GroundTruthEvent,
    OrderingError,
    PRF,
    evaluate,
    prf1,
)
from .synth import ScriptError, SyntheticScript, gen_synthetic
from .sweep import SweepRow, sweep_beam_width
from .windowing import (
    CoverageError,
    Detection,
    WindowSpec,
    detect_pipeline,
    eventize,
    majority_vote,
    slide_windows,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BLANK_ID",
    "ClassCounts",
    "CoverageError",
    "DataError",
    "DecodeResult",
    "Detection",
    "EvalCounts",
    "GroundTruthEvent",
    "Hypothesis",
    "InvalidTokenError",
    "NoAlignmentError",
    "NormalizationError",
    "OracleSizeError",
    "OrderingError",
    "PRF",
    "ParameterError",
    "ProbMatrix",
    "ScriptError",
    "SweepRow",
    "SyntheticScript",
    "ThresholdParams",
    "TwoStageParams",
    "WindowSpec",
    "best_alignment_brute_force",
    "collapse",
    "ctc_loss",
    "detect_pipeline",
    "enumerate_alignments",
    "evaluate",
    "eventize",
    "extended_prefix_beam_search",
    "gen_synthetic",
    "greedy_decode",
    "grid_search_threshold_params",
    "log_prob_forward",
    "majority_vote",
    "prefix_beam_search",
    "prf1",
    "prob_brute_force",
    "prob_forward",
    "slide_windows",
    "sweep_beam_width",
    "two_stage_detect",
    "threshold_detect",
    "validate_prob_matrix",
]
