"""Confidence intervals for crowd-worker quality, from agreement alone.

The package estimates each worker's binary error rate, or full k-ary
response-probability matrix, using only how often workers agree with one
another. No gold labels are needed. Point estimates come with delta-method
confidence intervals, and a simulation harness measures their actual
coverage and size on synthetic crowds.

The names below are the public API. Every other name stays importable
from its module.
"""

from .errors import (
    CrowdGaugeError,
    EmptyDatasetError,
    EstimationFailure,
    GoldLabelError,
    InsufficientConnectivityError,
    LabelDomainError,
    ResponseConflictError,
    ResponseParseError,
    UnknownWorkerError,
)
from .dataset import load_responses, prune_spammers, reduce_arity
from .binary import WorkerReport, build_worker_system, evaluate_all, evaluate_worker
from .kary import (
    KaryReport,
    ResponseProbEstimate,
    build_counts,
    kary_confidence_intervals,
    kary_deviations,
    prob_estimate,
)
from .simulate import SimConfig, run_coverage_experiment, substream

__version__ = "0.1.0"

__all__ = [
    "CrowdGaugeError",
    "EmptyDatasetError",
    "EstimationFailure",
    "GoldLabelError",
    "InsufficientConnectivityError",
    "KaryReport",
    "LabelDomainError",
    "ResponseConflictError",
    "ResponseParseError",
    "ResponseProbEstimate",
    "SimConfig",
    "UnknownWorkerError",
    "WorkerReport",
    "build_counts",
    "build_worker_system",
    "evaluate_all",
    "evaluate_worker",
    "kary_confidence_intervals",
    "kary_deviations",
    "load_responses",
    "prob_estimate",
    "prune_spammers",
    "reduce_arity",
    "run_coverage_experiment",
    "substream",
]
