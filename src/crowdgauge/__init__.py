"""Confidence intervals for crowd-worker quality, from agreement alone.

The package estimates each worker's binary error rate, or full k-ary
response-probability matrix, using only how often workers agree with one
another. No gold labels are needed. Point estimates come with delta-method
confidence intervals, and a simulation harness measures their actual
coverage and size on synthetic crowds.
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
from .numerics import (
    normal_quantile,
    optimal_weights,
    propagated_deviation,
)
from .dataset import (
    GoldLabels,
    RemovedWorker,
    ResponseDataset,
    load_gold,
    load_responses,
    prune_spammers,
    reduce_arity,
    write_responses_csv,
)
from .binary import (
    WorkerReport,
    agreement_covariances,
    build_worker_system,
    cross_triple_covariances,
    error_rate_from_agreements,
    evaluate_all,
    evaluate_worker,
    greedy_pairs,
)
from .kary import (
    CountsTensor,
    KaryReport,
    ResponseProbEstimate,
    build_counts,
    kary_confidence_intervals,
    kary_deviations,
    numerical_jacobian,
    prob_estimate,
    recover_selectivity,
)
from .simulate import (
    CONFIDENCE_GRID,
    DENSITY_GRID,
    ExperimentResult,
    KaryWorld,
    SimConfig,
    compare_weighting,
    gen_binary_responses,
    gen_binary_workers,
    gen_kary_responses,
    ramp_densities,
    result_to_csv,
    result_to_json,
    run_coverage_experiment,
    run_size_experiment,
    substream,
)

__version__ = "0.1.0"

__all__ = [
    "CONFIDENCE_GRID",
    "CountsTensor",
    "CrowdGaugeError",
    "DENSITY_GRID",
    "EmptyDatasetError",
    "EstimationFailure",
    "ExperimentResult",
    "GoldLabelError",
    "GoldLabels",
    "InsufficientConnectivityError",
    "KaryReport",
    "KaryWorld",
    "LabelDomainError",
    "RemovedWorker",
    "ResponseConflictError",
    "ResponseDataset",
    "ResponseParseError",
    "ResponseProbEstimate",
    "SimConfig",
    "UnknownWorkerError",
    "WorkerReport",
    "agreement_covariances",
    "build_counts",
    "build_worker_system",
    "compare_weighting",
    "cross_triple_covariances",
    "error_rate_from_agreements",
    "evaluate_all",
    "evaluate_worker",
    "gen_binary_responses",
    "gen_binary_workers",
    "gen_kary_responses",
    "greedy_pairs",
    "kary_confidence_intervals",
    "kary_deviations",
    "load_gold",
    "load_responses",
    "normal_quantile",
    "numerical_jacobian",
    "optimal_weights",
    "prob_estimate",
    "propagated_deviation",
    "prune_spammers",
    "ramp_densities",
    "recover_selectivity",
    "reduce_arity",
    "result_to_csv",
    "result_to_json",
    "run_coverage_experiment",
    "run_size_experiment",
    "substream",
    "write_responses_csv",
]
