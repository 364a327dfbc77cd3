"""Exception types and estimator failure reason codes."""

from __future__ import annotations


class CrowdGaugeError(Exception):
    """Base class for every error raised by this package."""


class ResponseParseError(CrowdGaugeError):
    """A response file is malformed (bad header, field count, non-integer label...)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ResponseConflictError(CrowdGaugeError):
    """The same (task, worker) appears twice with different labels."""


class EmptyDatasetError(CrowdGaugeError):
    """A response source contained no data rows."""


class LabelDomainError(CrowdGaugeError):
    """A label lies outside the permitted range, or a label map is partial."""


class UnknownWorkerError(CrowdGaugeError):
    """A worker id does not exist in the dataset."""


class GoldLabelError(CrowdGaugeError):
    """A gold-label file is malformed or references unknown tasks."""


class InsufficientOverlapError(CrowdGaugeError):
    """A required worker pair shares no tasks."""


class InsufficientConnectivityError(CrowdGaugeError):
    """Too few workers, or no disjoint worker pairs can be formed."""


class EstimationFailure(CrowdGaugeError):
    """A soft estimator failure carrying a machine-readable reason code.

    Raised by the response-probability pipeline and converted by callers
    into failed reports; `reason` is one of the REASON_* constants below.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


# Reason codes stored on failed estimates and reports.
REASON_LOW_AGREEMENT = "agreement at or below 1/2"
REASON_NEGATIVE_VARIANCE = "negative variance"
REASON_INSUFFICIENT_OVERLAP = "insufficient overlap"
REASON_INSUFFICIENT_CONNECTIVITY = "insufficient connectivity"
REASON_NO_USABLE_TRIPLES = "no usable triples"
REASON_NONINVERTIBLE_FREQUENCY = "non-invertible response frequency matrix"
REASON_NEGATIVE_SPECTRUM = "negative spectrum"
REASON_EIGEN_NONCONVERGENCE = "eigendecomposition did not converge"
REASON_NO_USABLE_SLICES = "no usable conditional slices"
REASON_DEGENERATE_SELECTIVITY = "degenerate selectivity"
REASON_JACOBIAN_FAILURE = "jacobian failure"
REASON_SINGULAR_ESTIMATE = "non-invertible probability estimate"
