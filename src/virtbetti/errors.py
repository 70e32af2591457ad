"""Structured exceptions and the shared verdict type."""

from __future__ import annotations

from dataclasses import dataclass


class VirtBettiError(Exception):
    """Base class for every structured error raised by this package.

    Each error carries a machine-readable ``code`` plus free-form context,
    so the CLI can emit ``{code, message, context}`` on stderr.
    """

    code = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = dict(context)

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "context": self.context}


class ContainmentViolation(VirtBettiError):
    code = "containment-violation"


class NotFaceClosed(VirtBettiError):
    code = "not-face-closed"


class UnknownVertex(VirtBettiError):
    code = "unknown-vertex"


class TooManySimplices(VirtBettiError):
    code = "too-many-simplices"


class TooManyPieces(VirtBettiError):
    code = "too-many-pieces"


class WeightSearchTooLarge(VirtBettiError):
    code = "weight-search-too-large"


class UnknownAtom(VirtBettiError):
    code = "unknown-atom"


class MissingBoundaryData(VirtBettiError):
    code = "missing-boundary-data"


class DimensionMismatch(VirtBettiError):
    code = "dimension-mismatch"


class MissingIntersection(VirtBettiError):
    code = "missing-intersection"


class NotAPartition(VirtBettiError):
    code = "not-a-partition"


class NotACover(VirtBettiError):
    code = "not-a-cover"


class ConvergenceMismatch(VirtBettiError):
    code = "convergence-mismatch"


class MalformedConstraint(VirtBettiError):
    code = "malformed-constraint"


class InvalidStratification(VirtBettiError):
    code = "invalid-stratification"


class SceneError(VirtBettiError):
    code = "scene-error"


class UnknownName(VirtBettiError):
    code = "unknown-name"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a consistency check: truthiness plus a human-readable reason."""

    holds: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds
