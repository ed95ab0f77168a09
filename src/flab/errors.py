"""Typed exceptions and the label base shared across the package.

Every precondition failure raises one of these rather than a bare
ValueError, so callers (and the command-line tool) can map failures
to exit codes without string matching. An empty matrix, or an empty
list of eigenvalues, is a `DimensionMismatch`. Every enumerated label
the package reports is a `Label`, which prints as its value.
"""

import enum


class Label(enum.Enum):
    """An enumeration whose members print as their values."""

    def __str__(self):
        return self.value


class Error(Exception):
    """Base class for all package errors."""


class NotSymmetric(Error):
    """Matrix input fails the symmetry tolerance."""


class NotPD(Error):
    """Matrix is not positive definite where one is required."""


class DimensionMismatch(Error):
    """Operands disagree on dimension."""


class InvalidProjection(Error):
    """Matrix is not an orthogonal projection within tolerance."""


class NegativeSigma(Error):
    """Noise scale must be nonnegative."""


class WrongPriorKind(Error):
    """Operation called on a scenario whose prior kind does not support it."""


class NonCommuting(Error):
    """Projection and inverse cost fail the commutativity check."""


class CostsDiffer(Error):
    """Operation requires both groups to share one cost matrix."""


class AssumptionViolated(Error):
    """A scenario-level structural assumption does not hold."""


class NonFinite(Error):
    """Value is NaN or infinite where a finite number is required."""


class InvalidBracket(Error):
    """Root-search interval is empty, unordered, or not strictly positive."""


class ParseError(Error):
    """Scenario file is malformed; carries a JSON-pointer style location."""

    def __init__(self, pointer, message):
        self.pointer = pointer or "/"
        self.message = message
        super().__init__(f"{self.pointer}: {message}")
