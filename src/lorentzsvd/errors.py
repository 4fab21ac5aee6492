"""Exception types shared across the package.

Every error carries an ``exit_code`` so the command line driver can map
failures onto its documented process exit codes:

    1 -- malformed input (bad JSON, wrong shapes, unparseable numbers)
    2 -- input parses but is not a physical state
    3 -- numerical failure inside an algorithm
    4 -- verification failure (self-checks did not hold at tolerance)
"""

from __future__ import annotations


class LorentzSvdError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class InputFormatError(LorentzSvdError):
    """Input file or matrix payload is structurally malformed."""

    exit_code = 1


# ---------------------------------------------------------------------------
# Minkowski frame construction


class TriadNotGOrthogonal(LorentzSvdError):
    """Supplied vectors do not form a G-orthonormal neutral triad."""


class DegenerateCompletion(LorentzSvdError):
    """Triad completion produced a numerically degenerate fourth direction."""


# ---------------------------------------------------------------------------
# Two-qubit state layer


class InvalidState(LorentzSvdError):
    """Density matrix fails hermiticity / trace / positivity checks."""

    exit_code = 2


class NotAState(LorentzSvdError):
    """A correlation matrix does not correspond to any physical state."""

    exit_code = 2


class NotUnitDeterminant(LorentzSvdError):
    """SL(2,C) factor does not have determinant one at tolerance."""

    exit_code = 1


class FilterAnnihilatesState(LorentzSvdError):
    """Local filtering operation sent the state to (numerically) zero trace."""

    exit_code = 2


class PositivityTransferViolated(LorentzSvdError):
    """A forward-cone vector was mapped out of the forward cone."""


# ---------------------------------------------------------------------------
# G-eigensystem layer


class NumericalFailure(LorentzSvdError):
    """Root finding or eigenvector extraction could not be completed."""


# ---------------------------------------------------------------------------
# Canonicalization layer


class NotTypeI(LorentzSvdError):
    """State is not of the diagonalizable (Bell-like) family."""


class NotTypeII(LorentzSvdError):
    """State is not of the non-diagonalizable family."""


class SingularTopEigenvalue(LorentzSvdError):
    """Leading eigenvalue vanishes; no normalizable canonical form exists."""


class InvalidSigmaParameters(LorentzSvdError):
    """Parameters (b, c, d) violate the normal-form constraints."""

    exit_code = 1


class InvalidCanonicalParameters(LorentzSvdError):
    """Canonical parameters violate their positivity/ordering constraints."""

    exit_code = 1


# ---------------------------------------------------------------------------
# Geometry layer


class DegenerateProductGeometry(LorentzSvdError):
    """Steering geometry is undefined for the degenerate product family."""
