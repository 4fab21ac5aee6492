"""Indefinite-metric eigenanalysis of the correlation quadratic forms.

For a correlation matrix Lambda (00-entry normalized to one) the two
symmetric forms

    Omega_A = Lambda G Lambda^T ,      Omega_B = Lambda^T G Lambda

share the spectrum of the non-symmetric operator G @ Omega, and that
spectrum -- real, non-negative, with a top eigenvector that is either
timelike or lightlike -- goes with the canonical form a state admits.

`omega_matrices` returns one raw product, Omega_A of Lambda or Omega_B
of Lambda^T, and the solve is the one place that symmetrizes a form.
The spectrum comes from LAPACK as cluster means (`_quartic`);
`g_spectrum` stops there.

The TypeII family is decided on rho's kernel (`qstate.read_state`),
which also gives its null top eigenvector, so a TypeII state is never
solved here.  For every other state `g_eigensystem` names the family
from the spectrum and rho's rank: DegenerateProduct when the top
eigenvalue vanishes on a state of rank at most 2, which forms no span,
and TypeI otherwise.  A TypeI solve reads the top cluster alone, the
only one any construction uses, and of it one row: the Gram top
eigenvector of the cluster's span, which must be timelike
(`NoTimelikeTop`).  That span is LAPACK's eigenvector when the cluster
is one real root, the whole space when the caller's rank decision found
the state pure, and otherwise the null space of G Omega - c I at its
centre c: the right singular vectors below one cut, with no second try
at a wider one.  `canonical` reads a TypeI side B off side A, so it
solves one form only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._linalg import gram_eigenbasis, null_space_basis
from ._quartic import quartic_real_roots
from .errors import NoTimelikeTop, NumericalFailure
from .minkowski import DEFAULT_TOL, G_METRIC, SCALE_FLOOR, g_inner

_EPS = float(np.finfo(float).eps)

#: A top row whose x^T G x, for Euclidean-unit x, is at most this is not
#: timelike: a lightlike row reads rounding of about 1e-16, and the top
#: row of a TypeI state stays far above it.
SIGNATURE_TOL = 1e-8

#: Relative radius for merging neighbouring eigenvalues into one
#: degenerate cluster.  Exact degeneracies survive transport by
#: well-conditioned filtering operations with root smear a couple of
#: orders below this, while generic random states keep eigenvalue gaps
#: a few orders above it.
CLUSTER_RADIUS_REL = 1e-7


# ---------------------------------------------------------------------------
# the quadratic form


def omega_matrices(lam: np.ndarray) -> np.ndarray:
    """The raw product Lambda G Lambda^T: Omega_A of Lambda, and Omega_B of
    Lambda^T.

    The product is symmetric in exact arithmetic.  `g_eigensystem` is the
    one place that symmetrizes a form, and it records the asymmetry it
    removes.  Only a TypeII state and the CLI's ``verify`` read Omega_B.
    The name is the one the benchmark's tracer wraps.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (4, 4):
        raise ValueError(f"expected a 4x4 correlation matrix, got {lam.shape}")
    return lam.dot(G_METRIC).dot(lam.T)


# ---------------------------------------------------------------------------
# production eigensystem


class CanonicalFamily(Enum):
    """The family of a state: TypeII is decided on rho's kernel, the other
    two by `g_eigensystem`."""

    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    DEGENERATE_PRODUCT = "DegenerateProduct"


@dataclass(frozen=True)
class ConditionReport:
    """Numerical health data attached to a solved eigensystem."""

    #: imaginary scale absorbed when a near-complex root pair was closed
    imag_residue: float
    #: asymmetry removed from the input form
    symmetry_defect: float


@dataclass(frozen=True)
class GEigenSystem:
    """Solved eigenproblem of G @ Omega for one symmetric form Omega.

    ``eigenvalues`` are the four algebraic eigenvalues, descending.  The
    solve reads the top cluster alone, ``top_cluster``.  On a TypeI form
    it gives one row, ``top_row``, the Gram top eigenvector of the
    cluster's span, timelike and G-normalized; a DegenerateProduct form
    forms no span and has no row.  ``family`` is the family the solve
    decided, TypeI or DegenerateProduct.
    """

    eigenvalues: np.ndarray
    top_row: np.ndarray | None
    family: CanonicalFamily
    #: (center, algebraic multiplicity, dimension of its span) of the top
    #: cluster; the dimension is 0 on a DegenerateProduct form
    top_cluster: tuple[float, int, int]
    condition_report: ConditionReport
    #: the symmetrized form that was solved
    omega: np.ndarray


_E0 = np.array([1.0, 0.0, 0.0, 0.0])
_EYE4 = np.eye(4)
_G_DIAG = np.array([1.0, -1.0, -1.0, -1.0])
#: the index pairs above the diagonal of a 4x4 matrix
_UPPER = tuple((i, j) for i in range(4) for j in range(i + 1, 4))


def _cluster_vectors(
    k_op: np.ndarray,
    center: float,
    mult: int,
    gap: float,
    scale: float,
) -> np.ndarray:
    """Orthonormal basis (columns) of the eigenspace at a cluster center.

    ``k_op`` is G @ Omega.  The rank decision must swallow the in-cluster
    eigenvalue smear (at most the merge radius) yet reject directions
    belonging to the next cluster (at least ``gap`` away), so the
    threshold is pinched between the two, and floored at 64 eps max|M|
    for M = G Omega - center I.  It goes to `null_space_basis` as an
    absolute cut: this is the one place it is scaled.  A cut that finds
    no direction keeps the smallest singular direction, and the caller's
    signature test judges it; a cut that finds more directions than the
    multiplicity has taken a neighbour's and is refused.  ``scale`` is
    |Tr G Omega| without the unit floor of the merge radius: on a form
    whose eigenvalues all lie far below one, a cut at the floored scale
    can take a timelike neighbour into a lightlike top eigenspace.
    """
    m = k_op - center * _EYE4
    mscale = max(float(np.abs(m).max()), SCALE_FLOOR)
    thresh = max(CLUSTER_RADIUS_REL * scale, 64.0 * _EPS * mscale)
    if math.isfinite(gap):
        thresh = max(min(thresh, 0.45 * gap), 64.0 * _EPS * mscale)
    basis = null_space_basis(m, thresh)
    if basis.shape[1] > mult:
        raise NumericalFailure(
            f"the cut at eigenvalue {center:.6g} takes a neighbouring direction "
            f"({basis.shape[1]} null directions, multiplicity {mult})"
        )
    return basis


def _gram_top(basis: np.ndarray) -> np.ndarray:
    """The Gram top eigenvector of the top cluster's span.

    Every timelike vector of a degenerate top eigenspace is an
    eigenvector; which one is residual gauge (Verstraete, Dehaene, De
    Moor, PRA 64, 010101(R) (2001)), pinned to the Gram top eigenvector,
    the x of largest x^T G x over Euclidean-unit x in the span, by the
    span's dimension: a single vector is its own, returned as
    ``basis[:, 0] + 0.0``, the bytes ``eigh`` of its 1x1 Gram matrix
    would give (U = [[1.0]], and the product turns -0.0 into +0.0); a
    plane takes the major axis of its 2x2 Gram matrix, on Python floats;
    a 3-dim span takes the first column of its Gram eigenbasis; and the
    whole space takes e0.  The caller normalizes the vector.
    """
    dim = basis.shape[1]
    if dim == 1:
        return basis[:, 0] + 0.0
    if dim == 2:
        v, w = basis.T.tolist()
        s00, s01, s11 = g_inner(v, v), g_inner(v, w), g_inner(w, w)
        theta = 0.5 * math.atan2(2.0 * s01, s00 - s11)
        c, s = math.cos(theta), math.sin(theta)
        return np.array([c * vi + s * wi for vi, wi in zip(v, w)])
    if dim == 3:
        return gram_eigenbasis(basis)[1][:, 0]
    return _E0


def _clusters(omega: np.ndarray, tol: float) -> tuple:
    """The spectrum of G @ Omega for the symmetric part of a 4x4 form:
    (form, symmetry defect, |Tr G Omega|, cluster centres descending,
    their multiplicities, the `QuarticRoots` or None for the zero form).

    The form is symmetrized here, and only here (a form symmetric to the
    bit is its own symmetric part).  Every entry at most ``tol`` is the
    zero form, one 4-fold cluster at zero.  Otherwise the eigenvalues
    come from ``np.linalg.eig`` as cluster means, merged within
    `CLUSTER_RADIUS_REL` times max(1, |Tr G Omega|).
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (4, 4):
        raise ValueError(f"expected a 4x4 symmetric form, got {omega.shape}")
    # the passes over 16 entries run on Python floats, which cost less than
    # numpy's reductions and overflow without a warning.  Every sum the
    # solve forms, a cluster's root sum included, is at most four times
    # sum |entries|, so the form is refused where that overflows
    m = omega.tolist()
    entries = m[0] + m[1] + m[2] + m[3]
    if not math.isfinite(4.0 * sum(map(abs, entries))):
        raise NumericalFailure("the form has entries that are not finite or overflow the solve")
    symmetry_defect = max([abs(m[i][j] - m[j][i]) for i, j in _UPPER])
    if symmetry_defect > 0.0:
        # a form symmetric to the bit is its own symmetric part
        omega = 0.5 * (omega + omega.T)
        m = omega.tolist()
        entries = m[0] + m[1] + m[2] + m[3]
    # |Tr G Omega|, summed in np.trace's order
    trace = abs(((m[0][0] - m[1][1]) - m[2][2]) - m[3][3])
    if max(max(entries), -min(entries)) <= tol:
        return omega, symmetry_defect, trace, [0.0], [4], None
    quartic = quartic_real_roots(omega, cluster_radius=CLUSTER_RADIUS_REL * max(1.0, trace))
    # distinct cluster means, largest first
    return (omega, symmetry_defect, trace, quartic.values.tolist()[::-1],
            quartic.multiplicities.tolist()[::-1], quartic)


def _repeated(centers: list[float], mults: list[int]) -> np.ndarray:
    """The four eigenvalues, each cluster mean repeated by its multiplicity."""
    return np.array([c for c, k in zip(centers, mults) for _ in range(k)], dtype=float)


def g_spectrum(omega: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The four eigenvalues of G @ Omega, descending, as the cluster means
    `g_eigensystem` reports, without its top row: the spectrum of a TypeII
    state, whose family and null top eigenvector come from rho's kernel.
    Raises NumericalFailure as `g_eigensystem` does before its top row."""
    _, _, _, centers, mults, _ = _clusters(omega, tol)
    return _repeated(centers, mults)


def g_eigensystem(omega: np.ndarray, tol: float = DEFAULT_TOL, rank: int = 4) -> GEigenSystem:
    """Solve the eigenproblem of G @ Omega for a 4x4 form, its symmetric
    part, up to its top cluster, on a state of rho's ``rank`` that is not
    TypeII.

    The spectrum is `_clusters`'; the asymmetry the solve removed is the
    condition report's ``symmetry_defect``.  A top eigenvalue at most
    ``tol`` on a state of rank at most 2 (a pure marginal) makes the
    family DegenerateProduct: no normalizable canonical form exists, and
    the system has no row and a top cluster of dimension 0.  Every other
    state is TypeI.  Its top cluster's span is LAPACK's eigenvector when
    the cluster is one real root; the whole space for the zero form, and
    for a top of all four roots on a pure state (``rank`` 1: a pure
    entangled state's form is N^2 G, so G Omega = N^2 I); and otherwise
    the null space at its centre (`_cluster_vectors`: one SVD, at least
    one direction).  No construction reads a lower cluster or a second
    top row, so the system has all four eigenvalues and one row, the
    span's Gram top eigenvector x (`_gram_top`), G-normalized with a
    positive time component.  ``tol`` plays no other part in the solve.
    Raises NumericalFailure on entries that are not finite or so large
    that the solve would overflow, when the two members of a complex
    eigenvalue pair lie farther apart than the merge radius (input
    violating the positivity-transfer precondition), and when the null
    space at the top centre has more directions than the cluster has
    roots; and NoTimelikeTop when x is not timelike, x^T G x at most
    SIGNATURE_TOL: a lightlike top belongs to a TypeII state, which is
    decided on rho's kernel, and a spacelike one to no state at all.
    """
    omega, symmetry_defect, trace, centers, mults, quartic = _clusters(omega, tol)
    center, mult = centers[0], mults[0]
    eigenvalues = _repeated(centers, mults)
    imag_residue = 0.0 if quartic is None else quartic.imag_residue
    condition_report = ConditionReport(imag_residue, symmetry_defect)
    if center <= tol and rank <= 2:
        return GEigenSystem(eigenvalues, None, CanonicalFamily.DEGENERATE_PRODUCT,
                            (center, mult, 0), condition_report, omega)
    if quartic is None or (rank == 1 and mult == 4):
        # every direction is an eigenvector at the top
        basis = _EYE4
    elif quartic.top_vector is not None:
        basis = quartic.top_vector[:, None]
    else:
        gap = min((center - c for c in centers[1:]), default=math.inf)
        basis = _cluster_vectors(quartic.operator, center, mult, gap, max(trace, SCALE_FLOOR))

    col = _gram_top(basis)
    # x^T (G x): the product G x is exact, so this is the dot x^T G x takes
    gam = float((col * _G_DIAG).dot(col))
    if not gam > SIGNATURE_TOL:
        raise NoTimelikeTop(
            "top eigenspace contains no timelike direction, and rho's kernel holds no "
            f"product vector; Gram value {gam:.6g}, eigenvalue {center:.6g}"
        )
    row = col / math.sqrt(gam)
    # future-pointing: a timelike row's time component never vanishes
    return GEigenSystem(eigenvalues, row if row[0] > 0.0 else -row, CanonicalFamily.TYPE_I,
                        (center, mult, basis.shape[1]), condition_report, omega)
