"""Indefinite-metric eigenanalysis of the correlation quadratic forms.

For a correlation matrix Lambda (00-entry normalized to one) the two
symmetric forms

    Omega_A = Lambda G Lambda^T ,      Omega_B = Lambda^T G Lambda

share the spectrum of the non-symmetric operator G @ Omega, and that
spectrum -- real, non-negative, with a top eigenvector that is either
timelike or lightlike -- decides which canonical form a state admits.

`omega_matrices` returns one raw product, Omega_A of Lambda or Omega_B
of Lambda^T, and `g_eigensystem` is the one place that symmetrizes a
form.  The spectrum comes from LAPACK as cluster means (`_quartic`).
The solve then reads the top cluster alone, the only one any
construction uses, and of it one row: the Gram top eigenvector of the
cluster's span.  That span is LAPACK's eigenvector when the cluster is
one real root, and otherwise the null space of G Omega - c I at its
centre c: the right singular vectors below one cut, with no second try
at a wider one.  The solve names the family on the system it returns,
the one place it is decided: TypeI when that row is timelike, TypeII
when it is null, DegenerateProduct when the top eigenvalue vanishes.
The TypeI construction reads the timelike row, the TypeII construction
the null one.  `canonical` reads a TypeI or TypeII side B off side A, so
it solves one form only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._linalg import gram_eigenbasis, null_space_basis
from ._quartic import quartic_real_roots
from .errors import NumericalFailure
from .minkowski import DEFAULT_TOL, G_METRIC, SCALE_FLOOR, ZERO_REL, g_inner

_EPS = float(np.finfo(float).eps)

#: Minkowski norms of unit eigenvectors at or below this magnitude are
#: treated as lightlike when reading off the signature of an eigenspace.
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
    removes.  Only a TypeII or degenerate product side A, and the CLI's
    ``verify``, read Omega_B.  The name is the one the benchmark's tracer
    wraps.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (4, 4):
        raise ValueError(f"expected a 4x4 correlation matrix, got {lam.shape}")
    return lam @ G_METRIC @ lam.T


# ---------------------------------------------------------------------------
# production eigensystem


class CanonicalFamily(Enum):
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
    #: x^T G x of the Euclidean-unit top row x when it is lightlike; empty
    #: when the row is timelike, since it is then G-normalized
    gram_top: np.ndarray


@dataclass(frozen=True)
class GEigenSystem:
    """Solved eigenproblem of G @ Omega for one symmetric form Omega.

    ``eigenvalues`` are the four algebraic eigenvalues, descending.  The
    solve reads the top cluster alone, ``top_cluster``.  It gives one
    row, ``top_row``, the Gram top eigenvector of the cluster's span:
    timelike and G-normalized (the condition report's ``gram_top`` is
    empty), or lightlike and Euclidean-unit (``gram_top`` holds its
    x^T G x).  A TypeII top is defective: its row is the null
    eigenvector, and the shortfall is the cluster's multiplicity minus
    its dimension.  ``family`` is the canonical family the solve decided,
    which every caller reads.
    """

    eigenvalues: np.ndarray
    top_row: np.ndarray
    family: CanonicalFamily
    #: (center, algebraic multiplicity, geometric dimension) of the top cluster
    top_cluster: tuple[float, int, int]
    condition_report: ConditionReport
    #: the symmetrized form that was solved
    omega: np.ndarray


_E0 = np.array([1.0, 0.0, 0.0, 0.0])
_EYE4 = np.eye(4)
_G_DIAG = np.array([1.0, -1.0, -1.0, -1.0])
#: the index pairs above the diagonal of a 4x4 matrix
_UPPER = tuple((i, j) for i in range(4) for j in range(i + 1, 4))


def _signed_unit(x: np.ndarray) -> np.ndarray:
    """Deterministic overall sign: time component non-negative when it is
    significant, otherwise the largest-magnitude component non-negative."""
    values = x.tolist()
    mags = [abs(v) for v in values]
    big = max(mags)
    if big == 0.0:
        return x
    k = 0 if mags[0] > ZERO_REL * big else mags.index(big)
    return x if values[k] > 0 else -x


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


def g_eigensystem(omega: np.ndarray, tol: float = DEFAULT_TOL) -> GEigenSystem:
    """Solve the eigenproblem of G @ Omega for a 4x4 form, its symmetric
    part, up to its top cluster.

    Eigenvalues come from ``np.linalg.eig`` as cluster means.  The top
    cluster's span is LAPACK's eigenvector when the cluster is one real
    root, the null space at its centre otherwise (`_cluster_vectors`: one
    SVD, at least one direction), and the whole space for the zero form
    (every entry at most ``tol``).  The form is symmetrized here, and
    only here (a form symmetric to the bit is its own symmetric part);
    the asymmetry removed is the condition report's ``symmetry_defect``.
    No construction reads a lower cluster or a second top row: TypeI
    reads the timelike top row, TypeII the null top row and
    DegenerateProduct the eigenvalues alone.  So the system has
    all four eigenvalues and one row, the span's Gram top eigenvector x
    (`_gram_top`) with a deterministic sign: G-normalized when x^T G x >
    SIGNATURE_TOL, Euclidean-unit when it lies within SIGNATURE_TOL of
    zero.  The family follows the row, TypeI for a timelike one and
    TypeII for a null one, unless the top eigenvalue is at most ``tol``:
    then no normalizable canonical form exists, and it is
    DegenerateProduct.  ``tol`` plays no other part in the solve.
    Raises NumericalFailure on entries that are not finite or so large
    that the solve would overflow, when the two members of a complex
    eigenvalue pair lie farther apart than the merge radius (input
    violating the positivity-transfer precondition), when the null space
    at the top centre has more directions than the cluster has roots,
    and when the top cluster holds no timelike or lightlike direction.
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

    if max(max(entries), -min(entries)) <= tol:
        # the zero form: every direction is an eigenvector at zero
        centers, mults, basis, imag_residue = [0.0], [4], _EYE4, 0.0
    else:
        # |Tr G Omega|, summed in np.trace's order
        trace = abs(((m[0][0] - m[1][1]) - m[2][2]) - m[3][3])
        quartic = quartic_real_roots(omega, cluster_radius=CLUSTER_RADIUS_REL * max(1.0, trace))
        # distinct cluster means, largest first
        centers = quartic.values.tolist()[::-1]
        mults = quartic.multiplicities.tolist()[::-1]
        imag_residue = quartic.imag_residue
        if quartic.top_vector is not None:
            basis = quartic.top_vector[:, None]
        else:
            gap = min((centers[0] - c for c in centers[1:]), default=math.inf)
            basis = _cluster_vectors(quartic.operator, centers[0], mults[0], gap,
                                     max(trace, SCALE_FLOOR))
    center, mult = centers[0], mults[0]

    col = _gram_top(basis)
    # x^T (G x): the product G x is exact, so this is the dot x^T G x takes
    gam = float((col * _G_DIAG) @ col)
    if gam > SIGNATURE_TOL:
        family, gram_top = CanonicalFamily.TYPE_I, np.zeros(0)
        row = col / math.sqrt(gam)
    elif gam >= -SIGNATURE_TOL:
        family, gram_top = CanonicalFamily.TYPE_II, np.array([gam])
        # np.linalg.norm's own arithmetic: a contiguous copy's dot
        flat = col.ravel()
        row = col / math.sqrt(flat.dot(flat))
    else:
        raise NumericalFailure(
            "top eigenspace contains no timelike or lightlike direction; "
            f"Gram value {gam:.6g}, eigenvalue {center:.6g}"
        )
    if center <= tol:
        # a vanishing top eigenvalue: no normalizable canonical form
        family = CanonicalFamily.DEGENERATE_PRODUCT

    return GEigenSystem(
        eigenvalues=np.array([c for c, k in zip(centers, mults) for _ in range(k)], dtype=float),
        top_row=_signed_unit(row),
        family=family,
        top_cluster=(center, mult, basis.shape[1]),
        condition_report=ConditionReport(
            imag_residue=imag_residue,
            symmetry_defect=symmetry_defect,
            gram_top=gram_top,
        ),
        omega=omega,
    )
