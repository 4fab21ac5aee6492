"""Indefinite-metric eigenanalysis of the correlation quadratic forms.

For a correlation matrix Lambda (00-entry normalized to one) the two
symmetric forms

    Omega_A = Lambda G Lambda^T ,      Omega_B = Lambda^T G Lambda

share the spectrum of the non-symmetric operator G @ Omega, and that
spectrum -- real, non-negative, with a top eigenvector that is either
timelike or lightlike -- decides which canonical form a state admits.

The spectrum comes from LAPACK as cluster means (`_quartic`).  The
solve then reads the top cluster alone, the only one any construction
uses, and of it one row: the Gram top eigenvector of the cluster's
span, which is LAPACK's eigenvector when the cluster is one real root
and a null space at its centre otherwise.  The TypeI construction reads
that row when it is timelike, the TypeII construction when it is null.
`canonical` reads a TypeI or TypeII side B off side A, so it solves one
form only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._linalg import gram_eigenbasis, null_space_basis
from ._quartic import quartic_real_roots
from .errors import NumericalFailure
from .minkowski import DEFAULT_TOL, G_METRIC, SCALE_FLOOR, ZERO_REL, VectorClass, g_inner

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
# the two quadratic forms


@dataclass(frozen=True)
class OmegaPair:
    """The pair of symmetric forms attached to a correlation matrix."""

    omega_a: np.ndarray
    omega_b: np.ndarray
    #: largest asymmetry removed when the products were symmetrized
    symmetry_defect: float


def omega_matrices(lam: np.ndarray) -> OmegaPair:
    """Both quadratic forms of a correlation matrix, symmetrized.

    The products are symmetric in exact arithmetic; floating-point
    noise is averaged away and the removed defect recorded.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (4, 4):
        raise ValueError(f"expected a 4x4 correlation matrix, got {lam.shape}")
    oa = lam @ G_METRIC @ lam.T
    ob = lam.T @ G_METRIC @ lam
    defect = max(
        float(np.abs(oa - oa.T).max()),
        float(np.abs(ob - ob.T).max()),
    )
    return OmegaPair(
        omega_a=0.5 * (oa + oa.T),
        omega_b=0.5 * (ob + ob.T),
        symmetry_defect=defect,
    )


# ---------------------------------------------------------------------------
# production eigensystem


@dataclass(frozen=True)
class ConditionReport:
    """Numerical health data attached to a solved eigensystem."""

    #: imaginary scale absorbed when a near-complex root pair was closed
    imag_residue: float
    #: asymmetry removed from the input form
    symmetry_defect: float
    #: algebraic-minus-geometric multiplicity of the top cluster
    defect: int
    #: x^T G x of the Euclidean-unit top row x when it is lightlike; empty
    #: when the row is timelike, since it is then G-normalized
    gram_top: np.ndarray


@dataclass(frozen=True)
class GEigenSystem:
    """Solved eigenproblem of G @ Omega for one symmetric form Omega.

    ``eigenvalues`` are the four algebraic eigenvalues, descending.  The
    solve reads the top cluster alone, and ``clusters`` holds that one
    entry.  Every top cluster gives one row, the Gram top eigenvector of
    its span: timelike and G-normalized (``norms`` [+1]), or lightlike
    and Euclidean-unit ([0]).  A TypeII top is defective: its row is the
    null eigenvector, and the shortfall is the condition report's
    ``defect``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    norms: np.ndarray
    top_class: VectorClass
    #: (center, algebraic multiplicity, geometric dimension) of the top cluster
    clusters: tuple[tuple[float, int, int], ...]
    condition_report: ConditionReport
    tol: float
    #: the symmetrized form that was solved
    omega: np.ndarray


_E0 = np.array([1.0, 0.0, 0.0, 0.0])


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
    k_rows: list[list[float]],
    center: float,
    mult: int,
    gap: float,
    scale: float,
) -> np.ndarray:
    """Orthonormal basis (columns) of the eigenspace at a cluster center.

    ``k_rows`` is G @ Omega as nested lists.  The rank decision must
    swallow the in-cluster eigenvalue smear (at most the merge radius)
    yet reject directions belonging to the next cluster (at least
    ``gap`` away), so the threshold is pinched between the two, with
    progressive widening if the first cut finds nothing.  A cut that
    finds more directions than the multiplicity has taken a neighbour's
    and is refused.  ``scale`` is
    |Tr G Omega| without the unit floor of the merge radius: on a form
    whose eigenvalues all lie far below one, a cut at the floored scale
    can take a timelike neighbour into a lightlike top eigenspace.
    """
    # G Omega - center * I on Python floats: subtracting center * 0.0 off
    # the diagonal keeps the signed zeros of the array form, bit for bit
    off = center * 0.0
    m = [[v - (center if i == j else off) for j, v in enumerate(row)]
         for i, row in enumerate(k_rows)]
    mscale = max(max(abs(v) for row in m for v in row), SCALE_FLOOR)
    thresh = max(CLUSTER_RADIUS_REL * scale, 64.0 * _EPS * mscale)
    if math.isfinite(gap):
        thresh = max(min(thresh, 0.45 * gap), 64.0 * _EPS * mscale)
    for widen in range(4):
        basis = null_space_basis(m, rtol=thresh * 8.0**widen / mscale)
        if 1 <= basis.shape[1] <= mult:
            return basis
        if basis.shape[1] > mult:
            raise NumericalFailure(
                f"the cut at eigenvalue {center:.6g} takes a neighbouring direction "
                f"({basis.shape[1]} null directions, multiplicity {mult})"
            )
    raise NumericalFailure(
        f"no eigenvector found at eigenvalue {center:.6g} "
        f"(threshold {thresh:.3e}, multiplicity {mult})"
    )


def _rediagonalize_cluster(basis: np.ndarray) -> np.ndarray:
    """The G-diagonal basis of one top cluster: its Gram eigenbasis.

    The columns come out G-orthogonal, and G-normalized unless a Gram
    eigenvalue is lightlike, as in the top of the arrow form with
    r1^2 = r0, where the basis is left exactly as the Gram eigenbasis
    produced it.  On an eigenspace Omega acts as lambda G, so no Omega
    cross term is left to rotate away.  A single column is its own Gram
    eigenbasis: ``eigh`` of a 1x1 matrix returns U = [[1.0]], and
    ``basis @ U`` equals ``basis + 0.0``, which turns -0.0 into +0.0.
    """
    if basis.shape[1] == 1:
        return basis + 0.0
    gram, w = gram_eigenbasis(basis)
    if np.any(np.abs(gram) <= SIGNATURE_TOL):
        return w
    return w / np.sqrt(np.abs(gram))


def _gram_top(basis: np.ndarray) -> np.ndarray:
    """The Gram top eigenvector of the top cluster's span.

    Every timelike vector of a degenerate top eigenspace is an
    eigenvector; which one is residual gauge (Verstraete, Dehaene, De
    Moor, PRA 64, 010101(R) (2001)), pinned to the Gram top eigenvector,
    the x of largest x^T G x over Euclidean-unit x in the span: e0 for
    the whole space, the major axis of the 2x2 Gram matrix for a plane
    (on Python floats), and otherwise `_rediagonalize_cluster`'s first
    column, as for a single vector.
    """
    dim = basis.shape[1]
    if dim == 4:
        return _E0
    if dim == 2:
        v, w = basis.T.tolist()
        s00, s01, s11 = g_inner(v, v), g_inner(v, w), g_inner(w, w)
        theta = 0.5 * math.atan2(2.0 * s01, s00 - s11)
        c, s = math.cos(theta), math.sin(theta)
        return np.array([c * vi + s * wi for vi, wi in zip(v, w)])
    return _rediagonalize_cluster(basis)[:, 0]


def g_eigensystem(omega: np.ndarray, tol: float = DEFAULT_TOL) -> GEigenSystem:
    """Solve the eigenproblem of G @ Omega for a symmetric 4x4 form, up to
    its top cluster.

    Eigenvalues come from ``np.linalg.eig`` as cluster means.  The top
    cluster's span is LAPACK's eigenvector when the cluster is one real
    root, the null space at its centre otherwise, and the whole space for
    the zero form (every entry at most ``tol``).  ``tol`` plays no other
    part in the solve.  No construction reads a lower cluster or a second
    top row: TypeI reads the timelike top row, TypeII the null top row
    and DegenerateProduct the eigenvalues alone.  So the system has all
    four eigenvalues and one row, the span's Gram top eigenvector x
    (`_gram_top`) with a deterministic sign: G-normalized (norm +1) when
    x^T G x > SIGNATURE_TOL, Euclidean-unit (norm 0) when it lies within
    SIGNATURE_TOL of zero.
    Raises NumericalFailure on entries that are not finite, when the two
    members of a complex eigenvalue pair lie farther apart than the
    merge radius (input violating the positivity-transfer
    precondition), and when the top cluster holds no timelike or
    lightlike direction.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (4, 4):
        raise ValueError(f"expected a 4x4 symmetric form, got {omega.shape}")
    if not np.isfinite(omega).all():
        raise NumericalFailure("the form has entries that are not finite")
    symmetry_defect = float(np.abs(omega - omega.T).max())
    omega = 0.5 * (omega + omega.T)

    if float(np.abs(omega).max()) <= tol:
        # the zero form: every direction is an eigenvector at zero
        centers, mults, basis, imag_residue = [0.0], [4], np.eye(4), 0.0
    else:
        k_op = G_METRIC @ omega
        trace = abs(float(np.trace(k_op)))
        quartic = quartic_real_roots(omega, cluster_radius=CLUSTER_RADIUS_REL * max(1.0, trace))
        # distinct cluster means, largest first
        centers = quartic.values.tolist()[::-1]
        mults = quartic.multiplicities.tolist()[::-1]
        imag_residue = quartic.imag_residue
        if quartic.vectors[-1] is not None:
            basis = quartic.vectors[-1][:, None]
        else:
            gap = min((centers[0] - c for c in centers[1:]), default=math.inf)
            basis = _cluster_vectors(k_op.tolist(), centers[0], mults[0], gap,
                                     max(trace, SCALE_FLOOR))
    center, mult = centers[0], mults[0]

    col = _gram_top(basis)
    gam = float(col @ G_METRIC @ col)
    if gam > SIGNATURE_TOL:
        top_class, norm, gram_top = VectorClass.POSITIVE, 1, np.zeros(0)
        row = col / math.sqrt(gam)
    elif gam >= -SIGNATURE_TOL:
        top_class, norm, gram_top = VectorClass.NEUTRAL, 0, np.array([gam])
        # np.linalg.norm's own arithmetic: a contiguous copy's dot
        flat = col.ravel()
        row = col / math.sqrt(flat.dot(flat))
    else:
        raise NumericalFailure(
            "top eigenspace contains no timelike or lightlike direction; "
            f"Gram eigenvalues {np.array([gam])}, eigenvalue {center:.6g}"
        )

    return GEigenSystem(
        eigenvalues=np.repeat(centers, mults),
        eigenvectors=np.array([_signed_unit(row)]),
        norms=np.array([norm], dtype=int),
        top_class=top_class,
        clusters=((center, mult, basis.shape[1]),),
        condition_report=ConditionReport(
            imag_residue=imag_residue,
            symmetry_defect=symmetry_defect,
            defect=mult - basis.shape[1],
            gram_top=gram_top,
        ),
        tol=tol,
        omega=omega,
    )


# ---------------------------------------------------------------------------
# family classification


class CanonicalFamily(Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    DEGENERATE_PRODUCT = "DegenerateProduct"


def classify_canonical_type(sys: GEigenSystem) -> CanonicalFamily:
    """Which canonical family the eigensystem belongs to.

    Order of precedence: a vanishing top eigenvalue short-circuits to
    the degenerate product family (no normalizable canonical form
    exists); a timelike direction anywhere in the top eigenspace gives
    the diagonalizable family; otherwise the top eigenspace is lightlike
    and the state is of the non-diagonalizable kind.
    """
    if sys.eigenvalues[0] <= sys.tol:
        return CanonicalFamily.DEGENERATE_PRODUCT
    if sys.top_class is VectorClass.POSITIVE:
        return CanonicalFamily.TYPE_I
    return CanonicalFamily.TYPE_II
