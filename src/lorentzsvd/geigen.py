"""Indefinite-metric eigenanalysis of the correlation quadratic forms.

For a correlation matrix Lambda (00-entry normalized to one) the two
symmetric forms

    Omega_A = Lambda G Lambda^T ,      Omega_B = Lambda^T G Lambda

share the spectrum of the non-symmetric operator G @ Omega, and that
spectrum -- real, non-negative, with a top eigenvector that is either
timelike or lightlike -- decides which canonical form a state admits.

The spectrum comes from LAPACK as cluster means (`_quartic`); a cluster
that is one real root takes LAPACK's eigenvector from the same call, and
every other cluster a null space at its centre.  The solve ends at a
timelike top cluster, of which it keeps the timelike row alone: the
TypeI construction reads nothing else.  `canonical` reads a TypeI or
TypeII side B off side A, so it solves one form only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._linalg import gram_eigenbasis, null_space_basis
from ._quartic import quartic_real_roots
from .errors import NormalizationFailure, NumericalFailure
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

#: Floor of the tolerance, relative to max(1, top eigenvalue), above which
#: a subdominant eigenvalue counts as nonzero.  A lightlike eigenvector at
#: a nonzero subdominant eigenvalue is refused, because no state has one;
#: at a zero eigenvalue it is the expected kernel direction.
_SUBDOMINANT_ZERO_FLOOR = 1e-9


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

    #: residual norm ||G Omega x - lambda x||_2 per eigenvector row
    residuals: np.ndarray
    #: imaginary scale absorbed when a near-complex root pair was closed
    imag_residue: float
    #: asymmetry removed from the input form
    symmetry_defect: float
    #: total algebraic-minus-geometric multiplicity over all clusters
    defect: int
    #: Minkowski Gram eigenvalues of the top eigenvalue cluster
    gram_top: np.ndarray


@dataclass(frozen=True)
class GEigenSystem:
    """Solved eigenproblem of G @ Omega for one symmetric form Omega.

    ``eigenvalues`` are the four algebraic eigenvalues, descending.
    ``eigenvectors`` has one row per geometric eigenvector, cluster by
    cluster; within a cluster timelike rows come first, then lightlike,
    then spacelike, larger Rayleigh quotient first.  Row i belongs to the
    eigenvalue ``vector_eigenvalues[i]`` (its cluster center) and is
    normalized so its Minkowski norm is +1, 0 or -1 (``norms[i]``).  A
    defective cluster has fewer rows than its algebraic multiplicity;
    the shortfall is the condition report's ``defect``.  The solve stops
    at a top cluster above ``tol`` that holds a timelike direction: such
    a system holds only that cluster's timelike row and clusters entry
    besides the four eigenvalues, and its condition report has no
    residuals and no Gram eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    vector_eigenvalues: np.ndarray
    norms: np.ndarray
    top_class: VectorClass
    #: (center, algebraic multiplicity, geometric dimension) per cluster
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


def _rediagonalize_cluster(omega: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Diagonalize the Omega-form within one degenerate cluster.

    Columns of the result stay G-orthonormal while the cross terms
    x_i^T Omega x_j are rotated away.  Clusters of uniform signature take
    an orthogonal mix of the G-normalized columns.  An indefinite cluster
    keeps its G-normalized Gram eigenbasis: on an eigenspace Omega acts
    as lambda G, so its cross terms are rounding noise, and the span
    alone fixes the timelike column (see `_timelike_top`).  Anything
    lightlike, as in the top of the arrow form with r1^2 = r0, is left
    exactly as the Gram eigenbasis produced it.  A single column is its
    own Gram eigenbasis: ``eigh`` of a 1x1 matrix returns U = [[1.0]],
    and ``basis @ U`` equals ``basis + 0.0``, which turns -0.0 into +0.0.
    """
    if basis.shape[1] == 1:
        return basis + 0.0
    gram, w = gram_eigenbasis(basis)
    signs = np.zeros(w.shape[1], dtype=int)
    signs[gram > SIGNATURE_TOL] = 1
    signs[gram < -SIGNATURE_TOL] = -1
    if np.any(signs == 0):
        return w
    wn = w / np.sqrt(np.abs(gram))
    if np.all(signs == signs[0]):
        s = wn.T @ omega @ wn
        _, rot = np.linalg.eigh(0.5 * (s + s.T))
        return wn @ rot
    return wn


def _timelike_top(omega: np.ndarray, basis: np.ndarray) -> np.ndarray | None:
    """The G-normalized timelike row of the top cluster's span, or None.

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
        col = _E0
    elif dim == 2:
        v, w = basis.T.tolist()
        s00, s01, s11 = g_inner(v, v), g_inner(v, w), g_inner(w, w)
        theta = 0.5 * math.atan2(2.0 * s01, s00 - s11)
        c, s = math.cos(theta), math.sin(theta)
        col = np.array([c * vi + s * wi for vi, wi in zip(v, w)])
    else:
        col = _rediagonalize_cluster(omega, basis)[:, 0]
    gam = float(col @ G_METRIC @ col)
    if gam <= SIGNATURE_TOL:
        return None
    return _signed_unit(col / math.sqrt(gam))


def g_eigensystem(omega: np.ndarray, tol: float = DEFAULT_TOL) -> GEigenSystem:
    """Solve the eigenproblem of G @ Omega for a symmetric 4x4 form.

    Eigenvalues come from ``np.linalg.eig`` as cluster means; the
    eigenvector of a cluster that is one real root from the same call,
    those of every other cluster from null spaces at the cluster centres,
    all G-normalized to norm +1/0/-1 with a deterministic sign.  ``tol``
    plays no part in root finding.  Clusters are solved top first, and
    the solve ends at a top cluster above ``tol`` that holds a timelike
    direction: the TypeI construction reads nothing else.  Such a system
    has all four eigenvalues but one row, the timelike direction
    `_timelike_top` picks, and computes no other row, Rayleigh quotient
    or residual.
    Raises NumericalFailure on entries that are not finite, or when a
    complex eigenvalue pair is not a double root within the
    characteristic quartic's rounding (input violating the
    positivity-transfer precondition), and NormalizationFailure when a
    subdominant eigenvector turns out lightlike, which no valid input can
    produce.
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
        return GEigenSystem(
            eigenvalues=np.zeros(4),
            eigenvectors=np.eye(4),
            vector_eigenvalues=np.zeros(4),
            norms=np.array([1, -1, -1, -1], dtype=int),
            top_class=VectorClass.POSITIVE,
            clusters=((0.0, 4, 4),),
            condition_report=ConditionReport(
                residuals=np.zeros(4),
                imag_residue=0.0,
                symmetry_defect=symmetry_defect,
                defect=0,
                gram_top=np.array([1.0, -1.0, -1.0, -1.0]),
            ),
            tol=tol,
            omega=omega,
        )

    k_op = G_METRIC @ omega
    trace = abs(float(np.trace(k_op)))
    quartic = quartic_real_roots(omega, cluster_radius=CLUSTER_RADIUS_REL * max(1.0, trace))
    # distinct cluster means, largest first
    ordered = list(zip(quartic.values.tolist(), quartic.multiplicities.tolist(),
                       quartic.vectors))[::-1]
    centers = [center for center, _, _ in ordered]
    mults = [mult for _, mult, _ in ordered]

    vectors: list[np.ndarray] = []
    norms: list[int] = []
    residuals: list[float] = []
    clusters: list[tuple[float, int, int]] = []
    gram_top = np.zeros(0)
    k_rows = k_op.tolist()

    for ci, (center, mult, vector) in enumerate(ordered):
        if vector is not None:
            basis = vector[:, None]
        else:
            gap = min((abs(c - center) for k, c in enumerate(centers) if k != ci),
                      default=math.inf)
            basis = _cluster_vectors(k_rows, center, mult, gap, max(trace, SCALE_FLOOR))
        clusters.append((center, mult, basis.shape[1]))
        top = _timelike_top(omega, basis) if ci == 0 and center > tol else None
        if top is not None:
            vectors.append(top)
            norms.append(1)
            break

        w = _rediagonalize_cluster(omega, basis)
        entries: list[tuple[int, float, np.ndarray]] = []
        grams: list[float] = []
        for j in range(w.shape[1]):
            col = w[:, j]
            gam = float(col @ G_METRIC @ col)
            grams.append(gam)
            if abs(gam) <= SIGNATURE_TOL:
                # np.linalg.norm's own arithmetic: a contiguous copy's dot
                flat = col.ravel()
                x = _signed_unit(col / math.sqrt(flat.dot(flat)))
                cls = 0
                if ci > 0 and center > max(tol, _SUBDOMINANT_ZERO_FLOOR) * max(1.0, centers[0]):
                    raise NormalizationFailure(
                        f"lightlike eigenvector at subdominant eigenvalue "
                        f"{center:.6g} (Minkowski norm {gam:.3e})"
                    )
            else:
                x = _signed_unit(col / np.sqrt(abs(gam)))
                cls = 1 if gam > 0 else -1
            rayleigh = float(x @ omega @ x) * (cls if cls else 1)
            entries.append((cls, rayleigh, x))
        # timelike first, then lightlike, then spacelike; within a class
        # larger Rayleigh quotient first — a deterministic total order
        entries.sort(key=lambda e: (-e[0], -e[1]))
        if ci == 0:
            gram_top = np.array(sorted(grams, reverse=True))
        for cls, _, x in entries:
            vectors.append(x)
            norms.append(cls)
            r = k_op @ x - center * x
            residuals.append(math.sqrt(r.dot(r)))

    # rows per cluster: a stopped solve keeps one
    dims = [1] if top is not None else [dim for _, _, dim in clusters]
    top_classes = norms[: dims[0]]
    if 1 in top_classes:
        top_class = VectorClass.POSITIVE
    elif 0 in top_classes:
        top_class = VectorClass.NEUTRAL
    else:
        raise NumericalFailure(
            "top eigenspace contains no timelike or lightlike direction; "
            f"Gram eigenvalues {gram_top}, eigenvalue {centers[0]:.6g}"
        )

    return GEigenSystem(
        eigenvalues=np.repeat(centers, mults),
        eigenvectors=np.array(vectors),
        vector_eigenvalues=np.repeat(centers[: len(dims)], dims),
        norms=np.array(norms, dtype=int),
        top_class=top_class,
        clusters=tuple(clusters),
        condition_report=ConditionReport(
            residuals=np.array(residuals),
            imag_residue=quartic.imag_residue,
            symmetry_defect=symmetry_defect,
            defect=sum(mult - dim for _, mult, dim in clusters),
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
