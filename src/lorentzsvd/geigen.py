"""Indefinite-metric eigenanalysis of the correlation quadratic forms.

For a correlation matrix Lambda (00-entry normalized to one) the two
symmetric forms

    Omega_A = Lambda G Lambda^T ,      Omega_B = Lambda^T G Lambda

share the spectrum of the non-symmetric operator G @ Omega, and that
spectrum -- real, non-negative, with a top eigenvector that is either
timelike or lightlike -- decides which canonical form a state admits.

The spectrum comes from the exact characteristic quartic (`_quartic`),
the eigenvectors from null spaces at the clustered roots.  `canonical`
reads a TypeI or TypeII side B off side A, so it solves one form only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._linalg import gram_eigenbasis, null_space_basis
from ._quartic import charpoly_g, quartic_real_roots
from .errors import NormalizationFailure, NumericalFailure
from .minkowski import DEFAULT_TOL, G_METRIC, SCALE_FLOOR, ZERO_REL, VectorClass

_EPS = float(np.finfo(float).eps)

#: Minkowski norms of unit eigenvectors at or below this magnitude are
#: treated as lightlike when reading off the signature of an eigenspace.
SIGNATURE_TOL = 1e-8

#: Relative radius for merging characteristic-quartic roots into one
#: degenerate cluster.  Exact degeneracies survive transport by
#: well-conditioned filtering operations with root smear a couple of
#: orders below this, while generic random states keep eigenvalue gaps
#: a few orders above it.
CLUSTER_RADIUS_REL = 1e-7

#: Floor of ``imag_tol``, the largest imaginary part (relative to
#: max(1, |vertex|)) of a leftover root pair that the quartic closes onto
#: the real axis as a double root.  The spectrum of a state is real; an
#: imaginary part above the floor, or above ``tol`` when that is larger,
#: is reported as a complex pair.
_IMAG_TOL_FLOOR = 1e-9

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
    the shortfall is the condition report's ``defect``.
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


def _signed_unit(x: np.ndarray) -> np.ndarray:
    """Deterministic overall sign: time component non-negative when it is
    significant, otherwise the largest-magnitude component non-negative."""
    big = float(np.abs(x).max())
    if big == 0.0:
        return x
    if abs(x[0]) > ZERO_REL * big:
        return x if x[0] > 0 else -x
    k = int(np.abs(x).argmax())
    return x if x[k] > 0 else -x


def _cluster_vectors(
    omega: np.ndarray,
    center: float,
    mult: int,
    gap: float,
    scale: float,
) -> np.ndarray:
    """Orthonormal basis (columns) of the eigenspace at a cluster center.

    The rank decision must swallow the in-cluster eigenvalue smear (at
    most the merge radius) yet reject directions belonging to the next
    cluster (at least ``gap`` away), so the threshold is pinched between
    the two, with progressive widening if the first cut finds nothing.
    """
    m = G_METRIC @ omega - center * np.eye(4)
    mscale = max(float(np.abs(m).max()), SCALE_FLOOR)
    thresh = max(CLUSTER_RADIUS_REL * scale, 64.0 * _EPS * mscale)
    if np.isfinite(gap):
        thresh = max(min(thresh, 0.45 * gap), 64.0 * _EPS * mscale)
    for widen in range(4):
        basis = null_space_basis(m, rtol=thresh * 8.0**widen / mscale)
        if 1 <= basis.shape[1] <= mult:
            return basis
        if basis.shape[1] > mult:
            # over-wide cut swallowed a neighbouring direction; tighten
            tight = null_space_basis(m, rtol=thresh / (8.0 * mscale))
            if 1 <= tight.shape[1] <= mult:
                return tight
            return basis[:, :mult]
    raise NumericalFailure(
        f"no eigenvector found at eigenvalue {center:.6g} "
        f"(threshold {thresh:.3e}, multiplicity {mult})"
    )


def _rediagonalize_cluster(omega: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Diagonalize the Omega-form within one degenerate cluster.

    Columns of the result stay G-orthonormal while the cross terms
    x_i^T Omega x_j are rotated away.  Clusters of uniform signature take
    an orthogonal mix of the G-normalized columns; an indefinite pair
    takes the hyperbolic mix that preserves the (+, -) Gram, when the
    cross term is small enough for it to exist.  Anything lightlike is
    left exactly as the Gram eigenbasis produced it.
    """
    gram, w = gram_eigenbasis(basis)
    dim = w.shape[1]
    if dim < 2:
        return w
    signs = np.zeros(dim, dtype=int)
    signs[gram > SIGNATURE_TOL] = 1
    signs[gram < -SIGNATURE_TOL] = -1
    if np.any(signs == 0):
        return w
    wn = w / np.sqrt(np.abs(gram))
    if np.all(signs == signs[0]):
        s = wn.T @ omega @ wn
        _, rot = np.linalg.eigh(0.5 * (s + s.T))
        return wn @ rot
    if dim == 2 and signs[0] == 1 and signs[1] == -1:
        s = wn.T @ omega @ wn
        den = s[0, 0] + s[1, 1]
        num = -2.0 * s[0, 1]
        if abs(num) < abs(den):
            theta = 0.5 * np.arctanh(num / den)
            ch, sh = np.cosh(theta), np.sinh(theta)
            return wn @ np.array([[ch, sh], [sh, ch]])
    return wn


def g_eigensystem(omega: np.ndarray, tol: float = DEFAULT_TOL) -> GEigenSystem:
    """Solve the eigenproblem of G @ Omega for a symmetric 4x4 form.

    Eigenvalues come from the exact characteristic quartic with Sturm
    isolation; eigenvectors from null spaces at the clustered roots,
    G-normalized to norm +1/0/-1 with a deterministic sign.  Raises
    NumericalFailure when the quartic has a genuinely complex pair
    (input violating the positivity-transfer precondition) and
    NormalizationFailure when a subdominant eigenvector turns out
    lightlike, which no valid input can produce.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (4, 4):
        raise ValueError(f"expected a 4x4 symmetric form, got {omega.shape}")
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

    scale = max(1.0, abs(float(np.trace(G_METRIC @ omega))))
    quartic = quartic_real_roots(
        charpoly_g(omega),
        cluster_radius=CLUSTER_RADIUS_REL * scale,
        imag_tol=max(tol, _IMAG_TOL_FLOOR),
    )
    order = np.argsort(quartic.values)[::-1]
    centers = quartic.values[order]
    mults = quartic.multiplicities[order]

    vectors: list[np.ndarray] = []
    norms: list[int] = []
    residuals: list[float] = []
    clusters: list[tuple[float, int, int]] = []
    gram_top = np.zeros(0)
    k_op = G_METRIC @ omega

    for ci, (center, mult) in enumerate(zip(centers, mults)):
        others = np.delete(centers, ci)
        gap = float(np.abs(others - center).min()) if others.size else np.inf
        basis = _cluster_vectors(omega, float(center), int(mult), gap, scale)
        clusters.append((float(center), int(mult), basis.shape[1]))

        w = _rediagonalize_cluster(omega, basis)
        entries: list[tuple[int, float, np.ndarray]] = []
        for j in range(w.shape[1]):
            col = w[:, j]
            gam = float(col @ G_METRIC @ col)
            if abs(gam) <= SIGNATURE_TOL:
                x = _signed_unit(col / np.linalg.norm(col))
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
            gram_top = np.array(sorted(
                (float(w[:, j] @ G_METRIC @ w[:, j]) for j in range(w.shape[1])),
                reverse=True,
            ))
        for cls, _, x in entries:
            vectors.append(x)
            norms.append(cls)
            residuals.append(float(np.linalg.norm(k_op @ x - center * x)))

    dims = [dim for _, _, dim in clusters]
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
        vector_eigenvalues=np.repeat(centers, dims),
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
