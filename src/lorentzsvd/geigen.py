"""Indefinite-metric eigenanalysis of the correlation quadratic forms.

For a correlation matrix Lambda (00-entry normalized to one) the two
symmetric forms

    Omega_A = Lambda G Lambda^T ,      Omega_B = Lambda^T G Lambda

share the spectrum of the non-symmetric operator G @ Omega, and that
spectrum -- real, non-negative, with a top eigenvector that is either
timelike or lightlike -- decides which canonical form a state admits.

The spectrum comes from the exact characteristic quartic (`_quartic`),
the eigenvectors from null spaces at the clustered roots.  Side B's
eigensystem can instead be carried over from side A's through Lambda
(`carried_eigensystem`), which solves no second quartic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._linalg import gram_eigenbasis, null_space_basis
from ._quartic import charpoly_g, quartic_real_roots
from .errors import NormalizationFailure, NumericalFailure
from .minkowski import (
    DEFAULT_TOL,
    G_METRIC,
    SCALE_FLOOR,
    TRANSPORT_ZERO_REL,
    ZERO_REL,
    VectorClass,
    g_inner,
)

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


def _cluster_rows(
    omega: np.ndarray,
    centers: np.ndarray,
    ci: int,
    mult: int,
    scale: float,
    tol: float,
) -> tuple[list[tuple[int, np.ndarray]], np.ndarray]:
    """Eigenvector rows of cluster ``ci``, read from the null space of
    G Omega - centers[ci].

    Returns (class, row) pairs in the record's order and the Minkowski
    Gram eigenvalues of the cluster, descending.
    """
    center = centers[ci]
    others = np.delete(centers, ci)
    gap = float(np.abs(others - center).min()) if others.size else np.inf
    basis = _cluster_vectors(omega, float(center), mult, gap, scale)
    w = _rediagonalize_cluster(omega, basis)
    entries: list[tuple[int, float, np.ndarray]] = []
    grams: list[float] = []
    for j in range(w.shape[1]):
        col = w[:, j]
        gam = float(col @ G_METRIC @ col)
        grams.append(gam)
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
    return [(cls, x) for cls, _, x in entries], np.array(sorted(grams, reverse=True))


def _top_class(classes: list[int], gram_top: np.ndarray, top: float) -> VectorClass:
    """Causal class of the top eigenspace from the classes of its rows."""
    if 1 in classes:
        return VectorClass.POSITIVE
    if 0 in classes:
        return VectorClass.NEUTRAL
    raise NumericalFailure(
        "top eigenspace contains no timelike or lightlike direction; "
        f"Gram eigenvalues {gram_top}, eigenvalue {top:.6g}"
    )


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
        rows, gram = _cluster_rows(omega, centers, ci, int(mult), scale, tol)
        clusters.append((float(center), int(mult), len(rows)))
        if ci == 0:
            gram_top = gram
        for cls, x in rows:
            vectors.append(x)
            norms.append(cls)
            residuals.append(float(np.linalg.norm(k_op @ x - center * x)))

    dims = [dim for _, _, dim in clusters]
    top_class = _top_class(norms[: dims[0]], gram_top, float(centers[0]))

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


def _polish_carried(classes: list[int], rows: list[list[float]]) -> list[list[float]]:
    """G-orthonormalize carried-over eigenvector rows.

    One Minkowski Gram-Schmidt pass runs over the non-null rows.  Each
    null row is then projected off them and slid, along the time axis
    projected into the same plane, onto the nearer null ray, since the
    map scales its null defect as well; it leaves with unit length.
    Runs on Python floats: numpy's call overhead dwarfs 4-vector
    arithmetic.
    """

    def axpy(a: float, x: list[float], y: list[float]) -> list[float]:
        return [a * xi + yi for xi, yi in zip(x, y)]

    out = list(rows)
    done: list[tuple[int, list[float]]] = []
    for i in sorted(range(len(out)), key=lambda i: classes[i] == 0):
        v = out[i]
        for cls, u in done:
            v = axpy(-cls * g_inner(u, v), u, v)
        if classes[i] != 0:
            norm = g_inner(v, v)
            if norm * classes[i] <= 0.0:
                raise NumericalFailure(
                    f"carried-over eigenvector {i} lost its causal character "
                    f"(Minkowski norm {norm:.3e})"
                )
            v = [x / math.sqrt(abs(norm)) for x in v]
            done.append((classes[i], v))
        else:
            t = [1.0, 0.0, 0.0, 0.0]
            for cls, u in done:
                t = axpy(-cls * u[0], u, t)
            # smaller root s of (v + s t)^T G (v + s t) = 0
            n, beta, tau = g_inner(v, v), g_inner(v, t), g_inner(t, t)
            disc = beta * beta - n * tau
            if beta != 0.0 and disc >= 0.0:
                v = axpy(-n / (beta + math.copysign(math.sqrt(disc), beta)), t, v)
            length = math.sqrt(sum(x * x for x in v))
            v = [x / length for x in v]
        out[i] = v
    return out


def carried_eigensystem(sys_a: GEigenSystem, lam: np.ndarray, omega_b: np.ndarray) -> GEigenSystem:
    """Side B's eigensystem, carried over from side A's through Lambda.

    G Omega_A = (G Lambda)(G Lambda^T) and G Omega_B = (G Lambda^T)(G Lambda)
    share the characteristic quartic, and b = G Lambda^T a maps an
    eigenvector a of side A at eigenvalue c onto one of side B at c, with
    b^T G b = c a^T G a; so no second quartic is solved and every row
    keeps its class.  Rows of a cluster at c > 0 are mapped: timelike and
    spacelike rows divided by sqrt(c), lightlike rows scaled to unit
    length, each with the deterministic sign; `_polish_carried` then
    removes the error the map amplifies.  A cluster at or below
    `TRANSPORT_ZERO_REL` cannot be mapped, since the map divides its
    noise by sqrt(c); its rows are read from Omega_B's null space at side
    A's cluster center, as `g_eigensystem` reads them.
    """
    lam = np.asarray(lam, dtype=float)
    omega_b = np.asarray(omega_b, dtype=float)
    symmetry_defect = float(np.abs(omega_b - omega_b.T).max())
    omega_b = 0.5 * (omega_b + omega_b.T)
    tol = sys_a.tol
    centers = np.array([center for center, _, _ in sys_a.clusters])
    zero_cut = max(tol, TRANSPORT_ZERO_REL) * max(1.0, float(centers[0]))
    # row i is (G Lambda^T a_i)^T
    mapped = sys_a.eigenvectors @ lam @ G_METRIC

    classes: list[int] = []
    rows: list[list[float]] = []
    clusters: list[tuple[float, int, int]] = []
    gram_top = None
    start = 0
    for ci, (center, mult, dim) in enumerate(sys_a.clusters):
        if center > zero_cut:
            cluster = [
                (cls, _signed_unit(b / (np.linalg.norm(b) if cls == 0 else np.sqrt(center))))
                for b, cls in zip(mapped[start:start + dim], sys_a.norms[start:start + dim].tolist())
            ]
        else:
            scale = max(1.0, abs(float(np.trace(G_METRIC @ omega_b))))
            cluster, gram = _cluster_rows(omega_b, centers, ci, mult, scale, tol)
            if ci == 0:
                gram_top = gram
        start += dim
        clusters.append((center, mult, len(cluster)))
        classes.extend(cls for cls, _ in cluster)
        rows.extend(x.tolist() for _, x in cluster)

    out = np.array(_polish_carried(classes, rows))
    dims = [dim for _, _, dim in clusters]
    if gram_top is None:
        gram_top = np.array(sorted((g_inner(x, x) for x in out[: dims[0]]), reverse=True))
    vector_eigenvalues = np.repeat(centers, dims)
    k_op = G_METRIC @ omega_b
    return GEigenSystem(
        eigenvalues=sys_a.eigenvalues,
        eigenvectors=out,
        vector_eigenvalues=vector_eigenvalues,
        norms=np.array(classes, dtype=int),
        top_class=_top_class(classes[: dims[0]], gram_top, float(centers[0])),
        clusters=tuple(clusters),
        condition_report=ConditionReport(
            residuals=np.linalg.norm(out @ k_op.T - vector_eigenvalues[:, None] * out, axis=1),
            imag_residue=sys_a.condition_report.imag_residue,
            symmetry_defect=symmetry_defect,
            defect=sum(mult - dim for _, mult, dim in clusters),
            gram_top=gram_top,
        ),
        tol=tol,
        omega=omega_b,
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
