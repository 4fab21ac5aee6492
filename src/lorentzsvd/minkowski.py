"""Minkowski-space utilities: metric, frames and completions.

Four-vectors live in R^4 with metric G = diag(1, -1, -1, -1).  A set
{y0, y1, y2, y3} is a G-orthonormal tetrad when the Gram matrix of the
vectors under G equals G itself (one unit timelike leg, three unit
spacelike legs, mutually G-orthogonal).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateCompletion, TriadNotGOrthogonal

G_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

#: The user's tolerance (``--tol``, ``CANON_TOL``) when none is given.
#: Through `canonicalize` and the CLI it reaches these decisions and no
#: others:
#:
#: * whether a matrix is a state: hermiticity, trace and positivity of rho,
#:   and positivity of the rho rebuilt from a Lambda;
#: * the G-eigensystem: the all-zero form and the zero top eigenvalue,
#:   which names the degenerate product family on a state of rank at
#:   most 2 (a TypeI top that small is refused as SingularTopEigenvalue);
#: * the constructions: the TypeI top eigenvalue and ``detSign`` (zero
#:   when |d3| <= tol), the TypeII 00-scale, the Lorentz-group checks of
#:   both factors, the canonical parameter region and the factorization
#:   recheck (for a TypeI result, its diagonality);
#: * the CLI's ``verify`` thresholds and its ``sigma`` comparison.
#:
#: Most of these take ``max(tol, floor)`` with a floor of their own, so a
#: smaller ``tol`` never asks for more than the arithmetic can deliver.
#: Root finding (the closure of a double root included), root clustering,
#: eigenspace signatures, rank decisions and the TypeII decision on rho's
#: kernel do not depend on it.
DEFAULT_TOL = 1e-10

#: Floor of the tolerance at which a factor built or mapped by the package
#: must pass `is_orthochronous_proper_lorentz`.  At a defective double
#: root eigenvectors are accurate only to about sqrt(eps) ~ 1.5e-8, and
#: the factors inherit that defect; anything outside SO+(1,3) misses the
#: group by far more.
LORENTZ_TOL_FLOOR = 1e-8

#: A quantity at most this fraction of the magnitude it is measured
#: against is zero: a component of a vector against the vector's size, a
#: G-norm, overlap or quadratic-form value against the squared size of
#: what it is built from.  Rounding in 4-vector arithmetic stays near
#: 1e-16 relative, four orders below.
ZERO_REL = 1e-12

#: A TypeI top eigenvalue at or below this fraction of max(1, itself), or
#: ``tol`` when larger, is zero: mapping the timelike eigenvector of side
#: A onto side B through Lambda divides its noise by the square root of
#: the eigenvalue, so below ~1e-7 the mapped leg is lost at working
#: precision, and a top eigenvalue that small has no usable scale at all.
TRANSPORT_ZERO_REL = 1e-7

#: Floor of the tolerance of every check on what the pipeline computes
#: from a top eigenvector, which at a defective double root is resolved
#: only to about sqrt(eps) ~ 1.5e-8:
#:
#: * the canonical parameter region (Bell weights >= 0; 0 <= p1 and
#:   p1^2 <= p0 <= 1), in `canonicalize` and when a report is read back;
#: * the factorization residual |L_A Lambda L_B^T / N - Lambda^c| of a
#:   result, rechecked once both factors are final (a diagonal result of
#:   a strongly filtered state, whose top eigenvector carries an error
#:   far above eps, may miss by more), and of ``100 * tol`` for
#:   ``verify``'s ``factorization``;
#: * ``sigma_equivalence_check``, whose closed forms and pipeline agree
#:   only that well;
#: * of ``100 * tol`` for ``verify``'s ``sharedSpectrum``, the two sides'
#:   spectra relative to max(1, lambda0).
DEFECTIVE_ROOT_FLOOR = 1e-8

#: Least value a scale may take before it divides something or multiplies
#: a relative threshold, so an all-zero input gives a zero ratio or rank
#: zero instead of 0/0.  It sits just above the smallest normal double
#: (2.2e-308) and below any scale a state produces.
SCALE_FLOOR = 1e-300

#: Floor of the tolerance at which a tetrad completed from a neutral triad
#: must be G-orthonormal (relative to its largest squared entry).  The
#: new legs add multiples of the null leg y0 to the pivot, so the triad's
#: own defect carries into them; a ``tol`` near machine precision would
#: refuse frames that the Lorentz-group check downstream accepts.
_TETRAD_TOL_FLOOR = 1e-9


def g_inner(x: np.ndarray | list[float], y: np.ndarray | list[float]) -> float:
    """Minkowski inner product x^T G y of two real 4-vectors."""
    return float(x[0] * y[0] - x[1] * y[1] - x[2] * y[2] - x[3] * y[3])


def minkowski_norm(x: np.ndarray) -> float:
    """Squared Minkowski norm x^T G x (sign carries the causal class)."""
    return g_inner(x, x)


def lorentz_defect(L: np.ndarray) -> float:
    """max |L^T G L - G| relative to max(1, max |L|^2), the squared size of
    L's largest entry: how far a 4x4 matrix misses the Lorentz group."""
    L = np.asarray(L, dtype=float)
    scale = max(1.0, float(np.abs(L).max()) ** 2)
    return float(np.abs(L.T @ G_METRIC @ L - G_METRIC).max()) / scale


def _group_defect(rows: list[list[float]]) -> float:
    """`lorentz_defect` of a 4x4 matrix given as its rows, on Python floats;
    numpy's product may fuse multiply and add, so the two can differ in
    the last bits.  NaN when an entry is not finite or a product
    overflows: Python's ``max`` drops a NaN that is not its first
    argument, so the sum of the deviations decides."""
    (t0, t1, t2, t3), (x0, x1, x2, x3), (y0, y1, y2, y3), (z0, z1, z2, z3) = rows
    # L^T G L - G, the upper triangle of a symmetric matrix
    devs = (
        t0 * t0 - x0 * x0 - y0 * y0 - z0 * z0 - 1.0,
        t0 * t1 - x0 * x1 - y0 * y1 - z0 * z1,
        t0 * t2 - x0 * x2 - y0 * y2 - z0 * z2,
        t0 * t3 - x0 * x3 - y0 * y3 - z0 * z3,
        t1 * t1 - x1 * x1 - y1 * y1 - z1 * z1 + 1.0,
        t1 * t2 - x1 * x2 - y1 * y2 - z1 * z2,
        t1 * t3 - x1 * x3 - y1 * y3 - z1 * z3,
        t2 * t2 - x2 * x2 - y2 * y2 - z2 * z2 + 1.0,
        t2 * t3 - x2 * x3 - y2 * y3 - z2 * z3,
        t3 * t3 - x3 * x3 - y3 * y3 - z3 * z3 + 1.0,
    )
    if not math.isfinite(sum(devs)):
        return math.nan
    flat = rows[0] + rows[1] + rows[2] + rows[3]
    big = max(max(flat), -min(flat))
    return max(max(devs), -min(devs)) / max(1.0, big * big)


def det3(r: list[list[float]]) -> float:
    """Determinant of a 3x3 matrix as the triple product r0 . (r1 x r2)."""
    (a, b, c), (d, e, f), (g, h, i) = r
    return a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)


def is_orthochronous_proper_lorentz(L: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when `lorentz_defect` is within tol, L[0,0] > 0 and the 3x3
    spatial block has a positive determinant; False for any entry that is
    not finite.

    An orthochronous Lorentz matrix is B(q) diag(1, R), a boost times a
    rotation, and its spatial block (I + q q^T / (1 + gamma)) R has
    determinant gamma det R: positive exactly when the matrix is proper.
    The check runs on Python floats.
    """
    L = np.asarray(L, dtype=float)
    if L.shape != (4, 4):
        return False
    rows = L.tolist()
    if not _group_defect(rows) <= tol:  # NaN fails too
        return False
    (t0, _, _, _), (_, *x), (_, *y), (_, *z) = rows
    return t0 > 0.0 and det3((x, y, z)) > 0.0


def validate_g_orthogonal_tetrad(Y: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Check Y G Y^T = G for a tetrad stacked as the rows of Y; returns the
    max deviation.

    Raises TriadNotGOrthogonal when the deviation exceeds tol (relative
    to the squared magnitude of the largest entry).
    """
    gram = Y @ G_METRIC @ Y.T
    dev = float(np.abs(gram - G_METRIC).max())
    scale = max(1.0, float(np.abs(Y).max()) ** 2)
    if dev > tol * scale:
        raise TriadNotGOrthogonal(
            f"tetrad Gram deviates from metric by {dev:.3e} (tol {tol * scale:.3e})"
        )
    return dev


def _check_neutral_triad(
    triad: tuple[list[float], ...], squares: tuple[float, ...], tol: float
) -> None:
    """``triad`` is (y0, y1, y2) as lists, ``squares`` their Euclidean
    squared lengths."""
    y0, y1, y2 = triad
    scale = max(1.0, *squares)
    checks = {
        "y0 neutral": g_inner(y0, y0),
        "y1 unit spacelike": g_inner(y1, y1) + 1.0,
        "y2 unit spacelike": g_inner(y2, y2) + 1.0,
        "y0.y1": g_inner(y0, y1),
        "y0.y2": g_inner(y0, y2),
        "y1.y2": g_inner(y1, y2),
    }
    bad = {k: v for k, v in checks.items() if abs(v) > tol * scale}
    if bad:
        detail = ", ".join(f"{k}={v:.3e}" for k, v in bad.items())
        raise TriadNotGOrthogonal(f"neutral triad conditions violated: {detail}")
    if squares[0] <= tol * scale:
        raise TriadNotGOrthogonal("y0 is numerically the zero vector")


def complete_tetrad_from_neutral_triad(
    y0: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Complete a neutral triad {y0, y1, y2} to a G-orthonormal tetrad.

    `y0` must be neutral and G-orthogonal to the unit spacelike pair
    `y1`, `y2`.  The two-plane G-orthogonal to {y1, y2} containing y0
    has signature (+, -); a fourth direction y3 in that plane with
    q = y3^T G y0 != 0 yields the frame

        ytilde0 = y3 + tau * y0,   tau = (1 - y3^T G y3) / (2 q),
        ytilde3 = y3 - kappa * y0, kappa = (1 + y3^T G y3) / (2 q),

    which satisfies ytilde0^T G ytilde0 = +1, ytilde3^T G ytilde3 = -1
    and all cross terms zero, independent of the causal class of y3.

    The pivot is y3 = G y0 + (y1.y0) y1 + (y2.y0) y2 (Euclidean dots),
    which is automatically G-orthogonal to y1, y2 and has
    q = ||y0||^2 > 0.

    Returns the tetrad as the rows (ytilde0, y1, y2, ytilde3) of a 4x4
    array, the timelike leg sign-fixed to a positive time component.
    """
    # The Minkowski products and the legs run on Python floats, which round
    # each multiply and add as elementwise numpy does; the Euclidean dot
    # products stay on numpy, whose BLAS kernels may fuse multiply and add.
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    triad = (y0.tolist(), y1.tolist(), y2.tolist())
    squares = (float(y0 @ y0), float(y1 @ y1), float(y2 @ y2))
    _check_neutral_triad(triad, squares, tol)
    scale = max(1.0, squares[0])

    y3 = (G_METRIC @ y0 + (y1 @ y0) * y1 + (y2 @ y0) * y2).tolist()
    x0, x1, x2 = triad
    q = g_inner(y3, x0)
    if abs(q) <= tol * scale * max(1.0, max(map(abs, y3))):
        raise DegenerateCompletion(
            f"pivot degenerate along y0: y3^T G y0 = {q:.3e}"
        )

    nrm3 = g_inner(y3, y3)
    tau = (1.0 - nrm3) / (2.0 * q)
    kappa = (1.0 + nrm3) / (2.0 * q)
    t0 = [a + tau * b for a, b in zip(y3, x0)]
    t3 = [a - kappa * b for a, b in zip(y3, x0)]
    if t0[0] < 0.0:
        # flip the pivot so the timelike leg points to the future
        t0, t3 = [-v for v in t0], [-v for v in t3]
    tetrad = np.array([t0, x1, x2, t3])
    validate_g_orthogonal_tetrad(tetrad, tol=max(tol, _TETRAD_TOL_FLOOR))
    return tetrad
