"""Minkowski-space utilities: metric, vector classes, frames and completions.

Four-vectors live in R^4 with metric G = diag(1, -1, -1, -1).  A set
{y0, y1, y2, y3} is a G-orthonormal tetrad when the Gram matrix of the
vectors under G equals G itself (one unit timelike leg, three unit
spacelike legs, mutually G-orthogonal).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateCompletion, TriadNotGOrthogonal

G_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

#: The user's tolerance (``--tol``, ``CANON_TOL``) when none is given.
#: Through `canonicalize` and the CLI it reaches these decisions and no
#: others:
#:
#: * whether a matrix is a state: hermiticity, trace and positivity of rho,
#:   and positivity of the rho rebuilt from a Lambda;
#: * the G-eigensystem: the all-zero form, which subdominant eigenvalues
#:   count as nonzero, and the zero top eigenvalue of the degenerate
#:   product family;
#: * the constructions: zero eigenvalue slots, the sign of det Lambda, the
#:   00-scale, neutral-triad completion, the Lorentz-group checks of both
#:   factors, diagonality of the TypeI result and the canonical parameter
#:   region;
#: * the CLI's ``verify`` thresholds and its ``sigma`` comparison.
#:
#: Most of these take ``max(tol, floor)`` with a floor of their own, so a
#: smaller ``tol`` never asks for more than the arithmetic can deliver.
#: Root finding (the closure of a double root included), root clustering,
#: eigenspace signatures and rank decisions do not depend on it.
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

#: An eigenvalue at or below this fraction of max(1, top eigenvalue), or
#: ``tol`` when larger, is zero for the TypeI transport through Lambda:
#: mapping an eigenvector of side A onto side B divides its noise by the
#: square root of the eigenvalue, so below ~1e-7 the mapped vector loses
#: G-orthonormality at working precision.  A TypeI leg at such a slot
#: comes from frame completion, and a top eigenvalue that small has no
#: usable scale at all.
TRANSPORT_ZERO_REL = 1e-7

#: Floor of the tolerance on the arrow parameter region 0 <= p1^2 <= p0 <= 1
#: for parameters the pipeline computed, in `canonicalize` and when a
#: report is read back; they are eigenvalue ratios, which near a
#: defective double root are accurate only to about sqrt(eps) ~ 1.5e-8.
PIPELINE_PARAMETER_FLOOR = 1e-8

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


class VectorClass(Enum):
    POSITIVE = "Positive"   # timelike,  x^T G x > 0
    NEUTRAL = "Neutral"     # lightlike, x^T G x = 0
    NEGATIVE = "Negative"   # spacelike, x^T G x < 0


def lorentz_defect(L: np.ndarray) -> float:
    """max |L^T G L - G| relative to max(1, max |L|^2), the squared size of
    L's largest entry: how far a 4x4 matrix misses the Lorentz group."""
    L = np.asarray(L, dtype=float)
    scale = max(1.0, float(np.abs(L).max()) ** 2)
    return float(np.abs(L.T @ G_METRIC @ L - G_METRIC).max()) / scale


def is_orthochronous_proper_lorentz(L: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when `lorentz_defect` is within tol, det L = +1 and L[0,0] > 0."""
    L = np.asarray(L, dtype=float)
    if L.shape != (4, 4):
        return False
    if lorentz_defect(L) > tol:
        return False
    scale = max(1.0, float(np.abs(L).max()) ** 2)
    if abs(float(np.linalg.det(L)) - 1.0) > tol * scale:
        return False
    return float(L[0, 0]) > 0.0


@dataclass(frozen=True)
class Tetrad:
    """G-orthonormal frame; `y0` timelike (+1), `y1..y3` spacelike (-1)."""

    y0: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    y3: np.ndarray

    def rows(self) -> np.ndarray:
        """Stack the tetrad as rows of a 4x4 matrix (a Lorentz matrix)."""
        return np.vstack([self.y0, self.y1, self.y2, self.y3])


def validate_g_orthogonal_tetrad(tetrad: Tetrad, tol: float = DEFAULT_TOL) -> float:
    """Check Y G Y^T = G for the stacked tetrad; returns the max deviation.

    Raises TriadNotGOrthogonal when the deviation exceeds tol (relative
    to the squared magnitude of the largest entry).
    """
    Y = tetrad.rows()
    gram = Y @ G_METRIC @ Y.T
    dev = float(np.abs(gram - G_METRIC).max())
    scale = max(1.0, float(np.abs(Y).max()) ** 2)
    if dev > tol * scale:
        raise TriadNotGOrthogonal(
            f"tetrad Gram deviates from metric by {dev:.3e} (tol {tol * scale:.3e})"
        )
    return dev


def _check_neutral_triad(y0: np.ndarray, y1: np.ndarray, y2: np.ndarray, tol: float) -> None:
    scale = max(1.0, *(float(v @ v) for v in (y0, y1, y2)))
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
    if float(y0 @ y0) <= tol * scale:
        raise TriadNotGOrthogonal("y0 is numerically the zero vector")


def complete_tetrad_from_neutral_triad(
    y0: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> tuple[Tetrad, float, float]:
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

    Returns (tetrad, tau, kappa).  The timelike leg is sign-fixed to a
    positive time component.
    """
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    _check_neutral_triad(y0, y1, y2, tol)
    scale = max(1.0, float(y0 @ y0))

    y3 = G_METRIC @ y0 + (y1 @ y0) * y1 + (y2 @ y0) * y2
    q = g_inner(y3, y0)
    if abs(q) <= tol * scale * max(1.0, float(np.abs(y3).max())):
        raise DegenerateCompletion(
            f"pivot degenerate along y0: y3^T G y0 = {q:.3e}"
        )

    nrm3 = g_inner(y3, y3)
    tau = (1.0 - nrm3) / (2.0 * q)
    kappa = (1.0 + nrm3) / (2.0 * q)
    t0 = y3 + tau * y0
    t3 = y3 - kappa * y0
    if t0[0] < 0.0:
        # flip the pivot so the timelike leg points to the future
        t0, t3 = -t0, -t3
        tau, kappa = -tau, -kappa
    tetrad = Tetrad(y0=t0, y1=y1.copy(), y2=y2.copy(), y3=t3)
    validate_g_orthogonal_tetrad(tetrad, tol=max(tol, _TETRAD_TOL_FLOOR))
    return tetrad, float(tau), float(kappa)
