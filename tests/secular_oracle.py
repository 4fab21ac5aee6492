"""Secular-function oracle for the spectrum of G @ Omega.

Rotating the spatial block of Omega to diagonal form turns
det(Omega - lambda*G) into an arrowhead-style secular function h(lambda)
whose zeros can be bracketed between its poles with sign checks alone.
It shares no intermediate result with `geigen.g_eigensystem`, so the
tests that compare the two are evidence, not a tautology.  It is a
reference for the tests only and is not part of the installed package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from lorentzsvd.errors import LorentzSvdError, NumericalFailure
from lorentzsvd.geigen import GEigenSystem

_EPS = float(np.finfo(float).eps)


class PoleEvaluation(LorentzSvdError):
    """Secular function evaluated too close to one of its poles."""


# ---------------------------------------------------------------------------
# arrowhead reduction and the secular function
#
# Rotating the spatial block of Omega to diagonal form turns
# det(Omega - lambda*G) into psi(lambda) * h(lambda) with
#
#     h(lambda)   = n0 - lambda - sum_i  n_i^2 / (lambda + alpha_i)
#     psi(lambda) = prod_i (lambda + alpha_i)
#
# so every zero of h is an eigenvalue of G Omega, the remaining
# eigenvalues sit exactly at poles whose coupling n_i vanishes (or is
# repeated), and all of them can be located by sign changes alone.


def _sym3_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending) of a symmetric 3x3 matrix, closed form."""
    q = float(np.trace(a)) / 3.0
    b = a - q * np.eye(3)
    p2 = float((b * b).sum())
    p = np.sqrt(p2 / 6.0)
    if p <= 1e-300:
        return np.array([q, q, q])
    cnorm = b / p
    r = 0.5 * float(np.linalg.det(cnorm))
    r = min(1.0, max(-1.0, r))
    phi = np.arccos(r) / 3.0
    top = q + 2.0 * p * np.cos(phi)
    low = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    mid = 3.0 * q - top - low
    return np.array([top, mid, low])


def _sym3_vector(a: np.ndarray, w: float, scale: float) -> np.ndarray | None:
    """Unit eigenvector of a 3x3 symmetric matrix for a *simple* eigenvalue.

    The eigenvector is orthogonal to the row space of a - w*1, so the
    largest cross product of two rows points along it.  Returns None when
    every cross product is negligible (eigenvalue not simple)."""
    m = a - w * np.eye(3)
    best, best_norm = None, 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        c = np.cross(m[i], m[j])
        n = float(np.linalg.norm(c))
        if n > best_norm:
            best, best_norm = c, n
    if best is None or best_norm <= 1e-8 * scale * scale:
        return None
    return best / best_norm


def _sym3_eigensystem(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and a proper-rotation eigenvector matrix.

    Hand-rolled trigonometric solve: well-conditioned at this size, free
    of iterative libraries, and therefore independent of the production
    eigensolver it is meant to check.
    """
    a = 0.5 * (a + a.T)
    scale = max(float(np.abs(a).max()), 1e-300)
    w = _sym3_eigenvalues(a)
    if w[0] - w[2] <= 1e-14 * scale:
        return w, np.eye(3)

    # solve the better-isolated extreme eigenvalue first
    first = 0 if (w[0] - w[1]) >= (w[1] - w[2]) else 2
    other = 2 - first
    v_first = _sym3_vector(a, float(w[first]), scale)
    if v_first is None:
        # extreme eigenvalue is the double one; fall back to the other end
        first, other = other, first
        v_first = _sym3_vector(a, float(w[first]), scale)
        if v_first is None:
            return w, np.eye(3)

    v_other = _sym3_vector(a, float(w[other]), scale)
    if v_other is not None:
        v_other = v_other - (v_other @ v_first) * v_first
        nrm = float(np.linalg.norm(v_other))
        v_other = v_other / nrm if nrm > 1e-8 else None
    if v_other is None:
        # double eigenvalue at `other`: any unit vector orthogonal to
        # v_first works; pick the least-aligned coordinate axis
        t = np.zeros(3)
        t[int(np.abs(v_first).argmin())] = 1.0
        v_other = t - (t @ v_first) * v_first
        v_other = v_other / np.linalg.norm(v_other)
    v_mid = np.cross(v_first, v_other) if first == 0 else np.cross(v_other, v_first)

    cols = {first: v_first, other: v_other, 1: v_mid}
    rot = np.column_stack([cols[0], cols[1], cols[2]])
    if np.linalg.det(rot) < 0.0:
        rot[:, 1] = -rot[:, 1]
    return w, rot


@dataclass(frozen=True)
class SpectralOracle:
    """Arrowhead data of one symmetric form.

    ``rotation`` is the proper rotation whose 1 (+) R conjugation leaves
    the time-time entry ``n0``, the rotated time-space coupling ``n``,
    and the diagonalized spatial block ``alpha``; ``arrow_defect`` is the
    largest off-pattern entry left behind by the conjugation.
    """

    n0: float
    n: np.ndarray
    alpha: np.ndarray
    rotation: np.ndarray
    arrow_defect: float


def spectral_oracle(omega: np.ndarray) -> SpectralOracle:
    """Reduce a symmetric form to arrowhead shape by a spatial rotation."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (4, 4):
        raise ValueError(f"expected a 4x4 symmetric form, got {omega.shape}")
    omega = 0.5 * (omega + omega.T)
    _, rot = _sym3_eigensystem(omega[1:, 1:])
    embed = np.eye(4)
    embed[1:, 1:] = rot
    arrow = embed.T @ omega @ embed
    # Rayleigh-quotient eigenvalues (the arrow diagonal itself): unlike the
    # trigonometric values that located the eigenvectors, these stay at
    # full precision when the spatial block is degenerate.
    alpha = np.diag(arrow[1:, 1:]).copy()
    n = arrow[1:, 0].copy()
    expected = np.zeros((4, 4))
    expected[0, 0] = arrow[0, 0]
    expected[0, 1:] = n
    expected[1:, 0] = n
    expected[1:, 1:] = np.diag(alpha)
    return SpectralOracle(
        n0=float(omega[0, 0]),
        n=n,
        alpha=alpha,
        rotation=rot,
        arrow_defect=float(np.abs(arrow - expected).max()),
    )


def _oracle_scale(oracle: SpectralOracle) -> float:
    return max(
        1.0,
        abs(oracle.n0),
        float(np.abs(oracle.n).max()) ** 2,
        float(np.abs(oracle.alpha).max()),
    )


def _active_poles(oracle: SpectralOracle) -> tuple[list[tuple[float, float]], list[float], list[float]]:
    """Split the arrowhead data into secular-function structure.

    Returns (merged active poles as (position, weight) sorted ascending,
    eigenvalues contributed directly by uncoupled poles, extra
    eigenvalues contributed by repeated active poles).
    """
    scale = _oracle_scale(oracle)
    active: list[tuple[float, float]] = []
    direct: list[float] = []
    for ni, ai in zip(oracle.n, oracle.alpha):
        if abs(ni) > 1e-9 * scale:
            active.append((-float(ai), float(ni) ** 2))
        else:
            direct.append(-float(ai))
    active.sort()
    merged: list[list[float]] = []
    extra: list[float] = []
    for pos, weight in active:
        if merged and pos - merged[-1][0] <= 1e-9 * max(1.0, abs(pos)):
            # repeated pole: weights add, and the repetition itself is an
            # eigenvalue (a zero of psi surviving the simple pole of h)
            merged[-1][1] += weight
            extra.append(merged[-1][0])
        else:
            merged.append([pos, weight])
    return [(p, w) for p, w in merged], direct, extra


def h_function(oracle: SpectralOracle, lam: float, pole_tol: float = 1e-12) -> float:
    """The secular function h at a point away from its poles."""
    poles, _, _ = _active_poles(oracle)
    scale = _oracle_scale(oracle)
    for pos, _ in poles:
        if abs(lam - pos) <= pole_tol * max(1.0, abs(pos)):
            raise PoleEvaluation(
                f"h evaluated at {lam!r}, within tolerance of its pole {pos!r}"
            )
    val = oracle.n0 - lam
    for pos, weight in poles:
        val -= weight / (lam - pos)
    return float(val)


def h_derivative(oracle: SpectralOracle, lam: float, pole_tol: float = 1e-12) -> float:
    """First derivative of the secular function at a non-pole point."""
    poles, _, _ = _active_poles(oracle)
    for pos, _ in poles:
        if abs(lam - pos) <= pole_tol * max(1.0, abs(pos)):
            raise PoleEvaluation(
                f"h' evaluated at {lam!r}, within tolerance of its pole {pos!r}"
            )
    val = -1.0
    for pos, weight in poles:
        val += weight / (lam - pos) ** 2
    return float(val)


def _bisect_sign_change(f, a: float, b: float, fa: float) -> float:
    """Root of f in (a, b) given f(a) and f(b) have opposite signs."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a = mid
        else:
            b = mid
        if (b - a) <= 4.0 * _EPS * max(1.0, abs(a), abs(b)):
            break
    return 0.5 * (a + b)


def _approach_pole(f, pole: float, start_offset: float, side: int, sign: int) -> float:
    """Point near `pole` (side=+1 right, -1 left) where sign(f) == sign."""
    off = start_offset
    for _ in range(400):
        x = pole + side * off
        if x == pole:
            raise NumericalFailure(
                f"secular function never reached sign {sign} near pole {pole!r}"
            )
        val = f(x)
        if (val > 0.0) == (sign > 0) and val != 0.0:
            return x
        off *= 0.25
    raise NumericalFailure(f"sign search stalled near pole {pole!r}")


def _expand_to_sign(f, start: float, step: float, direction: int, sign: int) -> float:
    """Point beyond `start` (direction=+-1) where sign(f) == sign."""
    w = step
    for _ in range(200):
        x = start + direction * w
        val = f(x)
        if (val > 0.0) == (sign > 0) and val != 0.0:
            return x
        w *= 2.0
    raise NumericalFailure(f"secular function never reached sign {sign} beyond {start!r}")


def oracle_eigenvalues(oracle: SpectralOracle) -> np.ndarray:
    """All four eigenvalues located through the secular function alone.

    Uncoupled poles are read off directly; each gap between consecutive
    active poles holds one sign change of h; the region right of the last
    pole holds the top two (h rises from -inf to its unique critical
    point and falls to -inf, so the critical value decides two / double /
    none), and symmetrically on the far left.  A final count against the
    quartic's degree guards the bookkeeping.
    """
    poles, direct, extra = _active_poles(oracle)
    scale = _oracle_scale(oracle)
    crit_tol = 256.0 * _EPS * scale
    h = lambda x: h_function(oracle, x, pole_tol=0.0)  # noqa: E731
    hp = lambda x: h_derivative(oracle, x, pole_tol=0.0)  # noqa: E731

    zeros: list[float] = []
    if not poles:
        zeros.append(oracle.n0)
    else:
        positions = [p for p, _ in poles]
        # one zero per finite gap: h runs from -inf up to +inf
        for left, right in zip(positions, positions[1:]):
            width = right - left
            a = _approach_pole(h, left, 0.25 * width, side=+1, sign=-1)
            b = _approach_pole(h, right, min(0.25 * width, right - a), side=-1, sign=+1)
            zeros.append(_bisect_sign_change(h, a, b, fa=-1.0))

        # right of the last pole: h' falls monotonically from +inf to -1
        top_pole = positions[-1]
        a = _approach_pole(hp, top_pole, max(1.0, scale), side=+1, sign=+1)
        b = _expand_to_sign(hp, a, max(1.0, scale), direction=+1, sign=-1)
        crit = _bisect_sign_change(hp, a, b, fa=+1.0)
        hc = h(crit)
        local = abs(oracle.n0) + abs(crit) + sum(
            w / max(abs(crit - p), 1e-300) for p, w in poles
        )
        if abs(hc) <= max(crit_tol, 64.0 * _EPS * local):
            zeros.extend([crit, crit])
        elif hc > 0.0:
            a2 = _approach_pole(h, top_pole, crit - top_pole, side=+1, sign=-1)
            zeros.append(_bisect_sign_change(h, a2, crit, fa=-1.0))
            b2 = _expand_to_sign(h, crit, max(1.0, crit - top_pole), direction=+1, sign=-1)
            zeros.append(_bisect_sign_change(h, crit, b2, fa=+1.0))

        # left of the first pole: mirror image; valid inputs put nothing here
        low_pole = positions[0]
        a = _approach_pole(hp, low_pole, max(1.0, scale), side=-1, sign=+1)
        b = _expand_to_sign(hp, a, max(1.0, scale), direction=-1, sign=-1)
        crit = _bisect_sign_change(hp, b, a, fa=-1.0)
        hc = h(crit)
        local = abs(oracle.n0) + abs(crit) + sum(
            w / max(abs(crit - p), 1e-300) for p, w in poles
        )
        if abs(hc) <= max(crit_tol, 64.0 * _EPS * local):
            zeros.extend([crit, crit])
        elif hc < 0.0:
            b2 = _expand_to_sign(h, crit, max(1.0, low_pole - crit), direction=-1, sign=+1)
            zeros.append(_bisect_sign_change(h, b2, crit, fa=+1.0))
            a2 = _approach_pole(h, low_pole, low_pole - crit, side=-1, sign=+1)
            zeros.append(_bisect_sign_change(h, crit, a2, fa=-1.0))

    found = sorted(zeros + direct + extra, reverse=True)
    if len(found) != 4:
        raise NumericalFailure(
            f"secular bookkeeping found {len(found)} eigenvalues "
            f"(zeros {sorted(zeros)}, uncoupled {sorted(direct)}, "
            f"repeated {sorted(extra)})"
        )
    return np.array(found)


@dataclass(frozen=True)
class HDerivativeCheck:
    """Outcome of the slope-sign consistency check; falsy on violation."""

    ok: bool
    #: (eigenvalue, h'(eigenvalue), verdict) for every eigenvalue examined
    checks: tuple[tuple[float, float, str], ...]

    def __bool__(self) -> bool:
        return self.ok


def h_derivative_norm_check(
    oracle: SpectralOracle,
    sys: GEigenSystem,
    tol: float = 1e-9,
) -> HDerivativeCheck:
    """Sign consistency of h' with the eigenvector signatures.

    The Minkowski norm of an eigenvector is proportional to -h' at its
    eigenvalue, so the top eigenvalue must see h' <= tol (timelike or
    lightlike top vector) and every simple subdominant eigenvalue must
    see h' >= -tol (spacelike).  Eigenvalues inside degenerate clusters,
    and any sitting on a pole, are skipped: h' is not defined there.
    """
    poles, _, _ = _active_poles(oracle)
    checks: list[tuple[float, float, str]] = []
    ok = True
    # the clusters from the eigenvalues, which repeat each centre by its
    # multiplicity: the solve keeps only the top cluster, ``top_cluster``
    for idx, (center, run) in enumerate(groupby(sys.eigenvalues.tolist())):
        if len(list(run)) != 1:
            checks.append((center, np.nan, "skipped: degenerate"))
            continue
        if any(abs(center - p) <= 1e-9 * max(1.0, abs(p)) for p, _ in poles):
            checks.append((center, np.nan, "skipped: at a pole"))
            continue
        slope = h_derivative(oracle, center)
        if idx == 0:
            good = slope <= tol
            verdict = "top: h' <= tol" if good else "top: h' positive"
        else:
            good = slope >= -tol
            verdict = "lower: h' >= -tol" if good else "lower: h' negative"
        ok = ok and good
        checks.append((center, slope, verdict))
    return HDerivativeCheck(ok=ok, checks=tuple(checks))
