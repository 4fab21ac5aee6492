"""The spectrum of the indefinite eigenproblem, with its clusters.

det(Omega - lambda * G) is a quartic in lambda whose roots are the
eigenvalues of G @ Omega.  They come from LAPACK (`np.linalg.eigvals`),
which is backward stable.  A single eigenvalue of a defective cluster is
conditioned like the square root of the perturbation, but the cluster's
mean moves only linearly with it (Kato; Stewart & Sun), so roots are
reported as cluster means.  Rounding splits the defective double root
of the non-diagonalizable family into a conjugate pair or into two close
real roots.  A conjugate pair is a double root at its mean when the
quartic, from its exact principal-minor coefficients, nearly vanishes
there; real roots merge by distance.  No caller tolerance enters.

Polynomials are coefficient lists in ascending order: c[k] <-> lambda^k,
on Python floats, because with five coefficients numpy's call overhead
outweighs the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NumericalFailure
from .minkowski import G_METRIC

#: a conjugate eigenvalue pair is a double root at its mean v when the
#: quartic c nearly vanishes there: |c(v)| at most this fraction of the
#: size of c's terms at v.  A pair split from a true double root by
#: rounding leaves |c(v)| at the rounding level of the terms; a genuinely
#: complex pair leaves c(v) about Im^2 times the size of its other factor
_PAIR_CLOSURE_REL = 1e-11

#: principal minors of det(omega - x*G) per coefficient k: (sign, kept
#: indices) for every k-subset S of deleted indices, in combinations
#: order; the sign is prod_{j in S} (-G_jj), i.e. -1 iff 0 is deleted
_MINORS = tuple(
    tuple(
        (-1.0 if 0 in S else 1.0, tuple(j for j in range(4) if j not in S))
        for S in combinations(range(4), k)
    )
    for k in range(5)
)


def _minor_det(m: list[list[float]], rows: tuple[int, ...], cols: tuple[int, ...]) -> float:
    """Determinant of m restricted to (rows, cols), by cofactor expansion
    along the first column: exact flop pattern for up to 4 indices."""
    n = len(rows)
    if n == 0:
        return 1.0
    if n == 1:
        return m[rows[0]][cols[0]]
    if n == 2:
        (r0, r1), (c0, c1) = rows, cols
        return m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]
    total = 0.0
    c0, rest = cols[0], cols[1:]
    for i, r in enumerate(rows):
        sign = -1.0 if i % 2 else 1.0
        total += sign * m[r][c0] * _minor_det(m, rows[:i] + rows[i + 1:], rest)
    return total


def charpoly_g(omega: np.ndarray) -> np.ndarray:
    """Coefficients (ascending) of p(x) = det(omega - x*G), G = diag(1,-1,-1,-1).

    Multilinearity in the columns gives
        c_k = sum over k-subsets S of {0..3} of
              prod_{j in S} (-G_jj) * det(omega with rows+cols S deleted),
    so every coefficient is a signed sum of principal minors.
    """
    m = np.asarray(omega, dtype=float).tolist()
    c = []
    for minors in _MINORS:
        acc = 0.0
        for sign, keep in minors:
            acc += sign * _minor_det(m, keep, keep)
        c.append(acc)
    return np.array(c)


def polyval(c: list[float], x: float) -> float:
    r = 0.0
    for ck in reversed(c):
        r = r * x + ck
    return r


@dataclass
class QuarticRoots:
    values: np.ndarray          # distinct roots, ascending
    multiplicities: np.ndarray  # matching multiplicities, sum = 4
    imag_residue: float         # largest imaginary part of a closed conjugate pair


def quartic_real_roots(omega: np.ndarray, cluster_radius: float) -> QuarticRoots:
    """The eigenvalues of G @ omega as real cluster means with multiplicities.

    A conjugate pair with mean v is a double root at v when |c(v)| lies
    within `_PAIR_CLOSURE_REL` times sum_k |c_k| max(1, |v|)^k, c being
    `charpoly_g(omega)` (built only when a pair appears); otherwise it
    raises NumericalFailure.  Neighbouring roots no more than
    cluster_radius apart then merge into one cluster at their mean.
    """
    omega = np.asarray(omega, dtype=float)
    roots: list[tuple[float, int]] = []
    imag_residue = 0.0
    c = None
    for z in np.linalg.eigvals(G_METRIC @ omega).tolist():
        if z.imag == 0.0:
            roots.append((z.real, 1))
        elif z.imag > 0.0:
            # LAPACK returns each pair as exact conjugates, so z.real is
            # its mean; the partner with z.imag < 0 is skipped
            if c is None:
                c = charpoly_g(omega).tolist()
            v = z.real
            reach = max(1.0, abs(v))
            terms = sum(abs(ck) * reach ** k for k, ck in enumerate(c))
            if abs(polyval(c, v)) > _PAIR_CLOSURE_REL * terms:
                raise NumericalFailure(f"complex eigenvalue pair with imaginary part {z.imag:.3e}")
            imag_residue = max(imag_residue, z.imag)
            roots.append((v, 2))

    values: list[float] = []
    mults: list[int] = []
    for r, m in sorted(roots):
        if values and r - last <= cluster_radius:
            tot = mults[-1] + m
            values[-1] = (values[-1] * mults[-1] + r * m) / tot
            mults[-1] = tot
        else:
            values.append(r)
            mults.append(m)
        last = r
    return QuarticRoots(
        values=np.array(values),
        multiplicities=np.array(mults, dtype=int),
        imag_residue=imag_residue,
    )
