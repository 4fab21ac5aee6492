"""The spectrum of the indefinite eigenproblem, with its clusters.

det(Omega - lambda * G) is a quartic in lambda whose roots are the
eigenvalues of G @ Omega.  They come from LAPACK (`np.linalg.eig`),
which is backward stable, together with an eigenvector per simple real
root.  A single eigenvalue of a defective cluster is
conditioned like the square root of the perturbation, but the cluster's
mean moves only linearly with it (Kato; Stewart & Sun), so roots are
reported as cluster means.  Rounding splits the defective double root
of the non-diagonalizable family into a conjugate pair or into two close
real roots.  One merge radius decides both: a conjugate pair whose two
members lie within it is a double root at its mean, and real roots
within it of each other merge.  No caller tolerance enters.

`charpoly_g` and `polyval` build and evaluate the characteristic
quartic from its exact principal-minor coefficients.  The spectrum no
longer uses them; `bench/tracer.py` still wraps both by name.
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

def _minor_plan() -> tuple[tuple, tuple]:
    """How `charpoly_g` computes each distinct minor once.

    ``steps`` lists every minor that the principal minors of a 4x4 matrix
    expand into, after the minors it needs, as (rows, cols, terms); beyond
    two indices a minor is a cofactor expansion along its first column,
    one (sign, row, step of the sub-minor) per term.  ``coefficients``
    holds, per coefficient k, one (sign, step) for every k-subset S of
    deleted indices in combinations order; the sign is
    prod_{j in S} (-G_jj), i.e. -1 iff 0 is deleted.
    """
    steps: list[tuple] = []
    slots: dict[tuple, int] = {}

    def visit(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
        if (rows, cols) not in slots:
            terms = tuple(
                (-1.0 if i % 2 else 1.0, r, visit(rows[:i] + rows[i + 1:], cols[1:]))
                for i, r in enumerate(rows)
            ) if len(rows) > 2 else ()
            slots[rows, cols] = len(steps)
            steps.append((rows, cols, terms))
        return slots[rows, cols]

    coefficients = []
    for k in range(5):
        minors = []
        for S in combinations(range(4), k):
            keep = tuple(j for j in range(4) if j not in S)
            minors.append((-1.0 if 0 in S else 1.0, visit(keep, keep)))
        coefficients.append(tuple(minors))
    return tuple(steps), tuple(coefficients)


_MINOR_STEPS, _COEFFICIENT_MINORS = _minor_plan()


def charpoly_g(omega: np.ndarray) -> np.ndarray:
    """Coefficients (ascending) of p(x) = det(omega - x*G), G = diag(1,-1,-1,-1).

    Multilinearity in the columns gives
        c_k = sum over k-subsets S of {0..3} of
              prod_{j in S} (-G_jj) * det(omega with rows+cols S deleted),
    so every coefficient is a signed sum of principal minors.  Each
    distinct minor is computed once, in the flop pattern of a cofactor
    expansion along its first column.
    """
    m = np.asarray(omega, dtype=float).tolist()
    d: list[float] = []
    for rows, cols, terms in _MINOR_STEPS:
        n = len(rows)
        if n == 0:
            d.append(1.0)
        elif n == 1:
            d.append(m[rows[0]][cols[0]])
        elif n == 2:
            (r0, r1), (c0, c1) = rows, cols
            d.append(m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0])
        else:
            c0 = cols[0]
            total = 0.0
            for sign, r, sub in terms:
                total += sign * m[r][c0] * d[sub]
            d.append(total)
    c = []
    for minors in _COEFFICIENT_MINORS:
        acc = 0.0
        for sign, step in minors:
            acc += sign * d[step]
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
    #: per cluster, the unit eigenvector of a cluster that is one real
    #: root, as LAPACK returns it; None for every other cluster
    vectors: list[np.ndarray | None]


def quartic_real_roots(omega: np.ndarray, cluster_radius: float) -> QuarticRoots:
    """The eigenvalues of G @ omega as real cluster means with multiplicities.

    A conjugate pair z, conj(z) is a double root at its mean when its two
    members lie at most cluster_radius apart (2 Im z); otherwise it
    raises NumericalFailure.  Neighbouring roots no more than
    cluster_radius apart then merge into one cluster at their mean.  A
    cluster that is one real root keeps LAPACK's eigenvector.
    """
    w, vecs = np.linalg.eig(G_METRIC @ np.asarray(omega, dtype=float))
    # (root, multiplicity, eigenvector column or None)
    roots: list[tuple[float, int, int | None]] = []
    imag_residue = 0.0
    for col, z in enumerate(w.tolist()):
        if z.imag == 0.0:
            roots.append((z.real, 1, col))
        elif z.imag > 0.0:
            # LAPACK returns each pair as exact conjugates, so z.real is
            # its mean; the partner with z.imag < 0 is skipped
            if 2.0 * z.imag > cluster_radius:
                raise NumericalFailure(f"complex eigenvalue pair with imaginary part {z.imag:.3e}")
            imag_residue = max(imag_residue, z.imag)
            roots.append((z.real, 2, None))

    values: list[float] = []
    mults: list[int] = []
    columns: list[int | None] = []
    for r, m, col in sorted(roots, key=lambda root: root[:2]):
        if values and r - last <= cluster_radius:
            tot = mults[-1] + m
            values[-1] = (values[-1] * mults[-1] + r * m) / tot
            mults[-1] = tot
            columns[-1] = None
        else:
            values.append(r)
            mults.append(m)
            columns.append(col)
        last = r
    # the real part: a real eigenvalue's column has zero imaginary part
    # also when a conjugate pair makes LAPACK return complex columns
    return QuarticRoots(
        values=np.array(values),
        multiplicities=np.array(mults, dtype=int),
        imag_residue=imag_residue,
        vectors=[None if col is None else vecs[:, col].real for col in columns],
    )
