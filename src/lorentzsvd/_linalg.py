"""Small dense linear-algebra helpers used by the eigensystem and canonical layers.

Everything here operates on tiny (at most 4x4) real matrices, so the
routines favour determinism and explicit rank decisions over asymptotic
performance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateCompletion
from .minkowski import G_METRIC, SCALE_FLOOR, ZERO_REL, g_inner


def null_space_basis(M: np.ndarray | list[list[float]], rtol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of M, an array or
    nested lists of floats.

    Full-pivot Gaussian elimination with pivots judged relative to the
    largest entry of the original matrix; pivots below ``rtol * scale``
    terminate the elimination, so ``rtol`` is the rank decision
    threshold.
    """
    # The elimination runs on Python floats, because on a 4x4 matrix numpy's
    # call overhead dwarfs the arithmetic.  Each update is one rounded
    # multiply and one rounded subtract, exactly what elementwise numpy
    # does, so the bits match the array form.  The back-substitution stays
    # on numpy: its BLAS dot products may fuse multiply and add, which
    # plain Python cannot reproduce.
    if isinstance(M, np.ndarray):
        A = np.asarray(M, dtype=float).tolist()
    else:
        A = [list(row) for row in M]  # a copy: the elimination works in place
    m, n = len(A), len(A[0])
    scale = max(max(abs(v) for row in A for v in row), SCALE_FLOOR)
    col_perm = list(range(n))
    rank = 0
    for k in range(min(m, n)):
        # first largest |entry| of A[k:, k:] in row-major order
        piv, i, j = -1.0, k, k
        for r in range(k, m):
            row = A[r]
            for c in range(k, n):
                if abs(row[c]) > piv:
                    piv, i, j = abs(row[c]), r, c
        if piv <= rtol * scale:
            break
        A[k], A[i] = A[i], A[k]
        if j != k:
            for row in A:
                row[k], row[j] = row[j], row[k]
            col_perm[k], col_perm[j] = col_perm[j], col_perm[k]
        top = A[k]
        for row in A[k + 1:]:
            f = row[k] / top[k]
            for c in range(k, n):
                row[c] -= f * top[c]
        rank += 1
    if rank == 0:
        # no pivot above the cut: the whole space, with no back-substitution or QR
        return np.eye(n)
    A = np.array(A)

    if rank == n:
        return np.zeros((n, 0))
    basis = []
    for free in range(rank, n):
        x = np.zeros(n)
        x[free] = 1.0
        for i in range(rank - 1, -1, -1):
            x[i] = -(A[i, i + 1:] @ x[i + 1:]) / A[i, i]
        y = np.zeros(n)
        for pos, orig in enumerate(col_perm):
            y[orig] = x[pos]
        basis.append(y)
    if len(basis) == 1:
        # a single vector only needs its norm; QR would cost more than the elimination
        y = basis[0]
        return (y / math.sqrt(y.dot(y)))[:, None]
    B = np.array(basis).T
    # orthonormalize (Euclidean) for numerical hygiene
    Q, _ = np.linalg.qr(B)
    return Q[:, : B.shape[1]]


def gram_eigenbasis(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize the Minkowski Gram matrix of the columns of V.

    Returns (gram_eigenvalues, W) where W = V @ U has columns realizing
    the Gram eigenvalues: W[:,k]^T G W[:,l] = delta_kl * gram_eigenvalues[k].
    Eigenvalues are sorted descending, so any timelike content comes first.
    """
    S = V.T @ G_METRIC @ V
    S = 0.5 * (S + S.T)
    vals, U = np.linalg.eigh(S)
    order = np.argsort(vals)[::-1]
    return vals[order], V @ U[:, order]


def complete_g_frame(existing: list[np.ndarray], count: int) -> list[np.ndarray]:
    """Extend G-orthonormal vectors with `count` unit spacelike vectors.

    `existing` must hold vectors with G-norms close to +/-1.  Candidates
    are drawn from the standard basis, G-projected against everything
    accumulated so far, and the best-conditioned survivor is normalized
    and appended.  Deterministic.
    """
    frame = [np.asarray(v, dtype=float) for v in existing]
    out: list[np.ndarray] = []
    for _ in range(count):
        best, best_mag = None, 0.0
        for k in range(4):
            cand = np.zeros(4)
            cand[k] = 1.0
            for y in frame:
                eps = g_inner(y, y)
                cand = cand - (g_inner(y, cand) / eps) * y
            mag = -g_inner(cand, cand)
            if mag > best_mag:
                best, best_mag = cand, mag
        if best is None or best_mag <= ZERO_REL:
            raise DegenerateCompletion("could not complete indefinite frame")
        v = best / np.sqrt(best_mag)
        frame.append(v)
        out.append(v)
    return out
