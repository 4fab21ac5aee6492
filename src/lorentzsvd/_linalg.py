"""Small dense linear-algebra helpers used by the eigensystem and canonical layers.

Everything here operates on tiny (at most 4x4) real matrices.  Rank
decisions are explicit: an absolute cut, which the caller scales,
applied to LAPACK's singular values.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateCompletion
from .minkowski import G_METRIC, ZERO_REL, g_inner


def null_space_basis(M: np.ndarray, cut: float) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of M.

    The right singular vectors of M whose singular values are at most
    ``cut``, an absolute threshold, and always at least the one of the
    smallest singular value: the eigensystem passes G Omega - c I at a
    computed eigenvalue c, singular by construction, where a cut that
    keeps nothing has cut too fine.  The caller scales the cut
    (`geigen._cluster_vectors` by max|M|).
    """
    _, sigma, vt = np.linalg.svd(M)
    rank = min(int(np.count_nonzero(sigma > cut)), vt.shape[0] - 1)
    return vt[rank:].T


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
