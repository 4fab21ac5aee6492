"""50-digit reference for the TypeI canonical diagonal.

The float pipeline reads d1, d2, d3 off the factors it builds.  This
reference takes none of its intermediate results: Lambda is formed from
the float rho in mpmath, the spectrum of G Lambda G Lambda^T (G times
Omega_A) comes from `mpmath.eig`, and for a TypeI state, whose spectrum
is N^2 (1, d1^2, d2^2, d3^2), d_i = sqrt(l_i / l_0) with d3 signed by
det Lambda.  It is a reference for the tests only and is not part of the
installed package.
"""

from __future__ import annotations

import mpmath
import numpy as np

from lorentzsvd.qstate import PAULI_KRON

#: working precision of the reference, in decimal digits
DPS = 50


def mp_lambda(rho: np.ndarray) -> mpmath.matrix:
    """Lambda[mu, nu] = Re Tr[rho (sigma_mu (x) sigma_nu)] of the float rho, at
    `DPS` digits.  Each product of a rho entry and a Pauli entry is exact."""
    rho = np.asarray(rho, dtype=complex)
    lam = mpmath.matrix(4, 4)
    for m in range(4):
        for n in range(4):
            p = PAULI_KRON[m, n]
            lam[m, n] = mpmath.fsum(
                mpmath.mpf(float(rho[i, j].real)) * mpmath.mpf(float(p[j, i].real))
                - mpmath.mpf(float(rho[i, j].imag)) * mpmath.mpf(float(p[j, i].imag))
                for i in range(4) for j in range(4)
            )
    return lam


def type1_diagonal(rho: np.ndarray) -> list[float]:
    """The TypeI canonical (d1, d2, d3) of ``rho``, computed at `DPS` digits
    and rounded to floats.  Assumes a TypeI state: the eigenvalues of
    G Omega_A are taken real, sorted from the top."""
    with mpmath.workdps(DPS):
        lam = mp_lambda(rho)
        g = mpmath.diag([1, -1, -1, -1])
        values = mpmath.eig(g * lam * g * lam.T, left=False, right=False)
        l0, *rest = sorted((mpmath.re(v) for v in values), reverse=True)
        d = [mpmath.sqrt(max(v, 0) / l0) for v in rest]
        d[2] *= mpmath.sign(mpmath.det(lam))
        return [float(v) for v in d]


def forward_error(result, rho: np.ndarray) -> float:
    """max_i |d_i - d_i(reference)| of a TypeI `CanonicalResult` of ``rho``."""
    got = np.diag(result.canonical_lambda)[1:]
    return float(np.abs(got - np.array(type1_diagonal(rho))).max())
