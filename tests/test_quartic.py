"""The characteristic quartic against array-based references."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from lorentzsvd._quartic import charpoly_g, polyval
from lorentzsvd.geigen import omega_matrices
from lorentzsvd.qstate import lambda_from_rho, random_state

from conftest import rng


def charpoly_reference(omega: np.ndarray) -> np.ndarray:
    """det(omega - x*G) as signed principal minors, each from np.linalg.det."""
    minus_g = np.array([-1.0, 1.0, 1.0, 1.0])
    c = np.zeros(5)
    for k in range(5):
        for S in combinations(range(4), k):
            keep = [j for j in range(4) if j not in S]
            minor = np.linalg.det(omega[np.ix_(keep, keep)]) if keep else 1.0
            c[k] += np.prod(minus_g[list(S)]) * minor
    return c


def test_charpoly_matches_determinant_reference():
    gen = rng(31)
    forms = [omega_matrices(lambda_from_rho(random_state(r, seed=s))).omega_a
             for r in (1, 2, 3, 4) for s in range(10)]
    for _ in range(40):
        a = gen.normal(size=(4, 4))
        forms.append(a + a.T)
    for omega in forms:
        ref = charpoly_reference(omega)
        np.testing.assert_allclose(charpoly_g(omega), ref, rtol=0, atol=1e-13 * np.abs(ref).max())


def test_polyval_is_bitwise_numpy_horner():
    gen = rng(33)
    for n in (1, 2, 3, 5):
        for _ in range(200):
            c = gen.normal(size=n) * 10.0 ** gen.integers(-8, 8, size=n)
            x = float(gen.normal() * 10.0 ** gen.integers(-4, 4))
            assert polyval(c.tolist(), x) == np.polynomial.polynomial.polyval(x, c)
