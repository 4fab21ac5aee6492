"""The spectrum route (eig, one merge radius for conjugate pairs and real
roots) and the characteristic quartic against array-based and 50-digit
references."""

from __future__ import annotations

from itertools import combinations

import mpmath
import numpy as np
import pytest

from lorentzsvd._quartic import charpoly_g, polyval, quartic_real_roots
from lorentzsvd.errors import NumericalFailure
from lorentzsvd.geigen import CLUSTER_RADIUS_REL, omega_matrices
from lorentzsvd.minkowski import G_METRIC
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


def mp_eigenvalues(omega: np.ndarray) -> list[complex]:
    """Eigenvalues of the float matrix G @ omega at 50 digits, by real part."""
    with mpmath.workdps(50):
        z = mpmath.eig(mpmath.matrix((G_METRIC @ omega).tolist()), left=False, right=False)
        return sorted((complex(v) for v in z), key=lambda v: (v.real, v.imag))


def radius(omega: np.ndarray) -> float:
    return CLUSTER_RADIUS_REL * max(1.0, abs(float(np.trace(G_METRIC @ omega))))


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


#: a boost of rapidity 0.4 along z: congruence by it keeps the spectrum of
#: G @ omega but takes a diagonal form off the diagonal, so rounding
#: splits its repeated roots
_BOOST = np.array([
    [np.cosh(0.4), 0.0, 0.0, np.sinh(0.4)],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [np.sinh(0.4), 0.0, 0.0, np.cosh(0.4)],
])


@pytest.mark.parametrize(
    "roots",
    [
        [0.05, 0.2, 0.5, 0.9],
        [0.1, 0.3, 0.6, 0.6],
        [0.2, 0.2, 0.7, 0.7],
        [0.1, 0.4, 0.4, 0.4],
        [0.3, 0.3, 0.3, 0.3],
    ],
    ids=["1-1-1-1", "2-1-1", "2-2", "3-1", "4"],
)
def test_quartic_root_patterns(roots):
    """G @ diag(r0, -r1, -r2, -r3) has eigenvalues r0..r3; the diagonal
    form is boosted so that its repeated roots must be merged back."""
    omega = _BOOST.T @ (G_METRIC @ np.diag(roots)) @ _BOOST
    q = quartic_real_roots(omega, radius(omega))
    distinct = sorted(set(roots))
    assert q.multiplicities.tolist() == [roots.count(r) for r in distinct]
    np.testing.assert_allclose(q.values, distinct, rtol=0, atol=1e-13)
    assert q.imag_residue == 0.0


#: Omega_B forms of Sigma(b, c, d) states mixed with eps * I/4, whose
#: spatial block keeps an exact double eigenvalue -omega[1][1].  Rounding
#: splits that root; the forms were found by search as cases where it did.
SPLIT_DOUBLE_ROOTS = {
    # Sigma(0.2, -0.4, 0.5), eps = 5e-9
    "complex-pair-closure": [
        [0.8400000015999999, 0.0, 0.0, 0.35999999739999994],
        [0.0, -0.24999999750000002, 0.0, 0.0],
        [0.0, 0.0, -0.24999999750000002, 0.0],
        [0.35999999739999994, 0.0, 0.0, -0.11999999880000001],
    ],
    # hard-inputs benchmark corpus, seed 97, case 455
    "real-pair-merge": [
        [0.6949368817173682, 0.0, 0.0, 0.1966649121435959],
        [0.0, -0.12696135259236377, 0.0, 0.0],
        [0.0, 0.0, -0.12696135259236377, 0.0],
        [0.1966649121435959, 0.0, 0.0, -0.30160641546192357],
    ],
    # hard-inputs benchmark corpus, seed 97, case 65
    "polish-merge": [
        [0.7673539323133866, 0.0, 0.0, 0.1288633235653023],
        [0.0, -0.3462592626207758, 0.0, 0.0],
        [0.0, 0.0, -0.3462592626207758, 0.0],
        [0.1288633235653023, 0.0, 0.0, -0.5096264237165283],
    ],
}


@pytest.mark.parametrize("route", list(SPLIT_DOUBLE_ROOTS))
def test_quartic_recovers_a_split_double_root(route):
    omega = np.array(SPLIT_DOUBLE_ROOTS[route])
    q = quartic_real_roots(omega, radius(omega))
    assert q.multiplicities.tolist() == [2, 1, 1]
    assert abs(q.values[0] + omega[1, 1]) <= 1e-12


def pair_form(h: float) -> np.ndarray:
    """A form whose (0, 3) block puts the hyperbolic pair 0.5 +- sqrt(-h)
    into G @ omega, next to the spatial roots 0.9 and 0.1:
    det(omega - x G) = -((x - 0.5)^2 + h)(x - 0.9)(x - 0.1)."""
    v, p = 0.5, 0.2
    q = np.sqrt(p * p + h)
    return np.array([
        [v + p, 0.0, 0.0, q],
        [0.0, -0.9, 0.0, 0.0],
        [0.0, 0.0, -0.1, 0.0],
        [q, 0.0, 0.0, p - v],
    ])


@pytest.mark.parametrize("factor, closes", [(0.5, True), (2.0, False)], ids=["half", "twice"])
def test_remainder_closure_bound(factor, closes):
    """A conjugate pair 0.5 +- i*im whose members lie `factor` times the
    merge radius apart (2 im): a double root at 0.5 within it, a refused
    pair beyond -- the radius that merges real roots."""
    v = 0.5
    im = 0.5 * factor * radius(pair_form(0.0))  # Tr G omega = 2 for every h
    omega = pair_form(im * im)
    assert sum(z.imag > 0.0 for z in np.linalg.eigvals(G_METRIC @ omega)) == 1
    if closes:
        q = quartic_real_roots(omega, radius(omega))
        assert q.multiplicities.tolist() == [1, 2, 1]
        assert abs(q.values[1] - v) <= 1e-12
        # eig's im carries an error of about eps * |omega| / im, here 3e-3 of it
        assert q.imag_residue == pytest.approx(im, rel=1e-2)
    else:
        with pytest.raises(NumericalFailure, match="complex eigenvalue pair"):
            quartic_real_roots(omega, radius(omega))


def test_quartic_refuses_a_complex_pair():
    omega = pair_form(1e-6)
    with pytest.raises(NumericalFailure, match="complex eigenvalue pair"):
        quartic_real_roots(omega, radius(omega))


def test_simple_roots_match_mpmath_eig():
    """Full-rank Ginibre states have four simple roots, each within 1e-14
    of the 50-digit eigenvalue of the same float G @ omega."""
    for omega in [omega_matrices(lambda_from_rho(random_state(r, seed=s))).omega_a
                  for r in (3, 4) for s in range(20)]:
        q = quartic_real_roots(omega, radius(omega))
        assert q.multiplicities.tolist() == [1, 1, 1, 1]
        exact = mp_eigenvalues(omega)
        assert max(abs(z.imag) for z in exact) <= 1e-40
        assert np.abs(q.values - [z.real for z in exact]).max() <= 1e-14

