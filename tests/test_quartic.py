"""The characteristic quartic against array-based references."""

from __future__ import annotations

from itertools import combinations

import mpmath
import numpy as np
import pytest

from lorentzsvd._quartic import (
    _STURM_TRUNC_REL,
    _isolate,
    _refine,
    cauchy_bound,
    charpoly_g,
    polyval,
    quartic_real_roots,
    sturm_chain,
)
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
    c = np.polynomial.polynomial.polyfromroots(roots)
    q = quartic_real_roots(c, cluster_radius=CLUSTER_RADIUS_REL)
    distinct = sorted(set(roots))
    assert q.multiplicities.tolist() == [roots.count(r) for r in distinct]
    np.testing.assert_allclose(q.values, distinct, rtol=0, atol=1e-6)
    assert q.imag_residue == 0.0


#: Omega_B forms of Sigma(b, c, d) states mixed with eps * I/4, whose
#: spatial block keeps an exact double eigenvalue -omega[1][1].  Rounding
#: in the quartic's coefficients splits it, and each form takes another
#: route back to one root of multiplicity 2; each was found by search.
SPLIT_DOUBLE_ROOTS = {
    # a complex pair the gcd tower misses, closed by the remainder
    # (Sigma(0.2, -0.4, 0.5), eps = 5e-9; the pair's imaginary part is 7.9e-7)
    "complex-pair-closure": [
        [0.8400000015999999, 0.0, 0.0, 0.35999999739999994],
        [0.0, -0.24999999750000002, 0.0, 0.0],
        [0.0, 0.0, -0.24999999750000002, 0.0],
        [0.35999999739999994, 0.0, 0.0, -0.11999999880000001],
    ],
    # a pair left by the remainder, which came out real within the cluster
    # radius when roots took bisection; under safeguarded Newton it is a
    # complex pair (imaginary part 1.1e-7) that the double-root rule closes
    # (hard-inputs benchmark corpus, seed 97, case 455)
    "real-pair-merge": [
        [0.6949368817173682, 0.0, 0.0, 0.1966649121435959],
        [0.0, -0.12696135259236377, 0.0, 0.0],
        [0.0, 0.0, -0.12696135259236377, 0.0],
        [0.1966649121435959, 0.0, 0.0, -0.30160641546192357],
    ],
    # two isolated roots that Newton polish pulls within the cluster radius
    # (hard-inputs benchmark corpus, seed 97, case 65)
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
    radius = CLUSTER_RADIUS_REL * max(1.0, abs(float(np.trace(G_METRIC @ omega))))
    q = quartic_real_roots(charpoly_g(omega), radius)
    assert q.multiplicities.tolist() == [2, 1, 1]
    assert abs(q.values[0] + omega[1, 1]) <= radius
    # both closures record the imaginary part of the pair they closed
    assert (q.imag_residue > 0.0) == (route != "polish-merge")
    if route == "complex-pair-closure":
        assert abs(q.values[0] + omega[1, 1]) <= 1e-11


@pytest.mark.parametrize("factor, closes", [(0.5, True), (2.0, False)], ids=["half", "twice"])
def test_remainder_closure_bound(factor, closes):
    """((x - v)^2 + h)(x - 0.9)(x - 0.1) with |c(v)| at `factor` times the
    closure bound: a double root at v within it, a refused pair beyond."""
    P = np.polynomial.polynomial
    v = 0.5
    pair, outer = P.polyfromroots([v, v]), P.polyfromroots([0.9, 0.1])
    exact = P.polymul(pair, outer)
    s = float(np.abs(exact).max())
    # the bound on |c(v)| for c scaled by s, where c(v) = h * outer(v) / s
    bound = _STURM_TRUNC_REL * float(np.abs(exact / s).sum())  # max(1, |v|) = 1
    h = factor * bound * s / abs(P.polyval(v, outer))
    c = P.polymul(pair + [h, 0.0, 0.0], outer)
    assert not sturm_chain((c / np.abs(c).max()).tolist()).truncated  # no gcd finds the pair
    if closes:
        q = quartic_real_roots(c, cluster_radius=CLUSTER_RADIUS_REL)
        assert q.multiplicities.tolist() == [1, 2, 1]
        assert abs(q.values[1] - v) <= 1e-12
        assert q.imag_residue == pytest.approx(np.sqrt(h), rel=1e-6)
    else:
        with pytest.raises(NumericalFailure, match="complex eigenvalue pair"):
            quartic_real_roots(c, cluster_radius=CLUSTER_RADIUS_REL)


def test_quartic_refuses_a_complex_pair():
    pair = np.polynomial.polynomial.polyfromroots([0.5, 0.5]) + [1e-6, 0.0, 0.0]
    c = np.polynomial.polynomial.polymul(pair, np.polynomial.polynomial.polyfromroots([0.9, 0.1]))
    with pytest.raises(NumericalFailure, match="complex eigenvalue pair"):
        quartic_real_roots(c, cluster_radius=CLUSTER_RADIUS_REL)


def _random_state_forms(ranks, seeds):
    return [omega_matrices(lambda_from_rho(random_state(r, seed=s))).omega_a
            for r in ranks for s in seeds]


def test_refined_simple_roots_sit_in_the_rounding_band():
    """Each refined root is the mpmath root of the same float coefficients
    to 4 ulps, beyond the rounding band of Horner's rule at that root
    (gamma_2n * sum |c_k x^k| / |p'(x)|), which plain evaluation cannot
    resolve."""
    mpmath.mp.dps = 50
    eps = float(np.finfo(float).eps)
    checked = 0
    for omega in _random_state_forms((3, 4), range(20)):
        c = charpoly_g(omega).tolist()
        c = [v / max(map(abs, c)) for v in c]
        sd = sturm_chain(c)
        assert not sd.truncated  # full-rank Ginibre states have simple roots
        exact = [z for z in mpmath.polyroots(c[::-1], maxsteps=200, extraprec=200)
                 if mpmath.im(z) == 0]
        bound = cauchy_bound(c)
        for a, b, n in _isolate(sd, -bound, bound, 0.0):
            assert n == 1
            x = _refine(c, a, b)
            root = min(exact, key=lambda z: abs(z - x))
            band = 8 * (eps / 2) * float(sum(abs(ck) * abs(root) ** k for k, ck in enumerate(c)))
            slope = abs(float(sum(k * ck * root ** (k - 1) for k, ck in enumerate(c) if k)))
            assert abs(x - root) <= 4 * eps * max(1.0, abs(x)) + band / slope
            checked += 1
    assert checked == 160


def test_root_refinement_evaluates_half_as_often(monkeypatch):
    """Safeguarded Newton needs at most half the 180 polynomial evaluations
    per solve that bisection to two ulps took on random states."""
    import lorentzsvd._quartic as quartic

    calls = 0

    def counted(c, x):
        nonlocal calls
        calls += 1
        return polyval(c, x)

    monkeypatch.setattr(quartic, "polyval", counted)
    forms = _random_state_forms((1, 2, 3, 4), range(10))
    for omega in forms:
        radius = CLUSTER_RADIUS_REL * max(1.0, abs(float(np.trace(G_METRIC @ omega))))
        quartic_real_roots(charpoly_g(omega), radius)
    assert calls / len(forms) <= 90
