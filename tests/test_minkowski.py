from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzsvd.errors import TriadNotGOrthogonal
from lorentzsvd.minkowski import (
    DEFAULT_TOL,
    G_METRIC,
    LORENTZ_TOL_FLOOR,
    complete_tetrad_from_neutral_triad,
    g_inner,
    is_orthochronous_proper_lorentz,
    lorentz_defect,
    minkowski_norm,
    validate_g_orthogonal_tetrad,
)

from conftest import boost_z, random_lorentz, random_rotation, rng

E = np.eye(4)


def classify_four_vector(x: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Causal class of a four-vector, as the sign of x^T G x: +1 timelike,
    0 lightlike, -1 spacelike.

    The neutral band is |x^T G x| <= tol * max(1, ||x||^2), so the
    classification is scale-aware but never sharper than `tol` in
    absolute terms for small vectors.
    """
    x = np.asarray(x, dtype=float)
    n = minkowski_norm(x)
    scale = max(1.0, float(x @ x))
    if abs(n) <= tol * scale:
        return 0
    return 1 if n > 0 else -1


def test_metric():
    assert np.array_equal(G_METRIC, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_minkowski_norm_values():
    assert minkowski_norm(np.array([2.0, 1.0, 0.0, 0.0])) == 3.0
    assert minkowski_norm(np.array([1.0, 0.0, 0.0, 1.0])) == 0.0
    assert g_inner(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 0.0, 0.0, 1.0])) == -3.0


def test_classification():
    assert classify_four_vector(E[0]) == 1
    assert classify_four_vector(E[1]) == -1
    assert classify_four_vector(np.array([1.0, 0.0, 0.0, 1.0])) == 0
    # neutral band is tolerance-aware
    assert classify_four_vector(np.array([1.0, 0.0, 0.0, 1.0 + 1e-13])) == 0
    assert classify_four_vector(np.array([1.0, 0.0, 0.0, 1.0 + 1e-4])) == -1


def test_oplg_predicate():
    assert is_orthochronous_proper_lorentz(np.eye(4))
    assert is_orthochronous_proper_lorentz(boost_z(0.8))
    assert is_orthochronous_proper_lorentz(random_lorentz(rng(3)))
    assert not is_orthochronous_proper_lorentz(np.diag([1.0, 1.0, 1.0, -1.0]))  # improper
    assert not is_orthochronous_proper_lorentz(-np.eye(4))  # past-pointing
    assert not is_orthochronous_proper_lorentz(2.0 * np.eye(4))
    assert not is_orthochronous_proper_lorentz(np.eye(3))


def _determinant_rule(L: np.ndarray, tol: float) -> bool:
    """The group check by the determinant: `lorentz_defect` within tol,
    |det L - 1| <= tol max(1, max |L|^2) and L[0,0] > 0."""
    scale = max(1.0, float(np.abs(L).max()) ** 2)
    return bool(lorentz_defect(L) <= tol and abs(np.linalg.det(L) - 1.0) <= tol * scale
                and L[0, 0] > 0.0)


def _group_elements() -> list[np.ndarray]:
    """Rotation x boost x rotation products at rapidity 0 to 3.5."""
    gen = rng(11)
    return [random_rotation(gen) @ boost_z(eta) @ random_rotation(gen)
            for eta in np.linspace(0.0, 3.5, 15) for _ in range(4)]


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LORENTZ_TOL_FLOOR])
def test_group_check_agrees_with_the_determinant_rule(tol):
    """The spatial-determinant check gives the determinant rule's verdict
    on exact group products, on their spatial reflections (det -1) and
    time reversals (L[0,0] < 0), and on products scaled by 1 +- delta
    well inside and well outside the tolerance.  Scaling by 1 + delta
    moves the defect by about 2 delta / max|L|^2 and det L by 4 delta
    times that scale, so the two rules part only for delta between a
    quarter and a half of tol max|L|^2; the cases stay clear of it."""
    reflect, reverse = np.diag([1.0, 1.0, -1.0, 1.0]), np.diag([-1.0, 1.0, 1.0, 1.0])
    for L in _group_elements():
        scale = float(np.abs(L).max()) ** 2
        cases = {"group": (L, True), "reflected": (reflect @ L, False),
                 "reversed": (reverse @ L, False), "both": (reverse @ reflect @ L, False)}
        for factor, verdict in ((0.2, True), (5.0, False)):
            delta = factor * 0.5 * tol * scale
            cases[f"{factor}+"] = ((1.0 + delta) * L, verdict)
            cases[f"{factor}-"] = ((1.0 - delta) * L, verdict)
        for name, (M, verdict) in cases.items():
            assert is_orthochronous_proper_lorentz(M, tol) is verdict, name
            assert _determinant_rule(M, tol) is verdict, name


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_group_check_refuses_entries_that_are_not_finite(value):
    """A NaN or infinite entry in any of the 16 slots fails the check,
    without a RuntimeWarning: Python's max drops a NaN that is not its
    first argument, so every slot is tried.  The determinant rule passed
    the identity with a NaN at (0, 1) or an inf at (2, 3)."""
    base = _group_elements()[17]
    for i in range(4):
        for j in range(4):
            for L in (np.eye(4), base):
                M = L.copy()
                M[i, j] = value
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert is_orthochronous_proper_lorentz(M) is False, (i, j)
    # entries whose squares overflow: refused, where max|L|^2 raised OverflowError
    assert is_orthochronous_proper_lorentz(1e200 * np.eye(4)) is False


def test_completion_reference_example():
    # the pivot is y3 = G y0 = (1, 0, 0, -1), so tau = kappa = 1/4, and the
    # new legs y3 + y0/4 and y3 - y0/4 pin both values
    y0 = np.array([1.0, 0.0, 0.0, 1.0])
    tet = complete_tetrad_from_neutral_triad(y0, E[1], E[2])
    assert tet.shape == (4, 4)
    np.testing.assert_allclose(tet[0], [1.25, 0.0, 0.0, -0.75], atol=1e-15)
    np.testing.assert_allclose(tet[3], [0.75, 0.0, 0.0, -1.25], atol=1e-15)
    np.testing.assert_array_equal(tet[1:3], [E[1], E[2]])
    assert validate_g_orthogonal_tetrad(tet) < 1e-12


def test_completion_rejects_bad_triads():
    y0 = np.array([1.0, 0.0, 0.0, 1.0])
    with pytest.raises(TriadNotGOrthogonal):
        complete_tetrad_from_neutral_triad(E[0], E[1], E[2])  # y0 not neutral
    with pytest.raises(TriadNotGOrthogonal):
        complete_tetrad_from_neutral_triad(y0, 2.0 * E[1], E[2])  # y1 not unit
    with pytest.raises(TriadNotGOrthogonal):
        complete_tetrad_from_neutral_triad(y0, np.array([0.0, 0.7, 0.0, 0.0]), E[2])


def _random_neutral_triad(gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    L = random_lorentz(gen, max_rapidity=1.5)
    scale = gen.uniform(0.2, 3.0)
    return scale * L @ np.array([1.0, 0.0, 0.0, 1.0]), L @ E[1], L @ E[2]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_completion_property(seed):
    y0, y1, y2 = _random_neutral_triad(rng(seed))
    tet = complete_tetrad_from_neutral_triad(y0, y1, y2)
    assert validate_g_orthogonal_tetrad(tet, tol=1e-8) < 1e-8
    assert tet[0, 0] > 0.0
    # the two new legs live in the plane G-orthogonal to y1, y2
    for v in (tet[0], tet[3]):
        assert abs(g_inner(v, y1)) < 1e-9
        assert abs(g_inner(v, y2)) < 1e-9


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_lorentz_invariance_of_class(seed):
    gen = rng(seed)
    L = random_lorentz(gen, max_rapidity=1.2)
    x = gen.normal(size=4)
    assert abs(minkowski_norm(L @ x) - minkowski_norm(x)) < 1e-9 * max(1.0, x @ x)
    cls = classify_four_vector(x, tol=1e-6)
    if cls != 0:  # near the cone the class may legitimately flip
        assert classify_four_vector(L @ x, tol=1e-4) in (cls, 0)
