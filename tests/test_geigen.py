"""Eigenanalysis of the correlation quadratic forms.

The production route (LAPACK eigenvalues + null spaces) and the
secular-function oracle are exercised against each other here, along
with frozen reference spectra for the states whose answers are known in
closed form.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzsvd._linalg import gram_eigenbasis
from lorentzsvd.errors import NumericalFailure
from lorentzsvd.geigen import (
    CanonicalFamily,
    _cluster_vectors,
    _gram_top,
    _signed_unit,
    g_eigensystem,
    omega_matrices,
)
from lorentzsvd.minkowski import G_METRIC
from lorentzsvd.qstate import (
    apply_slocc,
    lambda_from_rho,
    random_state,
    rho_from_lambda,
    sl2c_to_lorentz,
)

from conftest import random_sl2c, rng
from secular_oracle import (
    PoleEvaluation,
    h_derivative,
    h_derivative_norm_check,
    h_function,
    oracle_eigenvalues,
    spectral_oracle,
)

WERNER_HALF = np.diag([1.0, -0.5, -0.5, -0.5])

# correlation matrix of the pure product state |00><00|
PURE_PRODUCT = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)


def type2_lambda(r0: float, r1: float) -> np.ndarray:
    """Non-diagonalizable canonical correlation matrix (A-side pattern)."""
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, r1, 0.0, 0.0],
            [0.0, 0.0, -r1, 0.0],
            [1.0 - r0, 0.0, 0.0, r0],
        ]
    )


def sigma_matrix(b, c, d):
    return np.array(
        [
            [1.0, 0.0, 0.0, b],
            [0.0, d, 0.0, 0.0],
            [0.0, 0.0, -d, 0.0],
            [c, 0.0, 0.0, 1.0 + c - b],
        ]
    )


def lorentz_invariants(lam: np.ndarray) -> np.ndarray:
    """Power traces Tr[(G Omega_A)^n], n = 1..4.

    These four numbers are unchanged by normalized filtering operations
    on either side, and coincide with the same traces built from
    Omega_B.
    """
    k = G_METRIC @ omega_matrices(lam)
    out = np.empty(4)
    p = np.eye(4)
    for n in range(4):
        p = p @ k
        out[n] = np.trace(p)
    return out


# ---------------------------------------------------------------------------
# the quadratic forms and their power traces


def test_omega_pair_reference_values():
    lam = np.diag([1.0, 0.0, 0.0, 0.0])
    omega_a, omega_b = omega_matrices(lam), omega_matrices(lam.T)
    np.testing.assert_allclose(omega_a, np.diag([1.0, 0, 0, 0]), atol=1e-15)
    np.testing.assert_allclose(omega_b, np.diag([1.0, 0, 0, 0]), atol=1e-15)
    # the raw products: symmetric as they come, so the solve removes nothing
    for form in (omega_a, omega_b):
        assert np.array_equal(form, form.T)

    np.testing.assert_allclose(omega_matrices(WERNER_HALF), np.diag([1.0, -0.25, -0.25, -0.25]),
                               atol=1e-15)

    # (b, c, d) = (0.5, 0.1, 0.3): entries follow from the row products
    ob = omega_matrices(sigma_matrix(0.5, 0.1, 0.3).T)
    assert ob[0, 0] == pytest.approx(0.99, abs=1e-15)
    assert ob[0, 3] == pytest.approx(0.44, abs=1e-15)
    assert ob[3, 3] == pytest.approx(-0.11, abs=1e-15)
    assert ob[1, 1] == pytest.approx(-0.09, abs=1e-15)
    assert ob[2, 2] == pytest.approx(-0.09, abs=1e-15)
    np.testing.assert_allclose(ob, ob.T, atol=1e-15)


def test_omega_rejects_wrong_shape():
    with pytest.raises(ValueError):
        omega_matrices(np.eye(3))


def test_invariants_frozen_values():
    np.testing.assert_allclose(
        lorentz_invariants(WERNER_HALF),
        [1.75, 1.1875, 1.046875, 1.01171875],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        lorentz_invariants(np.diag([1.0, 0.0, 0.0, 0.0])), [1.0, 1.0, 1.0, 1.0], atol=1e-15
    )
    # defective spectrum (0.64, 0.64, 0.36, 0.36): power sums count algebraic
    # multiplicity even though only one eigenvector exists at the top
    np.testing.assert_allclose(
        lorentz_invariants(type2_lambda(0.64, 0.6)),
        [2.0, 1.0784, 0.6176, 0.36913664],
        atol=1e-14,
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_invariants_same_from_either_side(seed):
    lam = lambda_from_rho(random_state(4, seed=seed))
    inv_a = lorentz_invariants(lam)
    k = G_METRIC @ omega_matrices(lam.T)
    p = np.eye(4)
    inv_b = []
    for _ in range(4):
        p = p @ k
        inv_b.append(np.trace(p))
    np.testing.assert_allclose(inv_a, inv_b, rtol=1e-10, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_invariants_scale_adjusted_under_filtering(seed):
    gen = rng(seed)
    rho = random_state(4, seed=seed)
    A, B = random_sl2c(gen), random_sl2c(gen)
    lam = lambda_from_rho(rho)
    lam2 = lambda_from_rho(apply_slocc(rho, A, B))
    # the filter rescales the correlation matrix by 1/N, N = (L_A Lam L_B^T)_00,
    # so the n-th power trace picks up N^(-2n)
    N = (sl2c_to_lorentz(A) @ lam @ sl2c_to_lorentz(B).T)[0, 0]
    adjusted = lorentz_invariants(lam2) * N ** (2.0 * np.arange(1, 5))
    np.testing.assert_allclose(adjusted, lorentz_invariants(lam), rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------------------
# production eigensystems on reference states


def _row_residuals(sys) -> np.ndarray:
    """||G Omega x - lambda x|| of the top row x at the top cluster's centre,
    computed here: the solve records no residual."""
    k_op = G_METRIC @ sys.omega
    x, center = sys.top_row, sys.top_cluster[0]
    return np.array([np.linalg.norm(k_op @ x - center * x)])


def test_eigensystem_werner():
    sys = g_eigensystem(omega_matrices(WERNER_HALF))
    np.testing.assert_allclose(sys.eigenvalues, [1.0, 0.25, 0.25, 0.25], atol=1e-12)
    assert sys.condition_report.gram_top.size == 0
    # the solve stops at the timelike top cluster, with its one row
    assert sys.top_row.shape == (4,)
    np.testing.assert_allclose(np.abs(sys.top_row), [1, 0, 0, 0], atol=1e-12)
    assert sys.top_cluster == pytest.approx((1.0, 1, 1))
    assert sys.top_cluster[1] - sys.top_cluster[2] == 0
    assert _row_residuals(sys).max() < 1e-12


def test_eigensystem_defective_top():
    """The solve stops after the top cluster for every family: a TypeII top
    is a double root with one lightlike row, and the spacelike pair below
    it keeps its eigenvalues but no rows."""
    sys = g_eigensystem(omega_matrices(type2_lambda(0.64, 0.6)))
    np.testing.assert_allclose(sys.eigenvalues, [0.64, 0.64, 0.36, 0.36], atol=1e-10)
    assert sys.condition_report.gram_top.size == 1
    # the only top eigenvector is the lightlike direction (1,0,0,-1)/sqrt(2)
    np.testing.assert_allclose(
        sys.top_row, np.array([1.0, 0, 0, -1.0]) / np.sqrt(2), atol=1e-9
    )
    assert sys.top_row.shape == (4,)
    assert sys.top_cluster[1] - sys.top_cluster[2] == 1
    c0, m0, d0 = sys.top_cluster
    assert (m0, d0) == (2, 1) and c0 == pytest.approx(0.64, abs=1e-10)
    assert _row_residuals(sys).max() < 1e-8


def test_type2_rows_follow_the_geometric_dimensions():
    """A TypeII top cluster on either side of a filtered Sigma state is a
    double root with one geometric eigenvector, and the eigensystem's one
    row is that null eigenvector, future-pointing."""
    gen = rng(17)
    rho = rho_from_lambda(sigma_matrix(0.5, 0.1, 0.3))
    for _ in range(5):
        lam = lambda_from_rho(apply_slocc(rho, random_sl2c(gen), random_sl2c(gen)))
        for omega in (omega_matrices(lam), omega_matrices(lam.T)):
            sys = g_eigensystem(omega)
            assert sys.family is CanonicalFamily.TYPE_II
            _, mult, dim = sys.top_cluster
            assert (mult, dim) == (2, 1) and sys.top_cluster[1] - sys.top_cluster[2] == 1
            assert sys.top_row.shape == (4,) and sys.condition_report.gram_top.size == 1
            assert sys.top_row[0] > 0.0
            assert len(sys.eigenvalues) == 4
            assert _row_residuals(sys).max() < 1e-7


def test_eigensystem_degenerate_diagonal():
    # Lambda = diag(1,0,0,1): eigenvalues (1,1,0,0), the top pair holding one
    # timelike and one spacelike direction, so the state is diagonalizable
    sys = g_eigensystem(omega_matrices(np.diag([1.0, 0.0, 0.0, 1.0])))
    np.testing.assert_allclose(sys.eigenvalues, [1.0, 1.0, 0.0, 0.0], atol=1e-12)
    assert sys.condition_report.gram_top.size == 0
    assert sys.top_cluster[1:] == (2, 2)
    # the timelike row of the top plane span(e0, e3) is its Gram top, e0
    np.testing.assert_allclose(sys.top_row, [1, 0, 0, 0], atol=1e-12)
    assert _row_residuals(sys).max() < 1e-12
    assert sys.family is CanonicalFamily.TYPE_I


def test_one_column_cluster_is_its_own_gram_eigenbasis():
    """A one-dimensional cluster skips the Gram eigensolve and returns the
    same bytes it would produce, signed zeros included: U = [[1.0]] and
    basis @ U turns -0.0 into +0.0."""
    for column in ([0.6, -0.0, 0.8, -0.0], [-0.0, 1.0, -0.0, 0.0], [-3e-200, 0.0, -0.0, 2.0]):
        basis = np.array(column)[:, None]
        fast = _gram_top(basis)
        assert fast.tobytes() == gram_eigenbasis(basis)[1][:, 0].tobytes()
        assert not np.signbit(fast[fast == 0.0]).any()


def test_symmetry_defect_is_recorded_by_the_solve():
    """The solve is the one place that symmetrizes a form: it solves the
    symmetric part and records the asymmetry it removed."""
    omega = omega_matrices(WERNER_HALF)
    assert g_eigensystem(omega).condition_report.symmetry_defect == 0.0
    delta = 2.0**-30
    skewed = omega.copy()
    skewed[0, 1] += delta
    sys = g_eigensystem(skewed)
    assert sys.condition_report.symmetry_defect == delta
    assert sys.omega[0, 1] == sys.omega[1, 0] == 0.5 * delta


def test_timelike_top_of_a_plane_is_its_gram_top_eigenvector():
    """A rank-2 state's top eigenspace is a (+, -) plane.  The solve's
    closed form on Python floats gives the same row as the plane's Gram
    eigenbasis, G-normalized and sign-fixed."""
    for seed in range(50):
        omega = omega_matrices(lambda_from_rho(random_state(2, seed=seed)))
        sys = g_eigensystem(omega)
        assert sys.top_cluster[1:] == (2, 2) and sys.top_row.shape == (4,)
        assert sys.family is CanonicalFamily.TYPE_I and len(sys.condition_report.gram_top) == 0
        k_op = G_METRIC @ omega
        center = sys.top_cluster[0]
        basis = _cluster_vectors(k_op.tolist(), center, 2, center - sys.eigenvalues[-1],
                                 abs(np.trace(k_op)))
        gram, w = gram_eigenbasis(basis)
        top = _signed_unit(w[:, 0] / np.sqrt(gram[0]))
        np.testing.assert_allclose(sys.top_row, top, rtol=0, atol=1e-13)
        assert _row_residuals(sys).max() < 1e-12 * max(1.0, center)


def test_lightlike_cluster_keeps_its_gram_eigenbasis():
    """The arrow form with r1^2 = r0 has one 4-fold eigenvalue whose 3-dim
    eigenspace holds the null top vector and the spacelike pair: its Gram
    matrix has a zero eigenvalue, so the G-normalization that would
    divide by it is skipped.  The one row is the Gram top eigenvector,
    the null direction (1, 0, 0, -1)/sqrt(2), Euclidean-unit."""
    lam = type2_lambda(0.25, 0.5)
    sys = g_eigensystem(omega_matrices(lam))
    assert sys.top_cluster[1:] == (4, 3)
    assert sys.top_row.shape == (4,)
    np.testing.assert_allclose(
        sys.top_row, np.array([1.0, 0, 0, -1.0]) / np.sqrt(2), rtol=0, atol=1e-12
    )
    assert len(sys.condition_report.gram_top) == 1
    assert abs(sys.condition_report.gram_top[0]) < 1e-12
    assert sys.family is CanonicalFamily.TYPE_II
    assert _row_residuals(sys).max() < 1e-12


def test_degenerate_product_tops_have_one_row():
    """A pure A marginal next to a mixed B marginal: Omega_A is nilpotent
    under G, its 4-fold zero cluster a 3-dim span whose Gram top is the
    null direction of the pure marginal, and Omega_B is the zero form,
    whose one row is e0."""
    lam = np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.3])
    sys_a, sys_b = g_eigensystem(omega_matrices(lam)), g_eigensystem(omega_matrices(lam.T))
    assert sys_a.top_cluster[1:] == (4, 3)
    assert sys_a.condition_report.gram_top.size == 1 and sys_a.top_row.shape == (4,)
    np.testing.assert_allclose(
        sys_a.top_row, np.array([1.0, 0, 0, -1.0]) / np.sqrt(2), rtol=0, atol=1e-12
    )
    assert sys_b.top_cluster == (0.0, 4, 4)
    assert sys_b.top_row.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert len(sys_b.condition_report.gram_top) == 0
    for sys in (sys_a, sys_b):
        assert sys.family is CanonicalFamily.DEGENERATE_PRODUCT


def test_over_wide_cut_is_refused():
    """A cut that takes a neighbouring direction into a cluster's null
    space is refused, not truncated to an arbitrary sub-span: here the
    cluster at 1 is a double root with a neighbour at 1 + 1e-3, and a
    scale of 1e6 puts the cut at 0.1."""
    k_rows = np.diag([1.0, 1.0, 1.0 + 1e-3, 5.0]).tolist()
    with pytest.raises(NumericalFailure, match="neighbouring direction"):
        _cluster_vectors(k_rows, 1.0, 2, np.inf, 1e6)
    assert _cluster_vectors(k_rows, 1.0, 2, np.inf, 1.0).shape == (4, 2)


def test_cut_that_finds_no_direction_keeps_the_smallest_singular_direction():
    """A centre 0.1 off the nearest eigenvalue leaves every singular value
    of G Omega - c I far above the cut at 1e-7: the basis is the smallest
    singular direction, e0 here, and no cut is widened or refused."""
    k_op = np.diag([1.0, 2.0, 3.0, 5.0])
    basis = _cluster_vectors(k_op, 0.9, 1, np.inf, 1.0)
    assert basis.shape == (4, 1)
    np.testing.assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_eigensystem_zero_form():
    omega = omega_matrices(PURE_PRODUCT)
    np.testing.assert_allclose(omega, 0.0, atol=1e-15)
    sys = g_eigensystem(omega)
    np.testing.assert_allclose(sys.eigenvalues, 0.0, atol=0)
    assert sys.top_cluster[1] == 4
    assert sys.family is CanonicalFamily.DEGENERATE_PRODUCT


def test_pure_product_comes_from_an_actual_state():
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    np.testing.assert_allclose(lambda_from_rho(rho), PURE_PRODUCT, atol=1e-15)


def test_classification_reference_families():
    cases = [
        (WERNER_HALF, CanonicalFamily.TYPE_I),
        (np.diag([1.0, 0.0, 0.0, 0.0]), CanonicalFamily.TYPE_I),
        (type2_lambda(0.64, 0.6), CanonicalFamily.TYPE_II),
        (sigma_matrix(0.5, 0.1, 0.3), CanonicalFamily.TYPE_II),
        (PURE_PRODUCT, CanonicalFamily.DEGENERATE_PRODUCT),
    ]
    for lam, family in cases:
        sys = g_eigensystem(omega_matrices(lam))
        assert sys.family is family, family


def test_complex_pair_is_rejected():
    # G @ Omega has eigenvalues (1, 1, +i, -i): no correlation matrix of a
    # state produces this, and the solver must refuse rather than invent
    omega = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
        ]
    )
    with pytest.raises(NumericalFailure):
        g_eigensystem(omega)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_form_is_refused(value):
    omega = np.eye(4)
    omega[0, 3] = omega[3, 0] = value
    with pytest.raises(NumericalFailure, match="not finite"):
        g_eigensystem(omega)


def test_form_that_overflows_the_solve_is_refused():
    """Finite forms near the float maximum are refused before any sum
    overflows: no RuntimeWarning, and no LinAlgError from the SVD."""
    full = np.full((4, 4), 1e308)
    skew = full.copy()
    skew[0, 1] = 5e307
    for omega in (full, skew):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="overflow the solve"):
                g_eigensystem(omega)


# ---------------------------------------------------------------------------
# hypothesis invariants of the production route


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([1, 2, 3, 4]))
def test_spectrum_invariants(seed, rank):
    lam = lambda_from_rho(random_state(rank, seed=seed))
    sys = g_eigensystem(omega_matrices(lam))
    ev = sys.eigenvalues
    scale = max(1.0, ev[0])
    assert np.all(ev >= -1e-9 * scale)
    assert np.all(np.diff(ev) <= 1e-12 * scale)
    # a TypeI solve returns the timelike top row alone, G-normalized
    assert sys.condition_report.gram_top.size == 0
    x = sys.top_row
    assert abs(x @ G_METRIC @ x - 1.0) < 1e-12
    assert _row_residuals(sys).max() <= 1e-8 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([2, 3, 4]))
def test_both_sides_share_the_spectrum(seed, rank):
    lam = lambda_from_rho(random_state(rank, seed=seed))
    ev_a = g_eigensystem(omega_matrices(lam)).eigenvalues
    ev_b = g_eigensystem(omega_matrices(lam.T)).eigenvalues
    np.testing.assert_allclose(ev_a, ev_b, atol=1e-9 * max(1.0, ev_a[0]))


# ---------------------------------------------------------------------------
# the secular-function oracle


def test_oracle_reduction_shape():
    gen = rng(31)
    for _ in range(25):
        lam = lambda_from_rho(random_state(4, seed=int(gen.integers(10**9))))
        omega = omega_matrices(lam)
        orc = spectral_oracle(omega)
        assert orc.arrow_defect < 1e-12
        np.testing.assert_allclose(orc.rotation.T @ orc.rotation, np.eye(3), atol=1e-13)
        assert np.linalg.det(orc.rotation) == pytest.approx(1.0, abs=1e-12)
        # conjugating back recovers the form
        embed = np.eye(4)
        embed[1:, 1:] = orc.rotation
        arrow = np.zeros((4, 4))
        arrow[0, 0] = orc.n0
        arrow[0, 1:] = arrow[1:, 0] = orc.n
        arrow[1:, 1:] = np.diag(orc.alpha)
        np.testing.assert_allclose(embed @ arrow @ embed.T, omega, atol=1e-12)


def test_oracle_werner_spectrum():
    orc = spectral_oracle(np.diag([1.0, -0.25, -0.25, -0.25]))
    np.testing.assert_allclose(orc.alpha, -0.25, atol=1e-15)
    np.testing.assert_allclose(orc.n, 0.0, atol=1e-15)
    # no coupled poles: h is the line n0 - lambda, vanishing at the top
    assert h_function(orc, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert h_function(orc, 0.5) == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(oracle_eigenvalues(orc), [1.0, 0.25, 0.25, 0.25], atol=1e-12)


def test_oracle_defective_critical_point():
    omega = omega_matrices(type2_lambda(0.64, 0.6))
    orc = spectral_oracle(omega)
    # the doubly degenerate top eigenvalue is a zero of h AND of h'
    assert h_function(orc, 0.64) == pytest.approx(0.0, abs=1e-12)
    assert h_derivative(orc, 0.64) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(
        oracle_eigenvalues(orc), [0.64, 0.64, 0.36, 0.36], atol=1e-9
    )


def test_h_refuses_its_poles():
    orc = spectral_oracle(omega_matrices(type2_lambda(0.64, 0.6)))
    with pytest.raises(PoleEvaluation):
        h_function(orc, 0.28)
    with pytest.raises(PoleEvaluation):
        h_derivative(orc, 0.28)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_h_is_the_characteristic_ratio(seed):
    """psi(x) * h(x) equals det(Omega - x*G) at any non-pole point."""
    gen = rng(seed)
    omega = omega_matrices(lambda_from_rho(random_state(4, seed=seed)))
    orc = spectral_oracle(omega)
    scale = max(1.0, float(np.abs(omega).max()))
    if np.abs(orc.n).min() < 1e-6 * scale:
        return  # an uncoupled pole drops out of h; the identity needs all terms
    poles = -orc.alpha
    for _ in range(10):
        x = float(gen.uniform(-3.0, 3.0) * scale)
        if np.abs(x - poles).min() < 0.05 * scale:
            continue
        phi = float(np.linalg.det(omega - x * G_METRIC))
        psi = float(np.prod(x - poles))
        lhs = psi * h_function(orc, x)
        assert lhs == pytest.approx(phi, abs=1e-9 * max(1.0, abs(phi)))


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_oracle_agrees_with_production(rank):
    for seed in range(12):
        lam = lambda_from_rho(random_state(rank, seed=7000 * rank + seed))
        for omega in (omega_matrices(lam), omega_matrices(lam.T)):
            sys = g_eigensystem(omega)
            orc = spectral_oracle(omega)
            scale = max(1.0, sys.eigenvalues[0])
            np.testing.assert_allclose(
                oracle_eigenvalues(orc), sys.eigenvalues, atol=1e-8 * scale
            )
            # third opinion: a general-purpose dense eigensolver
            raw = np.linalg.eigvals(G_METRIC @ omega)
            assert np.abs(raw.imag).max() < 1e-7 * scale
            np.testing.assert_allclose(
                np.sort(raw.real)[::-1], sys.eigenvalues, atol=1e-7 * scale
            )
            check = h_derivative_norm_check(orc, sys)
            assert check, check.checks


def test_slope_signs_on_reference_states():
    for lam in (WERNER_HALF, type2_lambda(0.64, 0.6), sigma_matrix(0.5, 0.1, 0.3)):
        omega = omega_matrices(lam)
        check = h_derivative_norm_check(spectral_oracle(omega), g_eigensystem(omega))
        assert check, check.checks
