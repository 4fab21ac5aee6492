from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzsvd.errors import (
    FilterAnnihilatesState,
    InvalidState,
    NotAState,
    NotUnitDeterminant,
    PositivityTransferViolated,
)
from lorentzsvd.minkowski import G_METRIC
from lorentzsvd.qstate import (
    PAULI,
    apply_slocc,
    is_valid_state,
    lambda_from_rho,
    random_state,
    rho_from_lambda,
    sl2c_to_lorentz,
    steer,
)

from conftest import random_sl2c, rng

PHI_PLUS = np.zeros((4, 4), dtype=complex)
PHI_PLUS[np.ix_([0, 3], [0, 3])] = 0.5


def sigma_matrix(b, c, d):
    return np.array(
        [
            [1.0, 0.0, 0.0, b],
            [0.0, d, 0.0, 0.0],
            [0.0, 0.0, -d, 0.0],
            [c, 0.0, 0.0, 1.0 + c - b],
        ]
    )


def sigma_density(b, c, d):
    return 0.5 * np.array(
        [
            [1 + c, 0, 0, d],
            [0, 0, 0, 0],
            [0, 0, b - c, 0],
            [d, 0, 0, 1 - b],
        ],
        dtype=complex,
    )


def test_lambda_from_rho_reference_states():
    np.testing.assert_allclose(lambda_from_rho(np.eye(4) / 4), np.diag([1.0, 0, 0, 0]), atol=1e-15)
    np.testing.assert_allclose(
        lambda_from_rho(PHI_PLUS), np.diag([1.0, 1.0, -1.0, 1.0]), atol=1e-15
    )
    # normal-form state round trip at (b,c,d) = (0.5, 0.1, 0.3)
    np.testing.assert_allclose(
        lambda_from_rho(sigma_density(0.5, 0.1, 0.3)), sigma_matrix(0.5, 0.1, 0.3), atol=1e-15
    )


def test_lambda_rejects_invalid():
    with pytest.raises(InvalidState):
        lambda_from_rho(np.diag([0.5, 0.6, 0.0, -0.1]).astype(complex))


def test_rho_from_lambda_reference():
    np.testing.assert_allclose(rho_from_lambda(np.diag([1.0, 0, 0, 0])), np.eye(4) / 4, atol=1e-15)
    np.testing.assert_allclose(
        rho_from_lambda(np.diag([1.0, 1.0, -1.0, 1.0])), PHI_PLUS, atol=1e-15
    )
    with pytest.raises(NotAState):
        rho_from_lambda(np.diag([1.0, 1.0, 1.0, 1.0]))


def test_validity_report():
    assert is_valid_state(np.eye(4) / 4).valid
    assert is_valid_state(PHI_PLUS).valid
    rep = is_valid_state(np.diag([0.5, 0.6, 0.0, -0.1]).astype(complex))
    assert not rep.valid
    assert rep.min_eigenvalue < -1e-3
    rep2 = is_valid_state(np.diag([0.5, 0.5, 0.0, 0.1]).astype(complex))
    assert not rep2.valid and rep2.trace_defect > 1e-3


def test_trace_beyond_the_float_range_is_a_defect():
    """A trace whose distance from 1 overflows is an infinite trace defect,
    an invalid state, not an OverflowError from complex abs."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.5e308 + 1.5e308j
    rep = is_valid_state(rho)
    assert rep.trace_defect == float("inf") and not rep.valid
    with pytest.raises(InvalidState):
        lambda_from_rho(rho)


def test_sl2c_reference_images():
    np.testing.assert_allclose(sl2c_to_lorentz(np.eye(2)), np.eye(4), atol=1e-15)
    np.testing.assert_allclose(
        sl2c_to_lorentz(1j * PAULI[1]), np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15
    )
    eta = 0.5
    L = sl2c_to_lorentz(np.diag([np.exp(eta / 2), np.exp(-eta / 2)]))
    expect = np.eye(4)
    expect[0, 0] = expect[3, 3] = np.cosh(eta)
    expect[0, 3] = expect[3, 0] = np.sinh(eta)
    np.testing.assert_allclose(L, expect, atol=1e-14)
    with pytest.raises(NotUnitDeterminant):
        sl2c_to_lorentz(2.0 * np.eye(2))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_sl2c_homomorphism(seed):
    gen = rng(seed)
    A1, A2 = random_sl2c(gen), random_sl2c(gen)
    L = sl2c_to_lorentz(A1 @ A2)
    np.testing.assert_allclose(L, sl2c_to_lorentz(A1) @ sl2c_to_lorentz(A2), atol=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_round_trip_by_rank(rank):
    for seed in range(60):
        rho = random_state(rank, seed=1000 * rank + seed)
        assert is_valid_state(rho).valid
        # eigenvalues above float noise, counted here: the report has no rank
        evals = np.linalg.eigvalsh(rho)
        assert np.count_nonzero(evals > 1e-9 * evals.max()) == rank
        np.testing.assert_allclose(rho_from_lambda(lambda_from_rho(rho)), rho, atol=1e-12)


def test_random_state_determinism_and_purity():
    a = random_state(4, seed=7)
    b = random_state(4, seed=7)
    assert np.array_equal(a, b)
    pure = random_state(1, seed=11)
    assert abs(np.trace(pure @ pure).real - 1.0) < 1e-12
    with pytest.raises(ValueError):
        random_state(5, seed=0)


def test_apply_slocc_identity_and_projector():
    rho = random_state(4, seed=3)
    np.testing.assert_allclose(apply_slocc(rho, np.eye(2), np.eye(2)), rho, atol=1e-14)
    filtered = apply_slocc(PHI_PLUS, np.diag([1.0, 0.0]), np.eye(2))
    assert is_valid_state(filtered).valid
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = 1.0
    np.testing.assert_allclose(filtered, expect, atol=1e-14)
    with pytest.raises(FilterAnnihilatesState):
        apply_slocc(PHI_PLUS, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_slocc_matches_lorentz_action(seed):
    gen = rng(seed)
    rho = random_state(int(gen.integers(1, 5)), seed=seed)
    A, B = random_sl2c(gen), random_sl2c(gen)
    lam = lambda_from_rho(rho)
    moved = lambda_from_rho(apply_slocc(rho, A, B))
    image = sl2c_to_lorentz(A) @ lam @ sl2c_to_lorentz(B).T
    np.testing.assert_allclose(moved, image / image[0, 0], atol=1e-10)


def test_steer_reference_values():
    maximally_mixed = np.diag([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(
        steer(maximally_mixed, np.array([1.0, 0.3, 0.4, 0.5]), "AtoB"),
        [1.0, 0.0, 0.0, 0.0],
        atol=1e-15,
    )
    werner = np.diag([1.0, 0.5, -0.5, 0.5])
    np.testing.assert_allclose(
        steer(werner, np.array([1.0, 0.0, 0.0, 1.0]), "AtoB"), [1.0, 0, 0, 0.5], atol=1e-15
    )
    q = steer(sigma_matrix(0.5, 0.1, 0.3), np.array([1.0, 0.0, 0.0, 1.0]), "AtoB")
    np.testing.assert_allclose(q, [1.1, 0.0, 0.0, 1.1], atol=1e-15)


def test_steer_guards():
    lam = np.diag([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        steer(lam, np.array([1.0, 0.0, 0.0, 2.0]), "AtoB")  # p outside the forward cone
    broken = np.zeros((4, 4))
    broken[0, 0] = 1.0
    broken[3, 0] = 2.0
    with pytest.raises(PositivityTransferViolated):
        steer(broken, np.array([1.0, 0.0, 0.0, 0.0]), "BtoA")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_positivity_transfer(seed):
    gen = rng(seed)
    rho = random_state(int(gen.integers(1, 5)), seed=seed + 1)
    lam = lambda_from_rho(rho)
    n = gen.normal(size=3)
    n /= np.linalg.norm(n)
    p = np.concatenate([[1.0], n])  # neutral, p0 = 1
    for direction in ("AtoB", "BtoA"):
        q = steer(lam, p, direction)
        assert q[0] > 0
        assert q @ G_METRIC @ q >= -1e-9
