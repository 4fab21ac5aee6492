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
    read_state,
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


def _steer_outcome(lam, p, direction):
    try:
        return steer(lam, p, direction).tobytes()
    except (ValueError, PositivityTransferViolated) as exc:
        return type(exc), str(exc)


def test_steer_on_a_stack_is_steer_per_probe():
    """A stack of probes steers each row bit for bit as the probe alone
    does, and refuses with the error of its first bad probe: one outside
    the forward cone (ValueError), or one steered outside it through a
    broken Lambda (PositivityTransferViolated)."""
    gen = rng(41)
    broken = np.diag([1.0, 0.0, 0.0, 0.0])
    broken[3, 0] = 2.0
    lams = [lambda_from_rho(random_state(rank, seed=rank)) for rank in (1, 2, 3, 4)]
    lams += [sigma_matrix(0.5, 0.1, 0.3), np.diag([1.0, 0.5, -0.5, 0.5])]
    for lam in lams:
        x = gen.normal(size=(200, 3))
        probes = np.column_stack([np.ones(200), x / np.linalg.norm(x, axis=1)[:, None]])
        probes[:100] *= gen.uniform(0.5, 2.0, size=(100, 1))
        for direction in ("AtoB", "BtoA"):
            q = steer(lam, probes, direction)
            assert q.shape == (200, 4)
            for row, p in zip(q, probes):
                assert row.tobytes() == steer(lam, p, direction).tobytes()
    good = np.array([[1.0, 0.0, 0.0, 0.5], [1.0, 0.3, 0.0, 0.0]])
    outside, negative = [1.0, 0.0, 0.0, 2.0], [-1.0, 0.0, 0.0, 0.0]
    for lam in (broken, lams[3]):
        for stack in ([good[0], outside, negative], [negative, good[1]], [good[1], good[0]],
                      [good[0], [1.0, 0.0, 0.0, -1.0], outside]):
            stack = np.array(stack)
            per_probe = [_steer_outcome(lam, p, "BtoA") for p in stack]
            first_bad = next((o for o in per_probe if not isinstance(o, bytes)), None)
            got = _steer_outcome(lam, stack, "BtoA")
            if first_bad is None:
                assert got == b"".join(per_probe)
            else:
                assert got == first_bad


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


# ---------------------------------------------------------------------------
# the family decision on rho's kernel: one test per branch


def _filtered(rho: np.ndarray, seed: int, rapidity: float = 1.5) -> np.ndarray:
    gen = rng(seed)
    return apply_slocc(rho, random_sl2c(gen, rapidity), random_sl2c(gen, rapidity))


def _sigma_rho(b: float, c: float, d: float) -> np.ndarray:
    return rho_from_lambda(sigma_matrix(b, c, d))


def _canonical_family(rho: np.ndarray) -> str:
    from lorentzsvd.canonical import canonicalize

    return canonicalize(rho).family.value


def _assert_null_top(rho: np.ndarray, kernel) -> None:
    """u is a future null eigenvector of G Omega_A at its top eigenvalue."""
    from lorentzsvd.geigen import g_spectrum, omega_matrices

    u = kernel.null_top
    omega = omega_matrices(lambda_from_rho(rho))
    assert u[0] == 1.0 and abs(u @ G_METRIC @ u) <= 1e-15
    assert np.linalg.norm(G_METRIC @ omega @ u - g_spectrum(omega)[0] * u) <= 1e-12


def test_full_rank_near_the_merge_radius_is_certified():
    """Sigma(0.2, -0.4, 0.5) mixed with 1e-12 I/4 and filtered: its top pair
    of G Omega is split by about 15 times the merge radius, and its least
    eigenvalue, 2.5e-13 of the largest before the filter, is certified:
    full rank, so no TypeII decision, and the solve gives TypeI."""
    rho = 0.25e-12 * np.eye(4) + (1.0 - 1e-12) * _sigma_rho(0.2, -0.4, 0.5)
    for seed in range(5):
        moved = _filtered(rho, seed, 0.7)
        evals = np.linalg.eigvalsh(moved)
        assert evals[0] > 100.0 * np.finfo(float).eps * evals[-1]
        kernel = read_state(moved)[1]
        assert (kernel.rank, kernel.null_top, kernel.merged) == (4, None, False)
        assert _canonical_family(moved) == "TypeI"


def test_rank3_entangled_kernel_is_not_typeii():
    """A random rank-3 state's kernel vector is entangled, filtered or not."""
    for seed in range(10):
        for rho in (random_state(3, seed=seed), _filtered(random_state(3, seed=seed), seed)):
            kernel = read_state(rho)[1]
            assert (kernel.rank, kernel.null_top) == (3, None)
            assert _canonical_family(rho) == "TypeI"


@pytest.mark.parametrize("d", [0.3, 0.0])
def test_rank3_product_kernel_is_typeii(d):
    """Filtered Sigma(b, c, d), and Sigma(b, c, 0), keep a product kernel
    vector: TypeII, not merged, with u the null top eigenvector."""
    for seed in range(10):
        rho = _filtered(_sigma_rho(0.5, 0.1, d), seed)
        kernel = read_state(rho)[1]
        assert kernel.rank == 3 and not kernel.merged
        _assert_null_top(rho, kernel)
        assert _canonical_family(rho) == "TypeII_A"


def test_rank2_double_root_is_merged_typeii():
    """A filtered arrow with r1^2 = r0 has rank 2, and the product vectors
    of its kernel plane are one double root: TypeII, merged."""
    from lorentzsvd.canonical import canonicalize

    for seed, r1 in enumerate((0.2, 0.5, 0.8)):
        rho = _filtered(rho_from_lambda(np.array(
            [[1.0, 0.0, 0.0, 0.0], [0.0, r1, 0.0, 0.0], [0.0, 0.0, -r1, 0.0],
             [1.0 - r1 * r1, 0.0, 0.0, r1 * r1]])), seed)
        kernel = read_state(rho)[1]
        assert kernel.rank == 2 and kernel.merged
        _assert_null_top(rho, kernel)
        res = canonicalize(rho)
        assert res.family.value == "TypeII_A" and res.partner.family.value == "TypeII_B"
        assert abs(res.parameters["r1"] ** 2 / res.parameters["r0"] - 1.0) <= 1e-8


def test_rank2_pure_marginal_is_left_to_the_solve():
    """rho_A (x) |b><b|: every vector of its kernel plane C^2 (x) |b-perp>
    is a product, so the determinant quadratic vanishes identically and
    the solve decides: DegenerateProduct."""
    gen = rng(3)
    for seed in range(5):
        m = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        rho_a = m @ m.conj().T
        b = gen.normal(size=2) + 1j * gen.normal(size=2)
        rho = np.kron(rho_a / np.trace(rho_a).real, np.outer(b, b.conj()) / (b.conj() @ b).real)
        rho = _filtered(rho, seed, 0.7)
        kernel = read_state(rho)[1]
        assert (kernel.rank, kernel.null_top) == (2, None)
        assert _canonical_family(rho) == "DegenerateProduct"


def test_pure_entangled_state_is_rank_one():
    """A pure entangled state: rank 1, no TypeII decision, TypeI."""
    for seed in range(5):
        rho = random_state(1, seed=seed)
        assert read_state(rho)[1] == read_state(_filtered(rho, seed))[1]
        kernel = read_state(rho)[1]
        assert (kernel.rank, kernel.null_top) == (1, None)
        assert _canonical_family(rho) == "TypeI"
