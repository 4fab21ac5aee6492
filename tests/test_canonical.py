"""Canonical factorization: reference values, orbit invariance, Sigma forms.

The diagonal-family checks pin exact closed-form outputs (Werner, Bell,
rank-deficient diagonals).  The arrow-family checks work the fixed point
(r0, r1) = (0.64, 0.6), the r1 = 0 segment, and the Sigma(b, c, d) family
where every intermediate quantity has a closed form.  Orbit tests compare
gauge-invariant data only: the canonical diagonal on the diagonal side,
the ratio r1^2/r0 = lambda_1/lambda_0 on the arrow side, since the
residual boost freedom is pinned by a frame convention, not a covariant
one.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzsvd.canonical import (
    CanonicalResult,
    SideFamily,
    SigmaParameters,
    _arrow_min_eigenvalue,
    _boost,
    _pipeline_rho,
    canonical_rho_type1,
    canonical_rho_type2,
    canonicalize,
    sigma_equivalence_check,
    sigma_from_bcd,
    type1_canonical,
    type2_canonical,
)
from lorentzsvd.errors import (
    InvalidCanonicalParameters,
    InvalidSigmaParameters,
    InvalidState,
    LorentzSvdError,
    NotTypeII,
    NumericalFailure,
)
from lorentzsvd.geigen import g_eigensystem, g_spectrum, omega_matrices
from lorentzsvd.minkowski import G_METRIC, is_orthochronous_proper_lorentz, lorentz_defect
from lorentzsvd.qstate import (
    apply_slocc,
    is_valid_state,
    lambda_from_rho,
    random_state,
    read_state,
    rho_from_lambda,
)

import mp_reference
from conftest import random_sl2c, rng, slightly_negative_state


def canonical_density(result: CanonicalResult) -> np.ndarray:
    """Rebuild the canonical state from a result's parameters alone."""
    if result.family is SideFamily.DEGENERATE_PRODUCT:
        raise InvalidCanonicalParameters(
            "the degenerate product family has no normalized canonical state"
        )
    p = result.parameters
    if result.family is SideFamily.TYPE_I:
        lams = np.asarray(p["lambdas"], dtype=float)
        r = np.sqrt(np.clip(lams / lams[0], 0.0, None))
        return canonical_rho_type1(r[1], r[2], p["detSign"] * r[3], tol=1e-9)
    if result.family is SideFamily.TYPE_II_A:
        return canonical_rho_type2(p["r0"], p["r1"], "A", tol=1e-9)
    return canonical_rho_type2(p["s0"], p["s1"], "B", tol=1e-9)


def type2_lambda(r0: float, r1: float) -> np.ndarray:
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, r1, 0.0, 0.0],
            [0.0, 0.0, -r1, 0.0],
            [1.0 - r0, 0.0, 0.0, r0],
        ]
    )


def kernel_type2(lam: np.ndarray) -> CanonicalResult:
    """`type2_canonical` of Lambda from its state's kernel, as `canonicalize`
    calls it; side B of Lambda from its own kernel is side A of Lambda^T."""
    kernel = read_state(rho_from_lambda(lam))[1]
    return type2_canonical(lam, kernel.null_top, kernel.merged)


def assert_factorization(res: CanonicalResult, lam: np.ndarray, tol: float = 1e-9) -> None:
    image = res.left_lorentz @ lam @ res.right_lorentz.T
    assert abs(image[0, 0] - res.normalization_scale) <= tol
    assert np.abs(image / image[0, 0] - res.canonical_lambda).max() <= tol
    assert is_orthochronous_proper_lorentz(res.left_lorentz, tol=1e-9)
    assert is_orthochronous_proper_lorentz(res.right_lorentz, tol=1e-9)


# ---------------------------------------------------------------------------
# diagonal family


def test_werner_half():
    res = canonicalize(rho_from_lambda(np.diag([1.0, -0.5, -0.5, -0.5])))
    assert res.family is SideFamily.TYPE_I
    np.testing.assert_allclose(
        np.diag(res.canonical_lambda), [1.0, 0.5, 0.5, -0.5], atol=1e-12
    )
    assert res.parameters["detSign"] == -1
    assert res.partner is None
    np.testing.assert_allclose(res.parameters["lambdas"], [1, 0.25, 0.25, 0.25], atol=1e-12)


def test_bell_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[np.ix_([0, 3], [0, 3])] = 0.5
    res = canonicalize(rho)
    np.testing.assert_allclose(np.diag(res.canonical_lambda), [1, 1, 1, -1], atol=1e-10)
    # the canonical state of a Bell state is again maximally entangled
    assert abs(np.linalg.eigvalsh(res.canonical_rho).max() - 1.0) < 1e-10


def test_maximally_mixed():
    res = canonicalize(np.eye(4) / 4)
    assert res.family is SideFamily.TYPE_I
    np.testing.assert_allclose(np.diag(res.canonical_lambda), [1, 0, 0, 0], atol=1e-12)
    assert res.parameters["detSign"] == 0
    np.testing.assert_allclose(res.canonical_rho, np.eye(4) / 4, atol=1e-12)


def test_rank_two_diagonal_correlation():
    lam = np.diag([1.0, 0.0, 0.0, 1.0])
    res = canonicalize(rho_from_lambda(lam))
    assert res.family is SideFamily.TYPE_I
    np.testing.assert_allclose(np.diag(res.canonical_lambda), [1, 1, 0, 0], atol=1e-10)
    assert_factorization(res, lam)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
def test_random_states_factor_and_rebuild(seed, rank):
    rho = random_state(rank, seed=seed)
    lam = lambda_from_rho(rho)
    res = canonicalize(rho)
    if res.family is SideFamily.DEGENERATE_PRODUCT:
        return
    assert_factorization(res, lam)
    assert is_valid_state(res.canonical_rho, tol=1e-8).valid
    np.testing.assert_allclose(
        lambda_from_rho(res.canonical_rho), res.canonical_lambda, atol=1e-9
    )
    assert res.residuals["factorization"] <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_type1_idempotent(seed):
    res = canonicalize(random_state(4, seed=seed))
    again = canonicalize(res.canonical_rho)
    assert again.family is res.family
    np.testing.assert_allclose(
        np.diag(again.canonical_lambda), np.diag(res.canonical_lambda), atol=1e-9
    )
    assert again.parameters["detSign"] == res.parameters["detSign"]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_type1_canonical_diagonal_is_orbit_invariant(seed, slocc_seed):
    rho = random_state(4, seed=seed)
    gen = rng(slocc_seed)
    moved = apply_slocc(rho, random_sl2c(gen), random_sl2c(gen))
    res, res_m = canonicalize(rho), canonicalize(moved)
    assert res_m.family is res.family
    np.testing.assert_allclose(
        np.diag(res_m.canonical_lambda), np.diag(res.canonical_lambda), atol=1e-7
    )
    assert res_m.parameters["detSign"] == res.parameters["detSign"]


def filtered_rank4(seed: int, rapidity: float) -> np.ndarray:
    gen = rng(seed)
    return apply_slocc(
        random_state(4, seed=seed), random_sl2c(gen, rapidity), random_sl2c(gen, rapidity)
    )


def test_det_sign_survives_strong_filtering():
    # rapidity 3 drives lam0 to 1.8e-5 and det Lambda = lam0^2 d1 d2 d3 to
    # -4e-11 (seed found by search); d3 = -0.31 must keep its sign
    rho = filtered_rank4(109, 3.0)
    lam = lambda_from_rho(rho)
    res = canonicalize(rho)
    assert res.parameters["lambdas"][0] < 1e-4
    assert res.parameters["detSign"] == -1
    image = res.left_lorentz @ lam @ res.right_lorentz.T
    assert np.abs(image / image[0, 0] - res.canonical_lambda).max() < 1e-8
    unfiltered = canonicalize(random_state(4, seed=109))
    np.testing.assert_allclose(
        np.diag(res.canonical_lambda), np.diag(unfiltered.canonical_lambda), atol=1e-6
    )


#: weakly correlated states, each with the canonical diagonal and the
#: detSign it must return: Werner states diag(1, -p, -p, -p) for small p,
#: and diag(1, 1e-3, 1e-3, +-1e-5), whose det Lambda is +-1e-11
WEAK_DIAGONALS = [
    pytest.param([1.0, -p, -p, -p], [1.0, p, p, -p], -1, id=f"werner-{p:g}")
    for p in (4e-4, 3e-4, 1e-4, 1e-6)
] + [
    pytest.param([1.0, 1e-3, 1e-3, d3], [1.0, 1e-3, 1e-3, d3], 1 if d3 > 0 else -1, id=f"d3={d3:g}")
    for d3 in (1e-5, -1e-5)
]


@pytest.mark.parametrize("lam, canonical, det_sign", WEAK_DIAGONALS)
def test_weakly_correlated_states_keep_their_diagonal(lam, canonical, det_sign):
    # det Lambda = d1 d2 d3 lies far below tol here, but d3 does not; the
    # sign and the diagonal are read off the factors, so none is cut to zero
    res = canonicalize(rho_from_lambda(np.diag(lam)))
    assert res.family is SideFamily.TYPE_I
    assert res.parameters["detSign"] == det_sign
    np.testing.assert_allclose(np.diag(res.canonical_lambda), canonical, rtol=0.0, atol=1e-15)


def test_filtered_diagonal_matches_the_50_digit_reference():
    """The canonical diagonal of rank-4 states filtered at rapidity 2.5,
    whose small eigenvalues carry an absolute error of about eps |Tr G
    Omega|, agrees with a 50-digit reference to 1e-9.  Some of these
    states are refused; every result counts."""
    errors = []
    for seed in range(60):
        rho = filtered_rank4(seed, 2.5)
        try:
            res = canonicalize(rho)
        except NumericalFailure:
            continue
        errors.append(mp_reference.forward_error(res, rho))
    assert len(errors) >= 50
    assert max(errors) <= 1e-9


def test_not_diagonal_refusal_is_typed():
    # a state filtered at rapidity 4 (seed found by search) whose boosted
    # and rotated Lambda does not come out diagonal: the factorization
    # recheck, max |D_ij| / D00 over i != j, refuses it
    with pytest.raises(NumericalFailure, match="factorization residual") as info:
        canonicalize(filtered_rank4(191, 4.0))
    assert info.value.exit_code == 3


#: Lambda of case 615 of the hard-inputs benchmark corpus at seed 7, a
#: Sigma(b, c, d) state filtered at rapidity 2.5 whose G-eigensolve
#: classifies it as TypeI; the diagonal read off the TypeI factors,
#: (1.00015, 0.616839, -0.616839), gives a Bell weight of -3.7e-5.  The
#: pipeline computed these parameters, so leaving the region is its
#: numerical failure (exit 3), not malformed input (exit 1).  Its kernel
#: holds a product vector, so `canonicalize` factors it as TypeII
REGION_MISS_LAMBDA = [
    [0.9999999999999999, -0.3521955982150893, 0.2644661867485554, 0.8976059858759055],
    [0.6919499230754516, -0.244075239765373, 0.18320080677877962, 0.620903764409069],
    [0.6887804846228831, -0.24226534231644017, 0.18183244328968545, 0.6184693180076253],
    [-0.21574159605887988, 0.07578117891881138, -0.05749899367969742, -0.19358708127620494],
]


def test_computed_parameters_outside_the_region_are_a_numerical_failure():
    lam = np.array(REGION_MISS_LAMBDA)
    with pytest.raises(NumericalFailure, match="Bell weight") as info:
        type1_canonical(lam, g_eigensystem(omega_matrices(lam)))
    assert info.value.exit_code == 3
    assert canonicalize(rho_from_lambda(lam)).family is SideFamily.TYPE_II_A
    # the arrow construction's region check refuses the same way
    with pytest.raises(NumericalFailure, match="arrow parameters") as info:
        _pipeline_rho(canonical_rho_type2, 1.5, 0.5, "A", tol=1e-10)
    assert info.value.exit_code == 3


#: Lambda of case 37 of the hard-inputs benchmark corpus at seed 1, a
#: rank-4 state filtered at rapidity 2.5 whose two smallest eigenvalues,
#: 1.0735e-5 and 1.1741e-5, lie 1e-6 apart; taken as one double root,
#: they gave a factorization residual of 4.4e-3
CLOSE_SIMPLE_ROOTS_LAMBDA = [
    [1.0, 0.025582577764928324, -0.6959942464223761, -0.7172100268544852],
    [0.05104155966117346, 0.0038511871890332255, -0.03608251207049132, -0.03590068500541714],
    [-0.22577757635440437, -0.011533794028697114, 0.15282142417161468, 0.16593692726875775],
    [0.7029471890853771, 0.015531106103989755, -0.4929042153799558, -0.5007680955783116],
]


def test_close_simple_roots_stay_apart():
    rho = rho_from_lambda(np.array(CLOSE_SIMPLE_ROOTS_LAMBDA))
    res = canonicalize(rho)
    assert res.family is SideFamily.TYPE_I
    assert res.residuals["factorization"] <= 1e-8
    omega = omega_matrices(lambda_from_rho(rho))
    with mpmath.workdps(50):
        exact = sorted(float(mpmath.re(z)) for z in mpmath.eig(
            mpmath.matrix((G_METRIC @ omega).tolist()), left=False, right=False))
    got = sorted(res.parameters["lambdas"])
    assert len(set(got)) == 4
    assert np.abs(np.array(got) - exact).max() <= 1e-14 * exact[-1]


#: Lambda of case 198 of the hard-inputs benchmark corpus at seed 7, a
#: Sigma(b, c, d) state filtered at rapidity 2.5 whose eigenvalues all lie
#: near 2e-6.  Its top eigenvector is lightlike; an eigenspace cut at the
#: unit-floored scale max(1, |Tr G Omega|) found a timelike one instead
LIGHTLIKE_TOP_AT_SMALL_SCALE_LAMBDA = [
    [1.0, -0.2759692983787382, 0.3208172817171852, 0.9060213753370634],
    [-0.8582539604228999, 0.23681785937806132, -0.27503105526800253, -0.7777231809782478],
    [-0.16396450147033473, 0.04477089719642782, -0.05285844859280261, -0.14861084127769067],
    [-0.4861091889631061, 0.1343757608998369, -0.15638597859403053, -0.4401967531412745],
]


def test_small_scale_typeii_state_is_never_typei():
    try:
        res = canonicalize(rho_from_lambda(np.array(LIGHTLIKE_TOP_AT_SMALL_SCALE_LAMBDA)))
    except LorentzSvdError:
        return
    assert res.family is not SideFamily.TYPE_I


#: rho of case 124 of the hard-inputs benchmark corpus at seed 1, a rank-4
#: state filtered at rapidity 3.5, as [re, im] pairs.  Its diagonal
#: factorization misses by 1.45e-6, 145 times the 1e-8 bound, which
#: `canonicalize` returned as a TypeI result until the TypeI factors were
#: rechecked as the arrow factors are
TYPEI_FACTORIZATION_MISS_RHO = [
    [[0.6698198265321711, 2.5712266384118404e-17], [-0.04162848355149148, 0.2831537289129032],
     [0.061114433407353355, 0.3309087756263384], [-0.1437183311953597, 0.005097522586906934]],
    [[-0.04162848355149148, -0.2831537289129032], [0.1286721596178893, 2.4105249735111006e-18],
     [0.1359449017331278, -0.0463852988348436], [0.011660863816386806, 0.06355120125545809]],
    [[0.061114433407353355, -0.33090877562633836], [0.1359449017331278, 0.046385298834843595],
     [0.16906251466403963, 3.2140332980148005e-18], [-0.010600053423390312, 0.07139640871151784]],
    [[-0.1437183311953597, -0.0050975225869069295], [0.011660863816386804, -0.06355120125545809],
     [-0.010600053423390312, -0.07139640871151784], [0.032445499185899965, -7.030697839407376e-19]],
]


def test_typei_factorization_miss_is_refused():
    rho = np.array([[complex(*z) for z in row] for row in TYPEI_FACTORIZATION_MISS_RHO])
    bound = r"factorization residual \S+ exceeds 1\.0e-08"
    with pytest.raises(NumericalFailure, match=bound) as info:
        canonicalize(rho)
    assert info.value.exit_code == 3
    assert float(str(info.value).split()[2]) > 1e-7


#: rho of case 762 of the hard-inputs benchmark corpus at seed 7, as
#: [re, im] pairs: Sigma(b, c, d) at the (b, c, d) below, filtered at
#: rapidity 2.5.  A null space taken by Gaussian elimination gave its
#: defective top a row that missed the factorization recheck by 1.4e-3
FILTERED_SIGMA_BCD = (0.8667113214963709, 0.8006394932073929, 0.3160492333413609)
FILTERED_SIGMA_RHO = [
    [[0.5042252411544831, 9.008687204129656e-18], [-0.3394858579417557, -0.18450666744136826],
     [-0.02681911621352328, 0.25033337342395734], [0.10885875739581434, -0.15861218689378861]],
    [[-0.3394858579417556, 0.18450666744136823], [0.29608701026488454, 0.0],
     [-0.07353763474572184, -0.17837164519022938], [-0.015263362742338187, 0.14662950418450793]],
    [[-0.02681911621352327, -0.25033337342395734], [-0.07353763474572185, 0.17837164519022938],
     [0.12607789054442867, 0.0], [-0.08478041503557344, -0.04574726422288545]],
    [[0.10885875739581434, 0.1586121868937886], [-0.015263362742338204, -0.14662950418450793],
     [-0.08478041503557344, 0.04574726422288545], [0.07360985803620367, -9.008687204129656e-18]],
]


def test_filtered_sigma_state_factors_from_its_svd_null_space():
    rho = np.array([[complex(*z) for z in row] for row in FILTERED_SIGMA_RHO])
    res = canonicalize(rho)
    assert (res.family, res.partner.family) == (SideFamily.TYPE_II_A, SideFamily.TYPE_II_B)
    assert res.residuals["factorization"] <= 1e-8
    b, c, d = FILTERED_SIGMA_BCD
    ratio = res.parameters["r1"] ** 2 / res.parameters["r0"]
    assert abs(ratio - d * d / ((1.0 + c) * (1.0 - b))) <= 1e-8


# ---------------------------------------------------------------------------
# arrow family


def test_fixed_point():
    lam = type2_lambda(0.64, 0.6)
    res = canonicalize(rho_from_lambda(lam))
    assert res.family is SideFamily.TYPE_II_A
    assert abs(res.parameters["r0"] - 0.64) < 1e-9
    assert abs(res.parameters["r1"] - 0.6) < 1e-9
    assert abs(res.parameters["phi0"] - 1.0) < 1e-9
    assert np.abs(res.canonical_lambda - lam).max() < 1e-9
    # a canonical input is fixed: both Lorentz factors collapse to identity
    assert np.abs(res.left_lorentz - np.eye(4)).max() < 1e-8
    assert np.abs(res.right_lorentz - np.eye(4)).max() < 1e-8
    assert res.partner is not None and res.partner.family is SideFamily.TYPE_II_B


def test_fixed_point_idempotent():
    res = canonicalize(rho_from_lambda(type2_lambda(0.64, 0.6)))
    again = canonicalize(res.canonical_rho)
    assert again.family is SideFamily.TYPE_II_A
    assert abs(again.parameters["r0"] - res.parameters["r0"]) < 1e-9
    assert abs(again.parameters["r1"] - res.parameters["r1"]) < 1e-9
    partner_again = canonicalize(canonical_density(res.partner)).partner
    assert abs(partner_again.parameters["s0"] - res.partner.parameters["s0"]) < 1e-9
    assert abs(partner_again.parameters["s1"] - res.partner.parameters["s1"]) < 1e-9


def test_type2_rank_bound():
    for r0, r1 in ((0.64, 0.6), (0.5, 0.0), (0.9, 0.3)):
        res = canonicalize(rho_from_lambda(type2_lambda(r0, r1)))
        evals = np.linalg.eigvalsh(res.canonical_rho)
        assert np.sum(evals > 1e-10) <= 3
        assert np.sum(np.linalg.eigvalsh(res.partner.canonical_rho) > 1e-10) <= 3


def test_segment_r1_zero():
    lam = type2_lambda(0.5, 0.0)
    res = canonicalize(rho_from_lambda(lam))
    assert res.parameters["r1"] == 0.0
    assert abs(res.parameters["r0"] - 0.5) < 1e-9
    assert_factorization(res, lam)


def test_edge_r1_squared_equals_r0():
    """At r1^2 = r0 all four eigenvalues form one cluster, whose 3-dim
    eigenspace is the G-complement of u: the 2x2 systems of the null
    rotations vanish, every frame with u along e0 - e3 is block-diagonal,
    and the construction takes no rotation.  A canonical input reproduces
    its parameters; filtered ones factor and keep r1^2 / r0 = 1."""
    lam = type2_lambda(0.25, 0.5)
    res = canonicalize(rho_from_lambda(lam))
    assert abs(res.parameters["r0"] - 0.25) < 1e-12 and abs(res.parameters["r1"] - 0.5) < 1e-12
    assert_factorization(res, lam)
    assert_factorization(res.partner, lam)
    gen = rng(2)
    for _ in range(5):
        moved = apply_slocc(rho_from_lambda(lam), random_sl2c(gen), random_sl2c(gen))
        res = canonicalize(moved)
        assert abs(res.parameters["r1"] ** 2 / res.parameters["r0"] - 1.0) < 1e-9
        assert_factorization(res, lambda_from_rho(moved))
        assert_factorization(res.partner, lambda_from_rho(moved))


def test_both_sides_reported_and_consistent():
    lam = type2_lambda(0.64, 0.6)
    res = canonicalize(rho_from_lambda(lam))
    partner = res.partner
    assert set(partner.parameters) == {"s0", "s1", "chi0"}
    assert_factorization(partner, lam)
    # both sides see the same eigenvalue ratio
    ratio_a = res.parameters["r1"] ** 2 / res.parameters["r0"]
    ratio_b = partner.parameters["s1"] ** 2 / partner.parameters["s0"]
    assert abs(ratio_a - ratio_b) < 1e-12
    assert abs(ratio_a - 0.36 / 0.64) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_type2_orbit_ratio_invariant(slocc_seed):
    rho = rho_from_lambda(type2_lambda(0.64, 0.6))
    gen = rng(slocc_seed)
    moved = apply_slocc(rho, random_sl2c(gen), random_sl2c(gen))
    res = canonicalize(moved)
    assert res.family is SideFamily.TYPE_II_A
    ratio = res.parameters["r1"] ** 2 / res.parameters["r0"]
    assert abs(ratio - 0.5625) < 1e-7
    # the moved state still factors onto a valid arrow pattern
    assert res.residuals["factorization"] <= 1e-8
    assert 0.0 <= res.parameters["r1"] ** 2 <= res.parameters["r0"] <= 1.0 + 1e-12


def _sample_bcd(gen: np.random.Generator) -> SigmaParameters:
    """(b, c, d) strictly inside the non-diagonalizable region (b > c,
    d > 0), drawn as the benchmark corpus draws them."""
    while True:
        c = gen.uniform(-0.85, 0.9)
        lo, hi = c + 0.02, min(0.9, (1.0 + c) / 2.0 - 0.025)
        if hi <= lo:
            continue
        b = gen.uniform(lo, hi)
        if 1.0 + c - 2.0 * b <= 0.05:
            continue
        p = SigmaParameters(b, c, gen.uniform(0.2, 0.95) * np.sqrt((1.0 + c) * (1.0 - b)))
        if not p.violations():
            return p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["rank1", "rank2", "rank3", "rank4", "sigma", "sigma-d0", "merged"]),
       st.integers(0, 2**32 - 1), st.sampled_from([0.7, 1.5]), st.sampled_from([0.7, 1.5]))
def test_canonical_data_is_constant_on_slocc_orbits(kind, seed, rapidity_a, rapidity_b):
    """A state and its image under two local filters, each of rapidity up
    to 0.7 or 1.5, factor to the same canonical data: the family (a
    TypeII state's with its TypeII_B partner), the TypeI diagonal and
    detSign, the TypeII gauge invariant r1^2 / r0; and the image factors
    within 1e-8 on each side.  Random states of rank 1-4, Sigma(b, c, d),
    Sigma(b, c, 0) and the rank-2 arrow with r1^2 = r0 ("merged")."""
    gen = rng(seed)
    if kind.startswith("rank"):
        rho = random_state(int(kind[-1]), seed=int(gen.integers(2**62)))
    elif kind == "merged":
        r1 = float(gen.uniform(0.05, 0.95))
        rho = canonical_rho_type2(r1 * r1, r1, "A", tol=1e-9)
    else:
        p = _sample_bcd(gen)
        rho = sigma_from_bcd(SigmaParameters(p.b, p.c, p.d if kind == "sigma" else 0.0))[1]
    moved = apply_slocc(rho, random_sl2c(gen, rapidity_a), random_sl2c(gen, rapidity_b))
    base, res = canonicalize(rho), canonicalize(moved)
    if kind.startswith("rank"):
        assert base.family is res.family is SideFamily.TYPE_I
        diagonal = np.diag(res.canonical_lambda) - np.diag(base.canonical_lambda)
        assert np.abs(diagonal).max() <= 1e-7
        assert res.parameters["detSign"] == base.parameters["detSign"]
    else:
        assert base.family is res.family is SideFamily.TYPE_II_A
        assert base.partner.family is res.partner.family is SideFamily.TYPE_II_B
        ratio = [r.parameters["r1"] ** 2 / r.parameters["r0"] for r in (base, res)]
        assert abs(ratio[1] - ratio[0]) <= 1e-7
    for side in filter(None, (res, res.partner)):
        assert side.residuals["factorization"] <= 1e-8


def _null_ray_gauge_leg(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """The gauge rule from scratch: the plane G-orthogonal to a1, a2 holds
    two null rays; each is scaled to unit time component and the sum is
    G-normalized."""
    _, _, vt = np.linalg.svd(np.vstack([G_METRIC @ a1, G_METRIC @ a2]))
    p, q = vt[2], vt[3]
    # x = p + s q is null where A + B s + C s^2 = 0
    A, B, C = p @ G_METRIC @ p, 2.0 * (p @ G_METRIC @ q), q @ G_METRIC @ q
    disc = np.sqrt(B * B - 4.0 * A * C)
    rays = [p + s * q for s in ((-B + disc) / (2.0 * C), (-B - disc) / (2.0 * C))]
    leg = sum(x / x[0] for x in rays)
    return leg / np.sqrt(leg @ G_METRIC @ leg)


# cases 198 and 615 of the hard-inputs benchmark corpus at seed 7: Sigma(b, c, d)
# states filtered at rapidity 2.5, as rho (real and imaginary parts).  While
# the G-eigensolve decided the family, both classified as TypeI and were
# refused as region misses (d1 about 1.0001)
_SIGMA_198_RE = [
    [0.2449288583081707, -0.03539838436972531, -0.4089942853502869, 0.07241907699271598],
    [-0.03539838436972531, 0.012016547210276252, 0.04598985269631467, -0.02013269486116303],
    [-0.4089942853502869, 0.04598985269631468, 0.708081829360361, -0.10258626481964377],
    [0.07241907699271598, -0.020132694861163022, -0.10258626481964377, 0.03497276512119205],
]
_SIGMA_198_IM = [
    [-1.7522272504730127e-17, -0.04110782578078868, 0.07814383568700635, 0.05756503951789367],
    [0.041107825780788664, 0.0, -0.07995048811610758, 0.0038384150481610125],
    [-0.07814383568700635, 0.07995048811610758, 0.0, -0.11930081507780393],
    [-0.05756503951789367, -0.0038384150481610138, 0.11930081507780395, 0.0],
]
_SIGMA_615_RE = [
    [0.37206932713520513, -0.06910360482406946, 0.3282134218711302, -0.10647692076376461],
    [-0.06910360482406948, 0.020059874835354926, -0.015560699118921885, 0.017761539666595615],
    [0.3282134218711301, -0.015560699118921884, 0.5767336658027475, -0.10699419428347516],
    [-0.10647692076376461, 0.01776153966659562, -0.10699419428347515, 0.031137132226692385],
]
_SIGMA_615_IM = [
    [0.0, -0.051741798267214485, -0.3268124506576271, 0.01476613388441516],
    [0.051741798267214485, 2.569517649315005e-19, 0.10636653727380495, -0.01757779165381445],
    [0.3268124506576271, -0.10636653727380495, 0.0, -0.08049129510706321],
    [-0.014766133884415151, 0.017577791653814446, 0.08049129510706318, -2.055614119452004e-18],
]
HARD_SIGMA_STATES = {
    198: (_SIGMA_198_RE, _SIGMA_198_IM, (0.8228758413051871, 0.7954136396853245, 0.224630395589624)),
    615: (_SIGMA_615_RE, _SIGMA_615_IM,
          (0.8853473855367696, 0.8611102779452552, 0.28491813492261037)),
}


@pytest.mark.parametrize("case", sorted(HARD_SIGMA_STATES))
def test_hard_sigma_states_are_typeii_from_their_kernel(case):
    """Their kernel holds a product vector, so they are TypeII, and the
    gauge invariant r1^2 / r0 matches d^2 / ((1 + c)(1 - b))."""
    re, im, (b, c, d) = HARD_SIGMA_STATES[case]
    res = canonicalize(np.array(re) + 1j * np.array(im))
    assert (res.family, res.partner.family) == (SideFamily.TYPE_II_A, SideFamily.TYPE_II_B)
    ratio = res.parameters["r1"] ** 2 / res.parameters["r0"]
    assert abs(ratio - d * d / ((1.0 + c) * (1.0 - b))) <= 1e-8


@pytest.mark.parametrize("slocc_seed", range(5))
def test_type2_gauge_is_the_null_ray_sum(slocc_seed):
    _, rho = sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))
    gen = rng(slocc_seed)
    res = canonicalize(apply_slocc(rho, random_sl2c(gen), random_sl2c(gen)))
    # the tetrad built from each side's eigenvectors; the B side's is its right factor
    for tetrad in (res.left_lorentz, res.partner.right_lorentz):
        assert np.abs(tetrad[0] - _null_ray_gauge_leg(tetrad[1], tetrad[2])).max() <= 1e-12
        assert abs(tetrad[3, 0]) <= 1e-12  # the same rule: the last leg has no time component


# case 503 of the typeII-filtered benchmark corpus at seed 306 (Sigma(b, c, d)
# filtered at rapidity 1.5).  Built through a separately solved completion
# plane, its B-side right factor missed the Lorentz group by 2.6e-9; the
# closed-form gauge boost keeps all four factors within 1.9e-10, 5x below
# the 1e-9 check.
FILTERED_TYPE2_RHO = np.array(
    [
        [complex(0.7989627262397081, 0.0), complex(0.0493440315201085, -0.023986316126028785), complex(0.1454659681171904, -0.35633692265337735), complex(0.0003636899703091563, -0.018478144130091627)],
        [complex(0.04934403152010851, 0.023986316126028782), complex(0.004208551837706461, -8.250098580450591e-20), complex(0.018082218218050186, -0.01782652712505848), complex(0.0004204862805346157, -0.0013996995663882062)],
        [complex(0.14546596811719045, 0.35633692265337735), complex(0.01808221821805019, 0.01782652712505848), complex(0.1961378478248823, -4.525768364132896e-18), complex(0.009446516613508973, -0.002293873395846292)],
        [complex(0.0003636899703091549, 0.01847814413009162), complex(0.00042048628053461553, 0.0013996995663882062), complex(0.009446516613508975, 0.002293873395846292), complex(0.0006908740977030641, 0.0)],
    ]
)


def test_filtered_type2_factors_pass_the_lorentz_check():
    res = canonicalize(FILTERED_TYPE2_RHO)
    assert (res.family, res.partner.family) == (SideFamily.TYPE_II_A, SideFamily.TYPE_II_B)
    for side in (res, res.partner):
        for L in (side.left_lorentz, side.right_lorentz):
            assert is_orthochronous_proper_lorentz(L, tol=1e-9)


# cases 9 and 25 of the typeII-filtered benchmark corpus at seed 7 and case
# 127 at seed 11 (Sigma(b, c, d) filtered at rapidity 1.5).  Used as
# solved, X = M^-1 P gave a right factor outside the Lorentz group at 1e-9
# (defects 1.3e-9 and 1.1e-9 on side A, 2.1e-9 on side B); one Minkowski
# Gram-Schmidt pass brings all four factors below 1e-13, and the rechecked
# factorization stays inside 1e-8.  Case 363 at seed 7 was refused when its
# partner came from a second, carried-over B eigensystem (factorization
# residual 3.6e-8); read off side A's right factor, its worst factor
# misses the Lorentz group by 8.5e-10.
SOLVED_FACTOR_RHOS = [
    np.array(
        [
            [complex(0.04196810281836631, -5.346018136585498e-18), complex(-0.015074667177703565, 0.02923890419566238), complex(-0.1474185505990245, -0.052716303756709576), complex(0.08712615279975137, -0.08173952163606373)],
            [complex(-0.01507466717770357, -0.029238904195662378), complex(0.025831511276342246, 0.0), complex(0.01586667807109445, 0.12170510837574393), complex(-0.08825832211168916, -0.03161681302417638)],
            [complex(-0.1474185505990245, 0.052716303756709576), complex(0.01586667807109445, -0.12170510837574393), complex(0.5892104638837461, -5.702419345691198e-17), complex(-0.2044174301433489, 0.4002314067961892)],
            [complex(0.08712615279975139, 0.08173952163606373), complex(-0.08825832211168913, 0.03161681302417638), complex(-0.20441743014334884, -0.4002314067961891), complex(0.3429899220215454, 0.0)],
        ]
    ),
    np.array(
        [
            [complex(0.027501991547771432, 0.0), complex(0.021687098358870584, -0.031114045807052113), complex(0.08622146853124191, 0.03507489955241248), complex(0.10244728072564299, -0.06800300429253213)],
            [complex(0.021687098358870584, 0.031114045807052113), complex(0.05656059216122256, 0.0), complex(0.02832411649789818, 0.12544149425150217), complex(0.17104896850845352, 0.06797605088399986)],
            [complex(0.08622146853124191, -0.03507489955241247), complex(0.02832411649789818, -0.12544149425150217), complex(0.31529463056172113, 2.3630589786826684e-17), complex(0.23538911635537588, -0.3443960147785146)],
            [complex(0.10244728072564302, 0.06800300429253214), complex(0.17104896850845352, -0.06797605088399986), complex(0.23538911635537582, 0.3443960147785146), complex(0.600642785729285, 0.0)],
        ]
    ),
    np.array(
        [
            [complex(0.07250034078104514, 0.0), complex(-0.025638368923517733, -0.12448926099051415), complex(-0.0038227285995698205, 0.0037311586001559536), complex(0.011482835834580651, 0.0071745716014919025)],
            [complex(-0.025638368923517733, 0.12448926099051415), complex(0.22808513956733928, 0.0), complex(0.010489338411623738, -0.008647389537733205), complex(-0.02224989254315627, -0.013842837479539436)],
            [complex(-0.003822728599569823, -0.0037311586001559606), complex(0.01048933841162372, 0.008647389537733205), complex(0.15265473930113466, 0.0), complex(-0.048905600383921714, -0.2842660118843633)],
            [complex(0.011482835834580651, -0.0071745716014919025), complex(-0.022249892543156263, 0.013842837479539415), complex(-0.04890560038392171, 0.28426601188436323), complex(0.5467597803504809, 0.0)],
        ]
    ),
    np.array(
        [
            [complex(0.40627086002876855, 1.6147988483063623e-17), complex(0.09151087171197456, -0.038291144855108504), complex(-0.2697892414394194, 0.3770662117673796), complex(-0.02790838448304281, 0.1130559296383369)],
            [complex(0.09151087171197456, 0.03829114485510851), complex(0.02723337459825644, -1.2615616002393455e-19), complex(-0.096319356545407, 0.059532555720511394), complex(-0.018914355602032612, 0.02565252246208406)],
            [complex(-0.2697892414394194, -0.3770662117673797), complex(-0.096319356545407, -0.059532555720511394), complex(0.5291492047079086, -3.2295976966127245e-17), complex(0.12352862871089401, -0.04918019148804571)],
            [complex(-0.027908384483042798, -0.1130559296383369), complex(-0.018914355602032612, -0.02565252246208406), complex(0.12352862871089401, 0.04918019148804571), complex(0.03734656066506641, 2.018498560382953e-18)],
        ]
    ),
]


@pytest.mark.parametrize(
    "rho", SOLVED_FACTOR_RHOS, ids=["s7-case9", "s7-case25", "s11-case127", "s7-case363"]
)
def test_polished_right_factors_pass_the_lorentz_check(rho):
    res = canonicalize(rho)
    assert (res.family, res.partner.family) == (SideFamily.TYPE_II_A, SideFamily.TYPE_II_B)
    for side in (res, res.partner):
        assert side.residuals["factorization"] <= 1e-8
        for L in (side.left_lorentz, side.right_lorentz):
            assert is_orthochronous_proper_lorentz(L, tol=1e-9)


@pytest.mark.parametrize("d", [0.3, 0.0])
def test_partner_triad_is_a_b_side_eigenvector_triad(d):
    """Rows 0 + 3, 1 and 2 of side A's right factor L_B are G-orthonormal,
    made of eigenvectors of G Omega_B at side A's eigenvalues, and the null
    row is the null ray side B's own kernel vector gives (the kernel of
    the state of Lambda^T).  d = 0 gives a double zero eigenvalue, where
    the 2x2 SVD of a rounding-level 1-2 block picks rows 1 and 2."""
    gen = rng(29)
    rho = rho_from_lambda(sigma_from_bcd(SigmaParameters(0.5, 0.1, d))[0])
    for _ in range(5):
        moved = apply_slocc(rho, random_sl2c(gen), random_sl2c(gen))
        lam = lambda_from_rho(moved)
        omega_b = omega_matrices(lam.T)
        L_B = canonicalize(moved).right_lorentz
        u0 = L_B[0] + L_B[3]
        rows = np.vstack([u0 / np.linalg.norm(u0), L_B[1], L_B[2]])
        np.testing.assert_allclose(
            rows @ G_METRIC @ rows.T, np.diag([0.0, -1.0, -1.0]), atol=1e-12
        )
        values = g_spectrum(omega_matrices(lam))[[0, 2, 2]]
        k_op = G_METRIC @ omega_b
        for x, c in zip(rows, values):
            assert np.linalg.norm(k_op @ x - c * x) <= 1e-9
        v = read_state(rho_from_lambda(lam.T))[1].null_top
        assert abs(rows[0] @ v) / np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("slocc_seed", range(5))
def test_carried_partner_matches_a_b_side_solve(slocc_seed):
    """The partner, carried over from side A by reading its triad off side
    A's right factor, agrees with the one built from side B's own kernel
    vector."""
    _, rho = sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))
    gen = rng(slocc_seed)
    moved = apply_slocc(rho, random_sl2c(gen), random_sl2c(gen))
    lam = lambda_from_rho(moved)
    solved = kernel_type2(lam.T)
    partner = canonicalize(moved).partner
    assert partner.family is SideFamily.TYPE_II_B
    for key, ref in (("s0", "r0"), ("s1", "r1"), ("chi0", "phi0")):
        assert abs(partner.parameters[key] - solved.parameters[ref]) <= 1e-8


@pytest.mark.parametrize("rapidity", [0.7, 1.5])
def test_carried_partner_on_the_r1_zero_route(rapidity):
    """Sigma(0.5, 0.1, 0) has a double zero eigenvalue, so D's 1-2 block is
    rounding noise; its 2x2 SVD is taken like any other, r1 and s1 come
    out at rounding level, and the partner, built from the image of side
    A's null top vector, agrees with one built from side B's own kernel."""
    _, rho = sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.0))
    gen = rng(3)
    moved = apply_slocc(rho, random_sl2c(gen, rapidity), random_sl2c(gen, rapidity))
    lam = lambda_from_rho(moved)
    res = canonicalize(moved)
    assert (res.family, res.partner.family) == (SideFamily.TYPE_II_A, SideFamily.TYPE_II_B)
    assert res.parameters["r1"] <= 1e-12 and res.partner.parameters["s1"] <= 1e-12
    assert_factorization(res, lam)
    assert_factorization(res.partner, lam)
    solved = kernel_type2(lam.T)
    assert abs(res.partner.parameters["s0"] - solved.parameters["r0"]) <= 1e-8


def test_filtered_r1_zero_state_factors():
    """Sigma(0.5, 0.1, 0) filtered at rapidity 1.5 was refused when a cut on
    r1^2 = lam1 / phi0 took rounding noise in the zero eigenvalue lam1,
    inflated by the filter, for r1 > 0 ("tetrad row 0 lost its causal
    character", Minkowski norm -4.4e3).  The SVD of the 1-2 block needs no
    such cut, and every factor is Lorentz to rounding."""
    _, rho = sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.0))
    gen = np.random.default_rng(4)
    moved = apply_slocc(rho, random_sl2c(gen, 1.5), random_sl2c(gen, 1.5))
    res = canonicalize(moved)
    assert (res.family, res.partner.family) == (SideFamily.TYPE_II_A, SideFamily.TYPE_II_B)
    for side in (res, res.partner):
        assert side.residuals["factorization"] <= 1e-8
        for L in (side.left_lorentz, side.right_lorentz):
            assert lorentz_defect(L) <= 1e-12


def _sample_bc(gen: np.random.Generator) -> tuple[float, float]:
    """(b, c) strictly inside the non-diagonalizable region, drawn as the
    benchmark corpus draws them."""
    while True:
        c = gen.uniform(-0.85, 0.9)
        lo, hi = c + 0.02, min(0.9, (1.0 + c) / 2.0 - 0.025)
        if hi > lo:
            b = gen.uniform(lo, hi)
            if 1.0 + c - 2.0 * b > 0.05:
                return float(b), float(c)


def test_r1_zero_census_refuses_none():
    """40 Sigma(b, c, 0) states filtered on both sides at rapidity 1.5 all
    factor.  With the r1 = 0 cut, 82 of 400 such states were refused."""
    gen = np.random.default_rng([16, 15])
    for _ in range(40):
        _, rho = sigma_from_bcd(SigmaParameters(*_sample_bc(gen), 0.0))
        moved = apply_slocc(rho, random_sl2c(gen, 1.5), random_sl2c(gen, 1.5))
        res = canonicalize(moved)
        assert res.partner is not None
        assert max(res.residuals["factorization"], res.partner.residuals["factorization"]) <= 1e-8


# case 71 of the hard-inputs benchmark corpus at seed 7: a Sigma(b, c, d)
# state mixed with 1e-10 * I/4.  Side A classifies TypeI and side B
# TypeII, which `canonicalize` once refused as "the two sides disagree on
# the family" after solving both sides.  With side A solved alone, the
# checks on the B tetrad transported through Lambda must catch it instead.
SIDES_DISAGREE_RHO = np.diag([0.8614918919463076, 2.5e-11, 0.013197638862997919,
                              0.12531046916569452]).astype(complex)
SIDES_DISAGREE_RHO[0, 3] = SIDES_DISAGREE_RHO[3, 0] = 0.1736557419776451


def test_sides_of_different_families_are_refused_or_factor_cleanly():
    try:
        res = canonicalize(SIDES_DISAGREE_RHO)
    except LorentzSvdError:
        return
    assert res.family is SideFamily.TYPE_I
    assert res.residuals["factorization"] <= 1e-8
    for side in [res] + ([res.partner] if res.partner is not None else []):
        for L in (side.left_lorentz, side.right_lorentz):
            assert is_orthochronous_proper_lorentz(L, tol=1e-9)


@pytest.mark.parametrize("eps", [5e-9, 1e-10])
def test_eps_mixed_sigma_closes_its_split_double_root(eps):
    """Sigma(0.2, -0.4, 0.5) mixed with eps * I/4 keeps an exact double
    eigenvalue d^2 (1 - eps)^2, which must come out as one double root.
    With a fixed bound on the imaginary part of a rounding-split pair
    these were refused: as a complex pair at 1e-10, and by a tetrad row
    losing its causal character at 5e-9."""
    rho = sigma_from_bcd(SigmaParameters(0.2, -0.4, 0.5))[1]
    rho = (1.0 - eps) * rho + eps * np.eye(4) / 4.0
    res = canonicalize(rho)
    assert res.family is SideFamily.TYPE_I
    double = 0.25 * (1.0 - eps) ** 2
    assert [abs(v - double) <= 1e-11 for v in res.parameters["lambdas"]] == [False, False, True, True]
    assert res.residuals["factorization"] <= 1e-10


@pytest.mark.parametrize(
    "rho, family",
    [
        (random_state(4, seed=5), SideFamily.TYPE_I),
        (sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))[1], SideFamily.TYPE_II_A),
        (random_state(3, seed=5), SideFamily.TYPE_I),
        # |0><0| (x) rho_B with a mixed rho_B: rank 2, Omega_A nilpotent under G
        (rho_from_lambda(np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.3])),
         SideFamily.DEGENERATE_PRODUCT),
    ],
)
def test_canonicalize_solves_each_side_once(monkeypatch, rho, family):
    """Each Omega form built once and one Hermitian eigensolve, `eigh` of
    rho, which decides TypeII.  A TypeI state makes one G-eigensolve and
    a TypeII state none: its null top eigenvector comes from rho's
    kernel, and the TypeI B time leg and the TypeII B null eigenvector
    both come from Lambda.  Omega_B is formed only where it is read, by
    the TypeII partner, so a TypeI state forms Omega_A alone.  A rank-3
    or rank-4 TypeI state, whose four roots are simple, takes no null
    space.  A DegenerateProduct state, whose vanishing top on a state of
    rank at most 2 names the family before any span is formed, makes one
    G-eigensolve of Omega_A, no null space and no construction; its one
    more `eigh` validates the reported state.  Each family is one call of
    its construction, which builds both sides."""
    import lorentzsvd.canonical as canonical
    import lorentzsvd.geigen as geigen

    # the side of each form built: Omega_A of Lambda, Omega_B of Lambda^T
    lam, forms = lambda_from_rho(rho), []
    targets = {"g_eigensystem": canonical, "quartic_real_roots": geigen,
               "null_space_basis": geigen, "eigh": np.linalg, "eigvalsh": np.linalg,
               "type1_canonical": canonical, "type2_canonical": canonical}
    calls = dict.fromkeys(targets, 0)
    for name, module in targets.items():

        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def counted_form(w, _fn=canonical.omega_matrices):
        forms.append("A" if np.array_equal(w, lam) else "B" if np.array_equal(w, lam.T) else "?")
        return _fn(w)

    monkeypatch.setattr(canonical, "omega_matrices", counted_form)
    assert canonicalize(rho).family is family
    type2 = family is SideFamily.TYPE_II_A
    degenerate = family is SideFamily.DEGENERATE_PRODUCT
    assert not np.array_equal(lam, lam.T)
    assert forms == ["A"] + ["B"] * type2
    assert calls == {"g_eigensystem": 1 - type2, "quartic_real_roots": 1 - type2,
                     "null_space_basis": 0, "eigh": 1 + degenerate, "eigvalsh": 0,
                     "type1_canonical": int(family is SideFamily.TYPE_I),
                     "type2_canonical": int(type2)}


def test_python_float_builders_match_their_numpy_forms():
    """The boost and the Bell-diagonal canonical state, built on Python
    floats, are bit for bit the numpy expressions they stand for: the
    boost [[g, p^T], [p, I + p p^T / (1 + g)]] and 0.25 times the complex
    Bell-diagonal pattern."""
    gen = rng(21)
    for _ in range(200):
        p = gen.normal(size=3) * gen.uniform(0.0, 30.0)
        g = float(np.sqrt(1.0 + p @ p))
        want = np.block([[np.array([[g]]), p[None, :]],
                         [p[:, None], np.outer(p, p) / (1.0 + g) + np.eye(3)]])
        assert _boost([g, *p.tolist()]).tobytes() == want.tobytes()
        d1, d2, d3 = gen.uniform(-1.0, 1.0, size=3).tolist()
        want = 0.25 * np.array([[1.0 + d3, 0.0, 0.0, d1 - d2], [0.0, 1.0 - d3, d1 + d2, 0.0],
                                [0.0, d1 + d2, 1.0 - d3, 0.0], [d1 - d2, 0.0, 0.0, 1.0 + d3]],
                               dtype=complex)
        assert canonical_rho_type1(d1, d2, d3, tol=2.0).tobytes() == want.tobytes()


def test_type2_route_counts(monkeypatch):
    """A filtered Sigma state takes no `eig`, null space, SVD, solve or QR:
    rho's kernel gives its null top eigenvector, the arrow construction
    solves its 2x2 system in closed form, and ``rhoMinEigenvalue`` has a
    closed form.  The one `eigh` is the state check, which every family
    makes and which decides TypeII."""
    import lorentzsvd.geigen as geigen

    calls = dict.fromkeys(("eig", "null_space_basis", "svd", "solve", "eigh", "eigvalsh", "qr"),
                          0)
    for name in calls:
        module = geigen if name == "null_space_basis" else np.linalg

        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    _, rho = sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))
    gen = rng(8)
    res = canonicalize(apply_slocc(rho, random_sl2c(gen, 1.5), random_sl2c(gen, 1.5)))
    assert (res.family, res.partner.family) == (SideFamily.TYPE_II_A, SideFamily.TYPE_II_B)
    assert calls == {"eig": 0, "null_space_basis": 0, "svd": 0, "solve": 0, "eigh": 1,
                     "eigvalsh": 0, "qr": 0}


def test_conjugate_pairs_close_without_the_quartic(monkeypatch):
    """A conjugate pair closes by the merge radius alone: the spectrum of a
    filtered Sigma state, as `classify` and `verify` take it, and a rank-2
    state, whose eigensolves each return one, build no characteristic
    quartic and evaluate no polynomial."""
    import lorentzsvd._quartic as quartic

    calls = dict.fromkeys(("charpoly_g", "polyval"), 0)
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(quartic, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(quartic, name, counted)
    _, sigma = sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))
    gen = rng(1)
    states = [apply_slocc(sigma, random_sl2c(gen, 1.5), random_sl2c(gen, 1.5)),
              random_state(2, seed=8)]
    for rho in states:
        canonicalize(rho)
    spectrum = g_spectrum(omega_matrices(lambda_from_rho(states[0])))
    assert calls == {"charpoly_g": 0, "polyval": 0}
    assert spectrum[0] == spectrum[1]
    omega = omega_matrices(lambda_from_rho(states[0]))
    assert quartic.quartic_real_roots(omega, 1e-7).imag_residue > 0.0
    sys = g_eigensystem(omega_matrices(lambda_from_rho(states[1])))
    assert sys.condition_report.imag_residue > 0.0


TOP_VECTOR_STATES = [(rank, random_state(rank, seed=seed)) for rank in (1, 2, 3, 4)
                     for seed in range(12)] + [
    (4, filtered_rank4(seed, rapidity)) for rapidity in (0.7, 1.5) for seed in range(12)]


def test_type1_factors_come_from_the_top_eigenvector(monkeypatch):
    """One boost per side and a 3x3 SVD: both factors are Lorentz to
    rounding, the canonical diagonal is read off D = L_A Lambda L_B^T, the
    parameters keep the eigenvalues, and a rank-3 or rank-4 state reads no
    eigenvector but the top one and takes no null space, solve or Gram
    eigensolve: its one `eigh` is rho's, the state check."""
    import lorentzsvd.geigen as geigen

    calls = {"null_space_basis": 0, "solve": 0, "eigh": 0}
    targets = {"null_space_basis": geigen, "solve": np.linalg, "eigh": np.linalg}
    for name, module in targets.items():

        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for rank, rho in TOP_VECTOR_STATES:
        calls.update(dict.fromkeys(calls, 0))
        res = canonicalize(rho)
        made = dict(calls)
        assert res.family is SideFamily.TYPE_I
        assert max(lorentz_defect(res.left_lorentz), lorentz_defect(res.right_lorentz)) <= 1e-14
        lam = lambda_from_rho(rho)
        lambdas = g_eigensystem(omega_matrices(lam)).eigenvalues
        assert res.parameters["lambdas"] == lambdas.tolist()
        D = res.left_lorentz @ lam @ res.right_lorentz.T
        d = np.diag(D) / D[0, 0]
        d[3] *= abs(res.parameters["detSign"])
        np.testing.assert_array_equal(res.canonical_lambda, np.diag(d))
        if rank >= 3:
            assert made == {"null_space_basis": 0, "solve": 0, "eigh": 1}, rank


def test_pure_state_top_is_the_time_axis(monkeypatch):
    """A pure state's 4-fold top eigenspace is all of R^4: rho's rank
    decision says the state is pure, so canonicalize reads e0 off it with
    no null space (its SVD), no Gram eigensolve and no QR; the one `eigh`
    per state is rho's.  The factors are those the null space gave."""
    import lorentzsvd.geigen as geigen

    states = [random_state(1, seed=seed) for seed in range(12)]
    # the reference: the solve of the same form through the null space
    refs = [type1_canonical(lam, g_eigensystem(omega_matrices(lam)))
            for lam in map(lambda_from_rho, states)]
    targets = {"null_space_basis": geigen, "eigh": np.linalg, "qr": np.linalg}
    calls = dict.fromkeys(targets, 0)
    for name, module in targets.items():

        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for rho, ref in zip(states, refs):
        res = canonicalize(rho)
        assert res.family is SideFamily.TYPE_I
        assert res.left_lorentz[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert max(lorentz_defect(res.left_lorentz), lorentz_defect(res.right_lorentz)) <= 1e-14
        for got, want in ((res.left_lorentz, ref.left_lorentz),
                          (res.right_lorentz, ref.right_lorentz),
                          (res.canonical_lambda, ref.canonical_lambda)):
            assert got.tobytes() == want.tobytes()
    assert calls == {"null_space_basis": 0, "eigh": 12, "qr": 0}


def test_rank2_top_takes_no_qr(monkeypatch):
    """A rank-2 state's (+, -) top plane comes out of one SVD of
    G Omega - c I already orthonormal, with no QR pass."""
    calls = {"qr": 0}

    def counted(*args, _fn=np.linalg.qr, **kwargs):
        calls["qr"] += 1
        return _fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    for seed in range(12):
        assert canonicalize(random_state(2, seed=seed)).family is SideFamily.TYPE_I
    assert calls == {"qr": 0}


def test_rank2_time_row_is_not_chosen_by_rounding():
    """Within a rank-2 state's (+, -) top eigenspace the time row is the
    Gram top eigenvector, which the span alone fixes, so a 1e-15 change
    of rho moves it by rounding only.  A hyperbolic mix fitted to the
    in-cluster cross term, which is rounding noise there, moved it by up
    to 2.4 on these states (45 of 50 by more than 1e-6)."""
    gen = rng(19)
    for seed in range(50):
        rho = random_state(2, seed=seed)
        h = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
        h = h + h.conj().T
        h -= np.trace(h) / 4.0 * np.eye(4)
        res, moved = canonicalize(rho), canonicalize(rho + 1e-15 * h / np.abs(h).max())
        assert np.abs(res.left_lorentz[0] - moved.left_lorentz[0]).max() <= 1e-11, seed
        for side in (res, moved):
            assert max(lorentz_defect(side.left_lorentz), lorentz_defect(side.right_lorentz)) <= 1e-14


def test_tol_reaches_state_validation():
    for seed in range(3, 13):
        rho = slightly_negative_state(seed)
        with pytest.raises(InvalidState):
            canonicalize(rho)
        res = canonicalize(rho, tol=1e-6)
        assert res.family is SideFamily.TYPE_I
        assert res.residuals["factorization"] <= 1e-12


# ---------------------------------------------------------------------------
# degenerate product family


def test_pure_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    res = canonicalize(rho)
    assert res.family is SideFamily.DEGENERATE_PRODUCT
    assert np.abs(res.left_lorentz - np.eye(4)).max() == 0.0
    assert res.normalization_scale == 1.0
    assert max(res.parameters["lambdas"]) <= 1e-10
    with pytest.raises(InvalidCanonicalParameters):
        canonical_density(res)


# ---------------------------------------------------------------------------
# Sigma normal form


def test_sigma_from_bcd_reference():
    sigma, rho = sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.5],
            [0.0, 0.3, 0.0, 0.0],
            [0.0, 0.0, -0.3, 0.0],
            [0.1, 0.0, 0.0, 0.6],
        ]
    )
    np.testing.assert_allclose(sigma, expected, atol=1e-15)
    np.testing.assert_allclose(lambda_from_rho(rho), sigma, atol=1e-15)
    assert is_valid_state(rho).valid


def test_sigma_from_bcd_zero_parameters():
    sigma, rho = sigma_from_bcd(SigmaParameters(0.0, 0.0, 0.0))
    np.testing.assert_allclose(sigma, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-15)
    assert is_valid_state(rho).valid


def test_sigma_from_bcd_rejects_bad_region():
    with pytest.raises(InvalidSigmaParameters, match="b - c"):
        sigma_from_bcd(SigmaParameters(0.1, 0.5, 0.1))
    with pytest.raises(InvalidSigmaParameters):
        sigma_from_bcd(SigmaParameters(0.99, -0.9, 0.9))


def test_sigma_pipeline_side_b_closed_form():
    sigma, rho = sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))
    res = canonicalize(rho)
    partner = res.partner
    assert abs(partner.parameters["s0"] - 5.0 / 9.0) < 1e-10
    assert abs(partner.parameters["s1"] - 0.3 / np.sqrt(0.99)) < 1e-10
    assert abs(partner.parameters["chi0"] - 0.99) < 1e-10
    assert abs(partner.canonical_lambda[0, 3] - 4.0 / 9.0) < 1e-10
    assert abs(partner.canonical_lambda[1, 1] - 0.30151134457776363) < 1e-10
    assert abs(partner.canonical_lambda[3, 3] - 5.0 / 9.0) < 1e-10
    assert_factorization(partner, sigma)


def test_sigma_closed_form_side_a_values():
    # independent reconstruction of the boosted image: a single 03-boost
    # followed by the both-sided axis flip lands on the arrow pattern
    b, c, d = 0.5, 0.1, 0.3
    sigma, _ = sigma_from_bcd(SigmaParameters(b, c, d))
    h = np.sqrt((1 + c) * (1 + c - 2 * b))
    L = np.eye(4)
    L[0, 0] = L[3, 3] = (1 - b + c) / h
    L[0, 3] = L[3, 0] = -b / h
    assert is_orthochronous_proper_lorentz(L)
    flip = np.diag([1.0, 1.0, -1.0, -1.0])
    image = L @ sigma
    image = flip @ (image / image[0, 0]) @ flip
    assert abs(image[3, 0] - 0.8) < 1e-12
    assert abs(image[3, 3] - 0.2) < 1e-12
    assert abs(image[1, 1] - 0.18090680674665818) < 1e-12
    # same orbit as the pipeline's A side: equal eigenvalue ratio
    res_a = kernel_type2(sigma)
    ratio = res_a.parameters["r1"] ** 2 / res_a.parameters["r0"]
    assert abs(ratio - image[1, 1] ** 2 / image[3, 3]) < 1e-12


def test_sigma_equivalence_reference_triple():
    rep = sigma_equivalence_check(SigmaParameters(0.5, 0.1, 0.3))
    assert rep.ok
    assert rep.eigenvalue_residual < 1e-12
    assert rep.b_side_residual < 1e-12
    assert rep.a_side_residual < 1e-12
    assert rep.s_parameter_residual < 1e-12
    assert rep.ratio_residual < 1e-12


def test_sigma_equivalence_outside_boost_domain():
    # 1 + c - 2b < 0: the A-side closed form has no real boost, but the
    # B side and the pipeline still agree
    rep = sigma_equivalence_check(SigmaParameters(0.9, 0.0, 0.2))
    assert rep.ok
    assert rep.a_side_residual == 0.0


def test_sigma_equivalence_rejects_diagonal_case():
    with pytest.raises(NotTypeII):
        sigma_equivalence_check(SigmaParameters(0.3, 0.3, 0.2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_sigma_equivalence_random_region(seed):
    gen = rng(seed)
    c = float(gen.uniform(-0.9, 0.9))
    b = float(gen.uniform(c + 0.05, min(1.0 - 0.05, c + 1.9)))
    cap = np.sqrt((1 + c) * (1 - b))
    d = float(gen.uniform(0.05 * cap, 0.95 * cap))
    rep = sigma_equivalence_check(SigmaParameters(b, c, d))
    assert rep.ok, (b, c, d, rep)


def test_sigma_eigenvalues_closed_form():
    b, c, d = 0.5, 0.1, 0.3
    sigma, _ = sigma_from_bcd(SigmaParameters(b, c, d))
    res = kernel_type2(sigma)
    lam0, lam1 = 0.55, 0.09
    assert abs(res.parameters["r0"] * res.parameters["phi0"] - lam0) < 1e-12
    assert abs(res.parameters["r1"] ** 2 * res.parameters["phi0"] - lam1) < 1e-12


# ---------------------------------------------------------------------------
# canonical densities from parameters


def test_canonical_rho_type1_is_bell_diagonal():
    rho = canonical_rho_type1(0.5, 0.5, -0.5, tol=1e-9)
    assert is_valid_state(rho).valid
    np.testing.assert_allclose(
        lambda_from_rho(rho), np.diag([1.0, 0.5, 0.5, -0.5]), atol=1e-15
    )


def test_canonical_rho_type1_rejects_nonpositive():
    with pytest.raises(InvalidCanonicalParameters):
        canonical_rho_type1(0.9, 0.9, 0.9, tol=1e-9)


def test_canonical_rho_type2_reference_entries():
    rho = canonical_rho_type2(0.64, 0.6, "A", tol=1e-9)
    assert rho[0, 0] == 0.5
    assert rho[1, 1] == pytest.approx(0.18)
    assert rho[3, 3] == pytest.approx(0.32)
    assert rho[0, 3] == pytest.approx(0.3)
    assert np.linalg.matrix_rank(rho, tol=1e-12) == 3
    np.testing.assert_allclose(lambda_from_rho(rho), type2_lambda(0.64, 0.6), atol=1e-15)


def test_arrow_min_eigenvalue_is_the_spectrum_minimum():
    """The closed-form smallest eigenvalue of the arrow state matches
    `eigvalsh` over a (p0, p1) grid that runs up to the edge p1^2 = p0."""
    for p0 in np.linspace(0.0, 1.0, 21).tolist():
        for share in (0.0, 0.1, 0.5, 0.9, 1.0):
            p1 = (share * p0) ** 0.5
            for side in ("A", "B"):
                want = float(np.linalg.eigvalsh(canonical_rho_type2(p0, p1, side, tol=1e-9)).min())
                assert abs(_arrow_min_eigenvalue(p0, p1) - want) <= 1e-15, (p0, p1)


def test_canonical_rho_type2_rejects_r1_squared_above_r0():
    with pytest.raises(InvalidCanonicalParameters):
        canonical_rho_type2(0.25, 0.6, "A", tol=1e-9)


def test_canonical_density_round_trip():
    res = canonicalize(rho_from_lambda(type2_lambda(0.64, 0.6)))
    np.testing.assert_allclose(canonical_density(res), res.canonical_rho, atol=1e-12)
    res_w = canonicalize(rho_from_lambda(np.diag([1.0, -0.5, -0.5, -0.5])))
    np.testing.assert_allclose(canonical_density(res_w), res_w.canonical_rho, atol=1e-12)
