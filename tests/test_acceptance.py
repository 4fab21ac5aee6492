"""Eight numbered acceptance suites for the canonical-form pipeline.

Each suite checks one end-to-end guarantee at a stated tolerance and
appends a single "criterion N: PASS/FAIL" verdict that the session
summary echoes after the run.  All randomness is seeded, so a failure
reproduces exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

import conftest
from conftest import random_sl2c, rng
from secular_oracle import h_function, oracle_eigenvalues, spectral_oracle

from lorentzsvd.canonical import (
    SideFamily,
    SigmaParameters,
    canonicalize,
    sigma_equivalence_check,
    sigma_from_bcd,
    type2_canonical,
)
from lorentzsvd.geigen import CanonicalFamily, g_eigensystem, g_spectrum, omega_matrices
from lorentzsvd.geometry import (
    sample_steered_surface,
    steering_ellipsoid,
    surface_residuals,
)
from lorentzsvd.minkowski import G_METRIC, is_orthochronous_proper_lorentz
from lorentzsvd.qstate import (
    apply_slocc,
    is_valid_state,
    lambda_from_rho,
    random_state,
    read_state,
    rho_from_lambda,
    sl2c_to_lorentz,
)

RANKS = (1, 2, 3, 4)
PER_RANK = 2500


def _verdict(num: int, failures: list[str], detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num}: {status} - {detail}"
    if failures:
        line += f" [{len(failures)} violations; first: {failures[0]}]"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert not failures, line


@pytest.fixture(scope="module")
def corpus():
    """10^4 seeded states, 2.5 x 10^3 per rank 1-4, shared by suites 1 and 3."""
    out = []
    for rank in RANKS:
        for i in range(PER_RANK):
            rho = random_state(rank, seed=rank * 1_000_000 + i)
            out.append((rank, rho, lambda_from_rho(rho)))
    return out


def _pattern_a(r0: float, r1: float) -> np.ndarray:
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, r1, 0.0, 0.0],
            [0.0, 0.0, -r1, 0.0],
            [1.0 - r0, 0.0, 0.0, r0],
        ]
    )


# ---------------------------------------------------------------------------
# 1. spectral properties of both quadratic forms on 10^4 seeded states


def test_criterion_1_spectral_properties(corpus):
    failures: list[str] = []
    min_eig = np.inf
    max_imag = 0.0
    worst_norm = 0.0
    for idx, (rank, _, lam) in enumerate(corpus):
        for tag, omega in (("A", omega_matrices(lam)), ("B", omega_matrices(lam.T))):
            sys = g_eigensystem(omega)
            low = float(sys.eigenvalues.min())
            min_eig = min(min_eig, low)
            if low < -1e-9:
                failures.append(f"state {idx} rank {rank} side {tag}: eigenvalue {low:.3e}")
            residue = sys.condition_report.imag_residue
            max_imag = max(max_imag, residue)
            if residue > 1e-9:
                failures.append(f"state {idx} rank {rank} side {tag}: imag residue {residue:.3e}")
            # random states are TypeI: the top row is timelike, G-normalized
            x = sys.top_row
            norm = abs(float(x @ G_METRIC @ x) - 1.0)
            worst_norm = max(worst_norm, norm)
            if sys.family is not CanonicalFamily.TYPE_I or norm > 1e-12:
                failures.append(
                    f"state {idx} rank {rank} side {tag}: {sys.family.value} top row, "
                    f"|x^T G x - 1| = {norm:.3e}"
                )
    _verdict(
        1,
        failures,
        f"{len(corpus)} states x 2 forms: min eigenvalue {min_eig:.2e} (>= -1e-9), "
        f"max imag residue {max_imag:.2e} (<= 1e-9), top rows timelike "
        f"(|x^T G x - 1| <= {worst_norm:.2e}, <= 1e-12)",
    )


# ---------------------------------------------------------------------------
# 2. filtering invariance of power traces and canonical parameters


def _power_traces(omega: np.ndarray) -> np.ndarray:
    k = G_METRIC @ omega
    out = np.empty(4)
    p = np.eye(4)
    for n in range(4):
        p = p @ k
        out[n] = np.trace(p)
    return out


def _trace_gap(lam: np.ndarray) -> float:
    ta = _power_traces(omega_matrices(lam))
    tb = _power_traces(omega_matrices(lam.T))
    return float(max(abs(a - b) / max(1.0, abs(a), abs(b)) for a, b in zip(ta, tb)))


def test_criterion_2_slocc_invariance():
    gen = rng(20260201)
    failures: list[str] = []
    worst_trace = 0.0
    worst_param = 0.0
    for i in range(1000):
        rank = RANKS[i % 4]
        rho = random_state(rank, seed=5_000_000 + i)
        lam = lambda_from_rho(rho)
        rho2 = apply_slocc(rho, random_sl2c(gen), random_sl2c(gen))
        lam2 = lambda_from_rho(rho2)

        for tag, l in (("before", lam), ("after", lam2)):
            gap = _trace_gap(l)
            worst_trace = max(worst_trace, gap)
            if gap > 1e-8:
                failures.append(f"draw {i} rank {rank}: A/B trace gap {gap:.3e} {tag} filtering")

        res1 = canonicalize(rho)
        res2 = canonicalize(rho2)
        if res1.family is not res2.family:
            failures.append(
                f"draw {i} rank {rank}: family {res1.family.value} -> {res2.family.value}"
            )
            continue
        if res1.family is SideFamily.TYPE_I:
            gap = float(
                np.abs(np.diag(res1.canonical_lambda) - np.diag(res2.canonical_lambda)).max()
            )
        elif res1.family is SideFamily.DEGENERATE_PRODUCT:
            gap = 0.0
        else:
            p1, p2 = res1.parameters, res2.parameters
            gap = abs(p1["r1"] ** 2 / p1["r0"] - p2["r1"] ** 2 / p2["r0"])
        worst_param = max(worst_param, gap)
        if gap > 1e-7:
            failures.append(f"draw {i} rank {rank}: canonical parameters moved {gap:.3e}")
    _verdict(
        2,
        failures,
        f"1000 (state, filter) draws: A/B power traces n=1..4 agree to {worst_trace:.2e} "
        f"(<= 1e-8 rel) before and after filtering, canonical parameters move "
        f"{worst_param:.2e} (<= 1e-7)",
    )


# ---------------------------------------------------------------------------
# 3. explicit factorization quality on every corpus state


def test_criterion_3_canonical_reconstruction(corpus):
    failures: list[str] = []
    worst_fact = 0.0
    for idx, (rank, rho, lam) in enumerate(corpus):
        res = canonicalize(rho)
        image = res.left_lorentz @ lam @ res.right_lorentz.T
        image = image / image[0, 0]
        err = float(np.abs(image - res.canonical_lambda).max())
        worst_fact = max(worst_fact, err)
        if err > 1e-8:
            failures.append(f"state {idx} rank {rank}: factorization residual {err:.3e}")
        if not is_orthochronous_proper_lorentz(res.left_lorentz, tol=1e-9):
            failures.append(f"state {idx} rank {rank}: left factor fails the group check")
        if not is_orthochronous_proper_lorentz(res.right_lorentz, tol=1e-9):
            failures.append(f"state {idx} rank {rank}: right factor fails the group check")
        report = is_valid_state(res.canonical_rho)
        if not report.valid:
            failures.append(f"state {idx} rank {rank}: canonical rho invalid ({report.describe()})")
    _verdict(
        3,
        failures,
        f"{len(corpus)} states: normalized L_A Lambda L_B^T matches the canonical matrix "
        f"to {worst_fact:.2e} (<= 1e-8), factors pass the proper-orthochronous check at "
        f"1e-9, canonical rho is a valid state",
    )


# ---------------------------------------------------------------------------
# 4. closed-form family: spectra, explicit boosts, pipeline parameters


def _sample_bcd(gen: np.random.Generator) -> SigmaParameters:
    """Valid (b, c, d) with the one-boost gauge well-defined on the A side.

    The closed-form A-side boost needs 1 + c - 2b > 0, and d > 0 keeps
    the published parameter expressions single-valued, so the sampler
    stays inside that region with a safety margin.
    """
    while True:
        c = gen.uniform(-0.85, 0.9)
        lo, hi = c + 0.02, min(0.9, (1.0 + c) / 2.0 - 0.025)
        if hi <= lo:
            continue
        b = gen.uniform(lo, hi)
        if 1.0 + c - 2.0 * b <= 0.05:
            continue
        cap = np.sqrt((1.0 + c) * (1.0 - b))
        p = SigmaParameters(b=b, c=c, d=gen.uniform(0.2, 0.95) * cap)
        if not p.violations():
            return p


def test_criterion_4_closed_form_equivalence():
    gen = rng(20260202)
    failures: list[str] = []
    worst_eig = 0.0
    worst_boost = 0.0
    worst_param = 0.0
    for i in range(1000):
        p = _sample_bcd(gen)
        rep = sigma_equivalence_check(p)
        lam1 = p.d * p.d  # smallest eigenvalue, bounds the relative error from above
        eig_rel = rep.eigenvalue_residual / lam1
        worst_eig = max(worst_eig, eig_rel)
        if eig_rel > 1e-10:
            failures.append(f"draw {i} {p}: eigenvalue mismatch {eig_rel:.3e} relative")
        boost = max(rep.b_side_residual, rep.a_side_residual)
        worst_boost = max(worst_boost, boost)
        if boost > 1e-10:
            failures.append(f"draw {i} {p}: explicit boost image off by {boost:.3e}")
        if not rep.closed_forms_proper:
            failures.append(f"draw {i} {p}: closed-form boost left the group")
        worst_param = max(worst_param, rep.s_parameter_residual)
        if rep.s_parameter_residual > 1e-8:
            failures.append(
                f"draw {i} {p}: pipeline (s0, s1) off by {rep.s_parameter_residual:.3e}"
            )

    # spot value for (b, c, d) = (0.5, 0.1, 0.3)
    sigma, _ = sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))
    # side B from its own kernel vector: side A of Sigma^T
    kernel = read_state(rho_from_lambda(sigma.T))[1]
    params = type2_canonical(sigma.T, kernel.null_top, kernel.merged).parameters
    if abs(params["r0"] - 5.0 / 9.0) > 1e-12:
        failures.append(f"spot s0 = {params['r0']!r}, expected 0.5555...")
    if abs(params["r1"] - 0.301511) > 5e-7:
        failures.append(f"spot s1 = {params['r1']!r}, expected 0.301511")
    _verdict(
        4,
        failures,
        f"1000 (b,c,d) draws: eigenvalues match the closed form to {worst_eig:.2e} "
        f"(<= 1e-10 rel), explicit one-boost factorizations reproduce the canonical "
        f"patterns to {worst_boost:.2e} (<= 1e-10), pipeline (s0, s1) within "
        f"{worst_param:.2e} (<= 1e-8); spot (0.5,0.1,0.3) -> s0=0.5556, s1=0.301511",
    )


# ---------------------------------------------------------------------------
# 5. the non-diagonalizable fixed point (r0, r1) = (0.64, 0.6)


def test_criterion_5_type2_fixed_point():
    failures: list[str] = []
    lam = _pattern_a(0.64, 0.6)
    # TypeII is decided on the state's kernel, which gives the null top vector u
    u = read_state(rho_from_lambda(lam))[1].null_top
    if u is None:
        failures.append("kernel holds no product vector, expected TypeII")
    spectrum = g_spectrum(omega_matrices(lam))
    if abs(spectrum[0] - 0.64) > 1e-12 or abs(spectrum[1] - 0.64) > 1e-12:
        failures.append(f"top eigenvalues {spectrum[:2]}, expected (0.64, 0.64)")
    if spectrum[2] == spectrum[1]:
        failures.append(f"top multiplicity above 2: {spectrum}")
    if u is not None:
        if abs(u @ G_METRIC @ u) > 1e-12:
            failures.append(f"top vector not neutral: x^T G x = {u @ G_METRIC @ u:.3e}")
        residual = np.abs(G_METRIC @ omega_matrices(lam) @ u - spectrum[0] * u).max()
        if residual > 1e-12:
            failures.append(f"top vector not an eigenvector: residual {residual:.3e}")

    res = canonicalize(rho_from_lambda(lam))
    if res.family is not SideFamily.TYPE_II_A:
        failures.append(f"family {res.family.value}, expected TypeII_A")
    for key, want in (("r0", 0.64), ("r1", 0.6)):
        if abs(res.parameters[key] - want) > 1e-9:
            failures.append(f"{key} = {res.parameters[key]!r}, expected {want}")
    again = canonicalize(res.canonical_rho)
    drift = max(abs(again.parameters[k] - res.parameters[k]) for k in ("r0", "r1", "phi0"))
    if drift > 1e-9:
        failures.append(f"parameters drifted {drift:.3e} on re-canonicalization")
    _verdict(
        5,
        failures,
        "(0.64, 0.6) pattern: TypeII with doubly degenerate eigenvalue 0.64 and neutral "
        f"top vector, idempotent to {drift:.2e} (<= 1e-9)",
    )


# ---------------------------------------------------------------------------
# 6. steered surfaces of canonical states match their quadric parameters


def test_criterion_6_geometry(corpus):
    failures: list[str] = []
    worst = 0.0

    surfaces = []
    for name, lam in (
        ("werner-0.5", np.diag([1.0, 0.5, 0.5, -0.5])),
        ("bell", np.diag([1.0, 1.0, 1.0, -1.0])),
        ("rank2-diag", np.diag([1.0, 1.0, 0.0, 0.0])),
        ("segment", _pattern_a(0.5, 0.0)),
        ("spheroid", _pattern_a(0.64, 0.6)),
    ):
        surfaces.append((name, canonicalize(rho_from_lambda(lam))))
    for k in (3, 1203, 2504, 3705, 5006, 9901):
        surfaces.append((f"corpus-{k}", canonicalize(corpus[k][1])))

    for name, res in surfaces:
        for node, direction in ((res, "BtoA"), (res.partner, "AtoB")):
            if node is None:
                continue
            ell = steering_ellipsoid(node)
            pts = sample_steered_surface(node.canonical_lambda, direction, 500)
            resid = float(np.max(surface_residuals(pts, ell)))
            worst = max(worst, resid)
            if resid > 1e-8:
                failures.append(f"{name} ({direction}): surface residual {resid:.3e}")

    werner = steering_ellipsoid(canonicalize(rho_from_lambda(np.diag([1.0, 0.5, 0.5, -0.5]))))
    if np.abs(werner.semi_axes - 0.5).max() > 1e-12 or np.abs(werner.center).max() > 1e-12:
        failures.append(f"werner geometry {werner.center} / {werner.semi_axes}")
    spheroid = steering_ellipsoid(canonicalize(rho_from_lambda(_pattern_a(0.64, 0.6))))
    if np.abs(spheroid.center - [0.0, 0.0, 0.36]).max() > 1e-9:
        failures.append(f"spheroid center {spheroid.center}, expected (0, 0, 0.36)")
    if np.abs(spheroid.semi_axes - [0.6, 0.6, 0.64]).max() > 1e-9:
        failures.append(f"spheroid semi-axes {spheroid.semi_axes}, expected (0.6, 0.6, 0.64)")
    _verdict(
        6,
        failures,
        f"{len(surfaces)} canonical states, 500-point steered surfaces: max quadric "
        f"residual {worst:.2e} (<= 1e-8); werner(0.5) is the radius-0.5 sphere; "
        f"(0.64, 0.6) gives center (0,0,0.36), semi-axes (0.6, 0.6, 0.64)",
    )


# ---------------------------------------------------------------------------
# 7. secular-function route agrees with the production eigensolver


def test_criterion_7_secular_oracle_agreement():
    gen = rng(20260203)
    failures: list[str] = []
    worst_root = 0.0
    worst_ident = 0.0
    eye3 = np.eye(3)
    for i in range(1000):
        lam = lambda_from_rho(random_state(4, seed=7_000_000 + i))
        omega = omega_matrices(lam)
        sys = g_eigensystem(omega)
        oracle = spectral_oracle(omega)
        roots = oracle_eigenvalues(oracle)
        scale = max(1.0, float(np.abs(sys.eigenvalues).max()))
        gap = float(np.abs(roots - sys.eigenvalues).max()) / scale
        worst_root = max(worst_root, gap)
        if gap > 1e-8:
            failures.append(f"state {i}: secular roots off by {gap:.3e}")

        poles = -oracle.alpha
        span = max(1.0, abs(oracle.n0), float(np.abs(oracle.alpha).max()),
                   float((oracle.n ** 2).max()))
        done = 0
        while done < 10:
            x = gen.uniform(-2.0 * span, 2.0 * span)
            if float(np.abs(x - poles).min()) < 0.05 * span:
                continue
            ratio = np.linalg.det(omega - x * G_METRIC) / np.linalg.det(
                omega[1:, 1:] + x * eye3
            )
            h = h_function(oracle, x)
            rel = abs(h - ratio) / max(1.0, abs(h), abs(ratio))
            worst_ident = max(worst_ident, rel)
            if rel > 1e-9:
                failures.append(f"state {i} at x={x:.6g}: h vs determinant ratio {rel:.3e}")
            done += 1
    _verdict(
        7,
        failures,
        f"1000 full-rank states: secular roots match the eigensolver to {worst_root:.2e} "
        f"(<= 1e-8), determinant identity h = det(Omega - x G)/det(spatial + x I) holds "
        f"to {worst_ident:.2e} (<= 1e-9 rel) at 10 non-pole points per state",
    )


# ---------------------------------------------------------------------------
# 8. group homomorphism and state/correlation-matrix round trips


def test_criterion_8_homomorphism_round_trip():
    gen = rng(20260204)
    failures: list[str] = []
    worst_hom = 0.0
    worst_rt = 0.0
    for i in range(1000):
        a1, a2 = random_sl2c(gen), random_sl2c(gen)
        l1, l2 = sl2c_to_lorentz(a1), sl2c_to_lorentz(a2)
        l12 = sl2c_to_lorentz(a1 @ a2)
        hom = float(np.abs(l12 - l1 @ l2).max())
        worst_hom = max(worst_hom, hom)
        if hom > 1e-10:
            failures.append(f"draw {i}: homomorphism residual {hom:.3e}")

        rho = random_state(RANKS[i % 4], seed=8_000_000 + i)
        lam = lambda_from_rho(rho)
        back = rho_from_lambda(lam)
        rt = max(
            float(np.abs(back - rho).max()),
            float(np.abs(lambda_from_rho(back) - lam).max()),
        )
        worst_rt = max(worst_rt, rt)
        if rt > 1e-10:
            failures.append(f"draw {i}: round-trip residual {rt:.3e}")
    _verdict(
        8,
        failures,
        f"1000 draws: SL(2,C) -> SO(3,1) multiplicativity within {worst_hom:.2e} "
        f"(<= 1e-10), rho <-> Lambda round trip within {worst_rt:.2e} (<= 1e-10)",
    )
