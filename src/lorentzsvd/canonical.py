"""Canonical factorization of two-qubit correlation matrices.

A valid state's correlation matrix Lambda factors as

    Lambda^c = L_A Lambda L_B^T / N ,

with L_A, L_B proper orthochronous Lorentz matrices, N > 0 the
00-normalization, and Lambda^c one of three shapes:

* non-diagonalizable family ("TypeII", defective top eigenvalue): the
  arrow-shaped pattern with two parameters (r0, r1) on the A side or
  (s0, s1) on the B side, realized on a rank <= 3 state.  It is decided
  on rho's kernel, which holds a product vector exactly for these
  states (`qstate.read_state`), and no G-eigensystem is solved;
* diagonalizable family ("TypeI"): Lambda^c is diagonal,
  diag(1, d1, d2, d3) with d_i^2 = l_i/l0 and d3 signed by det Lambda,
  realized on a Bell-diagonal state;
* degenerate product family: the top eigenvalue vanishes on a state of
  rank at most 2 (a pure marginal) and no 00-normalizable canonical
  form exists.

The spectrum of Omega_A = Lambda G Lambda^T and rho's rank tell the last
two apart, on every state that is not TypeII.

Both families follow the Lorentz-SVD route Rao et al. take for Mueller
matrices (J. Mod. Opt. 45, 955 (1998)): one top eigenvector, exact group
elements on each side, then an SVD of the block that is left.  The
TypeI factors need the timelike top eigenvector a alone (in a
degenerate top eigenspace, where the choice is gauge, its Gram top
eigenvector): a boost takes a to the time axis on side A, and another
its image through Lambda on side B, after which the SVD of the
remaining 3x3 block gives the two rotations.  The TypeII factors need
the future null top eigenvector u alone, which rho's kernel gives: a
rotation, a null rotation and a boost on each side bring Lambda to the
arrow pattern up to its 1-2 block, whose 2x2 SVD gives the two
rotations (see `_arrow`).
Residual gauge freedom in the non-diagonalizable family (the null top
eigenvector has no preferred scale) is pinned by a fixed rule,
documented in `_arrow`, chosen so that canonical inputs reproduce their
own parameters exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from .errors import (
    InvalidCanonicalParameters,
    InvalidSigmaParameters,
    NotTypeI,
    NotTypeII,
    NumericalFailure,
    SingularTopEigenvalue,
)
from .geigen import CanonicalFamily, GEigenSystem, g_eigensystem, g_spectrum, omega_matrices
from .minkowski import (
    DEFAULT_TOL,
    DEFECTIVE_ROOT_FLOOR,
    G_METRIC,
    LORENTZ_TOL_FLOOR,
    TRANSPORT_ZERO_REL,
    ZERO_REL,
    det3,
    is_orthochronous_proper_lorentz,
)
from .qstate import read_state, rho_from_lambda


class SideFamily(Enum):
    TYPE_I = "TypeI"
    TYPE_II_A = "TypeII_A"
    TYPE_II_B = "TypeII_B"
    DEGENERATE_PRODUCT = "DegenerateProduct"


@dataclass(frozen=True)
class CanonicalResult:
    """One canonical factorization Lambda^c = L_A Lambda L_B^T / N.

    ``parameters`` holds the family's scalar data:
    {"lambdas": [...], "detSign": +-1 or 0} for the diagonal family,
    {"r0", "r1", "phi0"} or {"s0", "s1", "chi0"} for the arrow family,
    {"lambdas": [...]} alone for the degenerate product family.  A
    diagonal result's lambdas are the G-eigenvalues of the solve, while
    its ``canonical_lambda`` and ``detSign`` are read off the factors.
    ``partner`` carries the B-side result when both sides are reported.
    """

    family: SideFamily
    canonical_lambda: np.ndarray
    canonical_rho: np.ndarray
    left_lorentz: np.ndarray
    right_lorentz: np.ndarray
    parameters: dict[str, Any]
    normalization_scale: float
    residuals: dict[str, float]
    partner: "CanonicalResult | None" = None


def _pipeline_rho(build, *params, tol: float) -> np.ndarray:
    """Canonical state of parameters the pipeline computed, by ``build``
    (`canonical_rho_type1` or `canonical_rho_type2`).  Outside the region
    they are a numerical failure of the factorization (exit 3), not the
    malformed input InvalidCanonicalParameters reports (exit 1)."""
    try:
        return build(*params, tol=max(tol, DEFECTIVE_ROOT_FLOOR))
    except InvalidCanonicalParameters as exc:
        raise NumericalFailure(f"computed canonical form is not a state: {exc}") from None


def _max_gap(rows: list[list[float]], target: list[list[float]], scale: float = 1.0) -> float:
    """max |rows / scale - target| over the entries of two 4x4 matrices
    given as rows of Python floats."""
    return max([abs(v / scale - t) for row, trow in zip(rows, target) for v, t in zip(row, trow)])


def _accept(family: SideFamily, left: np.ndarray, right: np.ndarray, D: list[list[float]],
            canon: list[list[float]], omega: np.ndarray, omega_target: list[list[float]],
            family_residuals: dict[str, float], rho_args: tuple, parameters: dict[str, Any],
            tol: float, partner: CanonicalResult | None = None) -> CanonicalResult:
    """The acceptance tail of both constructions, for D = left W right^T
    and the canonical form ``canon`` read off D / D00, both as rows.  In
    order: the Lorentz-group check of both factors; the factorization and
    omegaCanonical (left Omega left^T against ``omega_target``) residuals,
    then the family's own; the canonical state of ``rho_args``
    (`_pipeline_rho`); and the factorization recheck last, so every
    refusal before it keeps its own message.  A TypeII_B side, factored
    as the A side of Lambda^T, is transposed back: its factors swap.  A
    TypeII_A side carries its built B side as ``partner``."""
    for rows, name in ((left, "left"), (right, "right")):
        if not is_orthochronous_proper_lorentz(rows, tol=max(tol, LORENTZ_TOL_FLOOR)):
            raise NumericalFailure(f"{name} tetrad failed the Lorentz-group check")
    n_scale = D[0][0]
    residuals = {
        "factorization": _max_gap(D, canon, n_scale),
        "omegaCanonical": _max_gap((left @ omega @ left.T).tolist(), omega_target),
        **family_residuals,
    }
    rho_c = _pipeline_rho(*rho_args, tol=tol)
    residual, bound = residuals["factorization"], max(tol, DEFECTIVE_ROOT_FLOOR)
    if residual > bound:
        raise NumericalFailure(f"factorization residual {residual:.3e} exceeds {bound:.1e}")
    canon = np.array(canon, dtype=float)
    if family is SideFamily.TYPE_II_B:
        canon, left, right = canon.T, right, left
    return CanonicalResult(
        family=family,
        canonical_lambda=canon,
        canonical_rho=rho_c,
        left_lorentz=left,
        right_lorentz=right,
        parameters=parameters,
        normalization_scale=n_scale,
        residuals=residuals,
        partner=partner,
    )


# ---------------------------------------------------------------------------
# diagonal (TypeI) construction

def _diagonal(d0: float, d1: float, d2: float, d3: float) -> list[list[float]]:
    """diag(d0, d1, d2, d3) as rows."""
    return [[d0, 0.0, 0.0, 0.0], [0.0, d1, 0.0, 0.0], [0.0, 0.0, d2, 0.0], [0.0, 0.0, 0.0, d3]]


def _boost(x: list[float]) -> np.ndarray:
    """The symmetric boost [[g, p^T], [p, I + p p^T / (1 + g)]] whose row 0
    is the unit future timelike x = (g, p); it takes x to the time axis."""
    # on Python floats, which take half the time of numpy's outer product
    # here; adding 0.0 off the diagonal folds -0.0 into 0.0
    g, p1, p2, p3 = x
    h = 1.0 + g
    o12, o13, o23 = p1 * p2 / h + 0.0, p1 * p3 / h + 0.0, p2 * p3 / h + 0.0
    return np.array([[g, p1, p2, p3],
                     [p1, p1 * p1 / h + 1.0, o12, o13],
                     [p2, o12, p2 * p2 / h + 1.0, o23],
                     [p3, o13, o23, p3 * p3 / h + 1.0]], dtype=float)


def type1_canonical(
    lam: np.ndarray,
    sys_a: GEigenSystem,
    tol: float = DEFAULT_TOL,
) -> CanonicalResult:
    """Diagonal canonical form from the timelike top eigenvector a.

    ``sys_a`` is the eigensystem of Omega_A; only its eigenvalues, its
    form and a are read.  The B-side time leg is b = G Lambda^T a /
    sqrt(lam0).  In the frames of the boosts B(a), B(b), Lambda keeps its
    row 0 and column 0 on the time axis, and the SVD U S V^T of its 3x3
    block gives L_A = diag(1, U^T) B(a) and L_B = diag(1, V^T) B(b), each
    rotation made proper by negating its last row.  Signs are then fixed: the
    first three diagonal entries of D = L_A Lambda L_B^T non-negative and
    det L_B = +1 (an odd number of flips flips row 3 once more), leaving
    the sign of D33 equal to sgn(det Lambda).  The canonical diagonal is
    read off D: d_i = D_ii / D00, with ``detSign`` and d3 zero when
    |d3| <= tol.  `_accept` checks and reports the result; its
    factorization recheck, max |D_ij| / D00 over i != j, refuses a D that
    does not come out diagonal, which is how a B side of another family
    shows up if b is future timelike.  ``parameters["lambdas"]`` stays
    the eigenvalues of the solve; ``rhoMinEigenvalue`` is the smallest
    Bell weight of the canonical state.
    """
    if sys_a.family is not CanonicalFamily.TYPE_I:
        raise NotTypeI(f"side A classifies as {sys_a.family.value}")
    lambdas = sys_a.eigenvalues.tolist()
    lam0 = lambdas[0]
    zero_tol = max(tol, TRANSPORT_ZERO_REL) * max(1.0, lam0)
    if lam0 <= zero_tol:
        raise SingularTopEigenvalue(f"top eigenvalue {lam0:.3e} <= {zero_tol:.1e}")

    a = sys_a.top_row
    b = G_METRIC @ lam.T @ a
    bb = float(b @ G_METRIC @ b)
    b_list = b.tolist()
    if not (bb > 0.0 and b_list[0] > 0.0):
        raise NumericalFailure(
            f"transported time leg is not future timelike "
            f"(Minkowski norm {bb:.3e}, time component {b_list[0]:.3e})"
        )
    root = math.sqrt(bb)
    a_rows, b_rows = _boost(a.tolist()), _boost([v / root for v in b_list])
    u, _, r_b = np.linalg.svd((a_rows @ lam @ b_rows.T)[1:, 1:])
    r_a = u.T
    for r in (r_a, r_b):
        if det3(r.tolist()) < 0:
            r[2] = -r[2]
    a_rows[1:] = r_a @ a_rows[1:]
    b_rows[1:] = r_b @ b_rows[1:]

    D = (a_rows @ lam @ b_rows.T).tolist()
    # B(b) and diag(1, r_b) are proper, so det L_B is the parity of the
    # flips; the Lorentz check below verifies it
    flips = [i for i in (1, 2, 3) if D[i][i] < 0]
    if len(flips) % 2:
        flips.append(3)
    for i in flips:
        b_rows[i] = -b_rows[i]
        for row in D:
            row[i] = -row[i]

    d1, d2, d3 = (D[i][i] / D[0][0] for i in (1, 2, 3))
    det_sign = 0 if abs(d3) <= tol else (1 if d3 > 0 else -1)
    d3 = d3 if det_sign else 0.0
    return _accept(
        SideFamily.TYPE_I, a_rows, b_rows, D, _diagonal(1.0, d1, d2, d3), sys_a.omega,
        _diagonal(lam0, -lambdas[1], -lambdas[2], -lambdas[3]),
        # rho_c is Bell-diagonal: its eigenvalues are the Bell weights
        {"rhoMinEigenvalue": min(_bell_weights(d1, d2, d3))},
        (canonical_rho_type1, d1, d2, d3), {"lambdas": lambdas, "detSign": det_sign}, tol,
    )


# ---------------------------------------------------------------------------
# arrow (TypeII) construction


def _arrow_rows(r0: float, r1: float) -> list[list[float]]:
    """The arrow pattern of (r0, r1), as rows."""
    return [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, r1, 0.0, 0.0],
        [0.0, 0.0, -r1, 0.0],
        [1.0 - r0, 0.0, 0.0, r0],
    ]


def _type2_pattern(r0: float, r1: float) -> np.ndarray:
    return np.array(_arrow_rows(r0, r1), dtype=float)


def _rotation_to(w: list[float]) -> list[list[float]]:
    """A proper rotation whose last row is the unit 3-vector w.  The closed
    form divides by 1 + w3, so for w3 < 0 it is built for -w and its last
    two rows are negated."""
    w1, w2, w3 = w
    if w3 < 0.0:
        r1, r2, r3 = _rotation_to([-w1, -w2, -w3])
        return [r1, [-x for x in r2], [-x for x in r3]]
    h = 1.0 / (1.0 + w3)
    return [[1.0 - w1 * w1 * h, -w1 * w2 * h, -w1],
            [-w1 * w2 * h, 1.0 - w2 * w2 * h, -w2],
            [w1, w2, w3]]


def _null_frame(x: list[float], sign: float) -> np.ndarray:
    """diag(1, R) for a future null x, R a proper rotation whose last row is
    ``sign`` times the unit spatial direction of x: row 0 + sign * row 3
    is x scaled to unit time component."""
    x0, *xs = x
    if not x0 > 0.0:
        raise NumericalFailure(
            f"null eigenvector is not future-pointing (time component {x0:.3e}); "
            "the input violates positivity transfer"
        )
    scale = sign / math.sqrt(xs[0] * xs[0] + xs[1] * xs[1] + xs[2] * xs[2])
    r1, r2, r3 = _rotation_to([v * scale for v in xs])
    return np.array([[1.0, 0.0, 0.0, 0.0], [0.0, *r1], [0.0, *r2], [0.0, *r3]], dtype=float)


def _arrow_min_eigenvalue(p0: float, p1: float) -> float:
    """Smallest eigenvalue of `canonical_rho_type2` (p0, p1), whose spectrum
    is {0, (1 - p0)/2, (1 + p0 +- sqrt((1 - p0)^2 + 4 p1^2))/4}."""
    root = math.sqrt((1.0 - p0) ** 2 + 4.0 * p1 * p1)
    return min(0.0, 0.5 * (1.0 - p0), 0.25 * (1.0 + p0 - root))


def _null_rotation(B: list[list[float]], lam0: float) -> tuple[float, float]:
    """(a, b) solving [[B11 + lam0, B12], [B12, B22 + lam0]] (a, b) =
    -(B(e1, n), B(e2, n)) / 2 for n = e0 + e3, on Python floats."""
    m11, m12, m22 = B[1][1] + lam0, B[1][2], B[2][2] + lam0
    f1, f2 = -0.5 * (B[1][0] + B[1][3]), -0.5 * (B[2][0] + B[2][3])
    det = m11 * m22 - m12 * m12
    return (f1 * m22 - m12 * f2) / det, (m11 * f2 - m12 * f1) / det


def type2_canonical(
    lam: np.ndarray,
    u: np.ndarray,
    merged: bool,
    tol: float = DEFAULT_TOL,
) -> CanonicalResult:
    """Arrow-shaped canonical form of side A, with side B as ``partner``.

    ``u`` is the future null top eigenvector of G Omega_A and ``merged``
    says its top cluster holds all four eigenvalues (r1^2 = r0), both as
    rho's kernel gives them (`qstate.StateKernel`).  Side A's parameters
    are (r0, r1) with scale phi0, side B's (s0, s1) with scale chi0.  No
    eigensystem is solved: v = G Lambda^T u, the image of u, satisfies
    G Omega_B v = G Lambda^T G Omega_A u = lam0 v, so v is side B's null
    top eigenvector, and the two sides share the spectrum.  Each side's
    construction forms its own Omega, where a B side of another family
    shows up in the checks.  Side B from its own kernel vector is side A
    of Lambda^T, since Omega_A(Lambda^T) = Omega_B(Lambda).  Side B is
    built first, so side A's result takes it as its partner.
    """
    omega_a, omega_b = omega_matrices(lam), omega_matrices(lam.T)
    partner = _arrow(lam, omega_b, "B", G_METRIC @ lam.T @ u, merged, tol)
    return _arrow(lam, omega_a, "A", u, merged, tol, partner)


def _arrow(
    lam: np.ndarray,
    omega: np.ndarray,
    side: str,
    u: np.ndarray,
    merged: bool,
    tol: float,
    partner: CanonicalResult | None = None,
) -> CanonicalResult:
    """One side of `type2_canonical`, from the future null top eigenvector
    u of ``omega``, the form of ``side``, onward.

    The side is the A side of W = Lambda ("A") or of W = Lambda^T ("B"),
    transposed back.  Every factor is a product of exact Lorentz group
    elements, built on Python floats:

    1. L_A starts as diag(1, R), R a proper rotation with last row -u^,
       so that row 0 - row 3 is u.  In that frame u is l = e0 - e3, and
       the form B = L_A Omega L_A^T maps l to lam0 n, n = e0 + e3.
    2. A null rotation about l (e1 -> e1 + a l, e2 -> e2 + b l) makes B
       block-diagonal: (a, b) = -(B(e1, n), B(e2, n)) / 2 solves a 2x2
       system whose matrix [[B11 + lam0, B12], [B12, B22 + lam0]] is
       close to (lam0 - lam1) I, so regular inside the TypeII region,
       and the solve is exact because B l = lam0 n.  u comes from rho's
       kernel to about eps ||rho|| / gap, so it needs no refining first
       (a defective eigenvector of G Omega, fixed only as well as its
       split double root, needed a first-order null rotation about n).
       When the top
       cluster holds all four eigenvalues (lam1 = lam0, r1^2 = r0), every
       frame with row 0 - row 3 along u is already block-diagonal, and the
       rotation is the identity.
    3. Gauge: the plane of rows 0 and 3 holds two null rays, along u and
       along row 0 + row 3.  Any unit timelike leg in it yields a valid
       canonical form, but with different (r0, r1) -- the boost along u
       is genuine residual freedom.  It is pinned scale-freely: the time
       leg is the G-normalized sum of the two rays, each scaled to unit
       time component, so row 3 has no time component.  Canonical inputs
       then reproduce their own parameters, because for them the pinned
       leg is exactly e0.  It is a boost along 0-3 with e^(2 eta) = 1 /
       (1 + a^2 + b^2).
    4. L_B starts as diag(1, R'), R' with last row v^ for v = G W^T u,
       the null top eigenvector of side B, which the factorization puts
       along row 0 + row 3 of L_B.  A null rotation about e0 + e3 makes
       rows 1 and 2 G-orthogonal to the transported time leg G W^T
       L_A[0], which zeroes D01 and D02 of D = L_A W L_B^T, and a boost
       along 0-3 zeroes D03.  D then has the arrow's zeros outside its
       1-2 block.
    5. The 1-2 block C is N r1 times a reflection, up to rounding.  Its
       closed-form 2x2 SVD gives C = Q (rotation part) + R (reflection
       part at angle alpha); turning rows 1 and 2 of both factors by
       -alpha/2 makes the reflection part diag(R, -R).  The singular
       values are R + Q and |R - Q|: r1 = max(Q, R) / N is their mean,
       their split 2 min(Q, R) / N is ``lambdaPairSplit``, r0 = D33 / N
       and N = D00.  A block of positive determinant (Q > R) has no
       proper rotation to the arrow's (r1, -r1); beyond the
       factorization bound it is refused (positivity transfer).
    6. `_accept` checks the factors and the residuals and, on side B,
       transposes the factorization back; side A takes ``partner``.
    """
    work = lam if side == "A" else lam.T
    bound = max(tol, DEFECTIVE_ROOT_FLOOR)

    k_a = _null_frame(u.tolist(), -1.0)
    B = (k_a @ omega @ k_a.T).tolist()
    lam0 = 0.5 * (B[0][0] - B[3][3])
    a, b = (0.0, 0.0) if merged else _null_rotation(B, lam0)
    s = a * a + b * b
    q = math.sqrt(1.0 + s)
    left = np.array([[q, a / q, b / q, -s / q], [a, 1.0, 0.0, -a],
                     [b, 0.0, 1.0, -b], [0.0, a / q, b / q, 1.0 / q]], dtype=float) @ k_a

    # v = G W^T u: negating the spatial part of W^T u is exact
    v0, v1, v2, v3 = (work.T @ u).tolist()
    k_b = _null_frame([v0, -v1, -v2, -v3], 1.0)
    d0, d1, d2, d3 = (k_b @ (work.T @ left[0])).tolist()
    plus = d0 + d3
    phi0 = plus * (d0 - d3) - d1 * d1 - d2 * d2
    if not (plus > 0.0 and phi0 > max(tol, ZERO_REL) * max(1.0, lam0)):
        raise NumericalFailure(
            f"canonical 00-scale {phi0:.3e} is not positive; "
            "the input violates positivity transfer"
        )
    a, b = -d1 / plus, -d2 / plus
    s = a * a + b * b
    p = math.sqrt(phi0) / plus
    right = np.array([[0.5 * (p + (1.0 + s) / p), a / p, b / p, 0.5 * (p + (s - 1.0) / p)],
                      [a, 1.0, 0.0, a], [b, 0.0, 1.0, b],
                      [0.5 * (p - (1.0 + s) / p), -a / p, -b / p, 0.5 * (p - (s - 1.0) / p)]],
                     dtype=float) @ k_b

    D = (left @ work @ right.T).tolist()
    (c11, c12), (c21, c22) = D[1][1:3], D[2][1:3]
    rot_part = math.hypot(0.5 * (c11 + c22), 0.5 * (c21 - c12))
    ref_part = math.hypot(0.5 * (c11 - c22), 0.5 * (c21 + c12))
    n_scale = D[0][0]
    if rot_part - ref_part > bound * n_scale:
        raise NumericalFailure(
            f"the 1-2 block of the transformed correlation matrix has positive "
            f"determinant (singular values {rot_part + ref_part:.3e}, "
            f"{rot_part - ref_part:.3e}); the input violates positivity transfer"
        )
    half = 0.5 * math.atan2(0.5 * (c21 + c12), 0.5 * (c11 - c22))
    turn = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, math.cos(half), math.sin(half), 0.0],
                     [0.0, -math.sin(half), math.cos(half), 0.0], [0.0, 0.0, 0.0, 1.0]],
                    dtype=float)
    left, right = turn @ left, turn @ right
    D = (left @ work @ right.T).tolist()
    n_scale = D[0][0]
    r0 = D[3][3] / n_scale
    r1 = max(rot_part, ref_part) / n_scale
    phi0 = n_scale * n_scale

    lam0, lam1 = phi0 * r0, phi0 * r1 * r1
    omega_target = [
        [phi0, 0.0, 0.0, phi0 - lam0],
        [0.0, -lam1, 0.0, 0.0],
        [0.0, 0.0, -lam1, 0.0],
        [phi0 - lam0, 0.0, 0.0, phi0 - 2.0 * lam0],
    ]
    family_residuals = {
        "lambdaPairSplit": 2.0 * min(rot_part, ref_part) / n_scale,
        "rhoMinEigenvalue": _arrow_min_eigenvalue(r0, r1),
    }
    family, params = ((SideFamily.TYPE_II_A, {"r0": r0, "r1": r1, "phi0": phi0}) if side == "A"
                      else (SideFamily.TYPE_II_B, {"s0": r0, "s1": r1, "chi0": phi0}))
    return _accept(family, left, right, D, _arrow_rows(r0, r1), omega, omega_target,
                   family_residuals, (canonical_rho_type2, r0, r1, side), params, tol, partner)


# ---------------------------------------------------------------------------
# full pipeline


def canonicalize(rho: np.ndarray, tol: float = DEFAULT_TOL) -> CanonicalResult:
    """Full factorization pipeline for a two-qubit density matrix.

    The family is decided once.  rho's kernel decides TypeII
    (`read_state`), and a TypeII state is factored from the null top
    eigenvector that kernel gives, with no eigensolve.  Every other
    state solves side A's eigensystem with rho's rank, which decides
    TypeI or DegenerateProduct (`_factor_solved`).  The diagonalizable family
    reports one result (the two sides coincide); the non-diagonalizable
    family reports the A side with the B side attached as ``partner``,
    since the two canonical states differ in general.  The degenerate
    product family yields a report without canonical normalization.
    """
    lam, kernel = read_state(rho, tol)
    if kernel.null_top is not None:
        return type2_canonical(lam, kernel.null_top, kernel.merged, tol)
    return _factor_solved(lam, g_eigensystem(omega_matrices(lam), tol, kernel.rank), tol)


def _factor_solved(lam: np.ndarray, sys_a: GEigenSystem, tol: float) -> CanonicalResult:
    """`canonicalize` of a state that is not TypeII, after side A's
    eigensolve of Omega_A: TypeI or DegenerateProduct.

    Neither solves side B.  `type1_canonical` transports the B tetrad
    through Lambda, and a DegenerateProduct side A decides the family
    for both sides, since Omega_A and Omega_B share one spectrum.
    """
    if sys_a.family is CanonicalFamily.TYPE_I:
        return type1_canonical(lam, sys_a, tol)
    return CanonicalResult(
        family=SideFamily.DEGENERATE_PRODUCT,
        canonical_lambda=lam.copy(),
        canonical_rho=rho_from_lambda(lam, tol),
        left_lorentz=np.eye(4),
        right_lorentz=np.eye(4),
        parameters={"lambdas": [float(v) for v in sys_a.eigenvalues]},
        normalization_scale=1.0,
        residuals={},
    )


# ---------------------------------------------------------------------------
# canonical density matrices from parameters alone


def _bell_weights(d1: float, d2: float, d3: float) -> list[float]:
    """The four Bell weights of the state with correlation diag(1, d1, d2, d3)."""
    return [
        0.25 * (1.0 - d1 - d2 - d3),
        0.25 * (1.0 - d1 + d2 + d3),
        0.25 * (1.0 + d1 - d2 + d3),
        0.25 * (1.0 + d1 + d2 - d3),
    ]


def canonical_rho_type1(d1: float, d2: float, d3: float, tol: float) -> np.ndarray:
    """Bell-diagonal state with correlation diag(1, d1, d2, d3)."""
    weight = min(_bell_weights(d1, d2, d3))
    if weight < -tol:
        raise InvalidCanonicalParameters(
            f"diagonal parameters ({d1:.6g}, {d2:.6g}, {d3:.6g}) give a "
            f"Bell weight {weight:.3e} < 0"
        )
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.25 * (1.0 + d3)
    rho[1, 1] = rho[2, 2] = 0.25 * (1.0 - d3)
    rho[1, 2] = rho[2, 1] = 0.25 * (d1 + d2)
    rho[0, 3] = rho[3, 0] = 0.25 * (d1 - d2)
    return rho


def canonical_rho_type2(p0: float, p1: float, side: str, tol: float) -> np.ndarray:
    """Rank <= 3 state of the arrow canonical form with parameters (p0, p1).

    The region is 0 <= p1 and p1^2 <= p0 <= 1, each within ``tol``.
    `canonicalize` writes p1 as the mean of two singular values, never
    negative, and the steering geometry reads it as a semi-axis.
    """
    if not (-tol <= p1 and p1 * p1 <= p0 + tol and p0 <= 1.0 + tol):
        raise InvalidCanonicalParameters(
            f"arrow parameters require 0 <= p1 and p1^2 <= p0 <= 1, got p0={p0:.6g}, p1={p1:.6g}"
        )
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5
    rho[3, 3] = 0.5 * p0
    rho[0, 3] = rho[3, 0] = 0.5 * p1
    middle = 1 if side == "A" else 2
    rho[middle, middle] = 0.5 * (1.0 - p0)
    return rho


# ---------------------------------------------------------------------------
# a three-parameter closed-form family of non-diagonalizable states, used
# as an independent cross-check of the general pipeline

#: (b, c) within this of b = c, or of |b| = 1 or |c| = 1, is on the edge of
#: the closed forms' domain: b = c is the diagonalizable family, which has
#: no arrow form, and |b| or |c| = 1 a pure product, where the closed
#: forms divide by zero.
_SIGMA_EDGE = 1e-12

#: The A-side closed form's boost grows without bound as 1 + c - 2b falls
#: to zero and does not exist below it; at or below this value the A-side
#: comparison is skipped.
_SIGMA_A_BOOST_MIN = 1e-9


@dataclass(frozen=True)
class SigmaParameters:
    b: float
    c: float
    d: float

    def violations(self) -> list[str]:
        out = []
        if (1.0 + self.c) * (1.0 - self.b) < self.d**2:
            out.append(
                f"(1+c)(1-b) = {(1 + self.c) * (1 - self.b):.6g} < d^2 = {self.d ** 2:.6g}"
            )
        if not 0.0 <= self.b - self.c <= 2.0:
            out.append(f"b - c = {self.b - self.c:.6g} outside [0, 2]")
        for name, v in (("b", self.b), ("c", self.c), ("d", self.d)):
            if not -1.0 <= v <= 1.0:
                out.append(f"{name} = {v:.6g} outside [-1, 1]")
        return out


def sigma_from_bcd(p: SigmaParameters) -> tuple[np.ndarray, np.ndarray]:
    """Non-diagonal normal form Sigma(b, c, d) and its density matrix."""
    bad = p.violations()
    if bad:
        raise InvalidSigmaParameters("; ".join(bad))
    b, c, d = p.b, p.c, p.d
    sigma = np.array(
        [
            [1.0, 0.0, 0.0, b],
            [0.0, d, 0.0, 0.0],
            [0.0, 0.0, -d, 0.0],
            [c, 0.0, 0.0, 1.0 + c - b],
        ]
    )
    rho = 0.5 * np.array(
        [
            [1.0 + c, 0.0, 0.0, d],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, b - c, 0.0],
            [d, 0.0, 0.0, 1.0 - b],
        ],
        dtype=complex,
    )
    return sigma, rho


@dataclass(frozen=True)
class SigmaEquivalenceReport:
    """Agreement between closed-form factorizations of Sigma(b,c,d) and
    the general pipeline; falsy when any check exceeded its tolerance.
    Carries the closed forms compared: the doubly degenerate eigenvalues
    lam0 and lam1, and the B-side parameters s0 and s1."""

    lam0: float
    lam1: float
    s0: float
    s1: float
    eigenvalue_residual: float
    b_side_residual: float
    a_side_residual: float
    s_parameter_residual: float
    ratio_residual: float
    closed_forms_proper: bool
    tol: float

    @property
    def ok(self) -> bool:
        return (
            self.closed_forms_proper
            and self.eigenvalue_residual <= self.tol
            and self.b_side_residual <= self.tol
            and self.a_side_residual <= self.tol
            and self.s_parameter_residual <= self.tol
            and self.ratio_residual <= self.tol
        )

    def __bool__(self) -> bool:
        return self.ok


def _boost_0z(t: float, x: float) -> np.ndarray:
    L = np.eye(4)
    L[0, 0] = L[3, 3] = t
    L[0, 3] = L[3, 0] = x
    return L


def sigma_equivalence_check(p: SigmaParameters, tol: float = DEFAULT_TOL) -> SigmaEquivalenceReport:
    """Check Sigma(b,c,d) against its closed-form canonical factorizations.

    The closed forms fix their own boost gauge, which agrees with the
    pinned pipeline gauge on the B side (both land on chi0 = 1 - c^2)
    but not on the A side, where only the gauge-invariant combination
    r1^2 / r0 = lambda_1 / lambda_0 can be compared.  The pipeline runs
    as `canonicalize` does: the null top eigenvector from the kernel of
    Sigma's state, both sides built by `type2_canonical`, and no
    eigensystem solved; the eigenvalues are the spectrum of Omega_A.
    """
    sigma, rho = sigma_from_bcd(p)
    b, c, d = p.b, p.c, p.d
    tol = max(tol, DEFECTIVE_ROOT_FLOOR)
    if abs(b - c) < _SIGMA_EDGE:
        raise NotTypeII("b = c gives diagonal quadratic forms (diagonalizable family)")
    if min(1.0 - abs(b), 1.0 - abs(c)) < _SIGMA_EDGE:
        raise InvalidSigmaParameters(
            "b or c at +-1 collapses the state to a pure product (no canonical scale)"
        )

    lam0 = (1.0 + c) * (1.0 - b)
    lam1 = d * d
    expected = np.array(sorted([lam0, lam0, lam1, lam1], reverse=True))
    kernel = read_state(rho)[1]
    if kernel.null_top is None:
        raise NotTypeII("the kernel of Sigma(b, c, d)'s state holds no product vector")
    ev_res = float(np.abs(g_spectrum(omega_matrices(sigma)) - expected).max())

    # closed-form B side: a single 03-boost on the left, identity on the right
    g = np.sqrt(1.0 - c * c)
    left_b = _boost_0z(1.0 / g, -c / g)
    s0 = (1.0 - b) / (1.0 - c)
    s1 = d / g
    image_b = left_b @ sigma
    b_res = float(np.abs(image_b / image_b[0, 0] - _type2_pattern(s0, s1).T).max())

    # closed-form A side: another 03-boost, then both-sided axis flip to
    # restore the non-negative (3,0) pattern.  This boost only exists on
    # the part of the parameter region with 1 + c - 2b > 0; elsewhere the
    # A-side closed form has no valid gauge and the check is skipped.
    proper = is_orthochronous_proper_lorentz(left_b)
    a_res = 0.0
    if 1.0 + c - 2.0 * b > _SIGMA_A_BOOST_MIN:
        h = np.sqrt((1.0 + c) * (1.0 + c - 2.0 * b))
        left_a = _boost_0z((1.0 - b + c) / h, -b / h)
        r0 = (1.0 - 2.0 * b + c) / (1.0 - b)
        r1 = d * np.sqrt((1.0 + c - 2.0 * b) / (lam0 * (1.0 - b)))
        flip = np.diag([1.0, 1.0, -1.0, -1.0])
        image_a = left_a @ sigma
        image_a = flip @ (image_a / image_a[0, 0]) @ flip
        a_res = float(np.abs(image_a - _type2_pattern(r0, r1)).max())
        proper = proper and is_orthochronous_proper_lorentz(left_a)

    # both sides as `canonicalize` builds them
    res_a = type2_canonical(sigma, kernel.null_top, kernel.merged, DEFAULT_TOL)
    res_b = res_a.partner
    s_res = max(
        abs(res_b.parameters["s0"] - s0),
        abs(res_b.parameters["s1"] - abs(s1)),
        abs(res_b.parameters["chi0"] - (1.0 - c * c)),
    )
    # the pipeline pins a different A-side gauge than the closed form, so
    # only the gauge-invariant combination r1^2 / r0 = lambda_1 / lambda_0
    # can be compared there
    ratio_pipeline = res_a.parameters["r1"] ** 2 / res_a.parameters["r0"]
    ratio_res = float(abs(ratio_pipeline - lam1 / lam0))

    return SigmaEquivalenceReport(
        lam0=lam0,
        lam1=lam1,
        s0=s0,
        s1=float(abs(s1)),
        eigenvalue_residual=ev_res,
        b_side_residual=b_res,
        a_side_residual=a_res,
        s_parameter_residual=float(s_res),
        ratio_residual=ratio_res,
        closed_forms_proper=proper,
        tol=tol,
    )
