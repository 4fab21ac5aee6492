"""Two-qubit states and their real Lorentz-tensor parametrization.

A density matrix rho on C^2 (x) C^2 is encoded by the 4x4 real matrix

    Lambda[mu, nu] = Tr[rho (sigma_mu (x) sigma_nu)],

with sigma_0 the identity and sigma_1..3 the standard Pauli matrices.
Local filtering operations A (x) B (SLOCC) act on Lambda through the
two-to-one homomorphism SL(2,C) -> SO+(1,3), so most structural questions
about rho become Minkowski-space questions about Lambda.  One is answered
on rho itself: whether the state admits the non-diagonal (TypeII) form.
A filter K = A (x) B keeps the rank of rho and maps a kernel vector psi
to K^{-dag} psi, which keeps its Schmidt rank, and the canonical arrow
states are exactly the rank-deficient states whose kernel holds a
product vector (Verstraete, Dehaene, De Moor, PRA 64, 010101(R) (2001)).
`read_state` decides it from the one Hermitian eigendecomposition that
validation runs (`StateKernel`); the G-eigensolve decides TypeI and
DegenerateProduct for every other state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    FilterAnnihilatesState,
    InvalidState,
    NotAState,
    NotUnitDeterminant,
    PositivityTransferViolated,
)
from .minkowski import DEFAULT_TOL, LORENTZ_TOL_FLOOR, is_orthochronous_proper_lorentz, minkowski_norm

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

#: PAULI_KRON[mu, nu] = sigma_mu (x) sigma_nu, shape (4, 4, 4, 4)
PAULI_KRON = np.array([[np.kron(PAULI[m], PAULI[n]) for n in range(4)] for m in range(4)])

#: floor of the tolerance on |det A - 1| for an SL(2,C) filter: det A of a
#: filter with large entries carries rounding well above a small ``tol``
_UNIT_DET_FLOOR = 1e-9

#: floor of the tolerance, relative to max(1, |q|^2), by which a steered
#: vector q may fall outside the forward cone: q may lie on the cone
#: itself (a pure state steered by a probe on the cone), where rounding
#: alone takes it just outside
_CONE_TOL_FLOOR = 1e-9

_EPS = float(np.finfo(float).eps)

#: The rank certificate: eigh's backward error on a 4x4 Hermitian matrix
#: relative to its norm.  The computed eigenpairs are exact for rho + E
#: with ||E||_2 at most about n^2 eps ||rho||_2, n = 4 (Householder
#: tridiagonalization and QR iteration; Golub & Van Loan, Matrix
#: Computations, section 8.3; LAPACK Users' Guide, section 4.7), so by
#: Weyl's inequality every computed eigenvalue lies within this fraction
#: of lambda_max of the exact one.  rho is certified full rank when
#: lambda_min exceeds it, and otherwise its eigenvalues at or below it
#: span the kernel.  On the benchmark corpora (seeds 1, 7 and 11)
#: lambda_min / lambda_max is at most 2 eps on every rank-deficient state
#: and at least 248 eps, 15 times this, on every full-rank one.
_EIGH_BACKWARD_REL = 16.0 * _EPS

#: Kernel cut on |psi^T (sigma_y (x) sigma_y) phi| for kernel columns psi,
#: phi, in units of delta = _EIGH_BACKWARD_REL lambda_max / gap, the
#: Davis-Kahan bound on the angle between the computed kernel and the
#: exact one (gap: the least eigenvalue above the kernel).  sigma_y (x)
#: sigma_y is unitary, so unit columns moved by at most delta move each
#: product by at most 2 delta.  A rank-3 kernel vector within it may be a
#: product vector (concurrence zero), and a rank-2 kernel whose every
#: product lies within it holds only product vectors (a pure marginal).
#: Measured on the benchmark corpora: at most 0.05 of the cut on every
#: TypeII state, at least 1e10 times it on a rank-3 TypeI state; a pure
#: marginal's products at most 0.14 of it.
_CONCURRENCE_CUT = 2.0

#: Kernel cut on |det Q| of the 2x2 form Q = Psi^T (sigma_y (x) sigma_y) Psi
#: on a rank-2 kernel Psi, in units of m delta, m = max |Q_ij| and delta
#: as above: each Q_ij moves by at most 2 delta, so det Q = Q11 Q22 - Q12^2
#: moves by at most 8 m delta.  Within it the product directions, the
#: isotropic directions of Q, may be one double root: the arrow form with
#: r1^2 = r0.  Beyond it there are two, and the kernel is the span of two
#: Bell-like vectors (TypeI).  Measured: at most 0.024 of the cut on
#: filtered arrows with r1^2 = r0 up to rapidity 3.5, at least 8e10 times
#: it on rank-2 random states.
_DISCRIMINANT_CUT = 8.0


@dataclass(frozen=True)
class ValidityReport:
    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    tol: float

    @property
    def valid(self) -> bool:
        return (
            self.hermiticity_defect <= self.tol
            and self.trace_defect <= self.tol
            and self.min_eigenvalue >= -self.tol
        )

    def describe(self) -> str:
        status = "valid" if self.valid else "invalid"
        return (
            f"{status}: hermiticity defect {self.hermiticity_defect:.3e}, "
            f"trace defect {self.trace_defect:.3e}, "
            f"min eigenvalue {self.min_eigenvalue:.3e}"
        )


@dataclass(frozen=True)
class StateKernel:
    """What the kernel of a valid rho decides, from its eigendecomposition.

    ``rank`` is 4 when rho is certified full rank (`_EIGH_BACKWARD_REL`),
    otherwise 4 less the number of eigenvalues at or below the
    certificate.  ``null_top`` is set exactly when a kernel of rank 2 or 3
    holds a product vector alpha (x) beta, the TypeII states: it is the
    Stokes vector (1, <alpha|sigma|alpha> / <alpha|alpha>) of alpha, the
    future null top eigenvector of G Omega_A, accurate to eps ||rho|| /
    gap.  ``merged`` marks a rank-2 kernel whose product direction is a
    double root (r1^2 = r0: the top cluster of G Omega_A holds all four
    eigenvalues).  A rank-2 kernel of product vectors only (a pure
    marginal) and every other state leave the family to the G-eigensolve.
    """

    rank: int
    null_top: np.ndarray | None = None
    merged: bool = False


def _hermitian_eigh(h: np.ndarray) -> tuple[list[float], np.ndarray | None]:
    """Ascending eigenvalues and eigenvector columns of a Hermitian matrix;
    NaN eigenvalues and no vectors when entries near the float range
    overflow it and LAPACK gives up."""
    try:
        evals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError:
        return [math.nan] * h.shape[0], None
    return evals.tolist(), vecs


def _validity(rho: np.ndarray, tol: float) -> tuple[ValidityReport, list[float], np.ndarray | None]:
    """`is_valid_state` with the eigendecomposition it took."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidState(f"expected a 4x4 matrix, got shape {rho.shape}")
    # entries near the float range overflow to inf or NaN, which the
    # report counts as invalid; that is not worth a warning on stderr
    adj = rho.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.abs(rho - adj).ravel().tolist()
        # the reductions run on Python floats, which cost less than numpy's
        # on 16 and 4 values; only np.max propagates a NaN among the gaps,
        # and np.min keeps the last of equal values, so -0.0 after 0.0
        herm = max(gaps) if math.isfinite(sum(gaps)) else float(np.max(gaps))
        # a matrix Hermitian to the bit is its own Hermitian part
        evals, vecs = _hermitian_eigh(rho if herm == 0.0 else 0.5 * (rho + adj))
    d = rho.diagonal().tolist()
    # np.trace's pairwise order, bit for bit
    tr = (d[0] + d[1]) + (d[2] + d[3])
    # the hypot that complex abs takes, but inf where abs would raise
    # OverflowError, so a trace beyond the float range is a defect
    report = ValidityReport(
        hermiticity_defect=herm,
        trace_defect=math.hypot(tr.real - 1.0, tr.imag),
        min_eigenvalue=min(reversed(evals)),
        tol=tol,
    )
    return report, evals, vecs


def is_valid_state(rho: np.ndarray, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Hermiticity / trace / positivity report for a 4x4 complex matrix."""
    return _validity(rho, tol)[0]


#: the decision on a certified full-rank state
_FULL_RANK = StateKernel(4)


def _y_form(p: list[complex], q: list[complex]) -> complex:
    """p^T (sigma_y (x) sigma_y) q, on Python complex numbers."""
    return p[1] * q[2] + p[2] * q[1] - p[0] * q[3] - p[3] * q[0]


def _stokes(psi: list[complex]) -> np.ndarray:
    """(1, <a|sigma|a> / <a|a>) of the A factor a of a product vector psi:
    the larger column of psi as a 2x2 matrix whose rows are the A index."""
    cols = ((psi[0], psi[2]), (psi[1], psi[3]))
    a0, a1 = max(cols, key=lambda c: abs(c[0]) ** 2 + abs(c[1]) ** 2)
    p0, p1, x = abs(a0) ** 2, abs(a1) ** 2, a0.conjugate() * a1
    n = p0 + p1
    return np.array([1.0, 2.0 * x.real / n, 2.0 * x.imag / n, (p0 - p1) / n])


def _kernel(evals: list[float], vecs: np.ndarray) -> StateKernel:
    """The family decision on rho's kernel (`StateKernel`).

    A product vector psi is one with psi^T (sigma_y (x) sigma_y) psi = 0
    (Wootters, PRL 80, 2245 (1998)).  On a rank-3 kernel that is one
    number; on a rank-2 kernel Psi the product vectors Psi x are the
    isotropic directions of Q = Psi^T (sigma_y (x) sigma_y) Psi, whose
    discriminant is det Q.
    """
    # the eigenvalues' backward error: at or below it is the kernel
    noise = _EIGH_BACKWARD_REL * evals[3]
    if evals[0] > noise:
        return _FULL_RANK
    k = sum(1 for w in evals if w <= noise)
    if k > 2:
        return StateKernel(4 - k)
    # the Davis-Kahan angle of the computed kernel, with the cut it sets
    delta = noise / (evals[k] - evals[k - 1])
    cut = _CONCURRENCE_CUT * delta
    if k == 1:
        psi = vecs[:, 0].tolist()
        return StateKernel(3, _stokes(psi) if abs(_y_form(psi, psi)) <= cut else None)
    p, q = vecs[:, :2].T.tolist()
    q11, q12, q22 = _y_form(p, p), _y_form(p, q), _y_form(q, q)
    m = max(abs(q11), abs(q12), abs(q22))
    if m <= cut or abs(q11 * q22 - q12 * q12) > _DISCRIMINANT_CUT * m * delta:
        # every kernel vector a product, or two product directions
        return StateKernel(2)
    # Q has rank one, and its null vector (x, y) is the double root
    x, y = (q12, -q11) if abs(q11) >= abs(q22) else (q22, -q12)
    return StateKernel(2, _stokes([x * a + y * b for a, b in zip(p, q)]), merged=True)


def read_state(rho: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, StateKernel]:
    """Lambda of a valid state and what its kernel decides, from the one
    Hermitian eigendecomposition that validates it; raises InvalidState
    otherwise."""
    rho = np.asarray(rho, dtype=complex)
    report, evals, vecs = _validity(rho, tol)
    if not report.valid:
        raise InvalidState(report.describe())
    return np.einsum("ij,mnji->mn", rho, PAULI_KRON).real, _kernel(evals, vecs)


def lambda_from_rho(rho: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real parametrization Lambda[mu, nu] = Tr[rho (sigma_mu (x) sigma_nu)]."""
    return read_state(rho, tol)[0]


def rho_from_lambda(lam: np.ndarray, tol: float = DEFAULT_TOL, validate: bool = True) -> np.ndarray:
    """Inverse parametrization rho = (1/4) sum Lambda[mu, nu] sigma_mu (x) sigma_nu.

    With validate=True, raises NotAState when the reconstruction has an
    eigenvalue below -tol — i.e. the given Lambda lies outside the
    physical set.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (4, 4):
        raise NotAState(f"expected a 4x4 Lambda, got shape {lam.shape}")
    # as in `is_valid_state`, overflow to inf or NaN fails validation quietly
    with np.errstate(over="ignore", invalid="ignore"):
        rho = 0.25 * np.einsum("mn,mnij->ij", lam, PAULI_KRON)
        low = (min(reversed(_hermitian_eigh(0.5 * (rho + rho.conj().T))[0]))
               if validate else 0.0)
    if not low >= -tol:  # NaN fails too
        raise NotAState(
            f"Lambda is not the parametrization of any state (min eigenvalue {low:.3e})"
        )
    return rho


def sl2c_to_lorentz(A: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Image of A in SO+(1,3): L[alpha, mu] = Re Tr[sigma_alpha A sigma_mu A^dag] / 2."""
    A = np.asarray(A, dtype=complex)
    det = complex(np.linalg.det(A))
    if abs(det - 1.0) > max(tol, _UNIT_DET_FLOOR):
        raise NotUnitDeterminant(f"det A = {det:.12g}, expected 1")
    L = np.empty((4, 4))
    for mu in range(4):
        conj = A @ PAULI[mu] @ A.conj().T
        for alpha in range(4):
            L[alpha, mu] = 0.5 * np.real(np.trace(PAULI[alpha] @ conj))
    if not is_orthochronous_proper_lorentz(L, tol=max(tol, LORENTZ_TOL_FLOOR)):
        raise NotUnitDeterminant("image of A failed the Lorentz-group check")
    return L


def apply_slocc(
    rho: np.ndarray, A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Normalized local filtering (A (x) B) rho (A (x) B)^dag / trace."""
    rho = np.asarray(rho, dtype=complex)
    K = np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))
    out = K @ rho @ K.conj().T
    tr = float(np.real(np.trace(out)))
    if tr <= tol:
        raise FilterAnnihilatesState(f"filter trace {tr:.3e} <= tol")
    return out / tr


class SteerDirection(Enum):
    A_TO_B = "AtoB"
    B_TO_A = "BtoA"


def steer(
    lam: np.ndarray,
    p: np.ndarray,
    direction: SteerDirection | str,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Steered conditional operator vector: Lambda^T p (AtoB) or Lambda p (BtoA).

    p encodes a non-negative single-qubit operator P = (1/2) sum p_mu sigma_mu,
    so it must satisfy p0 > 0 and p^T G p >= -tol.  The same must hold for
    the output whenever Lambda parametrizes a state; a violation means the
    supplied Lambda is broken and raises PositivityTransferViolated.
    """
    direction = SteerDirection(direction)
    lam = np.asarray(lam, dtype=float)
    p = np.asarray(p, dtype=float)
    scale = max(1.0, float(p @ p))
    if p[0] <= 0.0 or minkowski_norm(p) < -tol * scale:
        raise ValueError("p does not encode a non-negative qubit operator")
    q = lam.T @ p if direction is SteerDirection.A_TO_B else lam @ p
    qscale = max(1.0, float(q @ q))
    if q[0] <= 0.0 or minkowski_norm(q) < -max(tol, _CONE_TOL_FLOOR) * qscale:
        raise PositivityTransferViolated(
            f"steering output left the forward cone: q0={q[0]:.3e}, "
            f"norm={minkowski_norm(q):.3e}"
        )
    return q


def random_state(rank: int, seed: int) -> np.ndarray:
    """Ginibre-induced random density matrix of the requested rank."""
    if not 1 <= int(rank) <= 4:
        raise ValueError(f"rank must be in 1..4, got {rank}")
    gen = np.random.Generator(np.random.PCG64(seed))
    M = gen.normal(size=(4, rank)) + 1j * gen.normal(size=(4, rank))
    rho = M @ M.conj().T
    return rho / np.real(np.trace(rho))
