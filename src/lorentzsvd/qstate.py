"""Two-qubit states and their real Lorentz-tensor parametrization.

A density matrix rho on C^2 (x) C^2 is encoded by the 4x4 real matrix

    Lambda[mu, nu] = Tr[rho (sigma_mu (x) sigma_nu)],

with sigma_0 the identity and sigma_1..3 the standard Pauli matrices.
Local filtering operations A (x) B (SLOCC) act on Lambda through the
two-to-one homomorphism SL(2,C) -> SO+(1,3), so all structural questions
about rho become Minkowski-space questions about Lambda.
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


def _hermitian_eigenvalues(h: np.ndarray) -> list[float]:
    """Ascending eigenvalues of a Hermitian matrix, NaN when entries near
    the float range overflow it and LAPACK gives up."""
    try:
        return np.linalg.eigvalsh(h).tolist()
    except np.linalg.LinAlgError:
        return [math.nan] * h.shape[0]


def is_valid_state(rho: np.ndarray, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Hermiticity / trace / positivity report for a 4x4 complex matrix."""
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
        evals = _hermitian_eigenvalues(rho if herm == 0.0 else 0.5 * (rho + adj))
    d = rho.diagonal().tolist()
    # np.trace's pairwise order, bit for bit
    tr = (d[0] + d[1]) + (d[2] + d[3])
    # the hypot that complex abs takes, but inf where abs would raise
    # OverflowError, so a trace beyond the float range is a defect
    return ValidityReport(
        hermiticity_defect=herm,
        trace_defect=math.hypot(tr.real - 1.0, tr.imag),
        min_eigenvalue=min(reversed(evals)),
        tol=tol,
    )


def lambda_from_rho(rho: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real parametrization Lambda[mu, nu] = Tr[rho (sigma_mu (x) sigma_nu)]."""
    rho = np.asarray(rho, dtype=complex)
    report = is_valid_state(rho, tol)
    if not report.valid:
        raise InvalidState(report.describe())
    return np.einsum("ij,mnji->mn", rho, PAULI_KRON).real


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
        low = (min(reversed(_hermitian_eigenvalues(0.5 * (rho + rho.conj().T))))
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
