"""Shared generators for randomized tests.

All randomness flows through explicitly seeded numpy Generators so
failures reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from lorentzsvd.minkowski import G_METRIC
from lorentzsvd.qstate import random_state


# one-line verdicts appended by the acceptance suite, echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_rotation(gen: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation embedded as 1 (+) SO(3)."""
    q = gen.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    R = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    L = np.eye(4)
    L[1:, 1:] = R
    return L


def boost_z(eta: float) -> np.ndarray:
    L = np.eye(4)
    L[0, 0] = L[3, 3] = np.cosh(eta)
    L[0, 3] = L[3, 0] = np.sinh(eta)
    return L


def random_lorentz(gen: np.random.Generator, max_rapidity: float = 1.0) -> np.ndarray:
    """Random proper orthochronous Lorentz matrix with bounded conditioning."""
    eta = gen.uniform(-max_rapidity, max_rapidity)
    return random_rotation(gen) @ boost_z(eta) @ random_rotation(gen)


def random_su2(gen: np.random.Generator) -> np.ndarray:
    q = gen.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def random_sl2c(gen: np.random.Generator, max_rapidity: float = 0.7) -> np.ndarray:
    """Random SL(2,C) filter with singular-value ratio <= exp(2*max_rapidity)."""
    r = gen.uniform(-max_rapidity, max_rapidity)
    D = np.diag([np.exp(r), np.exp(-r)]).astype(complex)
    return random_su2(gen) @ D @ random_su2(gen)


def slightly_negative_state(seed: int) -> np.ndarray:
    """random_state(4, seed) with its smallest eigenvalue set to -1e-8,
    renormalized: invalid at the default tolerance, valid at 1e-6."""
    w, V = np.linalg.eigh(random_state(4, seed=seed))
    w[0] = -1e-8
    rho = (V * w) @ V.conj().T
    return rho / np.real(np.trace(rho))


def assert_lorentz(L: np.ndarray, tol: float = 1e-12) -> None:
    assert np.abs(L.T @ G_METRIC @ L - G_METRIC).max() < tol
    assert abs(np.linalg.det(L) - 1.0) < tol
    assert L[0, 0] > 0
