"""Seeded input corpora for the benchmark workloads.

Every state is drawn from a numpy Generator seeded by (seed, workload), so
the same seed always gives the same inputs.  The package's own
``random_state``, ``apply_slocc`` and ``sigma_from_bcd`` build the states;
only the SL(2,C) filter draw and the (b, c, d) sampler live here, written
the same way as the test suite's generators.  Groups within a workload
are interleaved round-robin, so every prefix of a corpus has the same mix
and the share of failing states does not depend on how far a timed run
gets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from lorentzsvd.canonical import SigmaParameters, sigma_from_bcd
from lorentzsvd.qstate import apply_slocc, random_state

WORKLOAD_SALT = {"typeI-random": 1, "typeII-filtered": 2, "hard-inputs": 3, "cli": 4}

EPSILONS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)


@dataclass(frozen=True)
class Case:
    """One input state and what its construction promises about the result.

    ``expect`` is "TypeI", "TypeII" (TypeII_A with a TypeII_B partner) or
    None when the family is decided by the tolerance.  ``sigma`` carries
    the (b, c, d) of states built from the normal form, whose gauge
    invariant r1^2/r0 = d^2 / ((1+c)(1-b)) survives local filtering.
    ``strict_residual`` is False for groups where the seed code already
    returns factors with a reconstruction residual above 1e-8; there the
    breach is counted as an out-of-bound failure instead of aborting.
    """

    group: str
    rho: np.ndarray
    expect: str | None
    sigma: SigmaParameters | None = None
    strict_residual: bool = True


def generator(seed: int, workload: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, WORKLOAD_SALT[workload]])))


def random_su2(gen: np.random.Generator) -> np.ndarray:
    q = gen.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def random_sl2c(gen: np.random.Generator, max_rapidity: float) -> np.ndarray:
    """Random SL(2,C) filter with singular-value ratio <= exp(2*max_rapidity)."""
    r = gen.uniform(-max_rapidity, max_rapidity)
    D = np.diag([np.exp(r), np.exp(-r)]).astype(complex)
    return random_su2(gen) @ D @ random_su2(gen)


def sample_bcd(gen: np.random.Generator) -> SigmaParameters:
    """Valid (b, c, d) strictly inside the non-diagonalizable region (b > c, d > 0)."""
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


def _seed(gen: np.random.Generator) -> int:
    return int(gen.integers(2**62))


def _random(gen: np.random.Generator, rank: int) -> Case:
    return Case(f"rank{rank}", random_state(rank, _seed(gen)), "TypeI")


def _filtered_sigma(gen: np.random.Generator, rapidity: float, strict: bool = True) -> Case:
    p = sample_bcd(gen)
    _, rho = sigma_from_bcd(p)
    rho = apply_slocc(rho, random_sl2c(gen, rapidity), random_sl2c(gen, rapidity))
    return Case(f"sigma@{rapidity}", rho, "TypeII", p, strict)


def _filtered_rank4(gen: np.random.Generator, rapidity: float) -> Case:
    rho = random_state(4, _seed(gen))
    rho = apply_slocc(rho, random_sl2c(gen, rapidity), random_sl2c(gen, rapidity))
    return Case(f"rank4@{rapidity}", rho, "TypeI", strict_residual=False)


def _mixed_sigma(gen: np.random.Generator, eps: float) -> Case:
    _, rho = sigma_from_bcd(sample_bcd(gen))
    rho = (1.0 - eps) * rho + eps * np.eye(4) / 4.0
    return Case(f"eps{eps:.0e}", rho, None, strict_residual=False)


def _draws(gen: np.random.Generator, workload: str):
    """Endless round-robin stream of cases for one workload."""
    if workload == "typeI-random":
        for rank in itertools.cycle((1, 2, 3, 4)):
            yield _random(gen, rank)
    elif workload == "typeII-filtered":
        for rapidity in itertools.cycle((0.7, 1.5)):
            yield _filtered_sigma(gen, rapidity)
    elif workload == "hard-inputs":
        for rapidity, eps in zip(itertools.cycle((2.5, 3.5)), itertools.cycle(EPSILONS)):
            yield _filtered_sigma(gen, 2.5, strict=False)
            yield _filtered_rank4(gen, rapidity)
            yield _mixed_sigma(gen, eps)
    else:
        raise ValueError(f"no generated corpus for workload {workload!r}")


def build(seed: int, workload: str, count: int) -> list[Case]:
    """The first ``count`` cases of a workload's seeded stream.

    The ``cli`` workload draws half its cases from the ``typeI-random``
    stream and half from the ``typeII-filtered`` stream of its own seed.
    """
    if workload == "cli":
        gen = generator(seed, "cli")
        first = _draws(gen, "typeI-random")
        second = _draws(gen, "typeII-filtered")
        pick = itertools.cycle((first, second))
        return [next(next(pick)) for _ in range(count)]
    return list(itertools.islice(_draws(generator(seed, workload), workload), count))
