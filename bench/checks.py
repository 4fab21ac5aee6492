"""Output checks and failure accounting for one canonicalization.

A returned result either passes, is counted as an out-of-bound failure,
or breaks a promise of its construction.  Broken promises (wrong family,
reconstruction residual above 1e-8 on a strict group) make the run
incorrect; the out-of-bound checks only count, because they already fail
on the unmodified code and the benchmark must show them, not hide them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from lorentzsvd.canonical import CanonicalResult, SideFamily
from lorentzsvd.errors import LorentzSvdError
from lorentzsvd.minkowski import is_orthochronous_proper_lorentz
from lorentzsvd.qstate import lambda_from_rho

from corpus import Case

RESIDUAL_BOUND = 1e-8
LORENTZ_TOL = 1e-9
GAUGE_BOUND = 1e-8


@dataclass(frozen=True)
class Outcome:
    """What one operation produced, and how it counts.

    ``kind`` is "ok", "refused" (a LorentzSvdError), "untyped" (any other
    exception) or "out_of_bound"; ``label`` names the exception class or
    the bound that failed.  ``text`` is the report, or the error class
    name for failures without a report.  ``violation`` is set when the
    result breaks a promise of its construction.
    """

    kind: str
    label: str
    text: str
    exit_code: int = 0
    violation: str | None = None

    @property
    def failed(self) -> bool:
        return self.kind != "ok"


def from_exception(exc: Exception) -> Outcome:
    name = type(exc).__name__
    if isinstance(exc, LorentzSvdError):
        return Outcome("refused", name, f"error:{name}\n", exc.exit_code)
    return Outcome("untyped", name, f"error:{name}\n", 1)


def _sides(result: CanonicalResult) -> list[CanonicalResult]:
    return [result] + ([result.partner] if result.partner is not None else [])


def _family_violation(case: Case, result: CanonicalResult) -> str | None:
    got = result.family
    partner = result.partner.family if result.partner is not None else None
    if case.expect == "TypeI" and (got is not SideFamily.TYPE_I or partner is not None):
        return f"{case.group}: expected TypeI, got {got.value}"
    if case.expect == "TypeII" and (
        got is not SideFamily.TYPE_II_A or partner is not SideFamily.TYPE_II_B
    ):
        return f"{case.group}: expected TypeII_A with a TypeII_B partner, got {got.value}"
    return None


def from_result(case: Case, result: CanonicalResult, text: str) -> Outcome:
    violation = _family_violation(case, result)
    lam = lambda_from_rho(case.rho)
    residual = max(
        float(np.abs(s.left_lorentz @ lam @ s.right_lorentz.T / s.normalization_scale
                     - s.canonical_lambda).max())
        for s in _sides(result)
    )
    if residual > RESIDUAL_BOUND and case.strict_residual and violation is None:
        violation = f"{case.group}: reconstruction residual {residual:.3e} > {RESIDUAL_BOUND:g}"
    if violation is not None:
        return Outcome("ok", "", text, violation=violation)

    if residual > RESIDUAL_BOUND:
        return Outcome("out_of_bound", f"residual>{RESIDUAL_BOUND:g}", text)
    if not all(
        is_orthochronous_proper_lorentz(L, tol=LORENTZ_TOL)
        for s in _sides(result)
        for L in (s.left_lorentz, s.right_lorentz)
    ):
        return Outcome("out_of_bound", f"lorentz@{LORENTZ_TOL:g}", text)
    if case.sigma is not None:
        p = case.sigma
        want = p.d**2 / ((1.0 + p.c) * (1.0 - p.b))
        got = result.parameters["r1"] ** 2 / result.parameters["r0"]
        if abs(got - want) > GAUGE_BOUND:
            return Outcome("out_of_bound", f"gauge>{GAUGE_BOUND:g}", text)
    return Outcome("ok", "", text)


@dataclass
class Tally:
    """Failure accounting over attempted operations."""

    attempted: int = 0
    by_kind: Counter = field(default_factory=Counter)
    by_label: Counter = field(default_factory=Counter)

    def add(self, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.failed:
            self.by_kind[outcome.kind] += 1
            self.by_label[f"{outcome.kind}:{outcome.label}"] += 1

    @property
    def failed(self) -> int:
        return sum(self.by_kind.values())

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "refused": self.by_kind["refused"],
            "untyped": self.by_kind["untyped"],
            "out_of_bound": self.by_kind["out_of_bound"],
            "byClass": dict(sorted(self.by_label.items())),
        }
