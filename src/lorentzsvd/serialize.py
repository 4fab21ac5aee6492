"""Deterministic JSON interchange for states, reports, and geometry.

All emitters route floats through one formatter (17 significant digits,
negative zero normalized away) and keep dict field order fixed, so that
identical inputs produce byte-identical output.  Complex matrices are
written as [re, im] pairs, row-major.  Every top-level document carries
a "conventions" block naming the basis and metric so downstream tools
cannot silently mismatch conventions.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Any

import numpy as np

from .canonical import CanonicalResult, SideFamily, canonical_rho_type1, canonical_rho_type2
from .errors import InputFormatError, InvalidCanonicalParameters
from .minkowski import DEFAULT_TOL, PIPELINE_PARAMETER_FLOOR

CONVENTIONS = {
    "basis": "sigma_0 = I, sigma_1 = X, sigma_2 = Y, sigma_3 = Z; rho in the product basis |00>,|01>,|10>,|11>",
    "correlation": "lambda[mu][nu] = Tr[rho (sigma_mu kron sigma_nu)]; lambda[0][0] = 1",
    "metric": "G = diag(1, -1, -1, -1)",
    "complexNumbers": "[re, im] pairs",
}


def format_float(x: float) -> str:
    """17-significant-digit decimal, with -0.0 folded into 0."""
    x = float(x)
    if x == 0.0:
        return "0"
    if not math.isfinite(x):
        raise InputFormatError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


@functools.lru_cache(maxsize=256, typed=True)
def _key_text(key: Any) -> str:
    return json.dumps(str(key))


def _emit(obj: Any) -> str:
    # exact types first: a report is mostly floats in lists
    kind = type(obj)
    if kind is float:
        return format_float(obj)
    if kind is list or kind is tuple or isinstance(obj, (list, tuple)):
        return "[" + ",".join([format_float(v) if type(v) is float else _emit(v) for v in obj]) + "]"
    if kind is dict or isinstance(obj, dict):
        return "{" + ",".join([f"{_key_text(k)}:{_emit(v)}" for k, v in obj.items()]) + "}"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    raise InputFormatError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Serialize to a single deterministic JSON line (newline-terminated)."""
    return _emit(obj) + "\n"


def real_matrix(m: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(m, dtype=float)]


def complex_matrix(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def state_document(rho: np.ndarray | None = None, lam: np.ndarray | None = None) -> dict:
    if (rho is None) == (lam is None):
        raise ValueError("exactly one of rho / lam must be given")
    doc: dict[str, Any] = {"conventions": CONVENTIONS}
    if rho is not None:
        doc["rho"] = complex_matrix(rho)
    else:
        doc["lambda"] = real_matrix(lam)
    return doc


def _number_array(payload: Any, key: str, entries: str) -> np.ndarray:
    """Nested JSON arrays of numbers as a float array.

    Every leaf must be a JSON number: a string that spells one, a boolean
    or null is refused rather than converted.
    """
    stack = [payload]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise InputFormatError(f'"{key}" entries must be {entries}, got {type(item).__name__}')
    try:
        return np.asarray(payload, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise InputFormatError(f'"{key}" entries must be {entries}: {exc}') from None


def _as_real_4x4(payload: Any, key: str) -> np.ndarray:
    arr = _number_array(payload, key, "real numbers")
    if arr.shape != (4, 4):
        raise InputFormatError(f'"{key}" must be a 4x4 array, got shape {arr.shape}')
    _require_finite(arr, key)
    return arr


def _require_finite(arr: np.ndarray, key: str) -> None:
    if not np.isfinite(arr).all():
        raise InputFormatError(f'"{key}" entries must be finite numbers')


def parse_state_document(doc: Any) -> tuple[str, np.ndarray]:
    """Extract ("rho", complex 4x4) or ("lambda", real 4x4) from a document.

    Exactly one of the two keys must be present; any other keys (for
    example "conventions" from our own emitters) are ignored.
    """
    if not isinstance(doc, dict):
        raise InputFormatError(f"state document must be a JSON object, got {type(doc).__name__}")
    present = [k for k in ("rho", "lambda") if k in doc]
    if len(present) != 1:
        raise InputFormatError(
            f'state document must contain exactly one of "rho" / "lambda", found {present or "neither"}'
        )
    key = present[0]
    if key == "lambda":
        return key, _as_real_4x4(doc[key], key)
    arr = _number_array(doc[key], key, "[re, im] pairs of real numbers")
    if arr.shape != (4, 4, 2):
        raise InputFormatError(
            f'"rho" must be a 4x4 array of [re, im] pairs, got shape {arr.shape}'
        )
    _require_finite(arr, key)
    return key, arr[..., 0] + 1j * arr[..., 1]


def loads_json(text: str) -> Any:
    """Parse a JSON document; anything the parser refuses is an InputFormatError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed text and integers beyond Python's
        # digit limit; RecursionError arrays nested too deep to parse
        raise InputFormatError(f"not valid JSON: {exc}") from None


def loads_state(text: str) -> tuple[str, np.ndarray]:
    return parse_state_document(loads_json(text))


def canonical_report(result: CanonicalResult, include_conventions: bool = True) -> dict:
    doc: dict[str, Any] = {}
    if include_conventions:
        doc["conventions"] = CONVENTIONS
    doc["family"] = result.family.value
    doc["lambdaCanonical"] = real_matrix(result.canonical_lambda)
    doc["rhoCanonical"] = complex_matrix(result.canonical_rho)
    doc["leftLorentz"] = real_matrix(result.left_lorentz)
    doc["rightLorentz"] = real_matrix(result.right_lorentz)
    doc["parameters"] = {
        k: ([float(x) for x in v] if isinstance(v, list) else v)
        for k, v in result.parameters.items()
    }
    doc["normalizationScale"] = float(result.normalization_scale)
    doc["residuals"] = {k: float(v) for k, v in result.residuals.items()}
    if result.partner is not None:
        doc["partner"] = canonical_report(result.partner, include_conventions=False)
    return doc


#: the parameters the steering geometry reads, per arrow family
_ARROW_PARAMETERS = {SideFamily.TYPE_II_A: ("r0", "r1"), SideFamily.TYPE_II_B: ("s0", "s1")}


def parse_canonical_report(doc: Any, tol: float = DEFAULT_TOL) -> CanonicalResult:
    """Rebuild what the geometry commands read from a report: the family,
    ``lambdaCanonical`` and the arrow parameters.  A TypeI
    ``lambdaCanonical`` must be diag(1, d1, d2, d3), and (d1, d2, d3) or
    the arrow parameters must lie in the canonical region, both checked
    as `canonicalize` checks its own, at ``max(tol,
    PIPELINE_PARAMETER_FLOOR)``.  The canonical state is rebuilt from
    them; other fields are placeholders."""
    if not isinstance(doc, dict) or "family" not in doc:
        raise InputFormatError('canonical report must be a JSON object with a "family" key')
    try:
        family = SideFamily(doc["family"])
    except ValueError:
        raise InputFormatError(f'unknown family {doc["family"]!r}') from None
    lam_c = _as_real_4x4(doc.get("lambdaCanonical"), "lambdaCanonical")
    params = doc.get("parameters")
    if not isinstance(params, dict):
        raise InputFormatError('canonical report must carry a "parameters" object')
    names = _ARROW_PARAMETERS.get(family, ())
    if any(k not in params for k in names):
        raise InputFormatError(f"a {family.value} report must carry parameters {names}")
    values = _number_array([params[k] for k in names], "parameters", "real numbers")
    region_tol = max(tol, PIPELINE_PARAMETER_FLOOR)
    rho_c = np.zeros((4, 4), dtype=complex)
    if names:
        side = "A" if family is SideFamily.TYPE_II_A else "B"
        rho_c = canonical_rho_type2(*values, side, tol=region_tol)
    elif family is SideFamily.TYPE_I:
        diag = np.diag(lam_c)
        deviation = max(float(np.abs(lam_c - np.diag(diag)).max()), abs(float(diag[0]) - 1.0))
        if deviation > region_tol:
            raise InvalidCanonicalParameters(
                f"a TypeI lambdaCanonical must be diag(1, d1, d2, d3); it deviates by {deviation:.3e}"
            )
        rho_c = canonical_rho_type1(*diag[1:], tol=region_tol)
    return CanonicalResult(
        family=family,
        canonical_lambda=lam_c,
        canonical_rho=rho_c,
        left_lorentz=np.eye(4),
        right_lorentz=np.eye(4),
        parameters=params,
        normalization_scale=1.0,
        residuals={},
    )
