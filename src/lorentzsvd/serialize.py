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

from .canonical import (
    CanonicalResult,
    SideFamily,
    _type2_pattern,
    canonical_rho_type1,
    canonical_rho_type2,
)
from .errors import InputFormatError, InvalidCanonicalParameters
from .minkowski import DEFAULT_TOL, DEFECTIVE_ROOT_FLOOR

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
def _text(value: Any) -> str:
    """A dict key, or a string, as JSON text escaped for a ``%`` template."""
    return json.dumps(str(value)).replace("%", "%%")


@functools.lru_cache(maxsize=64)
def _dict_template(keys: tuple[str, ...]) -> str:
    """A dict of floats whose keys have these `_text` forms, as a template."""
    return "{" + ",".join([k + ":%.17g" for k in keys]) + "}"


@functools.lru_cache(maxsize=64)
def _grid_template(shape: tuple[int, ...]) -> str:
    inner = _grid_template(shape[1:]) if len(shape) > 1 else "%.17g"
    return "[" + ",".join([inner] * shape[0]) + "]"


def _template(obj: Any, parts: list[str], values: list) -> bool:
    """Append obj to ``parts`` as pieces of a ``%`` template and its values,
    in order, to ``values``; False when it holds what only the per-value
    path writes (`dumps`).  A list is a rectangular grid at any depth,
    and it and a dict of floats go in whole, with their cached
    templates.  `dumps` checks that every value taken is a float."""
    kind = type(obj)
    if kind is dict:
        if obj is CONVENTIONS:
            parts.append(_CONVENTIONS_TEMPLATE)
        elif obj and set(map(type, obj.values())) == {float}:
            parts.append(_dict_template(tuple(map(_text, obj))))
            values += obj.values()
        else:
            sep = "{"
            for k, v in obj.items():
                parts.append(sep + _text(k) + ":")
                if not _template(v, parts, values):
                    return False
                sep = ","
            parts.append("}" if obj else "{}")
    elif kind is list:
        shape = [len(obj)]
        cells = obj
        while cells and type(cells[0]) is list:
            try:
                widths = set(map(len, cells))
                # concatenation refuses a row that is not a list; it is
                # quadratic in the row count, at most 16 in a report
                cells = sum(cells, [])
            except TypeError:
                return False
            if len(widths) != 1:
                return False
            shape.append(widths.pop())
        parts.append(_grid_template(tuple(shape)))
        values += cells
    elif kind is float:
        parts.append("%.17g")
        values.append(obj)
    elif kind is str:
        parts.append(_text(obj))
    elif kind is int:
        parts.append(str(obj))
    else:
        return False
    return True


def _emit(obj: Any) -> str:
    """obj as JSON text, value by value: the path of a document that holds
    something `_template` does not write, or a value that is not finite,
    which `format_float` refuses."""
    if isinstance(obj, dict):
        return "{" + ",".join([f"{json.dumps(str(k))}:{_emit(v)}" for k, v in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_emit(v) for v in obj]) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    raise InputFormatError(f"cannot serialize object of type {type(obj).__name__}")


#: the constant block every document carries, as a template piece
_CONVENTIONS_TEMPLATE = _emit(CONVENTIONS).replace("%", "%%")


def dumps(obj: Any) -> str:
    """Serialize to a single deterministic JSON line (newline-terminated).

    The document is walked once into one ``%`` template and one list of
    its floats, formatted in one call: ``%.17g`` is `format_float`'s
    format, and adding 0.0 folds -0.0 into 0.0 and changes no other
    value.  A document holding anything else (bools, None, numpy values,
    tuples, subclasses, a grid cell that is not a float) or a value that
    is not finite (or a sum that overflows) takes the per-value path,
    which raises on the first non-finite value as `format_float` does.
    """
    parts: list[str] = []
    values: list = []
    if (_template(obj, parts, values) and set(map(type, values)) <= {float}
            and math.isfinite(sum(values))):
        parts.append("\n")
        return "".join(parts) % tuple([v + 0.0 for v in values])
    return _emit(obj) + "\n"


def real_matrix(m: np.ndarray) -> list[list[float]]:
    return np.asarray(m, dtype=float).tolist()


def complex_matrix(m: np.ndarray) -> list[list[list[float]]]:
    z = np.ascontiguousarray(m, dtype=complex)
    # the float64 view holds each entry as its (real, imaginary) pair
    return z.view(np.float64).reshape(z.shape + (2,)).tolist()


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
    # the result's float and complex arrays, each converted in one call
    doc["lambdaCanonical"] = result.canonical_lambda.tolist()
    doc["rhoCanonical"] = result.canonical_rho.view(float).reshape(4, 4, 2).tolist()
    doc["leftLorentz"] = result.left_lorentz.tolist()
    doc["rightLorentz"] = result.right_lorentz.tolist()
    # the scalars are Python floats already; the lists are copied, so the
    # report does not alias the result
    doc["parameters"] = {k: (list(v) if isinstance(v, list) else v)
                         for k, v in result.parameters.items()}
    doc["normalizationScale"] = result.normalization_scale
    doc["residuals"] = dict(result.residuals)
    if result.partner is not None:
        doc["partner"] = canonical_report(result.partner, include_conventions=False)
    return doc


#: the parameters the steering geometry reads, per arrow family
_ARROW_PARAMETERS = {SideFamily.TYPE_II_A: ("r0", "r1"), SideFamily.TYPE_II_B: ("s0", "s1")}


def parse_canonical_report(doc: Any, tol: float = DEFAULT_TOL) -> CanonicalResult:
    """Rebuild what the geometry commands read from a report: the family,
    ``lambdaCanonical`` and the arrow parameters.  One rule holds for
    both families, checked as `canonicalize` checks its own, at
    ``max(tol, DEFECTIVE_ROOT_FLOOR)``: the parameters -- (d1, d2, d3) off
    a TypeI diagonal, or the arrow's (p0, p1) -- must lie in the
    canonical region, and ``lambdaCanonical`` must equal the pattern they
    give, diag(1, d1, d2, d3) or the arrow of (p0, p1), transposed for
    TypeII_B.  The canonical state is rebuilt from them; other fields are
    placeholders."""
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
    # Python floats, whose arithmetic overflows to inf without a warning
    values = _number_array([params[k] for k in names], "parameters", "real numbers").tolist()
    if any(isinstance(v, list) for v in values):
        raise InputFormatError(f"the parameters {names} must be numbers")
    region_tol = max(tol, DEFECTIVE_ROOT_FLOOR)
    # a DegenerateProduct report has no pattern and no canonical state
    rho_c, expected = np.zeros((4, 4), dtype=complex), lam_c
    if names:
        side = "A" if family is SideFamily.TYPE_II_A else "B"
        rho_c = canonical_rho_type2(*values, side, tol=region_tol)
        expected = _type2_pattern(*values) if side == "A" else _type2_pattern(*values).T
    elif family is SideFamily.TYPE_I:
        diag = np.diag(lam_c)[1:].tolist()
        rho_c = canonical_rho_type1(*diag, tol=region_tol)
        expected = np.diag([1.0, *diag])
    deviation = float(np.abs(lam_c - expected).max())
    if deviation > region_tol:
        raise InvalidCanonicalParameters(
            f"a {family.value} lambdaCanonical deviates by {deviation:.3e} from the pattern "
            "of its parameters, diag(1, d1, d2, d3) or the arrow of (p0, p1)"
        )
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
