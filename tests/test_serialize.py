"""Deterministic JSON emitters and the shared state-document schema."""

from __future__ import annotations

import json

import numpy as np
import pytest

from lorentzsvd.canonical import SigmaParameters, canonicalize, sigma_from_bcd
from lorentzsvd.errors import InputFormatError, InvalidCanonicalParameters
from lorentzsvd.geometry import steering_ellipsoid
from lorentzsvd.qstate import random_state, rho_from_lambda
from lorentzsvd.serialize import (
    canonical_report,
    dumps,
    format_float,
    loads_state,
    parse_canonical_report,
    parse_state_document,
    state_document,
)


def test_format_float_basics():
    assert format_float(1.0) == "1"
    assert format_float(0.25) == "0.25"
    assert format_float(-0.0) == "0"
    assert format_float(0.1) == "0.10000000000000001"


def test_format_float_round_trips_exactly():
    gen = np.random.default_rng(3)
    for x in gen.normal(size=200) * 10.0 ** gen.integers(-12, 12, size=200):
        assert float(format_float(float(x))) == float(x)


def test_format_float_rejects_non_finite():
    with pytest.raises(InputFormatError):
        format_float(float("nan"))
    with pytest.raises(InputFormatError):
        format_float(float("inf"))


def test_dumps_is_plain_json_with_fixed_order():
    text = dumps({"b": [1, 2.5], "a": {"x": True, "y": None}})
    assert text.endswith("\n")
    assert text.index('"b"') < text.index('"a"')  # insertion order, not sorted
    assert json.loads(text) == {"b": [1, 2.5], "a": {"x": True, "y": None}}


def _reference_emit(obj):
    """The emitter as an isinstance chain: the fast path's reference."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_reference_emit(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference_emit(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    return _reference_emit(obj.tolist())


class _Floats(list):
    pass


def test_dumps_matches_the_reference_emitter():
    gen = np.random.default_rng(11)
    docs = [
        canonical_report(canonicalize(rho))
        for rho in (
            random_state(4, seed=2),
            rho_from_lambda(np.diag([1.0, 0.5, -0.5, 0.5])),
            sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))[1],
        )
    ]
    docs.append({
        "floats": [-0.0, 0.0, 1e-300, -2.5, 1e300] + gen.normal(size=8).tolist(),
        "numpy": [np.float64(-0.0), np.float32(0.5), np.int64(-3), np.arange(3), np.eye(2)],
        "scalars": (True, False, None, 7, "text \"quoted\""),
        "subclasses": _Floats([1.5, -0.0]),
        1: "int key", True: "bool key", 2.5: "float key", None: "none key",
    })
    for doc in docs:
        assert dumps(doc) == _reference_emit(doc) + "\n"
    with pytest.raises(InputFormatError, match="non-finite"):
        dumps({"x": [1.0, float("nan")]})
    with pytest.raises(InputFormatError, match="cannot serialize"):
        dumps({"x": {1, 2}})


def test_state_document_round_trip():
    rho = random_state(3, seed=5)
    kind, back = parse_state_document(json.loads(dumps(state_document(rho=rho))))
    assert kind == "rho"
    np.testing.assert_allclose(back, rho, atol=0)

    lam = np.diag([1.0, 0.3, -0.3, 0.5])
    kind, back = parse_state_document(json.loads(dumps(state_document(lam=lam))))
    assert kind == "lambda"
    np.testing.assert_array_equal(back, lam)


def test_state_document_requires_exactly_one_payload():
    with pytest.raises(InputFormatError, match="exactly one"):
        parse_state_document({"conventions": {}})
    with pytest.raises(InputFormatError, match="exactly one"):
        parse_state_document({"rho": [], "lambda": []})
    with pytest.raises(InputFormatError, match="4x4"):
        parse_state_document({"lambda": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(InputFormatError, match="re, im"):
        parse_state_document({"rho": [[0.25] * 4] * 4})
    with pytest.raises(InputFormatError):
        loads_state("{broken")


def test_canonical_report_structure():
    lam = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.6, 0.0, 0.0],
            [0.0, 0.0, -0.6, 0.0],
            [0.36, 0.0, 0.0, 0.64],
        ]
    )
    doc = canonical_report(canonicalize(rho_from_lambda(lam)))
    assert list(doc) == [
        "conventions",
        "family",
        "lambdaCanonical",
        "rhoCanonical",
        "leftLorentz",
        "rightLorentz",
        "parameters",
        "normalizationScale",
        "residuals",
        "partner",
    ]
    assert doc["family"] == "TypeII_A"
    assert doc["partner"]["family"] == "TypeII_B"
    assert "conventions" not in doc["partner"]
    corner = doc["rhoCanonical"][0][3]
    assert corner[0] == pytest.approx(0.3, abs=1e-12) and corner[1] == 0.0
    # the serialized report feeds the geometry layer directly
    rebuilt = parse_canonical_report(json.loads(dumps(doc)))
    ell = steering_ellipsoid(rebuilt)
    np.testing.assert_allclose(ell.center, [0, 0, 0.36], atol=1e-9)


def test_parse_canonical_report_rejects_garbage():
    with pytest.raises(InputFormatError):
        parse_canonical_report({"family": "TypeIX"})
    with pytest.raises(InputFormatError):
        parse_canonical_report([1, 2, 3])
    with pytest.raises(InputFormatError, match="must carry parameters"):
        parse_canonical_report(
            {"family": "TypeII_B", "lambdaCanonical": np.eye(4).tolist(), "parameters": {"s0": 0.5}}
        )


#: (family, lambdaCanonical, parameters, message) of reports that describe
#: no state: arrow parameters outside 0 <= p1^2 <= p0 <= 1, a TypeI
#: diagonal with a negative Bell weight (diag(1, 5, 5, 5) would give
#: semi-axes outside the Bloch ball) and a TypeI lambdaCanonical that is
#: not diagonal
OUTSIDE_THE_REGION = [
    ("TypeII_A", np.eye(4), {"r0": 5, "r1": 3}, "0 <= p1"),
    ("TypeII_A", np.eye(4), {"r0": 0.5, "r1": 0.8}, "0 <= p1"),
    ("TypeII_B", np.eye(4), {"s0": 0.5, "s1": -0.8}, "0 <= p1"),
    ("TypeII_B", np.eye(4), {"s0": -0.1, "s1": 0.0}, "0 <= p1"),
    ("TypeI", np.diag([1.0, 5.0, 5.0, 5.0]), {}, "Bell weight"),
    ("TypeI", np.diag([1.0, 0.9, 0.9, 0.9]), {}, "Bell weight"),
    ("TypeI", np.diag([1.0, 0.5, 0.5, 0.5]) + np.diag([0.1, 0.0, 0.0], 1), {}, "diag"),
]


@pytest.mark.parametrize(
    "family, lam_c, params, message",
    OUTSIDE_THE_REGION,
    ids=[f"{case[0]}-params{i}" for i, case in enumerate(OUTSIDE_THE_REGION)],
)
def test_parse_canonical_report_refuses_parameters_outside_the_region(
    family, lam_c, params, message
):
    """Arrow parameters must satisfy 0 <= p1^2 <= p0 <= 1, and a TypeI
    lambdaCanonical must be diag(1, d1, d2, d3) with non-negative Bell
    weights, as for a state built from them."""
    doc = {"family": family, "lambdaCanonical": lam_c.tolist(), "parameters": params}
    with pytest.raises(InvalidCanonicalParameters, match=message):
        parse_canonical_report(doc)
