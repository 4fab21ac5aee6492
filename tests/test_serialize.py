"""Deterministic JSON emitters and the shared state-document schema."""

from __future__ import annotations

import json

import numpy as np
import pytest

from lorentzsvd.canonical import canonicalize
from lorentzsvd.errors import InputFormatError
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
