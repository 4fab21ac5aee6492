"""Deterministic JSON emitters and the shared state-document schema."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from lorentzsvd import serialize
from lorentzsvd.canonical import SigmaParameters, canonicalize, sigma_from_bcd
from lorentzsvd.errors import InputFormatError, InvalidCanonicalParameters
from lorentzsvd.geometry import steering_ellipsoid
from lorentzsvd.qstate import random_state, rho_from_lambda
from lorentzsvd.serialize import (
    canonical_report,
    complex_matrix,
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


def _family_reports():
    """One report of each family, the TypeII_A one with its TypeII_B
    partner; the last is the pure product |00>."""
    pure_product = np.zeros((4, 4), dtype=complex)
    pure_product[0, 0] = 1.0
    docs = [
        canonical_report(canonicalize(rho))
        for rho in (
            random_state(4, seed=2),
            rho_from_lambda(np.diag([1.0, 0.5, -0.5, 0.5])),
            sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))[1],
            pure_product,
        )
    ]
    assert [d["family"] for d in docs] == ["TypeI", "TypeI", "TypeII_A", "DegenerateProduct"]
    assert docs[2]["partner"]["family"] == "TypeII_B"
    return docs


def _float_arrays():
    """float64 arrays that `dumps` writes whole, and arrays it writes
    value by value: other dtypes, byte orders, subclasses and 0-d."""
    gen = np.random.default_rng(5)
    z = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    m = gen.normal(size=(4, 6))
    whole = {
        "2-D": m,
        "complex-view": z.view(np.float64).reshape(4, 4, 2),
        "transposed": m.T,
        "strided": m[::2, 1::3],
        "reversed": m[::-1, ::-2],
        "empty": np.zeros(0),
        "empty-rows": np.zeros((2, 0)),
        "no-rows": np.zeros((0, 2)),
        # -0.0 folds into 0; subnormals keep 17 digits
        "signed-zeros": np.array([[-0.0, 0.0], [5e-324, -2.2250738585072e-310]]),
    }
    per_value = {
        "0-d": np.array(-0.0),
        "0-d-value": np.array(2.5),
        "int": np.arange(6).reshape(2, 3),
        "float32": np.linspace(-1, 1, 5, dtype=np.float32),
        "bool": np.array([True, False]),
        "subclass": m.view(type("Floats", (np.ndarray,), {})),
        "big-endian": m.astype(">f8"),
    }
    return whole, per_value


def test_dumps_matches_the_reference_emitter():
    gen = np.random.default_rng(11)
    docs = _family_reports()
    docs.append({
        "floats": [-0.0, 0.0, 1e-300, -2.5, 1e300] + gen.normal(size=8).tolist(),
        "numpy": [np.float64(-0.0), np.float32(0.5), np.int64(-3), np.arange(3), np.eye(2)],
        "scalars": (True, False, None, 7, "text \"quoted\""),
        "subclasses": _Floats([1.5, -0.0]),
        1: "int key", True: "bool key", 2.5: "float key", None: "none key",
    })
    # a dict of floats only, with keys that a format string would misread
    docs.append({"zero": -0.0, 'per%cent "key"': 1e-300, 3: 2.5, 0.5: -1e308})
    # keys equal as values but not as text: 1, True and 1.0 are one dict key
    docs += [{1: 0.5}, {True: 0.5}, {1.0: 0.5}]
    # a --batch summary, whose failure messages may hold %; empty containers
    docs.append({"command": "canonicalize", "processed": 2, "failures": {
        "100%.json": {"exitCode": 3, "message": "NumericalFailure: 5% off, %s %d %%"}}})
    docs += [{}, [], {"empty": {}, "none": [], "rows": [[], []]}]
    whole, per_value = _float_arrays()
    arrays = {**whole, **per_value}
    docs += list(arrays.values())
    docs += [arrays, {"mixed": [np.eye(2), np.array(3.0), [0.5, np.float32(1.5)]]}]
    for doc in docs:
        assert dumps(doc) == _reference_emit(doc) + "\n"
    with pytest.raises(InputFormatError, match="non-finite"):
        dumps({"x": [1.0, float("nan")]})
    with pytest.raises(InputFormatError, match="non-finite"):
        dumps({"x": 1.0, "y": math.inf})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputFormatError, match="non-finite"):
            dumps({"m": np.array([[0.5, bad], [1.0, 2.0]])})
    with pytest.raises(InputFormatError, match="cannot serialize"):
        dumps({"x": {1, 2}})
    # a complex array is refused, as its values are
    with pytest.raises(InputFormatError, match="cannot serialize object of type complex"):
        dumps({"z": np.eye(2, dtype=complex)})


def _no_per_value_path(monkeypatch):
    def refuse(obj):
        raise AssertionError(f"per-value path taken for {obj!r}")

    monkeypatch.setattr(serialize, "_emit", refuse)


def test_reports_and_float64_arrays_take_the_template_path(monkeypatch):
    """The per-value path writes the same bytes, so only refusing it shows
    that reports of every family, and float64 arrays, never reach it."""
    docs = _family_reports()
    whole, _ = _float_arrays()
    _no_per_value_path(monkeypatch)
    for doc in [*docs, *whole.values(), whole]:
        assert dumps(doc) == _reference_emit(doc) + "\n"


def test_keys_equal_as_values_keep_their_own_text(monkeypatch):
    """1, True and 1.0 are one dict key as values, and "1" is the text
    of 1; each keeps its own JSON key through the cached key pieces."""
    _no_per_value_path(monkeypatch)
    for doc in ({1: [0.5]}, {True: [0.5]}, {1.0: [0.5]}, {"1": [0.5]}):
        assert dumps(doc) == _reference_emit(doc) + "\n"


GRIDS = {
    # -0.0 folds into 0; the smallest subnormal and the largest decades keep 17 digits
    "extremes": [[-0.0, 5e-324, 1e308], [-1e308, 0.0, -5e-324]],
    "sum-overflows": [[1e308, 1e308], [1e308, 1.5e308]],
    "three-deep": [[[0.5, -0.0], [1.0, 0.1]], [[-2.5, 1e-300], [3.0, 4.0]]],
    "int-entry": [[1.0, 2], [3.0, 4.0]],
    "big-int-entry": [[1.0, 10**20], [3.0, 4.0]],
    "bool-entry": [[1.0, True], [3.0, 4.0]],
    "numpy-entry": [[1.0, np.float64(-0.0)], [3.0, 4.0]],
    "ragged": [[1.0, 2.0], [3.0]],
    "ragged-depth": [[1.0, 2.0], 3.0],
    "row-subclass": [[1.0, 2.0], _Floats([3.0, 4.0])],
    "empty-rows": [[], []],
    "one-row": [0.25, -0.0, 7.0],
}


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
def test_grid_emitter_matches_the_per_value_path(grid):
    assert dumps(grid) == _reference_emit(grid) + "\n"
    assert dumps({"m": grid, "t": tuple(grid)}) == _reference_emit({"m": grid, "t": grid}) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_grid_refuses_non_finite_values_as_format_float_does(bad):
    with pytest.raises(InputFormatError) as expected:
        format_float(bad)
    for grid in ([[1.0, 2.0], [bad, 4.0]], [[[0.0, 1.0]], [[bad, math.nan]]]):
        with pytest.raises(InputFormatError) as got:
            dumps({"m": grid})
        assert str(got.value) == str(expected.value)


def test_complex_matrix_keeps_every_bit():
    gen = np.random.default_rng(3)
    m = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    m[0, 1] = complex(-0.0, 0.0)
    m[2, 3] = complex(0.0, -0.0)
    for z in (m, m.T, m.real):
        rows = np.asarray(z, dtype=complex).tolist()
        per_entry = [[[v.real, v.imag] for v in row] for row in rows]
        assert repr(complex_matrix(z)) == repr(per_entry)


def test_state_document_round_trip():
    rho = random_state(3, seed=5)
    kind, back = parse_state_document(json.loads(dumps(state_document(rho=rho))))
    assert kind == "rho"
    np.testing.assert_allclose(back, rho, atol=0)

    lam = np.diag([1.0, 0.3, -0.3, 0.5])
    kind, back = parse_state_document(json.loads(dumps(state_document(lam=lam))))
    assert kind == "lambda"
    np.testing.assert_array_equal(back, lam)


#: payloads whose first refused leaf the message names, whichever check finds it
REFUSED_LEAVES = {
    "bool-leaf": ([[1.0, True], [0.0, 1.0]], "got bool"),
    "string-leaf": ([[1.0, 0.5], ["0.5", 1.0]], "got str"),
    "null-leaf": ([[1.0, None]], "got NoneType"),
    "dict-row": ([[1.0, 2.0], {}], "got dict"),
    "string-row": ([[1.0, 2.0], ""], "got str"),
    "dict": ({"a": 1}, "got dict"),
    "ragged": ([[1.0, 2.0], [3.0]], "entries must be real numbers: "),
    "mixed-depth": ([[1.0, 2.0], 3.0], "entries must be real numbers: "),
    "list-after-number": ([1.0, [2.0]], "entries must be real numbers: "),
}


@pytest.mark.parametrize("payload, message", REFUSED_LEAVES.values(), ids=REFUSED_LEAVES.keys())
def test_state_payload_leaves_must_be_numbers(payload, message):
    with pytest.raises(InputFormatError) as got:
        parse_state_document({"lambda": payload})
    assert str(got.value).startswith('"lambda" entries must be real numbers')
    assert message in str(got.value)


def test_state_payload_check_is_linear_in_its_rows():
    # flattened one level at a time; concatenating 10**5 rows one by one
    # would copy about 5e9 references
    with pytest.raises(InputFormatError, match=r"got shape \(100000, 1\)"):
        parse_state_document({"lambda": [[0.5]] * 100_000})


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
