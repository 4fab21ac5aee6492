"""Command-line behavior: exit codes, determinism, batch isolation.

Everything runs in-process through main(argv) so the suite stays fast;
the console entry point is the same function.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzsvd import errors
from lorentzsvd.canonical import SigmaParameters, canonicalize, sigma_from_bcd
from lorentzsvd.cli import main
from lorentzsvd.minkowski import lorentz_defect
from lorentzsvd.qstate import apply_slocc, lambda_from_rho, random_state, rho_from_lambda
from lorentzsvd.serialize import canonical_report, dumps, loads_state, state_document

from conftest import random_sl2c, rng, slightly_negative_state

MIXED = {"rho": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]}
TYPE2_LAMBDA = {
    "lambda": [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.6, 0.0, 0.0],
        [0.0, 0.0, -0.6, 0.0],
        [0.36, 0.0, 0.0, 0.64],
    ]
}


def run(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_classify_reference_line(tmp_path, capsys):
    path = write_state(tmp_path, "mixed.json", MIXED)
    code, out, err = run(["classify", path], capsys)
    assert code == 0 and err == ""
    assert out == "TypeI, eigenvalues [1,0,0,0]\n"


def test_classify_type2(tmp_path, capsys):
    path = write_state(tmp_path, "t2.json", TYPE2_LAMBDA)
    code, out, _ = run(["classify", path], capsys)
    assert code == 0
    assert out.startswith("TypeII, eigenvalues [")
    # the spectrum of Lambda(rho(Lambda)), which carries rounding of the round trip
    spectrum = [float(v) for v in out.split("[", 1)[1].rstrip("]\n").split(",")]
    np.testing.assert_allclose(spectrum, [0.64, 0.64, 0.36, 0.36], rtol=0.0, atol=1e-12)


def test_classify_and_canonicalize_agree_on_a_lambda_document(tmp_path, capsys):
    """Both commands work on the Lambda of the rho the document validates to."""
    doc = state_document(lam=lambda_from_rho(random_state(4, seed=7)))
    path = write_state(tmp_path, "lam.json", doc)
    _, classified, _ = run(["classify", path], capsys)
    _, report, _ = run(["canonicalize", path], capsys)
    lambdas = json.loads(report)["parameters"]["lambdas"]
    spectrum = classified.split("[", 1)[1].rstrip("]\n")
    assert [float(v) for v in spectrum.split(",")] == lambdas


def test_canonicalize_is_byte_deterministic(tmp_path, capsys):
    path = write_state(tmp_path, "t2.json", TYPE2_LAMBDA)
    code, out1, _ = run(["canonicalize", path], capsys)
    code2, out2, _ = run(["canonicalize", path], capsys)
    assert code == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["family"] == "TypeII_A"
    assert doc["parameters"]["r0"] == pytest.approx(0.64, abs=1e-9)
    assert "conventions" in doc


def test_random_is_seed_deterministic(capsys):
    code, out1, _ = run(["random", "--rank", "2", "--seed", "7"], capsys)
    _, out2, _ = run(["random", "--rank", "2", "--seed", "7"], capsys)
    _, out3, _ = run(["random", "--rank", "2", "--seed", "8"], capsys)
    assert code == 0
    assert out1 == out2
    assert out1 != out3
    doc = json.loads(out1)
    rho = np.asarray(doc["rho"], dtype=float)
    assert rho.shape == (4, 4, 2)
    assert abs(rho[..., 0].trace() - 1.0) < 1e-12


def test_random_rejects_bad_rank(capsys):
    # numpy's PCG64 refuses a negative seed; the CLI refuses it first
    for rank, seed in (("9", "0"), ("2", "-1")):
        code, _, err = run(["random", "--rank", rank, "--seed", seed], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "InputFormatError"


def test_pipeline_chain_across_ranks(tmp_path, capsys, monkeypatch):
    for seed in range(25):
        for rank in (1, 2, 3, 4):
            code, state, _ = run(["random", "--rank", str(rank), "--seed", str(seed)], capsys)
            assert code == 0
            code, report, err = run(
                ["canonicalize", "-"], capsys, monkeypatch, stdin_text=state
            )
            assert code == 0, err
            code, geo, err = run(["ellipsoid", "-"], capsys, monkeypatch, stdin_text=report)
            assert code == 0, err
            blob = json.loads(geo)
            assert len(blob["semiAxes"]) == 3
            assert max(blob["semiAxes"]) <= 1.0 + 1e-9


def test_ellipsoid_reference_with_csv(tmp_path, capsys):
    path = write_state(tmp_path, "t2.json", TYPE2_LAMBDA)
    csv_path = tmp_path / "pts.csv"
    code, out, _ = run(
        ["ellipsoid", path, "--samples", "20", "--csv", str(csv_path)], capsys
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["family"] == "TypeII_A"
    assert blob["center"] == pytest.approx([0.0, 0.0, 0.36], abs=1e-9)
    assert blob["semiAxes"] == pytest.approx([0.6, 0.6, 0.64], abs=1e-9)
    lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "x,y,z"
    assert len(lines) == 21
    pts = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # sampled points satisfy the spheroid equation
    quad = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / 0.36 + (pts[:, 2] - 0.36) ** 2 / 0.4096
    np.testing.assert_allclose(quad, 1.0, atol=1e-9)


def test_ellipsoid_side_b(tmp_path, capsys):
    path = write_state(tmp_path, "t2.json", TYPE2_LAMBDA)
    code, out, _ = run(["ellipsoid", path, "--side", "B"], capsys)
    assert code == 0
    assert json.loads(out)["family"] == "TypeII_B"


def test_sigma_reference(capsys):
    code, out, err = run(["sigma", "--b", "0.5", "--c", "0.1", "--d", "0.3"], capsys)
    assert code == 0, err
    assert "ok: true" in out
    assert "0.55000000000000004" in out  # doubly degenerate top eigenvalue
    assert "s0=0.55555555555555558" in out
    assert "s1=0.30151134457776363" in out


def test_sigma_rejects_invalid_region(capsys):
    code, _, err = run(["sigma", "--b", "0.1", "--c", "0.5", "--d", "0.1"], capsys)
    assert code == 1
    blob = json.loads(err)
    assert blob["error"] == "InvalidSigmaParameters"
    assert "b - c" in blob["message"]


def test_verify_accepts_good_state(tmp_path, capsys):
    path = write_state(tmp_path, "mixed.json", MIXED)
    code, out, _ = run(["verify", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert set(doc["checks"]) >= {"rhoRoundTrip", "sharedSpectrum"}


# case 111 of the cli benchmark corpus at seed 7: a filtered Sigma(b, c, d)
# state whose factors have entries up to about 1.5
FILTERED_TYPE2 = {
    "rho": [
        [[0.61536713164176293, -2.4999937384516207e-17], [0.28843923121033321, -0.28576760665907036],
         [0.12208853484724481, 0.17630992669476186], [0.14623342162250708, 0.029954870363727491]],
        [[0.28843923121033316, 0.28576760665907036], [0.26905619314268597, -2.4999937384516207e-17],
         [-0.024234733512153751, 0.13886636859251084], [0.054715805981761637, 0.08156293823538957]],
        [[0.1220885348472448, -0.17630992669476186], [-0.024234733512153765, -0.13886636859251084],
         [0.077838904014314717, -6.2499843461290517e-18], [0.039191222476313972, -0.037424714157888617]],
        [[0.14623342162250708, -0.029954870363727491], [0.054715805981761644, -0.081562938235389598],
         [0.039191222476313972, 0.03742471415788861], [0.037737771201236323, -9.7656005408266433e-20]],
    ]
}


def test_verify_accepts_filtered_type2_state(tmp_path, capsys):
    """lorentzFactors measures all four factors the way the construction does."""
    path = write_state(tmp_path, "t2.json", FILTERED_TYPE2)
    code, out, _ = run(["verify", path], capsys)
    doc = json.loads(out)
    assert doc["family"] == "TypeII_A"
    assert doc["checks"]["lorentzFactors"]["value"] <= 1e-9
    assert code == 0 and doc["ok"] is True


def test_verify_round_trip_of_lambda_document(tmp_path, capsys):
    """On a lambda document the round trip ends on Lambda, and measures it."""
    text = dumps(state_document(lam=lambda_from_rho(random_state(3, seed=7))))
    path = tmp_path / "lam.json"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0
    lam = loads_state(text)[1]
    expected = np.abs(lambda_from_rho(rho_from_lambda(lam)) - lam).max()
    assert expected > 0.0
    assert json.loads(out)["checks"]["rhoRoundTrip"]["value"] == expected


def test_verify_names_trace_defect(tmp_path, capsys):
    bad = {"rho": [[[0.225 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]}
    path = write_state(tmp_path, "bad.json", bad)
    code, _, err = run(["verify", path], capsys)
    assert code == 2
    blob = json.loads(err)
    assert blob["error"] == "InvalidState"
    assert "trace defect 1.000e-01" in blob["message"]
    assert blob["exitCode"] == 2


def test_trace_overflow_is_an_invalid_state(tmp_path, capsys):
    """A rho entry whose trace defect overflows is refused as InvalidState
    by every state command and in --batch, without a traceback."""
    doc = json.loads(json.dumps(MIXED))
    for i in range(4):
        doc["rho"][i][i] = [0.0, 0.0]
    doc["rho"][0][0] = [1.5e308, 1.5e308]
    path = write_state(tmp_path, "huge.json", doc)
    for command in ("canonicalize", "classify", "verify", "ellipsoid"):
        code, out, err = run([command, path], capsys)
        assert code == 2 and out == ""
        blob = json.loads(err)
        assert blob["error"] == "InvalidState" and blob["exitCode"] == 2
        assert "trace defect inf" in blob["message"]
    code, out, _ = run(["canonicalize", "--batch", str(tmp_path)], capsys)
    assert code == 2
    failure = json.loads(out)["failures"]["huge.json"]
    assert failure["exitCode"] == 2 and failure["message"].startswith("InvalidState:")


def test_verify_checks_the_factorization_canonicalize_reports(tmp_path, capsys):
    """`verify` takes the eigensolve `canonicalize` takes, so it checks the
    very factors `canonicalize` reports.  A rank-2 state shows any other
    solve: its SVD rotation inside the degenerate singular pair moves with
    the last bits of the time row."""
    for seed in range(20):
        path = tmp_path / f"r2s{seed}.json"
        path.write_text(dumps(state_document(rho=random_state(2, seed=seed))), encoding="utf-8")
        code, out, err = run(["verify", str(path)], capsys)
        assert code == 0, err
        checks = json.loads(out)["checks"]
        result = canonicalize(loads_state(path.read_text(encoding="utf-8"))[1])
        defect = max(lorentz_defect(result.left_lorentz), lorentz_defect(result.right_lorentz))
        assert checks["factorization"]["value"] == result.residuals["factorization"]
        assert checks["lorentzFactors"]["value"] == defect


# case 25 of the hard-inputs benchmark corpus at seed 7: a rank-4 state
# filtered at rapidity 2.5, whose lower eigenvalues crowd near 5e-8
FILTERED_RANK4 = {
    "lambda": [
        [1.0, 0.94856556054234775, 0.05399132581626271, -0.31135085380916228],
        [-0.7600545328290812, -0.72090704161767782, -0.041103156886036163, 0.23679021867588132],
        [0.53833585261841466, 0.51073547999282154, 0.029082172865303624, -0.1673478792918221],
        [0.36326467220138925, 0.34456755301930581, 0.019460879945132313, -0.11317372228586764],
    ]
}

# Lambda of case 13 of the hard-inputs corpus at seed 7, a rank-4 state
# filtered at rapidity 2.5 whose TypeI factors miss the factorization
# recheck (2.8e-8 against 1e-8)
UNFACTORED_STATE = {
    "lambda": [
        [0.9999999999999999, 0.21855252787356377, 0.7081287484080871, 0.6473334721220193],
        [0.40580662369991577, 0.0889652553276669, 0.2861551006600692, 0.26352209827421935],
        [0.7844574767332488, 0.17141656172166458, 0.5559830704973446, 0.5073226107423643],
        [-0.4688066630058859, -0.10226505261112562, -0.3322199581747171, -0.30357308599362465],
    ]
}


def test_classify_stops_at_the_timelike_top(tmp_path, capsys):
    """`classify` reads the family off the timelike top cluster, as
    `canonicalize` does, so lower clusters it never solves cannot refuse
    a TypeI state."""
    path = write_state(tmp_path, "filtered.json", FILTERED_RANK4)
    code, out, err = run(["classify", path], capsys)
    assert code == 0, err
    assert out.startswith("TypeI, eigenvalues [")


def test_verify_refuses_as_canonicalize_does(tmp_path, capsys):
    """A state `canonicalize` refuses is refused by `verify` with the same
    error class and message."""
    path = write_state(tmp_path, "unfactored.json", UNFACTORED_STATE)
    code, _, err = run(["verify", path], capsys)
    code_c, _, err_c = run(["canonicalize", path], capsys)
    assert code == code_c == 3
    assert json.loads(err) == json.loads(err_c)
    assert json.loads(err)["message"].startswith("factorization residual")


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = run(["classify", str(path)], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "InputFormatError"


@pytest.mark.parametrize(
    "key, row, col, value",
    [("lambda", 1, 1, float("nan")), ("rho", 0, 0, [float("inf"), 0.0])],
)
def test_non_finite_entries_exit_one(tmp_path, capsys, key, row, col, value):
    doc = json.loads(json.dumps(TYPE2_LAMBDA if key == "lambda" else MIXED))
    doc[key][row][col] = value
    path = write_state(tmp_path, "bad.json", doc)
    for command in ("classify", "canonicalize"):
        code, out, err = run([command, path], capsys)
        assert code == 1 and out == ""
        blob = json.loads(err)
        assert blob["error"] == "InputFormatError"
        assert "finite" in blob["message"]


#: a JSON integer that parses but does not fit in a float
HUGE_INT = 10**400


@pytest.mark.parametrize("key", ["rho", "lambda"])
def test_integer_beyond_float_range_exits_one(tmp_path, capsys, key):
    doc = json.loads(json.dumps(TYPE2_LAMBDA if key == "lambda" else MIXED))
    doc[key][0][0] = [HUGE_INT, 0] if key == "rho" else HUGE_INT
    path = write_state(tmp_path, "huge.json", doc)
    for command in ("classify", "canonicalize", "verify", "ellipsoid"):
        code, out, err = run([command, path], capsys)
        assert code == 1 and out == ""
        blob = json.loads(err)
        assert blob["error"] == "InputFormatError"
        assert "too large" in blob["message"]
    batch = tmp_path / "states"
    batch.mkdir()
    write_state(batch, "huge.json", doc)
    code, out, _ = run(["canonicalize", "--batch", str(batch)], capsys)
    failure = json.loads(out)["failures"]["huge.json"]
    assert code == 1 and failure["exitCode"] == 1
    assert failure["message"].startswith("InputFormatError:")


def _non_number_documents():
    """Documents that parse as JSON but hold a string or a boolean entry."""
    string_lambda = {"lambda": [[str(v) for v in row] for row in TYPE2_LAMBDA["lambda"]]}
    bool_lambda = json.loads(json.dumps(TYPE2_LAMBDA))
    bool_lambda["lambda"][0][0] = True
    string_rho = json.loads(json.dumps(MIXED))
    string_rho["rho"][1][1] = ["0.25", 0.0]
    bool_rho = json.loads(json.dumps(MIXED))
    bool_rho["rho"][0][0] = [0.25, False]
    report = json.loads(dumps(canonical_report(canonicalize(rho_from_lambda(
        np.array(TYPE2_LAMBDA["lambda"]))))))
    string_matrix = json.loads(json.dumps(report))
    string_matrix["lambdaCanonical"][1][1] = "0.6"
    bool_parameter = json.loads(json.dumps(report))
    bool_parameter["parameters"]["r1"] = True
    state_commands = ("classify", "canonicalize", "verify", "ellipsoid")
    return {
        "lambda-strings": (string_lambda, state_commands),
        "lambda-bool": (bool_lambda, state_commands),
        "rho-string": (string_rho, state_commands),
        "rho-bool": (bool_rho, state_commands),
        "lambdaCanonical-string": (string_matrix, ("ellipsoid",)),
        "parameters-bool": (bool_parameter, ("ellipsoid",)),
    }


@pytest.mark.parametrize("case", list(_non_number_documents()))
def test_non_number_entries_exit_one(tmp_path, capsys, case):
    """JSON strings that spell numbers and booleans are not real numbers."""
    doc, commands = _non_number_documents()[case]
    path = write_state(tmp_path, "bad.json", doc)
    for command in commands:
        code, out, err = run([command, path], capsys)
        assert code == 1 and out == ""
        blob = json.loads(err)
        assert blob["error"] == "InputFormatError"
        assert "entries must be" in blob["message"]
    batch = tmp_path / "states"
    batch.mkdir()
    write_state(batch, "bad.json", doc)
    code, out, _ = run([commands[0], "--batch", str(batch)], capsys)
    failure = json.loads(out)["failures"]["bad.json"]
    assert code == 1 and failure["exitCode"] == 1
    assert failure["message"].startswith("InputFormatError:")


def test_ellipsoid_refuses_a_report_outside_the_parameter_region(tmp_path, capsys):
    """A report whose arrow parameters leave the canonical region, or whose
    lambdaCanonical is not the pattern of its parameters (a Bell-diagonal
    state's diagonal, or the arrow of (p0, p1)), describes no state, so it
    has no steering ellipsoid (exit 1), no warning and no CSV.  A TypeII
    lambdaCanonical went unchecked: 1e308 entries overflowed into points
    far off the reported spheroid (exit 0), diag(1, 5, 0, 1) left the
    forward cone (exit 3), and r1 = 1e200 overflowed in the region check."""
    arrow = {"family": "TypeII_A", "parameters": {"r0": 0.5, "r1": 0.2}}
    docs = {
        "arrow": {"family": "TypeII_A", "lambdaCanonical": TYPE2_LAMBDA["lambda"],
                  "parameters": {"r0": 5, "r1": 3}},
        "arrow-overflow": {**arrow, "lambdaCanonical": [[1, 0, 0, 0], [0, 1e308, 0, 0],
                                                        [0, 0, -1e308, 0], [0.5, 0, 0, 0.5]]},
        "arrow-off-pattern": {**arrow, "lambdaCanonical": np.diag([1.0, 5.0, 0.0, 1.0]).tolist()},
        "arrow-huge-parameter": {"family": "TypeII_B", "parameters": {"s0": 0.5, "s1": 1e200},
                                 "lambdaCanonical": TYPE2_LAMBDA["lambda"]},
        "outside-the-ball": {"family": "TypeI", "parameters": {},
                             "lambdaCanonical": np.diag([1.0, 5.0, 5.0, 5.0]).tolist()},
        "negative-weight": {"family": "TypeI", "parameters": {},
                            "lambdaCanonical": np.diag([1.0, 0.9, 0.9, 0.9]).tolist()},
        "not-diagonal": {"family": "TypeI", "parameters": {},
                         "lambdaCanonical": TYPE2_LAMBDA["lambda"]},
    }
    batch = tmp_path / "reports"
    batch.mkdir()
    points = tmp_path / "points.csv"
    for name, doc in docs.items():
        path = write_state(tmp_path, f"{name}.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["ellipsoid", path, "--samples", "3", "--csv", str(points)],
                                 capsys)
        assert code == 1 and out == "", name
        assert json.loads(err)["error"] == "InvalidCanonicalParameters", name
        assert not points.exists(), name
        write_state(batch, f"{name}.json", doc)
    code, out, _ = run(["ellipsoid", "--batch", str(batch)], capsys)
    failures = json.loads(out)["failures"]
    assert code == 1 and sorted(failures) == sorted(f"{name}.json" for name in docs)
    for failure in failures.values():
        assert failure["exitCode"] == 1
        assert failure["message"].startswith("InvalidCanonicalParameters:")


@pytest.mark.parametrize("family", ["TypeII_A", "TypeII_B"])
def test_ellipsoid_refuses_a_negative_r1_report(tmp_path, capsys, family):
    """An arrow report with r1 < 0 (s1 on side B) whose lambdaCanonical is
    its pattern describes no canonical form: exit 1 with
    InvalidCanonicalParameters, and no CSV.  It exited 0 with negative
    semi-axes, since only r1^2 <= r0 was checked."""
    arrow = [[1, 0, 0, 0], [0, -0.2, 0, 0], [0, 0, 0.2, 0], [0.5, 0, 0, 0.5]]
    if family == "TypeII_A":
        doc = {"family": family, "lambdaCanonical": arrow, "parameters": {"r0": 0.5, "r1": -0.2}}
    else:
        doc = {"family": family, "lambdaCanonical": np.array(arrow).T.tolist(),
               "parameters": {"s0": 0.5, "s1": -0.2}}
    path = write_state(tmp_path, "negative.json", doc)
    points = tmp_path / "points.csv"
    code, out, err = run(["ellipsoid", path, "--samples", "3", "--csv", str(points)], capsys)
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"] == "InvalidCanonicalParameters"
    assert "0 <= p1" in blob["message"]
    assert not points.exists()


# ---------------------------------------------------------------------------
# the input boundary under generated payloads

#: one matrix entry as JSON can carry it
ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(-(10**400), 10**400),
    st.sampled_from([1e308, -1e308, 5e-324, 10**309, "0.5", "x", None, True, [], {}]),
)


def _matrix(shape, entries):
    return st.lists(
        _matrix(shape[1:], entries) if len(shape) > 1 else entries,
        min_size=shape[0], max_size=shape[0],
    )


def _perturbed_state(seed, kind, mode, factor, row, col):
    """A valid state, then unnormalized, made non-Hermitian or left as is."""
    rho = random_state(1 + seed % 4, seed=seed)
    m = rho if kind == "rho" else lambda_from_rho(rho)
    if mode == "scale":
        m = m * factor
    elif mode == "skew":
        m = m.copy()
        m[row, col] += factor
    if kind == "rho":
        return {"rho": [[[z.real, z.imag] for z in r] for r in m.tolist()]}
    return {"lambda": m.tolist()}


#: a state document: right shapes with any entries, valid states pushed off
#: the state set, wrong and ragged shapes, and documents of the wrong kind
PAYLOADS = st.one_of(
    st.builds(lambda m: {"rho": m}, _matrix((4, 4, 2), ENTRIES)),
    st.builds(lambda m: {"lambda": m}, _matrix((4, 4), ENTRIES)),
    st.builds(_perturbed_state, st.integers(0, 10_000), st.sampled_from(["rho", "lambda"]),
              st.sampled_from(["none", "scale", "skew"]),
              st.sampled_from([0.0, 1e-12, 0.5, 2.0, -1.0, 1e300]),
              st.integers(0, 3), st.integers(0, 3)),
    st.builds(lambda k, m: {k: m}, st.sampled_from(["rho", "lambda"]),
              st.recursive(ENTRIES, lambda inner: st.lists(inner, max_size=5), max_leaves=40)),
    st.builds(lambda m: {"rho": m, "lambda": m}, _matrix((4, 4), ENTRIES)),
    st.recursive(ENTRIES, lambda inner: st.lists(inner, max_size=4), max_leaves=10),
)


@settings(max_examples=150, deadline=None)
@given(PAYLOADS, st.sampled_from(["canonicalize", "classify", "verify", "ellipsoid"]))
def test_generated_payloads_fail_only_with_documented_errors(tmp_path_factory, payload, command):
    """No exception escapes main(), and every non-zero exit is a package
    error's documented exit code (or 4 for a `verify` that ran and failed)."""
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    if code == 0:
        return
    if not err.getvalue():
        assert command == "verify" and code == 4
        assert json.loads(out.getvalue())["ok"] is False
        return
    blob = json.loads(err.getvalue())
    cls = getattr(errors, blob["error"])
    assert issubclass(cls, errors.LorentzSvdError)
    assert code == blob["exitCode"] == cls.exit_code


def _report_text(rho, partner=False):
    result = canonicalize(rho)
    return dumps(canonical_report(result.partner if partner else result))


#: canonicalization reports of each family, as `canonicalize` writes them
REPORT_TEXTS = [
    _report_text(random_state(4, seed=7)),
    _report_text(sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))[1]),
    _report_text(sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))[1], partner=True),
    _report_text(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)),
]

#: report documents: a family, any lambdaCanonical and any parameters
REPORTS = st.fixed_dictionaries({
    "family": st.sampled_from(["TypeI", "TypeII_A", "TypeII_B", "DegenerateProduct", "TypeIII"]),
    "lambdaCanonical": st.one_of(
        _matrix((4, 4), ENTRIES),
        st.sampled_from([json.loads(t)["lambdaCanonical"] for t in REPORT_TEXTS])),
    "parameters": st.dictionaries(st.sampled_from(["r0", "r1", "s0", "s1", "phi0"]),
                                  st.one_of(ENTRIES, st.lists(ENTRIES, max_size=2))),
})

#: Sigma(b, c, d) parameters of TypeII states, r1 = 0 among them
SIGMAS = [SigmaParameters(0.5, 0.1, 0.3), SigmaParameters(0.2, -0.4, 0.5),
          SigmaParameters(0.9, 0.0, 0.2), SigmaParameters(0.5, 0.1, 0.0)]


def _filtered_document(seed: int, rapidity: float) -> bytes:
    """A state document of a random state of rank 1-4 or of a Sigma(b, c,
    d) state, filtered on both sides at rapidity up to ``rapidity``."""
    if seed % 5 == 4:
        rho = sigma_from_bcd(SIGMAS[seed // 5 % len(SIGMAS)])[1]
    else:
        rho = random_state(1 + seed % 4, seed=seed)
    if rapidity:
        gen = rng(seed)
        rho = apply_slocc(rho, random_sl2c(gen, rapidity), random_sl2c(gen, rapidity))
    return dumps(state_document(rho=rho)).encode()


#: valid states that reach the numerical paths: both families and
#: degenerate tops, filtered at rapidity up to 1.5
VALID_STATES = st.builds(_filtered_document, st.integers(0, 99), st.sampled_from([0.0, 0.7, 1.5]))

#: the bytes of an input file: a valid state three times in four, else
#: random bytes, a state payload or a report document
INPUT_BYTES = st.sampled_from([True, True, True, False]).flatmap(
    lambda valid: VALID_STATES if valid else st.one_of(
        st.binary(max_size=48),
        st.builds(lambda doc: json.dumps(doc).encode(), PAYLOADS),
        st.builds(lambda doc: json.dumps(doc).encode(), REPORTS),
        st.sampled_from(REPORT_TEXTS).map(str.encode),
    )
)

STATE_COMMANDS = ["classify", "canonicalize", "ellipsoid", "verify"]
#: the package's error class names
ERROR_NAMES = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.LorentzSvdError)}


def _draw_well_formed_argv(data, root: Path) -> list[str]:
    """A state command over ``root``'s input file or batch directory, with
    any of a --tol near the bounds of (0, 1), an -o target, and for
    ``ellipsoid`` a side and a small sample."""
    pick = lambda options: data.draw(st.sampled_from(options))  # noqa: E731
    command = pick(STATE_COMMANDS)
    argv = [command] + pick([[str(root / "in.json")]] * 3 + [["--batch", str(root / "batch")]])
    argv += pick([[]] + [["--tol", tol] for tol in ("1e-300", "1e-15", "0.5", "0.999")])
    if "--batch" not in argv:
        argv += pick([[], ["-o", "-"], ["-o", str(root / "out.txt")]])
        if command == "ellipsoid":
            argv += pick([[], ["--side", "B"], ["--samples", "3", "--csv", str(root / "p.csv")]])
    return argv


def _draw_argv(data, root: Path) -> list[str]:
    """A command line over the files in ``root``, well formed three times
    in four (`_draw_well_formed_argv`); otherwise any subcommand and
    --batch, unknown and missing flags, any --tol, and -o or --csv targets
    that cannot be written."""
    pick = lambda options: data.draw(st.sampled_from(options))  # noqa: E731
    if pick([True, True, True, False]):
        return _draw_well_formed_argv(data, root)
    inp, batch = str(root / "in.json"), str(root / "batch")
    target = st.sampled_from([str(root / "out.txt"), str(root / "missing" / "x.txt"),
                              str(root), "-"])
    command = pick(STATE_COMMANDS * 4 + ["sigma", "random", "bogus", None])
    argv = [] if command is None else [command]
    if command in STATE_COMMANDS:
        argv += pick([[inp]] * 4 + [["--batch", batch]] * 2 + [
            [str(root / "nowhere.json")], [str(root)], ["--batch", inp], [inp, "--batch", batch],
            []])
    elif command == "sigma":
        for flag in ("--b", "--c", "--d"):
            argv += pick([[flag, "0.5"], [flag, "0.1"], [flag, "0.3"], [flag, "2"], [flag, "x"],
                          []])
    elif command == "random":
        argv += pick([["--rank", "3"], ["--rank", "5"], ["--rank", "x"], []])
        argv += pick([["--seed", "7"], ["--seed", "-1"], []])
    flags = st.one_of(
        st.tuples(st.just("--tol"), st.sampled_from(
            ["1e-9", "1e-6", "0", "-1", "nan", "inf", "1", "1e300", "x", "1e-300"])),
        st.tuples(st.just("-o"), target),
        st.tuples(st.just("--side"), st.sampled_from(["A", "B", "C"])),
        st.tuples(st.just("--samples"), st.sampled_from(["3", "0", "-3", "1000000000000", "x"]),
                  st.just("--csv"), target),
        st.tuples(st.sampled_from(["--samples", "--csv"]), st.sampled_from(["3", "x.csv"])),
        st.sampled_from([("--bogus",), ("--tol",)]),
    )
    for flag in data.draw(st.lists(flags, max_size=2)):
        argv += flag
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), INPUT_BYTES)
def test_generated_command_lines_fail_only_with_documented_errors(tmp_path_factory, data, blob):
    """No exception, SystemExit or warning escapes main() for any command
    line over any input file.  The exit code is a documented one; stderr
    is empty or one JSON error line of a package error; and every --batch
    failure names a package error class, or a verification that failed."""
    root = tmp_path_factory.mktemp("argv")
    (root / "in.json").write_bytes(blob)
    (root / "batch").mkdir()
    (root / "batch" / "in.json").write_bytes(blob)
    argv = _draw_argv(data, root)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            raise AssertionError(f"{type(exc).__name__} escaped main for {argv}") from exc
    assert code in (0, 1, 2, 3, 4), argv
    if err.getvalue():
        assert err.getvalue().count("\n") == 1, argv
        error = json.loads(err.getvalue())
        cls = getattr(errors, error["error"])
        assert issubclass(cls, errors.LorentzSvdError)
        assert code == error["exitCode"] == cls.exit_code, argv
    elif "--batch" in argv:
        for failure in json.loads(out.getvalue())["failures"].values():
            message = failure["message"]
            assert message == "verification failed" or message.split(":")[0] in ERROR_NAMES, argv
    else:
        assert code in (0, 4), argv


@pytest.mark.parametrize(
    "samples, csv",
    [("-3", True), ("0", True), ("1000000000000", True), (None, True), ("5", False)],
    ids=["-3", "0", "1e12", "csv-without-samples", "samples-without-csv"],
)
def test_ellipsoid_rejects_samples_below_one(tmp_path, capsys, samples, csv):
    """--samples below one or above the most the command draws, and
    either of --samples and --csv without the other, are malformed input:
    no output, and no CSV written.  10**12 points ended in a MemoryError
    traceback."""
    path = write_state(tmp_path, "t2.json", TYPE2_LAMBDA)
    points = tmp_path / "points.csv"
    flags = (["--samples", samples] if samples else []) + (["--csv", str(points)] if csv else [])
    code, out, err = run(["ellipsoid", path, *flags, "-o", str(tmp_path / "e.json")], capsys)
    assert code == 1 and out == ""
    blob = json.loads(err)
    assert blob["error"] == "InputFormatError"
    assert "--samples" in blob["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t2.json"]


@pytest.mark.parametrize("probe", ["not-utf8", "unwritable-output", "unwritable-csv"])
def test_unreadable_input_and_unwritable_output_are_input_errors(tmp_path, capsys, probe):
    """A state file that is not UTF-8, and an -o or --csv target in a
    directory that does not exist, are malformed input: exit 1, one JSON
    error line, no traceback and no file written.  Each ended in a
    UnicodeDecodeError or FileNotFoundError traceback."""
    path = write_state(tmp_path, "s.json", MIXED)
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe")
    missing = tmp_path / "missing"
    argv = {
        "not-utf8": ["canonicalize", str(tmp_path / "bad.json")],
        "unwritable-output": ["canonicalize", path, "-o", str(missing / "x.json")],
        "unwritable-csv": ["ellipsoid", path, "--samples", "5", "--csv", str(missing / "x.csv")],
    }[probe]
    before = sorted(tmp_path.iterdir())
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == "InputFormatError"
    assert sorted(tmp_path.iterdir()) == before


def test_report_parameters_must_be_numbers(tmp_path, capsys):
    """Arrow parameters given as arrays are malformed input; they ended in
    a TypeError traceback."""
    doc = {"family": "TypeII_A", "lambdaCanonical": TYPE2_LAMBDA["lambda"],
           "parameters": {"r0": [0.64], "r1": [0.6]}}
    code, out, err = run(["ellipsoid", write_state(tmp_path, "r.json", doc)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InputFormatError"


@pytest.mark.parametrize(
    "argv",
    [[], ["canonicalize"], ["random", "--rank", "x", "--seed", "1"],
     ["sigma", "--b", "0.5", "--c", "0.1"], ["classify", "s.json", "--bogus"]],
    ids=["no-subcommand", "no-input", "rank-not-an-int", "missing-d", "unknown-flag"],
)
def test_usage_errors_are_input_errors(capsys, argv):
    """A command line the parser refuses is malformed input: exit 1 with
    one JSON InputFormatError line.  It exited 2, the code of a state
    that is not physical, with usage text in place of the JSON error."""
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "usage:" not in err
    assert json.loads(err)["error"] == "InputFormatError"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["canonicalize", "--help"])
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


def test_missing_file_exits_one(capsys):
    code, _, err = run(["classify", "/no/such/file.json"], capsys)
    assert code == 1


def test_tolerance_must_be_positive(tmp_path, capsys, monkeypatch):
    """A tolerance must lie in (0, 1), from --tol or CANON_TOL.  At inf a
    rank-3 state once came out DegenerateProduct, and nan compares false
    against every check.  At 1 every state's top eigenvalue, at most 1,
    counted as zero, so every state came out DegenerateProduct; at 1e300
    a state with rho00 = 1e200 passed validation and overflowed in the
    quadratic forms.  A refused batch writes nothing:
    neither a bad tolerance nor an output flag that --batch would ignore
    (-o, --csv, --samples) touches a file."""
    doc = state_document(rho=random_state(3, seed=7))
    path = write_state(tmp_path, "rank3.json", doc)
    batch = tmp_path / "states"
    batch.mkdir()
    write_state(batch, "rank3.json", doc)
    cases = ([(["--tol", value], None) for value in ("-1", "inf", "nan", "1", "1e300")]
             + [([], value) for value in ("inf", "1", "1e300")])
    for tol_args, env in cases:
        if env is not None:
            monkeypatch.setenv("CANON_TOL", env)
        for command in ("classify", "canonicalize"):
            for target in ([path], ["--batch", str(batch)]):
                code, out, err = run([command, *target, *tol_args], capsys)
                assert code == 1 and out == "", (command, target, tol_args, env)
                assert json.loads(err)["error"] == "InputFormatError"
    monkeypatch.delenv("CANON_TOL")
    ignored = tmp_path / "ignored.out"
    for command, flags in [
        ("canonicalize", ["-o", str(ignored)]),
        ("ellipsoid", ["-o", str(ignored)]),
        ("ellipsoid", ["--csv", str(ignored)]),
        ("ellipsoid", ["--samples", "5"]),
        ("ellipsoid", ["--samples", "5", "--csv", str(ignored), "-o", str(ignored)]),
    ]:
        code, out, err = run([command, "--batch", str(batch), *flags], capsys)
        assert code == 1 and out == "", (command, flags)
        blob = json.loads(err)
        assert blob["error"] == "InputFormatError" and flags[0] in blob["message"]
    assert not ignored.exists()
    assert [p.name for p in batch.iterdir()] == ["rank3.json"]


def test_canon_tol_env_fallback(tmp_path, capsys, monkeypatch):
    path = write_state(tmp_path, "mixed.json", MIXED)
    monkeypatch.setenv("CANON_TOL", "not-a-number")
    code, _, err = run(["classify", path], capsys)
    assert code == 1
    assert "CANON_TOL" in json.loads(err)["message"]
    monkeypatch.setenv("CANON_TOL", "1e-9")
    code, out, _ = run(["classify", path], capsys)
    assert code == 0


def test_tol_reaches_state_validation(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(dumps(state_document(rho=slightly_negative_state(3))), encoding="utf-8")
    for command in ("classify", "canonicalize", "verify"):
        code, _, err = run([command, str(path)], capsys)
        assert code == 2 and json.loads(err)["error"] == "InvalidState"
        code, out, err = run([command, str(path), "--tol", "1e-6"], capsys)
        assert code == 0, err
        assert out.startswith("TypeI,") or json.loads(out)["family"] == "TypeI"


RANK4_SEED7 = state_document(rho=random_state(4, seed=7))
TYPE2_SIGMA = state_document(rho=sigma_from_bcd(SigmaParameters(0.5, 0.1, 0.3))[1])
#: the pure product |00>, a DegenerateProduct state
PURE_PRODUCT_LAMBDA = {"lambda": [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]}
#: |0><0| (x) rho_B with a mixed rho_B: a rank-2 DegenerateProduct state
PURE_A_MARGINAL_LAMBDA = {"lambda": [[1, 0, 0, 0.3], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0.3]]}


@pytest.mark.parametrize(
    "command, doc, solves, spectra, forms",
    [
        ("canonicalize", RANK4_SEED7, 1, 0, 1),
        ("verify", RANK4_SEED7, 1, 1, 2),
        ("canonicalize", TYPE2_SIGMA, 0, 0, 2),
        ("verify", TYPE2_SIGMA, 0, 2, 4),
        ("verify", PURE_PRODUCT_LAMBDA, 1, 1, 2),
        ("canonicalize", PURE_A_MARGINAL_LAMBDA, 1, 0, 1),
        ("verify", PURE_A_MARGINAL_LAMBDA, 1, 1, 2),
    ],
    ids=["canonicalize-TypeI", "verify-TypeI", "canonicalize-TypeII", "verify-TypeII",
         "verify-DegenerateProduct", "canonicalize-DegenerateProduct-rank2",
         "verify-DegenerateProduct-rank2"],
)
def test_conversions_and_solves_per_state(tmp_path, capsys, monkeypatch, command, doc, solves,
                                         spectra, forms):
    """Each state command reads rho once, and TypeII from its kernel: a
    TypeII state solves no eigensystem.  Omega_B is formed only where it
    is read, so a TypeI or DegenerateProduct `canonicalize` forms Omega_A
    alone and solves side A only: side A's spectrum and rho's rank decide
    the family.  `verify` solves side A alone and takes side B's spectrum,
    all its shared-spectrum check reads, from `g_spectrum`.  A TypeII
    `verify` takes both sides' spectra and `type2_canonical`, which forms
    its own two forms."""
    import lorentzsvd.canonical as canonical
    import lorentzsvd.cli as cli

    calls = {"read_state": 0, "omega_matrices": 0, "g_eigensystem": 0, "g_spectrum": 0}
    targets = [(module, name) for module in (cli, canonical) for name in calls]
    for module, name in targets:

        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    path = write_state(tmp_path, "s.json", json.loads(dumps(doc)))
    code, _, err = run([command, path], capsys)
    assert code == 0, err
    assert calls == {"read_state": 1, "omega_matrices": forms, "g_eigensystem": solves,
                     "g_spectrum": spectra}


#: a near-pure Bell-diagonal state, filtered at rapidity 1.0 on both sides:
#: TypeI, with side A's Gram top timelike and side B's spacelike (a solve of
#: side B raises NoTimelikeTop), its two spectra equal to 5.6e-17
NEAR_PURE_FILTERED_LAMBDA = {"lambda": [
    [1, 0.85944309933573426, 0.21439411877910591, -0.29759959695383514],
    [-0.19959733064207102, -0.12936677455106471, -0.38676843160684171, 0.018457928738429996],
    [-0.85490449463238183, -0.89789466597518175, -0.13205222153721774, 0.18448916161729792],
    [-0.32011224815120021, -0.20620108414460148, -0.075923651777822523, 0.42545946378267396],
]}


def test_verify_passes_where_canonicalize_factors(tmp_path, capsys):
    """`verify` checks the state `canonicalize` factors and reads side B's
    spectrum alone, so a side B whose own solve would find no timelike top
    does not refuse it."""
    path = write_state(tmp_path, "near_pure.json", NEAR_PURE_FILTERED_LAMBDA)
    code, out, err = run(["canonicalize", path], capsys)
    assert code == 0, err
    assert json.loads(out)["family"] == "TypeI"
    code, out, err = run(["verify", path], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert report["family"] == "TypeI"
    assert report["checks"]["sharedSpectrum"]["value"] < 1e-15


def test_batch_isolates_failures(tmp_path, capsys):
    batch = tmp_path / "states"
    batch.mkdir()
    for seed in range(3):
        run(["random", "--rank", "4", "--seed", str(seed),
             "-o", str(batch / f"s{seed}.json")], capsys)
    (batch / "broken.json").write_text("nope", encoding="utf-8")
    # not UTF-8: malformed input too, not a numerical failure
    (batch / "bad.json").write_bytes(b"\xff\xfe")
    code, out, _ = run(["canonicalize", "--batch", str(batch)], capsys)
    summary = json.loads(out)
    assert summary["processed"] == 5
    assert list(summary["failures"]) == ["bad.json", "broken.json"]
    assert code == 1
    assert summary["failures"]["broken.json"]["exitCode"] == 1
    assert summary["failures"]["bad.json"]["exitCode"] == 1
    assert summary["failures"]["bad.json"]["message"].startswith("InputFormatError")
    for seed in range(3):
        report = (batch / f"s{seed}.canonicalize.json").read_text()
        assert json.loads(report)["family"] == "TypeI"
        # the batch writes what a single-file call prints, byte for byte
        assert report == run(["canonicalize", str(batch / f"s{seed}.json")], capsys)[1]
    assert not (batch / "broken.canonicalize.json").exists()
    assert not (batch / "bad.canonicalize.json").exists()


def test_batch_skips_outputs_of_other_commands(tmp_path, capsys):
    """Each state command in turn over one directory reads only the state
    files, not the reports the commands before it wrote there."""
    batch = tmp_path / "states"
    batch.mkdir()
    for seed in range(2):
        run(["random", "--rank", "3", "--seed", str(seed),
             "-o", str(batch / f"s{seed}.json")], capsys)
    for cmd in ("canonicalize", "classify", "ellipsoid", "verify"):
        code, out, _ = run([cmd, "--batch", str(batch)], capsys)
        assert code == 0
        assert json.loads(out) == {"command": cmd, "processed": 2, "failures": {}}
    assert sorted(p.name for p in batch.iterdir()) == sorted(
        f"s{seed}.{name}" for seed in range(2)
        for name in ("json", "canonicalize.json", "classify.txt", "ellipsoid.json", "verify.json")
    )


def test_batch_classify_writes_text(tmp_path, capsys):
    batch = tmp_path / "states"
    batch.mkdir()
    write_state(batch, "mixed.json", MIXED)
    code, out, _ = run(["classify", "--batch", str(batch)], capsys)
    assert code == 0
    assert (batch / "mixed.classify.txt").read_text() == "TypeI, eigenvalues [1,0,0,0]\n"


def test_production_path_leaves_the_oracle_unimported():
    # the secular-function oracle and the 50-digit reference are test-side
    # references: the package does not ship them, so no production import
    # can reach them
    assert importlib.util.find_spec("lorentzsvd.secular") is None
    assert importlib.util.find_spec("lorentzsvd.mp_reference") is None


def _package_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(importlib.util.find_spec("lorentzsvd").origin).parents[1])
    paths = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def test_single_file_commands_leave_pool_and_geometry_unimported():
    # a fresh interpreter: the test session itself has imported both
    probe = ("import sys, lorentzsvd.cli; print([m for m in "
             "('concurrent.futures', 'lorentzsvd.geometry') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=_package_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_closed_stdout_exits_quietly(tmp_path):
    """A reader of stdout that is gone before the output is written (as in
    `lorentzsvd random | true`) ends the command with exit 141 and an empty
    stderr, for a single output and for a --batch summary alike."""
    write_state(tmp_path, "mixed.json", MIXED)
    commands = (["random", "--rank", "2", "--seed", "7"], ["canonicalize", "--batch", str(tmp_path)])
    for argv in commands:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "lorentzsvd.cli", *argv],
                                  env=_package_env(), stdout=write_end, stderr=subprocess.PIPE,
                                  text=True)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, ""), argv
