"""Command-line front end.

Subcommands:

* ``classify``     print the family and G-eigenvalue spectrum of a state
* ``canonicalize`` write the full canonical factorization report (JSON)
* ``ellipsoid``    write steering-ellipsoid geometry, optionally with
                   sampled surface points as CSV
* ``sigma``        build the (b, c, d) normal form and print the
                   closed-form vs. pipeline comparison table
* ``random``       write a seeded random state document
* ``verify``       run the built-in self-check suite on a state

Exit codes: 0 success, 1 malformed input (a usage error among them),
2 not a physical state, 3 numerical failure, 4 verification failure,
141 (128 + SIGPIPE, with nothing on stderr) when the reader of stdout
has gone.  Other errors are emitted as a single JSON object on stderr.
A tolerance, from ``--tol`` or ``CANON_TOL``, lies in (0, 1).  All JSON
output is byte-deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from .canonical import (
    SigmaParameters,
    _factor_solved,
    canonicalize,
    sigma_equivalence_check,
    type2_canonical,
)
from .errors import InputFormatError, LorentzSvdError
from .geigen import CanonicalFamily, g_eigensystem, g_spectrum, omega_matrices
from .minkowski import DEFAULT_TOL, DEFECTIVE_ROOT_FLOOR, lorentz_defect
from .qstate import read_state, random_state, rho_from_lambda
from .serialize import (
    CONVENTIONS,
    canonical_report,
    dumps,
    format_float,
    loads_json,
    loads_state,
    parse_canonical_report,
    parse_state_document,
    state_document,
)

# Floors of the `verify` thresholds: each check passes at max(k * tol,
# floor) for its own multiple k, so a tiny ``--tol`` cannot fail a state
# on rounding alone.

#: |rho(Lambda(rho)) - rho|, or |Lambda(rho(Lambda)) - Lambda| for a
#: lambda document, entries at most 1: a few ulps of rounding
_ROUND_TRIP_FLOOR = 1e-10
#: `lorentz_defect` of any of the four factors
_LORENTZ_DEFECT_FLOOR = 1e-9
#: how far below zero the canonical state's smallest eigenvalue may reach
_RHO_POSITIVE_FLOOR = 1e-9

#: Most surface points ``ellipsoid --samples`` draws.  A million are
#: steered as one stack and written in one formatting call, in about 3.5 s
#: and 300 MB, a 60 MB CSV; memory grows with the count, so 10**12 cannot
#: be allocated.
_MAX_SAMPLES = 10**6


def _resolve_tol(value: float | None) -> float:
    if value is None:
        env = os.environ.get("CANON_TOL")
        if env:
            try:
                value = float(env)
            except ValueError:
                raise InputFormatError(f"CANON_TOL is not a number: {env!r}") from None
        else:
            value = DEFAULT_TOL
    # at 1 the top eigenvalue of every state, at most 1, would count as zero
    if not 0.0 < value < 1.0:
        raise InputFormatError(f"tolerance must lie in (0, 1), got {value}")
    return value


def _read_text(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from None


def _state_rho(kind: str, value: np.ndarray, tol: float) -> np.ndarray:
    """rho of a parsed state document; a lambda document is validated on the way."""
    return value if kind == "rho" else rho_from_lambda(value, tol)


def _write_output(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        # flushed here, so a closed pipe raises inside `main`
        sys.stdout.flush()
    else:
        _write_text(output, text)


# ---------------------------------------------------------------------------
# subcommand bodies (each returns the output text)


def _run_ellipsoid(path: str, tol: float, side: str, samples: int | None,
                   csv_path: str | None) -> str:
    # imported here, so the other commands do not load the geometry
    from .geometry import (
        ellipsoid_json_dict,
        points_to_csv,
        sample_steered_surface,
        steering_ellipsoid,
    )

    if (samples is None) != (csv_path is None):
        given, missing = ("--samples", "--csv") if csv_path is None else ("--csv", "--samples")
        raise InputFormatError(f"{given} needs {missing}: --samples and --csv go together")
    if samples is not None and not 1 <= samples <= _MAX_SAMPLES:
        raise InputFormatError(f"--samples must be from 1 to {_MAX_SAMPLES}, got {samples}")
    doc = loads_json(_read_text(path))
    if isinstance(doc, dict) and "family" in doc:
        # a canonical report carries everything the geometry needs
        if side == "B" and "partner" in doc:
            doc = doc["partner"]
        result = parse_canonical_report(doc, tol)
    else:
        result = canonicalize(_state_rho(*parse_state_document(doc), tol), tol)
        if side == "B" and result.partner is not None:
            result = result.partner
    ell = steering_ellipsoid(result)
    if samples is not None:
        direction = "AtoB" if ell.family.value == "TypeII_B" else "BtoA"
        points = sample_steered_surface(result.canonical_lambda, direction, samples)
        _write_text(csv_path, points_to_csv(points))
    out = {"conventions": CONVENTIONS}
    out.update(ellipsoid_json_dict(ell))
    return dumps(out)


def _run_sigma(b: float, c: float, d: float, tol: float) -> tuple[str, bool]:
    report = sigma_equivalence_check(SigmaParameters(b, c, d), tol)
    lines = [
        f"sigma(b={format_float(b)}, c={format_float(c)}, d={format_float(d)})",
        "eigenvalues (each doubly degenerate): "
        f"{format_float(report.lam0)}, {format_float(report.lam1)}",
        f"closed-form s0={format_float(report.s0)}  s1={format_float(report.s1)}",
        f"eigenvalue residual:   {format_float(report.eigenvalue_residual)}",
        f"B-side closed form:    {format_float(report.b_side_residual)}",
        f"A-side closed form:    {format_float(report.a_side_residual)}",
        f"pipeline s-parameters: {format_float(report.s_parameter_residual)}",
        f"invariant ratio:       {format_float(report.ratio_residual)}",
        f"ok: {'true' if report.ok else 'false'}",
    ]
    return "\n".join(lines) + "\n", report.ok


def _run_random(rank: int, seed: int) -> str:
    if not 1 <= rank <= 4:
        raise InputFormatError(f"rank must be 1..4, got {rank}")
    if seed < 0:
        raise InputFormatError(f"seed must be non-negative, got {seed}")
    return dumps(state_document(rho=random_state(rank, seed=seed)))


def _run_verify(path: str, tol: float) -> tuple[str, bool]:
    kind, payload = loads_state(_read_text(path))
    rho = _state_rho(kind, payload, tol)
    lam, kernel = read_state(rho, tol)  # what canonicalize reads
    checks: dict[str, dict] = {}

    def record(name: str, value: float, threshold: float) -> None:
        checks[name] = {
            "value": float(value),
            "threshold": float(threshold),
            "ok": bool(value <= threshold),
        }

    # a lambda document's rho was built from the document's own Lambda, so
    # its round trip ends on Lambda, the matrix canonicalize factors
    if kind == "lambda":
        round_trip = np.abs(lam - payload).max()
    else:
        round_trip = np.abs(rho_from_lambda(lam, validate=False) - rho).max()
    record("rhoRoundTrip", round_trip, max(tol, _ROUND_TRIP_FLOOR))
    forms = omega_matrices(lam), omega_matrices(lam.T)
    if kernel.null_top is not None:
        # a TypeII state solves no eigensystem: its spectra stop at the cluster means
        spectra = [g_spectrum(omega, tol) for omega in forms]
        result = type2_canonical(lam, kernel.null_top, kernel.merged, tol)
    else:
        sys_a, sys_b = (g_eigensystem(omega, tol, kernel.rank) for omega in forms)
        spectra = [sys_a.eigenvalues, sys_b.eigenvalues]
        result = _factor_solved(lam, sys_a, tol)
    scale = max(1.0, float(spectra[0][0]))
    record("sharedSpectrum", np.abs(spectra[0] - spectra[1]).max(),
           max(100 * tol, DEFECTIVE_ROOT_FLOOR) * scale)
    if result.residuals:
        # the floor `canonicalize` rechecks the same residual against
        record("factorization", result.residuals["factorization"],
               max(100 * tol, DEFECTIVE_ROOT_FLOOR))
        sides = [result] + ([result.partner] if result.partner is not None else [])
        defect = max(lorentz_defect(L) for s in sides for L in (s.left_lorentz, s.right_lorentz))
        record("lorentzFactors", defect, max(10 * tol, _LORENTZ_DEFECT_FLOOR))
        record("canonicalRhoPositive", max(0.0, -result.residuals["rhoMinEigenvalue"]),
               max(10 * tol, _RHO_POSITIVE_FLOOR))
    ok = all(c["ok"] for c in checks.values())
    doc = {
        "conventions": CONVENTIONS,
        "family": result.family.value,
        "checks": checks,
        "ok": ok,
    }
    return dumps(doc), ok


def _run_state_command(cmd: str, path: str, tol: float, side: str = "A",
                       samples: int | None = None, csv_path: str | None = None) -> tuple[str, int]:
    """(output text, exit code) of one state subcommand on one input."""
    if cmd == "classify":
        lam, kernel = read_state(_state_rho(*loads_state(_read_text(path)), tol), tol)
        omega = omega_matrices(lam)
        if kernel.null_top is not None:
            family, eigenvalues = CanonicalFamily.TYPE_II, g_spectrum(omega, tol)
        else:
            sys_a = g_eigensystem(omega, tol, kernel.rank)
            family, eigenvalues = sys_a.family, sys_a.eigenvalues
        spectrum = ",".join(format_float(v) for v in eigenvalues)
        return f"{family.value}, eigenvalues [{spectrum}]\n", 0
    if cmd == "canonicalize":
        rho = _state_rho(*loads_state(_read_text(path)), tol)
        return dumps(canonical_report(canonicalize(rho, tol))), 0
    if cmd == "ellipsoid":
        return _run_ellipsoid(path, tol, side, samples, csv_path), 0
    text, ok = _run_verify(path, tol)
    return text, 0 if ok else 4


# ---------------------------------------------------------------------------
# batch mode


def _batch_one(cmd: str, in_path: Path, out_path: Path, tol: float,
               extra: dict) -> tuple[int, str]:
    """(exit code, message) of one file; never raises."""
    try:
        text, code = _run_state_command(cmd, str(in_path), tol, **extra)
        _write_text(out_path, text)
        return code, "verification failed" if code else ""
    except LorentzSvdError as exc:
        return exc.exit_code, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # per-file isolation: report, never abort the batch
        return 3, f"{type(exc).__name__}: {exc}"


def _run_batch(cmd: str, directory: str, tol: float, extra: dict) -> int:
    root = Path(directory)
    if not root.is_dir():
        raise InputFormatError(f"batch target {directory} is not a directory")
    # skip the JSON any state command wrote here, not only this command's
    outputs = tuple(f".{c}.json" for c in ("canonicalize", "ellipsoid", "verify"))
    files = sorted(p for p in root.glob("*.json") if not p.name.endswith(outputs))
    suffix = ".txt" if cmd == "classify" else ".json"
    results = {p.name: _batch_one(cmd, p, p.with_suffix(f".{cmd}{suffix}"), tol, extra)
               for p in files}
    summary = {
        "command": cmd,
        "processed": len(results),
        "failures": {name: {"exitCode": code, "message": msg}
                     for name, (code, msg) in results.items() if code != 0},
    }
    _write_output(dumps(summary), None)
    return max((code for code, _ in results.values()), default=0)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are malformed input, reported as every
    other error is; its subparsers are of the same class."""

    def error(self, message: str) -> NoReturn:
        raise InputFormatError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lorentzsvd",
        description="Canonical SLOCC factorization and steering geometry of two-qubit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("input", nargs="?", help="state JSON file, or - for stdin")
        group.add_argument("--batch", metavar="DIR",
                           help="process every *.json in DIR, in sorted order, in this process")
        p.add_argument("--tol", type=float, default=None,
                       help=f"tolerance (default: CANON_TOL env or {DEFAULT_TOL:g})")
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        return p

    add_state_command("classify", "print family and G-eigenvalue spectrum")
    add_state_command("canonicalize", "write the canonical factorization report")
    p_ell = add_state_command("ellipsoid", "write steering-ellipsoid geometry")
    p_ell.add_argument("--side", choices=("A", "B"), default="A")
    p_ell.add_argument("--samples", type=int, default=None,
                       help=f"sample this many surface points, at most {_MAX_SAMPLES}, "
                            "into the --csv file (needs --csv)")
    p_ell.add_argument("--csv", default=None,
                       help="CSV file for the sampled points (needs --samples)")
    add_state_command("verify", "run the self-check suite on a state")

    p_sig = sub.add_parser("sigma", help="closed-form vs pipeline comparison")
    p_sig.add_argument("--b", type=float, required=True)
    p_sig.add_argument("--c", type=float, required=True)
    p_sig.add_argument("--d", type=float, required=True)
    p_sig.add_argument("--tol", type=float, default=None)
    p_sig.add_argument("-o", "--output", default=None)

    p_rnd = sub.add_parser("random", help="write a seeded random state document")
    p_rnd.add_argument("--rank", type=int, required=True)
    p_rnd.add_argument("--seed", type=int, required=True)
    p_rnd.add_argument("-o", "--output", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "random":
            _write_output(_run_random(args.rank, args.seed), args.output)
            return 0
        tol = _resolve_tol(getattr(args, "tol", None))
        if args.command == "sigma":
            text, ok = _run_sigma(args.b, args.c, args.d, tol)
            _write_output(text, args.output)
            return 0 if ok else 4
        extra = {"side": args.side} if args.command == "ellipsoid" else {}
        if args.batch:
            # each file's output goes beside it, and no batch file samples a surface
            flags = {"-o": args.output, "--csv": getattr(args, "csv", None),
                     "--samples": getattr(args, "samples", None)}
            given = [flag for flag, value in flags.items() if value is not None]
            if given:
                raise InputFormatError(f"--batch takes no {', '.join(given)}")
            return _run_batch(args.command, args.batch, tol, extra)
        if args.command == "ellipsoid":
            extra.update(samples=args.samples, csv_path=args.csv)
        text, code = _run_state_command(args.command, args.input, tol, **extra)
        _write_output(text, args.output)
        return code
    except LorentzSvdError as exc:
        error = {
            "error": type(exc).__name__,
            "message": str(exc),
            "exitCode": exc.exit_code,
        }
        sys.stderr.write(dumps(error))
        return exc.exit_code
    except BrokenPipeError:
        # the reader of stdout is gone: end quietly with 128 + SIGPIPE, with
        # stdout on devnull so the interpreter's flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
