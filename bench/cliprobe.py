"""Subprocess measurements of the command-line front end.

Every child runs the source tree through ``PYTHONPATH`` with BLAS thread
pools capped at one thread, and is waited for before the call returns.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from lorentzsvd.serialize import dumps, state_document

CLI = ("-m", "lorentzsvd.cli")
TIMEOUT_S = 120


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass(frozen=True)
class Call:
    wall_s: float
    exit_code: int
    stdout: str


def run_python(args: list[str], src: Path, cwd: Path) -> Call:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=child_env(src),
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return Call(time.perf_counter() - start, proc.returncode, proc.stdout)


_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| (\S+)$")


def import_seconds(src: Path, cwd: Path) -> float:
    """Time a fresh interpreter spends importing the package, by ``-X importtime``.

    Interpreter start is left out: it is the same for every version of
    the package and only adds its noise.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import lorentzsvd.canonical, lorentzsvd.serialize"],
        cwd=cwd, env=child_env(src), capture_output=True, text=True, timeout=TIMEOUT_S, check=True,
    )
    total_us = 0
    for line in proc.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and match.group(2).startswith("lorentzsvd"):
            total_us += int(match.group(1))
    if total_us == 0:
        raise RuntimeError("no package import in the -X importtime output")
    return total_us / 1e6


def reference_start(src: Path, cwd: Path) -> float:
    """Wall time of a fresh interpreter that imports numpy, which no change
    to the package can move; see ``hostspeed.REFERENCE_START_S``."""
    return run_python(["-c", "import numpy"], src, cwd).wall_s


def canonicalize_file(path: Path, src: Path, cwd: Path) -> Call:
    return run_python([*CLI, "canonicalize", str(path)], src, cwd)


def canonicalize_batch(directory: Path, src: Path, cwd: Path) -> Call:
    for old in directory.glob("*.canonicalize.json"):
        old.unlink()
    return run_python([*CLI, "canonicalize", "--batch", str(directory)], src, cwd)


def batch_workers(files: int) -> int:
    """The pool size ``lorentzsvd canonicalize --batch`` picks for this many files."""
    return min(8, max(1, os.cpu_count() or 1), max(1, files))


def document_text(rho) -> str:
    """The ``{"rho": ...}`` document the CLI reads for one state."""
    return dumps(state_document(rho=rho))


def write_documents(directory: Path, texts: list[str]) -> list[Path]:
    """One document file per text, named by its corpus index."""
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.json"):
        old.unlink()
    paths = []
    for i, text in enumerate(texts):
        path = directory / f"state{i:05d}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths
