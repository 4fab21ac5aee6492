"""Per-case output digests over the benchmark corpora, for bit-identity checks.

Write the digests of one checkout, then compare two digest files::

    PYTHONPATH=src python scripts/report_digests.py write -o new.json
    python scripts/report_digests.py compare old.json new.json

``write`` covers seeds 1, 7 and 11 unless ``--seeds`` says otherwise; 1 is
``bench/run.py``'s default seed.  Every case of every benchmark corpus
(``bench/corpus.py``) is recorded as the sha256 of its canonicalization
report, or as its error class and message, next to a digest of the raw
bytes of both eigensystems, each solved as `canonicalize` solves side A,
with rho's rank: the one row of the top cluster.  A refactor that claims
unchanged arithmetic must leave every line equal.  ``compare`` prints
each changed case, then one line per group with the changed cases
tallied by outcome kind, old -> new: ``report`` or the error class.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

#: the corpus sizes bench/run.py uses
WORKLOADS = {"typeI-random": 1000, "typeII-filtered": 600, "hard-inputs": 800, "cli": 700}


def _outcome(fn) -> str:
    try:
        return fn()
    except Exception as exc:  # every failure is part of the record
        return f"error:{type(exc).__name__}: {exc}"


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _eigen_digest(omega: np.ndarray, rank: int) -> str:
    """Hash of one eigensystem of a state of rho's ``rank``: the four
    eigenvalues, the top row with its norm and the top cluster.

    The solve reads the top cluster alone.  A TypeI side gives one row,
    its span's timelike Gram top eigenvector; a DegenerateProduct side
    forms no span and has no row, so it is hashed from its eigenvalues and
    top cluster.  A TypeII side is not solved: its family and null top
    eigenvector come from rho's kernel, and the solve refuses it, so its
    record is that refusal.  Digests of TypeI sides are those the solve
    wrote while it also named TypeII; on a side with a timelike top the
    per-row residuals that digests written before the one-row solve also
    hashed were empty, so those digests are unchanged too.
    """
    from lorentzsvd.geigen import g_eigensystem

    s = g_eigensystem(omega, rank=rank)
    # the top cluster as a 1-tuple, as the solve once recorded it
    cluster = repr((s.top_cluster,)).encode()
    if s.top_row is None:
        return _sha(s.eigenvalues.tobytes(), cluster)
    # the norm of the timelike row, 1, as the solve once recorded it, so
    # digests written then still compare
    return _sha(s.eigenvalues.tobytes(), s.top_row.tobytes(),
                np.array([1], dtype=int).tobytes(), cluster)


def write(seeds: list[int], out: Path) -> None:
    import cliprobe
    import corpus
    from lorentzsvd.canonical import canonicalize
    from lorentzsvd.geigen import omega_matrices
    from lorentzsvd.qstate import read_state
    from lorentzsvd.serialize import canonical_report, dumps, loads_state

    records = {}
    for seed in seeds:
        for workload, count in WORKLOADS.items():
            for k, case in enumerate(corpus.build(seed, workload, count)):
                rho = case.rho
                if workload == "cli":
                    rho = loads_state(cliprobe.document_text(rho))[1]
                report = _outcome(lambda: _sha(dumps(canonical_report(canonicalize(rho))).encode()))
                lam, kernel = read_state(rho)
                eigen = [_outcome(lambda w=w: _eigen_digest(omega_matrices(w), kernel.rank))
                         for w in (lam, lam.T)]
                records[f"{seed}/{workload}/{k}"] = [report, *eigen]
    out.write_text(json.dumps(records, indent=0), encoding="utf-8")


def _kind(outcome: str) -> str:
    """``report``, or the error class of an ``error:`` record."""
    return outcome[len("error:"):].split(":", 1)[0] if outcome.startswith("error:") else "report"


def compare(old: Path, new: Path) -> int:
    a = json.loads(old.read_text(encoding="utf-8"))
    b = json.loads(new.read_text(encoding="utf-8"))
    if a.keys() != b.keys():
        print("case sets differ")
        return 1
    diffs = Counter()
    kinds: dict[str, Counter] = {}
    for key in a:
        if a[key] != b[key]:
            group = key.rsplit("/", 1)[0]
            diffs[group] += 1
            kinds.setdefault(group, Counter())[_kind(a[key][0]), _kind(b[key][0])] += 1
            print(f"{key}: {a[key][0][:90]} -> {b[key][0][:90]}")
    total = Counter(key.rsplit("/", 1)[0] for key in a)
    for group in sorted(total):
        tally = "".join(f"; {was} -> {now}: {n}"
                        for (was, now), n in sorted(kinds.get(group, {}).items()))
        print(f"{group}: {diffs[group]} of {total[group]} cases differ{tally}")
    return 1 if diffs else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("write")
    w.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 11])
    w.add_argument("-o", "--output", type=Path, required=True)
    c = sub.add_parser("compare")
    c.add_argument("old", type=Path)
    c.add_argument("new", type=Path)
    args = parser.parse_args()
    if args.cmd == "write":
        write(args.seeds, args.output)
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
