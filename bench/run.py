"""Layered benchmark of the canonical factorization.

Run from the repository root::

    python3 bench/run.py --workload typeI-random --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, both passes

One operation is ``dumps(canonical_report(canonicalize(rho)))``, the work
``lorentzsvd canonicalize`` does after parsing (the ``cli`` workload's
in-process operation parses the file text first, as the command does).
Load is a closed loop on one thread.  Workloads, each with its own seeded
corpus:

* ``typeI-random``: Ginibre states of ranks 1-4 in equal shares, all
  TypeI; the generic path with two eigensolves per state.
* ``typeII-filtered``: Sigma(b,c,d) TypeII states filtered on both sides
  by random SL(2,C) matrices of rapidity 0.7 and 1.5; the arrow
  construction with its repeated solves.
* ``hard-inputs``: Sigma states filtered at rapidity 2.5, rank-4 states
  filtered at 2.5 and 3.5, and TypeII states mixed with eps*I/4; failure
  paths and near-boundary decisions carry the work.
* ``cli``: single-file ``canonicalize`` subprocesses and
  ``canonicalize --batch`` over documents drawn from the first two
  corpora; interpreter start, imports, JSON and the process pool dominate.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` re-runs the
operation with every layer wrapped in a span and prints per-layer counts,
self times and raised exceptions.  The in-process workloads also run a
small CLI sample of their own corpus, so every metric exists on every
workload.  Every run goes through its whole corpus at least once, and
``attempted`` and ``failed`` count distinct cases, so they depend on the
seed alone.  Every result is checked; a broken promise of an input's
construction, or a CLI output that is not byte-identical to the
in-process report, makes the run incorrect and the exit code 1.  The last
line of stdout is the result object.

In-process times and ``setup_s`` are scaled to a reference host speed
(see ``hostspeed.py``): a fixed kernel runs between the timed calls, and
each time is multiplied by ``REFERENCE_MS`` over the kernel's recent
median.  The details line gives the raw median and the kernel's own
median time.  ``state_p50_ms`` and ``state_p99_ms`` are percentiles over
the corpus of each case's fastest call, because every case runs at least
twice and a single call slowed by the host then does not count.
Subprocess times and per-layer times are raw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

WORKLOADS = ("typeI-random", "typeII-filtered", "hard-inputs", "cli")
#: cases generated per run; every run goes through all of them at least
#: once, and a faster program cycles through them again
CORPUS_SIZE = {"typeI-random": 1000, "typeII-filtered": 600, "hard-inputs": 800, "cli": 700}
#: leading corpus documents written as files and handed to the CLI
CLI_FILES = {"cli": 200}
DEFAULT_CLI_FILES = 64
DIGEST_CASES = 200
SETUP_REPEATS = 5
WARMUP_OPS = 8
PROBE_CALLS = 5
#: the untraced loop times every case at least this often; a case's time
#: is its fastest, so one call slowed by the host does not count
TIMED_PASSES = 2
#: in-process operations between two host-speed probes
PROBE_EVERY = 10
#: the untraced phases alternate in this many rounds (see _untraced)
ROUNDS = 5
#: share of --seconds for (in-process loop, single-file calls); batches get the rest
SHARES = {"cli": (0.5, 0.25)}
DEFAULT_SHARES = (0.55, 0.15)
#: share of --seconds for the paired untraced/traced loop; CLI probes follow
TRACE_SHARE = 0.7


@dataclass
class Run:
    """Everything one workload run measures and checks."""

    workload: str
    seed: int
    metrics: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def violate(self, message: str) -> None:
        self.violations.append(message)


class Operation:
    """The timed call, looked up through the modules at call time so the
    tracer's wrappers take effect."""

    def __init__(self, from_text: bool) -> None:
        import lorentzsvd.canonical as canonical
        import lorentzsvd.serialize as serialize

        self.canonical, self.serialize, self.from_text = canonical, serialize, from_text

    def __call__(self, value):
        """(result, report text, exception), exactly one of the pair being None."""
        try:
            if self.from_text:
                _, value = self.serialize.loads_state(value)
            result = self.canonical.canonicalize(value)
            return result, self.serialize.dumps(self.serialize.canonical_report(result)), None
        except Exception as exc:  # every failure is counted, never fatal
            return None, None, exc


class Corpus:
    """Cases, their operation inputs, and the first outcome seen for each.

    Failures are counted once per distinct case: the outcome of a case
    never changes between passes (``judge`` checks that), so ``attempted``
    and ``failed`` depend on the seed alone, not on how many passes the
    time budget allowed.
    """

    def __init__(self, workload: str, cases: list, texts: list[str], files: list[Path]) -> None:
        self.cases = cases
        self.files = files
        from_text = workload == "cli"
        self.inputs = texts if from_text else [c.rho for c in cases]
        self.op = Operation(from_text)
        self.first: dict[int, object] = {}
        self.fastest: dict[int, float] = {}
        self.next_op = 0
        self.next_file = 0

    def judge(self, k: int, result, text, exc, run: Run) -> None:
        from checks import from_exception, from_result

        outcome = from_exception(exc) if exc is not None else from_result(self.cases[k], result, text)
        seen = self.first.setdefault(k, outcome)
        if outcome.violation:
            run.violate(outcome.violation)
        if seen.text != outcome.text:
            run.violate(f"case {k}: output changed between passes")

    def _indices(self, budget_s: float, passes: int):
        """Corpus indices for ``budget_s``, and until ``passes`` passes are done."""
        n = len(self.inputs)
        deadline = time.perf_counter() + budget_s
        i = first = self.next_op
        while i == first or time.perf_counter() < deadline or i < passes * n:
            yield i % n
            i += 1
            self.next_op = i

    def timed(self, budget_s: float, run: Run, speed, passes: int = 0) -> tuple[list[float], list[int]]:
        """Closed loop for ``budget_s``: per-operation ns at reference speed, and
        raw.  ``fastest`` keeps each case's fastest scaled time."""
        scaled: list[float] = []
        raw: list[int] = []
        clock = time.perf_counter_ns
        for count, k in enumerate(self._indices(budget_s, passes)):
            if count % PROBE_EVERY == 0:
                speed.probe()
                scale = speed.scale()
            start = clock()
            outcome = self.op(self.inputs[k])
            elapsed = clock() - start
            scaled.append(elapsed * scale)
            raw.append(elapsed)
            self.fastest[k] = min(self.fastest.get(k, math.inf), elapsed * scale)
            self.judge(k, *outcome, run)
        return scaled, raw

    def traced(self, budget_s: float, run: Run, tracer) -> tuple[list[int], list[int]]:
        """Every input untraced and then traced, until ``budget_s`` and at
        least one pass: per-operation ns traced, and untraced for the same
        inputs, so the tracing overhead is free of host drift between two
        separate passes."""
        traced: list[int] = []
        untraced: list[int] = []
        clock = time.perf_counter_ns
        for i, k in enumerate(self._indices(budget_s, passes=1)):
            start = clock()
            plain = self.op(self.inputs[k])
            untraced.append(clock() - start)
            self.judge(k, *plain, run)
            tracer.begin_op(i)
            tracer.enable()
            start = clock()
            result, text, exc = self.op(self.inputs[k])
            traced.append(clock() - start)
            tracer.disable()
            if exc is None:
                tracer.returned_ops.add(i)
            self.judge(k, result, text, exc, run)
        return traced, untraced

    def tally(self):
        from checks import Tally

        tally = Tally()
        for k in sorted(self.first):
            tally.add(self.first[k])
        return tally

    def digest(self, run: Run) -> str:
        """sha256 over the first DIGEST_CASES outputs in corpus order."""
        h = hashlib.sha256()
        for k in range(min(DIGEST_CASES, len(self.inputs))):
            if k not in self.first:
                self.judge(k, *self.op(self.inputs[k]), run)
            h.update(self.first[k].text.encode("utf-8"))
        return h.hexdigest()


def _setup(workload: str, seed: int, workdir: Path) -> Corpus:
    import cliprobe
    import corpus as corpora

    cases = corpora.build(seed, workload, CORPUS_SIZE[workload])
    shown = CLI_FILES.get(workload, DEFAULT_CLI_FILES)
    texts = [cliprobe.document_text(c.rho) for c in (cases if workload == "cli" else cases[:shown])]
    files = cliprobe.write_documents(workdir / "docs", texts[:shown])
    data = Corpus(workload, cases, texts, files)
    for k in range(min(WARMUP_OPS, len(cases))):
        data.op(data.inputs[k])
    return data


@dataclass
class FileRef:
    """A CLI document's in-process outcome and the time it took in process."""

    outcome: object
    seconds: float


def _file_refs(data: Corpus) -> list[FileRef]:
    """In-process reference outcome and time for every CLI document."""
    from checks import from_exception, from_result

    op = Operation(from_text=True)
    refs = []
    for case, path in zip(data.cases, data.files):
        start = time.perf_counter()
        result, report, exc = op(path.read_text(encoding="utf-8"))
        seconds = time.perf_counter() - start
        refs.append(FileRef(from_exception(exc) if exc else from_result(case, result, report), seconds))
    return refs


def _check_single(ref: FileRef, call, name: str, run: Run) -> None:
    out = ref.outcome
    if out.kind in ("refused", "untyped"):
        if call.exit_code != out.exit_code:
            run.violate(f"cli {name}: exit {call.exit_code}, in-process {out.kind} {out.label}")
    elif call.exit_code != 0 or call.stdout != out.text:
        run.violate(f"cli {name}: output not byte-identical to the in-process report")


def _check_batch(refs: list[FileRef], files: list[Path], call, run: Run) -> None:
    try:
        failures = json.loads(call.stdout)["failures"]
    except (ValueError, KeyError, TypeError):
        run.violate(f"cli --batch: unreadable summary (exit {call.exit_code})")
        return
    for ref, path in zip(refs, files):
        out = ref.outcome
        if out.kind in ("refused", "untyped"):
            want = out.exit_code if out.kind == "refused" else 3
            got = failures.get(path.name, {}).get("exitCode")
            if got != want:
                run.violate(f"cli --batch {path.name}: exit {got}, in-process {out.kind} {out.label}")
            continue
        written = path.with_suffix(".canonicalize.json")
        if path.name in failures or not written.is_file() or written.read_text(encoding="utf-8") != out.text:
            run.violate(f"cli --batch {path.name}: output not byte-identical to the in-process report")


def _cli_phase(data: Corpus, refs: list[FileRef], single_s: float, batch_s: float,
               run: Run) -> tuple[list[float], list[float]]:
    """Wall times in s of single-file calls for ``single_s`` and batch runs for ``batch_s``."""
    import cliprobe

    singles, batches = [], []
    deadline = time.perf_counter() + single_s
    while not singles or time.perf_counter() < deadline:
        k = data.next_file % len(data.files)
        data.next_file += 1
        call = cliprobe.canonicalize_file(data.files[k], SRC, ROOT)
        _check_single(refs[k], call, data.files[k].name, run)
        singles.append(call.wall_s)
    deadline = time.perf_counter() + batch_s
    while not batches or time.perf_counter() < deadline:
        call = cliprobe.canonicalize_batch(data.files[0].parent, SRC, ROOT)
        _check_batch(refs, data.files, call, run)
        batches.append(call.wall_s)
    return singles, batches


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(workload, seed)
    workdir = BUILD / "work" / f"{workload}-{os.getpid()}"
    try:
        import cliprobe
        from hostspeed import HostSpeed

        speed = HostSpeed()
        builds = []
        for _ in range(1 if trace else SETUP_REPEATS):
            start = time.perf_counter()
            data = _setup(workload, seed, workdir)
            elapsed = time.perf_counter() - start
            speed.probe()
            builds.append(elapsed * speed.scale())
        cliprobe.canonicalize_file(data.files[0], SRC, ROOT)  # warms the OS file cache
        refs = _file_refs(data)
        if trace:
            _traced(data, refs, seconds, run)
        else:
            imports = [cliprobe.import_seconds(SRC, ROOT) for _ in range(SETUP_REPEATS)]
            _untraced(data, refs, seconds, run, speed, imports, builds)
        run.details["digest"] = data.digest(run)
        tally = data.tally()
        run.details.update(attempted=tally.attempted, failed=tally.failed, failures=tally.summary())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run


def _untraced(data: Corpus, refs: list[FileRef], seconds: float, run: Run, speed,
              imports: list[float], builds: list[float]) -> None:
    """End-to-end metrics.  ``imports`` are the package's import times in
    fresh interpreters; ``builds`` the in-process set-up times at
    reference speed."""
    import cliprobe
    from hostspeed import REFERENCE_START_S

    loop_share, single_share = SHARES.get(run.workload, DEFAULT_SHARES)
    batch_share = 1.0 - loop_share - single_share
    times, raw, singles, batches, starts = [], [], [], [], []
    # A shared machine's speed drifts by tens of percent over seconds;
    # short alternating rounds let every metric sample the whole run
    # rather than one stretch of it.
    round_s = seconds / ROUNDS
    for r in range(ROUNDS):
        last = r == ROUNDS - 1
        scaled, unscaled = data.timed(loop_share * round_s, run, speed, TIMED_PASSES if last else 0)
        times += scaled
        raw += unscaled
        starts.append(cliprobe.reference_start(SRC, ROOT))
        calls, runs = _cli_phase(data, refs, single_share * round_s, batch_share * round_s, run)
        starts.append(cliprobe.reference_start(SRC, ROOT))
        singles += calls
        batches += runs
    usage = resource.RUSAGE_CHILDREN if run.workload == "cli" else resource.RUSAGE_SELF
    tally = data.tally()
    start_scale = REFERENCE_START_S / statistics.median(starts)
    run.metric("setup_s", statistics.median(imports) * start_scale + statistics.median(builds), "s")
    per_case = list(data.fastest.values())
    run.metric("state_p50_ms", statistics.median(per_case) / 1e6, "ms")
    run.metric("state_p99_ms", _percentile(per_case, 0.99) / 1e6, "ms")
    run.metric("states_per_s", len(times) / (sum(times) / 1e9), "1/s")
    run.metric("success_rate", 1.0 - tally.failed / tally.attempted, "fraction")
    run.metric("cli_call_p50_ms", 1e3 * statistics.median(singles) * start_scale, "ms")
    run.metric("batch_files_per_s", len(data.files) / (statistics.median(batches) * start_scale), "1/s")
    run.metric("peak_rss_mb", resource.getrusage(usage).ru_maxrss / 1024.0, "MB")
    run.details.update(
        samples={"cases": len(per_case), "inProcess": len(times), "cliCalls": len(singles),
                 "batchRuns": len(batches)},
        rawStateP50Ms=statistics.median(raw) / 1e6,
        rawCliCallP50Ms=1e3 * statistics.median(singles),
        rawBatchFilesPerS=len(data.files) / statistics.median(batches),
        rawImportS=statistics.median(imports),
        referenceStartMs=1e3 * statistics.median(starts),
        referenceMs=speed.reference_ms(),
    )


def _traced(data: Corpus, refs: list[FileRef], seconds: float, run: Run) -> None:
    import cliprobe
    from tracer import SPANS, Tracer

    tracer = Tracer()
    tracer.install()
    traced, untraced = data.traced(TRACE_SHARE * seconds, run, tracer)
    tracer.write(BUILD / "traces" / f"{run.workload}-seed{run.seed}.csv")

    ops = len(traced)
    total_ns = sum(traced)
    calls, self_ns = tracer.layer_totals()
    for index, name in enumerate(SPANS):
        run.metric(f"{name}.calls_per_op", calls[index] / ops, "calls/op")
        run.metric(f"{name}.self_us_per_op", self_ns[index] / 1e3 / ops, "us/op")
        run.metric(f"{name}.self_share", self_ns[index] / total_ns, "fraction")
        run.metric(f"{name}.raised", tracer.raised[index], "count")
    eig = list(SPANS).index("geigen.g_eigensystem")
    returned = max(1, len(tracer.returned_ops))
    run.metric("geigen.g_eigensystem.calls_per_result",
               tracer.calls_in_ops(eig, tracer.returned_ops) / returned, "calls/op")
    solves = calls[list(SPANS).index("quartic.quartic_real_roots")]
    run.metric("quartic.polyval.calls_per_solve", tracer.polyval_calls / max(1, solves), "calls/solve")
    run.metric("trace.overhead_share", total_ns / sum(untraced) - 1.0, "fraction")

    starts = [cliprobe.run_python(["-c", "pass"], SRC, ROOT).wall_s for _ in range(PROBE_CALLS)]
    imports = [cliprobe.run_python(["-c", "import lorentzsvd.cli"], SRC, ROOT).wall_s
               for _ in range(PROBE_CALLS)]
    _, batches = _cli_phase(data, refs, 0.0, 0.0, run)
    busy = sum(r.seconds for r in refs)
    workers = cliprobe.batch_workers(len(refs))
    run.metric("cli.interpreter_start_ms", 1e3 * statistics.median(starts), "ms")
    run.metric("cli.import_ms", 1e3 * statistics.median(imports), "ms")
    run.metric("cli.batch_overhead_share", 1.0 - busy / (workers * batches[0]), "fraction")


def result_line(run: Run) -> dict:
    return {
        "correct": not run.violations,
        "attempted": int(run.details["attempted"]),
        "failed": int(run.details["failed"]),
        "metrics": run.metrics,
    }


def _report(run: Run, trace: bool) -> dict:
    detail = {"workload": run.workload, "seed": run.seed, "trace": int(trace), **run.details,
              "violations": run.violations[:20]}
    print(json.dumps(detail, sort_keys=True))
    for name, m in run.metrics.items():
        print(f"  {name:<56} {m['value']:>14.6g} {m['unit']}")
    return result_line(run)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run (ignored with --workload all)")
    args = ap.parse_args(argv)
    if not (SRC / "lorentzsvd" / "canonical.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        line = _report(run, bool(args.trace))
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            line = _report(measure(workload, args.seed, args.seconds, trace), trace)
            merged["correct"] &= line["correct"]
            merged["attempted"] += line["attempted"]
            merged["failed"] += line["failed"]
            for name, m in line["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
