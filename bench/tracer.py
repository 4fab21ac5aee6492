"""Span tracing of the package's layers, installed from outside.

``from x import f`` binds ``f`` into the importing module, so a wrapper
must replace every module attribute that holds the original function,
not only the defining one.  ``Tracer.install`` finds those bindings across
all loaded ``lorentzsvd`` modules once; ``enable`` and ``disable`` then
swap wrappers and originals cheaply, so traced and untraced calls can
alternate.  Spans are kept in memory as
(span index, start ns, end ns, parent row, operation id) rows and written
out once the run ends.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

#: metric prefix -> (module, function); metric names may not start with "_"
SPANS = {
    "qstate.lambda_from_rho": ("lorentzsvd.qstate", "lambda_from_rho"),
    "geigen.omega_matrices": ("lorentzsvd.geigen", "omega_matrices"),
    "geigen.g_eigensystem": ("lorentzsvd.geigen", "g_eigensystem"),
    "quartic.charpoly_g": ("lorentzsvd._quartic", "charpoly_g"),
    "quartic.quartic_real_roots": ("lorentzsvd._quartic", "quartic_real_roots"),
    "linalg.null_space_basis": ("lorentzsvd._linalg", "null_space_basis"),
    "linalg.complete_g_frame": ("lorentzsvd._linalg", "complete_g_frame"),
    "minkowski.complete_tetrad_from_neutral_triad": (
        "lorentzsvd.minkowski", "complete_tetrad_from_neutral_triad"),
    "canonical.canonicalize": ("lorentzsvd.canonical", "canonicalize"),
    "canonical.type1_canonical": ("lorentzsvd.canonical", "type1_canonical"),
    "canonical.type2_canonical": ("lorentzsvd.canonical", "type2_canonical"),
    "serialize.canonical_report": ("lorentzsvd.serialize", "canonical_report"),
    "serialize.dumps": ("lorentzsvd.serialize", "dumps"),
    "serialize.loads_state": ("lorentzsvd.serialize", "loads_state"),
}
COUNTED = ("lorentzsvd._quartic", "polyval")


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lorentzsvd" or name.startswith("lorentzsvd."))]


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPANS)
        self.rows: list[tuple[int, int, int, int, int]] = []
        self.raised = [0] * len(self.names)
        self.polyval_calls = 0
        self.op = -1
        self.returned_ops: set[int] = set()
        self._stack: list[int] = []
        self._last_exc: BaseException | None = None
        self._sites: list[tuple[object, str, object, object]] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self._last_exc = None

    def _span(self, index: int, fn):
        rows, stack, clock = self.rows, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            row = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(row)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_exc:
                    self._last_exc = exc
                    self.raised[index] += 1
                raise
            finally:
                rows[row] = (index, start, clock(), parent, self.op)
                stack.pop()

        return traced

    def _counter(self, fn):
        def counted(*args):
            self.polyval_calls += 1
            return fn(*args)

        return counted

    def install(self) -> None:
        """Find every binding of the traced functions; ``enable`` swaps them in."""
        wanted = {(module, attr): self._span(index, getattr(sys.modules[module], attr))
                  for index, (module, attr) in enumerate(SPANS.values())}
        module, attr = COUNTED
        wanted[COUNTED] = self._counter(getattr(sys.modules[module], attr))
        wrappers = {id(getattr(sys.modules[m], a)): w for (m, a), w in wanted.items()}
        for module in _package_modules():
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    self._sites.append((module, attr, value, wrappers[id(value)]))

    def enable(self) -> None:
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def layer_totals(self) -> tuple[list[int], list[int]]:
        """(calls, self time in ns) per span; self time excludes child spans."""
        dur = [end - start for _, start, end, _, _ in self.rows]
        child = [0] * len(self.rows)
        for (_, _, _, parent, _), d in zip(self.rows, dur):
            if parent >= 0:
                child[parent] += d
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for row, (index, _, _, _, _) in enumerate(self.rows):
            calls[index] += 1
            self_ns[index] += dur[row] - child[row]
        return calls, self_ns

    def calls_in_ops(self, index: int, ops: set[int]) -> int:
        return sum(1 for i, *_, op in self.rows if i == index and op in ops)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("op,span,parent,start_ns,end_ns\n")
            for index, start, end, parent, op in self.rows:
                fh.write(f"{op},{self.names[index]},{parent},{start},{end}\n")
