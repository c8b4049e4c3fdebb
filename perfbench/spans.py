"""Span recorder and scalar-op counter for the traced run.

Both work from outside the program: they replace each public function of
the ydalgebra modules with a wrapper, in every module that bound the
function by ``from .x import f`` as well as in the module that defines it,
and put the originals back when removed.  Only calls made during set-up or
while an op runs are recorded; the benchmark's own output checks are not.

The layers are modules.  A module's self time is the time of its spans
minus the time of the spans they contain.
"""

from __future__ import annotations

import contextlib
import fractions
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

from ydalgebra import field as yd_field
from ydalgebra import linalg as yd_linalg
from ydalgebra.report import CheckReport

MODULES = ("cli", "structio", "builders", "posthopf", "braces", "rota", "hopf",
           "linalg", "report")
SUITE_MODULES = ("posthopf", "braces", "rota")
# Raw spans kept for the trace file; past this only the totals grow.
SPAN_CAP = 200_000


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "ydalgebra" or name.startswith("ydalgebra."))]


class _Patches:
    """Replace objects in module namespaces and class dicts; undo on remove."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def rebind(self, original, wrapper) -> None:
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, wrapper)

    def remove(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


class Recorder:
    """Spans and per-layer counts for calls into the ydalgebra modules."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.calls = {m: 0 for m in MODULES}
        self.self_s = {m: 0.0 for m in MODULES}
        self.counts = {
            "posthopf.suite_calls": 0, "braces.suite_calls": 0, "rota.suite_calls": 0,
            "posthopf.checked": 0, "linalg.unknowns": 0, "linalg.nnz": 0,
            "linalg.dense_calls": 0, "structio.bytes": 0,
        }
        self.inclusive = {"hopf.endo_inverse_s": 0.0, "hopf.antipode_s": 0.0,
                          "structio.parse_s": 0.0, "structio.emit_s": 0.0}
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.spans_dropped = 0
        self._stack: list[list] = []  # [span index, child seconds]
        self._open: dict[str, int] = {}
        self._op_fids: dict[str, int] = {}
        self._wrappers: dict = {}
        self._patches = _Patches()

    # -- spans --

    def _enter(self, fid: int, t0: float) -> list:
        idx = len(self.span_t0)
        if idx < SPAN_CAP:
            self.span_fid.append(fid)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_t0.append(t0)
            self.span_t1.append(t0)
        else:
            idx = -1
            self.spans_dropped += 1
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, t1: float, dur: float) -> float:
        self._stack.pop()
        if frame[0] >= 0:
            self.span_t1[frame[0]] = t1
        if self._stack:
            self._stack[-1][1] += dur
        return dur - frame[1]

    @contextlib.contextmanager
    def op_span(self, verb: str):
        """Root span of one op; every span of the op descends from it."""
        name = "op." + verb
        if name not in self._op_fids:
            self._op_fids[name] = self._fid(name)
        t0 = time.perf_counter()
        frame = self._enter(self._op_fids[name], t0)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            t1 = time.perf_counter()
            self._exit(frame, t1, t1 - t0)

    def _fid(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # -- wrapping --

    def _wrap(self, module: str, name: str, fn):
        fid = self._fid(f"{module}.{name}")
        extra = _extra_counter(self, module, name)
        inclusive = _inclusive_key(module, name)
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            frame = rec._enter(fid, t0)
            outer = inclusive is not None and inclusive not in rec._open
            if outer:
                rec._open[inclusive] = 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec.self_s[module] += rec._exit(frame, t1, t1 - t0)
                rec.calls[module] += 1
                if outer:
                    del rec._open[inclusive]
                    rec.inclusive[inclusive] += t1 - t0
            if extra is not None:
                extra(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if not self._wrappers:
            for module in MODULES:
                mod = sys.modules[f"ydalgebra.{module}"]
                for name, fn in list(vars(mod).items()):
                    if (not name.startswith("_") and inspect.isfunction(fn)
                            and fn.__module__ == mod.__name__):
                        self._wrappers[fn] = self._wrap(module, name, fn)
            for name in ("text", "machine_text"):
                fn = vars(CheckReport)[name]
                self._wrappers[fn] = self._wrap("report", f"CheckReport.{name}", fn)
        for fn, wrapper in self._wrappers.items():
            self._patches.rebind(fn, wrapper)
        for name in ("text", "machine_text"):
            self._patches.set(CheckReport, name, self._wrappers[vars(CheckReport)[name]])

    def remove(self) -> None:
        self._patches.remove()

    # -- output --

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for m in MODULES:
            out[f"{m}.calls"] = self.calls[m]
            out[f"{m}.self_s"] = self.self_s[m]
        out.update(self.counts)
        out.update(self.inclusive)
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "names": self.names,
            "columns": ["name", "parent", "t0", "t1"],
            "spans": [list(row) for row in zip(self.span_fid, self.span_parent,
                                               self.span_t0, self.span_t1)],
            "spans_dropped": self.spans_dropped,
        }), encoding="utf-8")


def _inclusive_key(module: str, name: str) -> str | None:
    if module == "hopf" and name == "hom_convolution_inverse_endo":
        return "hopf.endo_inverse_s"
    if module == "hopf" and name in ("solve_antipode", "convolution_inverse"):
        return "hopf.antipode_s"
    if module == "structio" and name in ("parse", "emit"):
        return f"structio.{name}_s"
    return None


def _extra_counter(rec: Recorder, module: str, name: str):
    counts = rec.counts
    if module in SUITE_MODULES and name.startswith("check_"):
        key = f"{module}.suite_calls"

        def suite(args, report):
            counts[key] += 1
            if module == "posthopf":
                counts["posthopf.checked"] += sum(e.checked for e in report.entries)

        return suite
    if module == "linalg" and name in ("solve", "kernel", "invert"):
        # The engine sees the matrix plus its right-hand side (solve) or its
        # identity block (invert); over Q it takes the dense Bareiss path
        # below the module's column limit.
        width = {"solve": 1, "kernel": 0, "invert": None}[name]
        limit = getattr(yd_linalg, "_DENSE_LIMIT", 64)

        def system(args, result):
            a = args[0]
            counts["linalg.unknowns"] += a.cols
            counts["linalg.nnz"] += len(a.entries)
            ncols = a.cols * 2 if width is None else a.cols + width
            if a.field.p is None and ncols < limit:
                counts["linalg.dense_calls"] += 1

        return system
    if module == "structio" and name in ("parse", "emit"):

        def text_bytes(args, result):
            counts["structio.bytes"] += len(args[0] if name == "parse" else result)

        return text_bytes
    return None


# --- scalar-op counting pass --------------------------------------------------

_Q_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__", "__pow__")
_FP_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__",
           "inverse")


class ScalarCounter:
    """Counts arithmetic calls on Fraction (Q) and ModInt (F_p) scalars
    while an op runs."""

    def __init__(self):
        self.active = False
        self.q_ops = 0
        self.fp_ops = 0
        self._patches = _Patches()

    def _wrap(self, fn, attr: str):
        counter = self

        def wrapper(*args):
            if counter.active:
                setattr(counter, attr, getattr(counter, attr) + 1)
            return fn(*args)

        return wrapper

    def install(self) -> None:
        for name in _Q_OPS:
            self._patches.set(fractions.Fraction, name,
                              self._wrap(vars(fractions.Fraction)[name], "q_ops"))
        for name in _FP_OPS:
            self._patches.set(yd_field.ModInt, name,
                              self._wrap(vars(yd_field.ModInt)[name], "fp_ops"))

    def remove(self) -> None:
        self._patches.remove()

    @contextlib.contextmanager
    def op_span(self, verb: str):
        self.active = True
        try:
            yield
        finally:
            self.active = False
