"""In-memory span tracer for the comptonsim layers.

The tracer wraps every public function of the traced modules (the names in
each module's ``__all__`` that are functions or classmethods defined there)
and rebinds the wrapper under every name that refers to the original in any
traced module, so calls made between modules are seen too.  Nothing in the
package itself changes.  Each call records a span ``(id, name, start, end,
parent)``; a few wrappers also read counts off the arguments or the result.
``restore()`` puts the original objects back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

import numpy as np

MODULES = ("kernel", "truncation", "measure", "full_solver", "reduced_solver", "harness")

ENTRY = "entry"


def _eval_kernel(counters, args, kwargs, out):
    if out.value > 0.0:
        ratio = out.abs_error_estimate / out.value
        counters["kernel.eval_kernel.max_err_ratio"] = max(counters.get("kernel.eval_kernel.max_err_ratio", 0.0), ratio)


def _table_build(counters, args, kwargs, out):
    table = out.table
    counters["full_solver.table.pairs"] = int(np.count_nonzero(np.triu(table)))
    counters["full_solver.table.fill"] = np.count_nonzero(table) / table.size


def _step(counters, args, kwargs, out):
    # a rejected step is retried with dt halved, so the ratio of the
    # requested to the used step gives the number of rejections
    requested = kwargs["dt"] if "dt" in kwargs else args[3]
    used = out[1]
    if used < requested:
        counters["full_solver.step.rejections"] = counters.get("full_solver.step.rejections", 0) + round(
            math.log2(requested / used)
        )


def _collision_rhs(counters, args, kwargs, out):
    # computed, not measured: the dense coupling table read plus the state
    # read and the rate written, once per call
    kern = kwargs["kern"] if "kern" in kwargs else args[1]
    moved = kern.coupling.nbytes + np.asarray(args[0]).nbytes + out.nbytes
    counters["full_solver.collision_rhs.bytes_computed"] = counters.get("full_solver.collision_rhs.bytes_computed", 0) + moved


def _picard(counters, args, kwargs, out):
    counters["reduced_solver.picard.windows"] = counters.get("reduced_solver.picard.windows", 0) + out.window_count
    counters["reduced_solver.picard.iterations"] = counters.get("reduced_solver.picard.iterations", 0) + out.iterations_total


HOOKS = {
    "kernel.eval_kernel": _eval_kernel,
    "full_solver.RegularizedKernel.build": _table_build,
    "full_solver.step": _step,
    "full_solver.collision_rhs": _collision_rhs,
    "reduced_solver.picard_solve": _picard,
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent))
            if hook is not None:
                hook(self.counters, args, kwargs, out)
            return out

        return wrapped

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the workload's entry call)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        mods = [importlib.import_module(f"comptonsim.{m}") for m in MODULES]
        replacements: dict[int, object] = {}
        for short, mod in zip(MODULES, mods):
            for public in mod.__all__:
                obj = getattr(mod, public)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[id(obj)] = self._wrap(f"{short}.{public}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in list(vars(obj).items()):
                        if isinstance(member, classmethod):
                            wrapped = classmethod(self._wrap(f"{short}.{public}.{attr}", member.__func__))
                            self._undo.append((obj, attr, member))
                            setattr(obj, attr, wrapped)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacements[id(value)])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def report(self) -> dict[str, float]:
        """Per-function and per-module statistics of the recorded spans."""
        child_time: dict[int, float] = {}
        for _, _, start, end, parent in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        durations: dict[str, list[float]] = {}
        self_time: dict[str, float] = {}
        entry = None
        for span_id, name, start, end, _ in self.spans:
            dur = end - start
            durations.setdefault(name, []).append(dur)
            self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(span_id, 0.0)
            if name == ENTRY:
                entry = (span_id, dur)
        out: dict[str, float] = {}
        for name, durs in durations.items():
            us = np.asarray(durs) * 1e6
            out[f"{name}.calls"] = len(durs)
            out[f"{name}.busy_s"] = float(np.sum(durs))
            out[f"{name}.self_s"] = self_time[name]
            out[f"{name}.p50_us"] = float(np.percentile(us, 50))
            out[f"{name}.p99_us"] = float(np.percentile(us, 99))
        for short in MODULES:
            out[f"{short}.self_s"] = sum(v for k, v in self_time.items() if k.startswith(short + "."))
        if entry is not None:
            # share of the entry call covered by the layers that the
            # workload's entry function (the entry span's child) calls
            entry_id, entry_dur = entry
            roots = {span_id for span_id, _, _, _, parent in self.spans if parent == entry_id}
            top = sum(end - start for _, _, start, end, parent in self.spans if parent in roots)
            out["trace.top_coverage"] = top / entry_dur
        out.update(self.counters)
        return out
