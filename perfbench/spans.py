"""Span recording from wrappers the benchmark installs around qdp4's public
functions.  Nothing here is imported by qdp4; tracing is off unless a run
asks for it, and the untraced runs never install a wrapper.

A span is [name, start_ns, end_ns, parent_index, op_id].  Spans are kept in
memory and written out once, at the end of the run.  A span's self time is
its duration minus the durations of its direct children; spans nest strictly
because every traced call runs on the one benchmark thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, home module, function name).  A function is patched under
# every name that any loaded qdp4 module binds to it, so that calls through
# `from .fields import factor` are seen, in the modules that exist today and
# in any added later.  A function missing from its home module is an error:
# a later change that renames or moves one must update this table, and its
# layer must not read 0 as if it had become free.
TRACED = (
    ("cli.main", "cli", "main"),
    ("cli.report", "cli", "analysis_report"),
    ("cli.emit", "cli", "_emit"),
    ("pencil.quintic", "pencil", "discriminant_quintic"),
    ("pencil.smooth", "pencil", "is_smooth"),
    ("pencil.splitting", "pencil", "splitting_field"),
    ("pencil.points", "pencil", "degenerate_parameter_points"),
    ("pencil.invariant", "pencil", "canonical_invariant"),
    ("pencil.iso", "pencil", "isomorphic"),
    ("pencil.signature", "pencil", "galois_signature"),
    ("pencil.count", "pencil", "count_points"),
    ("fields.factor", "fields", "factor"),
    ("fields.rational_roots", "fields", "rational_roots"),
    ("wpline.aut", "wpline", "aut_group"),
    ("wpline.match", "wpline", "pgl2_match"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.kernel_vector", "linalg", "kernel_vector"),
    ("linalg.congruence", "linalg", "congruence"),
    ("accel.count_zero_pairs", "_accel", "count_zero_pairs"),
)


class MissingFunctionError(RuntimeError):
    """A traced function is no longer where TRACED says it lives."""


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.op_id = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0,
                          stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()
        return traced

    def install(self, qdp4):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qdp4" or name.startswith("qdp4."))]
        for name, home, attr in TRACED:
            fn = getattr(importlib.import_module(f"qdp4.{home}"), attr, None)
            if not callable(fn):
                raise MissingFunctionError(f"qdp4.{home}.{attr} (span {name}) is gone")
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        cls = qdp4.pencil.QuadricPencil
        raw = cls.__dict__.get("from_json")
        if not isinstance(raw, classmethod):
            raise MissingFunctionError(
                "qdp4.pencil.QuadricPencil.from_json (span pencil.parse) is gone")
        self._undo.append((cls, "from_json", raw))
        setattr(cls, "from_json", classmethod(self._wrap("pencil.parse", raw.__func__)))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def totals(self):
        """{span name: (self ns, calls)} over all recorded spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            self_ns, calls = out.get(name, (0, 0))
            out[name] = (self_ns + end - start - inner, calls + 1)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
                       "spans": self.spans}, fh)
