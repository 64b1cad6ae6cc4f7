"""Span tracing around the public functions of each specfilt module.

The program itself is not changed: ``install`` replaces every module-level
reference to a traced function (and the two traced methods on their classes)
with a wrapper that records a span.  The program is single-threaded and
synchronous, so spans nest strictly and a plain stack gives each span's
parent and its self time (duration minus the time its child spans cover).

Calls, self time and the extra counts (``points`` for array evaluations,
``bytes`` for file I/O) are aggregated online for every span.  Full span
records are kept in memory only up to ``MAX_SPANS`` because the scalar
``transfer`` calls made from ``scipy.integrate.quad`` run to hundreds of
thousands per job; the aggregates always cover every span.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np


def _size_of(arg_index):
    def points(args, kwargs, result):
        return int(np.size(args[arg_index]))
    return points


def _file_bytes(args, kwargs, result):
    path = args[0]
    return os.path.getsize(path) if os.path.exists(path) else 0


def _calibrate_name(args, kwargs):
    return "filters.calibrate_gh" if args and args[0] == "gh" else "filters.calibrate"


# (module, attribute, class or None, span name, extra counter, counter fn).
# A span name may be a function of the call's arguments (calibrate is split
# by family because GH calibration is the dominant cost of the tables runs).
TRACED = [
    ("filters", "transfer", None, "filters.transfer", "points", _size_of(1)),
    ("filters", "kernel", None, "filters.kernel", "points", _size_of(1)),
    ("filters", "calibrate", None, _calibrate_name, None, None),
    ("filters", "gh_kernel_quadrature", None, "filters.gh_kernel_quadrature", None, None),
    # private, but it is the GH kernel-table build (or cache lookup) behind
    # both kernel() and gh_kernel_samples(); without it the build's time
    # would land in whichever caller happened to ask first
    ("filters", "_gh_table", None, "filters.gh_kernel_table", None, None),
    ("metrics", "mse_numeric", None, "metrics.mse_numeric", None, None),
    ("metrics", "noise_gain", None, "metrics.noise_gain", None, None),
    ("metrics", "noise_cutoff", None, "metrics.noise_cutoff", None, None),
    ("metrics", "gibbs_residual", None, "metrics.gibbs_residual", None, None),
    ("lineshapes", "lorentzian_rs", None, "lineshapes.lorentzian_rs", None, None),
    ("lineshapes", "sequence", "NoiseModel", "lineshapes.NoiseModel.sequence", None, None),
    ("engine", "sampled_kernel", None, "engine.sampled_kernel", None, None),
    ("engine", "read_spectrum", None, "engine.read_spectrum", "bytes", _file_bytes),
    ("engine", "write_spectrum", None, "engine.write_spectrum", "bytes", _file_bytes),
    ("engine", "apply_filter_rs", None, "engine.apply_filter_rs", None, None),
    ("engine", "apply_filter_ds", None, "engine.apply_filter_ds", None, None),
    ("engine", "reconstruct_with_report", None, "engine.reconstruct_with_report", None, None),
    ("engine", "noise_transmission_empirical", None,
     "engine.noise_transmission_empirical", None, None),
    ("cli", "main", None, "cli", None, None),
    ("cli", "write", "TableWriter", "cli.TableWriter.write", None, None),
]

MODULES = ("filters", "metrics", "lineshapes", "engine", "cli")
MAX_SPANS = 50_000


class Tracer:
    """In-memory span recorder with online per-name aggregation."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.job = -1
        self._stack: list[list] = []   # [span id, start, child time]
        self._next_id = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, float] = {}

    def wrap(self, name, fn, counter=None, count_fn=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                self.calls[span_name] = self.calls.get(span_name, 0) + 1
                self.self_s[span_name] = self.self_s.get(span_name, 0.0) + dur - frame[2]
                if counter is not None:
                    key = f"{span_name}.{counter}"
                    self.extra[key] = self.extra.get(key, 0) + count_fn(args, kwargs, result)
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent, self.job, span_name, frame[1], end))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                     "name": name, "start": start, "end": end}) + "\n")


def install(tracer: Tracer, package) -> None:
    """Route every reference to a traced function through a tracer wrapper."""
    modules = [package] + [getattr(package, m) for m in MODULES]
    for mod_name, attr, cls_name, name, counter, count_fn in TRACED:
        home = getattr(package, mod_name)
        if cls_name is not None:
            cls = getattr(home, cls_name)
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), counter, count_fn))
            continue
        original = getattr(home, attr)
        wrapper = tracer.wrap(name, original, counter, count_fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
