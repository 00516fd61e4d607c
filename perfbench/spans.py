"""Outside-in tracing of the package's public functions.

``Tracer.install`` replaces every ``gmmaug`` module attribute bound to a
traced function with a wrapper, so spans follow whatever the CLI really
calls, whichever module it calls through. Nothing under ``src/`` is
touched. Spans (name, start, end, parent, op id, counts) stay in memory
until the run ends.

A wrapper records a span only inside an open root span (one CLI call or
one set-up), so the benchmark's own checks, which parse outputs with the
package's readers, stay out of the trace. Work the tracer does itself,
such as counting distinct values, runs in a child span named ``trace``,
so it is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# The traced public functions, grouped by the package module (layer)
# they belong to: volume, preprocess, gmm, population, augment, phantom.
TRACED = (
    "read_volume", "write_volume", "foreground_mask",
    "clip_normalize",
    "fit_em", "responsibilities",
    "estimate_population", "load_stats", "save_stats",
    "augment_volume", "apply_perturbation", "remap",
    "generate_phantom",
)
BOOKKEEPING = "trace"


def _file_counts(bound, result):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


def _fit_counts(bound, result):
    values = np.asarray(bound.arguments["values"]).ravel()
    cfg = bound.arguments.get("cfg")
    max_iter = cfg.max_iter if cfg is not None else sys.modules["gmmaug"].EmConfig().max_iter
    return {
        "values": int(values.size),
        "distinct": int(np.unique(values).size),
        "iterations": int(result.iterations),
        "max_iter": int(max_iter),
    }


_COUNTERS = {"read_volume": _file_counts, "write_volume": _file_counts, "fit_em": _fit_counts}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "op": self._op})
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, op):
        """Open the span that owns every traced call made inside it."""
        self._op = op
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[index]["error"] = type(exc).__name__
                raise
            finally:
                self._close(index)
            if counter is not None:
                book = self._open(BOOKKEEPING)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index]["counts"] = counter(bound, result)
                self._close(book)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions at every gmmaug module attribute bound to them."""
        package = sys.modules["gmmaug"]
        wrappers = {}
        for name in TRACED:
            fn = getattr(package, name)
            wrappers[id(fn)] = self._wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gmmaug" and not mod_name.startswith("gmmaug."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        child = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - child[i] for i, s in enumerate(self.spans)]


def layer_metrics(tracer: Tracer, ops: list, setups: list) -> dict:
    """Per-layer metrics, per traced CLI call unless named otherwise.

    ``ops`` and ``setups`` are the op ids of the traced calls and of the
    traced set-ups. Returns {name: (value, unit)} in the order of the
    layer table in README.md.
    """
    selfs = tracer.self_times()
    n_ops = len(ops)
    op_set = set(ops)
    total = defaultdict(float)
    fits = []
    read_bytes = write_bytes = skipped = 0
    op_time = 0.0
    for span, own in zip(tracer.spans, selfs):
        if span["op"] not in op_set:
            continue
        name = span["name"]
        total[name] += own
        counts = span.get("counts", {})
        if name == "fit_em" and counts:
            fits.append(counts)
        elif name == "read_volume":
            read_bytes += counts.get("bytes", 0)
        elif name == "write_volume":
            write_bytes += counts.get("bytes", 0)
        elif name == "cli":
            op_time += span["end"] - span["start"]
        if span["parent"] is not None and "error" in span:
            if tracer.spans[span["parent"]]["name"] == "estimate_population":
                skipped += 1

    generate = defaultdict(float)
    for span, own in zip(tracer.spans, selfs):
        if span["op"] in setups and span["name"] == "generate_phantom":
            generate[span["op"]] += own

    iterations = sum(f["iterations"] for f in fits)
    gmm_s = total["fit_em"] + total["responsibilities"]

    def per_op(x):
        return x / n_ops

    def mean(key):
        return statistics.fmean(f[key] for f in fits) if fits else 0.0

    return {
        "volume.read_s": (per_op(total["read_volume"]), "s"),
        "volume.read_mb": (per_op(read_bytes / 1e6), "MB"),
        "volume.write_s": (per_op(total["write_volume"]), "s"),
        "volume.write_mb": (per_op(write_bytes / 1e6), "MB"),
        "volume.mask_s": (per_op(total["foreground_mask"]), "s"),
        "preprocess.clip_normalize_s": (per_op(total["clip_normalize"]), "s"),
        "gmm.fit_s": (per_op(total["fit_em"]), "s"),
        "gmm.fit_calls": (per_op(len(fits)), "count"),
        "gmm.iterations": (mean("iterations"), "count"),
        "gmm.s_per_iter": (total["fit_em"] / iterations if iterations else 0.0, "s"),
        "gmm.values": (mean("values"), "count"),
        "gmm.distinct_share": (
            statistics.fmean(f["distinct"] / f["values"] for f in fits) if fits else 0.0, "ratio"),
        "gmm.unconverged": (per_op(sum(f["iterations"] == f["max_iter"] for f in fits)), "count"),
        "gmm.responsibilities_s": (per_op(total["responsibilities"]), "s"),
        "gmm.self_share": (100.0 * gmm_s / op_time if op_time else 0.0, "%"),
        "augment.self_s": (per_op(total["augment_volume"]), "s"),
        "augment.apply_s": (per_op(total["apply_perturbation"]), "s"),
        "augment.remap_s": (per_op(total["remap"]), "s"),
        "population.self_s": (
            per_op(total["estimate_population"] + total["load_stats"] + total["save_stats"]), "s"),
        "population.volumes_skipped": (per_op(skipped), "count"),
        "phantom.generate_s": (statistics.median(generate.values()) if generate else 0.0, "s"),
        "cli.self_s": (per_op(total["cli"]), "s"),
        "trace.bookkeeping_s": (per_op(total[BOOKKEEPING]), "s"),
    }
