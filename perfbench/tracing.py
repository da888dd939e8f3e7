"""Timing spans around fbst's public functions, recorded from outside.

The traced run replaces each function below, at the name its caller looks
up, by a wrapper that records a span: name, start, end and parent span.
Self time is a span's duration minus the time its child spans cover, so a
layer's figure excludes the layers it calls.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

# (module, attribute, span name); patched where the caller looks it up
LIBRARY_PATCHES = (
    ("fbst.core", "fbst_pipeline", "core.fbst_pipeline"),
    ("fbst.core", "kde_fit", "density.kde_fit"),
    ("fbst.density", "silverman_bandwidth", "density.silverman_bandwidth"),
    ("fbst.core", "surprise_fit", "core.surprise_fit"),
    ("fbst.core", "tangential_region", "core.tangential_region"),
    ("fbst.core", "evalue_grid", "core.evalue_grid"),
    ("fbst.core", "evalue_mc", "core.evalue_mc"),
    ("fbst.core", "pvalue_evalue", "core.pvalue_evalue"),
    ("fbst.core", "standardized_evalue", "core.standardized_evalue"),
)
CLI_PATCHES = LIBRARY_PATCHES + (
    ("fbst.cli", "load_draws", "io.load_draws"),
    ("fbst.cli", "format_result", "io.format_result"),
    ("fbst.cli", "fbst_pipeline", "core.fbst_pipeline"),
    ("fbst.cli", "render_fbst_plot", "viz.render_fbst_plot"),
)
ORACLE_PATCHES = (("fbst.oracle", "ttest_metropolis", "oracle.ttest_metropolis"),)


def _draws_times_nodes(args, kwargs, estimate) -> float:
    sample = args[0] if args else kwargs["sample"]
    draws = getattr(sample, "draws", sample)
    return float(len(draws)) * float(len(estimate.grid))


def _file_bytes(args, kwargs, _) -> float:
    spec = args[0] if args else kwargs["spec"]
    return float(os.path.getsize(spec.path))


def _text_bytes(args, kwargs, document) -> float:
    return float(len(document.encode("utf-8")))


# work each span did, for the per-layer rates
WORK = {
    "density.kde_fit": _draws_times_nodes,
    "io.load_draws": _file_bytes,
    "viz.render_fbst_plot": _text_bytes,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, work or None]
        self._stack = []
        self.missing = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if name in WORK:
            span[4] = WORK[name](args, kwargs, result)
        return result

    @contextmanager
    def patched(self, patches):
        """Wrap each patch point for the duration of the block.

        A point the program no longer has is skipped and listed in
        `missing`, so that its layer reads zero instead of the run failing.
        """
        saved = []
        for module_name, attr, name in patches:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))

            def traced(*args, _fn=fn, _name=name, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            setattr(module, attr, functools.wraps(fn)(traced))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def totals(self) -> dict:
        """Per span name: self time, call count, and work with the self time
        of the calls that did it (a call that raised did none)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for (name, start, end, _, work), inner in zip(self.spans, child_time):
            entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0, "work": 0.0,
                                             "work_s": 0.0})
            entry["self_s"] += end - start - inner
            entry["calls"] += 1
            if work is not None:
                entry["work"] += work
                entry["work_s"] += end - start - inner
        return totals


def layer_metrics(totals: dict, import_s: float, overhead_s: float) -> dict:
    """The per-layer metrics of one traced round; layers not called read 0."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def rate(numerator, denominator, scale):
        return numerator * scale / denominator if denominator > 0 else 0.0

    load_s = get("io.load_draws", "self_s")
    kde_s = get("density.kde_fit", "self_s")
    values = {
        "cli.import.s": (import_s, "s"),
        "cli.main.s": (get("cli.main", "self_s"), "s"),
        "io.load_draws.s": (load_s, "s"),
        "io.load_draws.calls": (get("io.load_draws", "calls"), "count"),
        "io.load_draws.mb_per_s":
            (rate(get("io.load_draws", "work"), get("io.load_draws", "work_s"), 1e-6), "MB/s"),
        "io.format_result.s": (get("io.format_result", "self_s"), "s"),
        "density.kde_fit.s": (kde_s, "s"),
        "density.kde_fit.calls": (get("density.kde_fit", "calls"), "count"),
        "density.kde_fit.ns_per_draw_node":
            (rate(get("density.kde_fit", "work_s"), get("density.kde_fit", "work"), 1e9), "ns"),
        "density.silverman_bandwidth.s": (get("density.silverman_bandwidth", "self_s"), "s"),
        "core.surprise_fit.s": (get("core.surprise_fit", "self_s"), "s"),
        "core.tangential_region.s": (get("core.tangential_region", "self_s"), "s"),
        "core.evalue_grid.s": (get("core.evalue_grid", "self_s"), "s"),
        "core.evalue_mc.s": (get("core.evalue_mc", "self_s"), "s"),
        "core.fbst_pipeline.calls": (get("core.fbst_pipeline", "calls"), "count"),
        "core.pvalue_evalue.s": (get("core.pvalue_evalue", "self_s"), "s"),
        "core.standardized_evalue.s": (get("core.standardized_evalue", "self_s"), "s"),
        "viz.render_fbst_plot.s": (get("viz.render_fbst_plot", "self_s"), "s"),
        "viz.render_fbst_plot.calls": (get("viz.render_fbst_plot", "calls"), "count"),
        "viz.svg_bytes": (get("viz.render_fbst_plot", "work"), "bytes"),
        "oracle.ttest_metropolis.s": (get("oracle.ttest_metropolis", "self_s"), "s"),
        "trace.overhead.s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
