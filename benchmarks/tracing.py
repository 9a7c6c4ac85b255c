"""In-process tracing of collabmetrics from outside the package.

A Tracer replaces public functions of the package's modules with
wrappers, under every module attribute that holds them, so a call is
seen whichever import path the caller used (``ind.compute_indicators``
in cli, the name ``compute_indicators`` imported into reports, ...).
Stage functions get spans; per-publication functions get counts only,
because a span per call would cost more than the call.  Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, function) -> span name
SPANS = {
    ("corpus", "load_corpus"): "corpus.load",
    ("corpus", "validate_corpus"): "corpus.validate",
    ("indicators", "compute_indicators"): "indicators.compute",
    ("indicators", "write_indicators_csv"): "indicators.write_csv",
    ("indicators", "read_indicators_csv"): "indicators.read_csv",
    ("aggregate", "normalize_to_sds_mean"): "aggregate.normalize",
    ("aggregate", "aggregate_area"): "aggregate.area",
    ("aggregate", "filter_small_universities"): "aggregate.filter",
    ("aggregate", "write_aggregates_csv"): "aggregate.write_csv",
    ("aggregate", "read_aggregates_csv"): "aggregate.read_csv",
    ("reports", "build_crosstab"): "reports.crosstab",
    ("reports", "build_area_profile"): "reports.area_profile",
    ("reports", "build_dispersion_table"): "reports.dispersion",
    ("reports", "build_top_sector_table"): "reports.top_sectors",
    ("reports", "build_correlation_table"): "reports.correlation",
    ("reports", "emit_crosstab"): "reports.emit",
    ("reports", "emit_area_profile"): "reports.emit",
    ("reports", "emit_dispersion"): "reports.emit",
    ("reports", "emit_top_sectors"): "reports.emit",
    ("reports", "emit_correlation"): "reports.emit",
    ("stats", "quartile_bins"): "stats.quartile_bins",
    ("synth", "generate_corpus"): "synth.generate",
    ("synth", "write_synthetic"): "synth.write",
}

# (module, function) -> count of calls
COUNTS = {
    ("corpus", "classify_collaboration"): "corpus.classify_calls",
    ("stats", "associate"): "stats.associate_calls",
}

# span name -> counts taken from the wrapped function's result
RESULT_COUNTS = {
    "indicators.compute": lambda r: {"indicators.compute_calls": 1, "indicators.cells": len(r)},
    "aggregate.area": lambda r: {"aggregate.rows": len(r)},
    "aggregate.filter": lambda r: {"aggregate.excluded": len(r.excluded)},
    "synth.generate": lambda r: {"synth.publications": len(r.corpus.publications)},
}

# spans opened by the benchmark around one CLI command are named "cli.<command>"
CLI_PREFIX = "cli."


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, operation]
        self.counts = defaultdict(lambda: defaultdict(int))  # operation -> name -> n
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, fn, name):
        result_counts = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if result_counts:
                for key, n in result_counts(result).items():
                    self.counts[self.op][key] += n
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.op][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module_name: str, attr: str, make):
        original = getattr(sys.modules[f"collabmetrics.{module_name}"], attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if name != "collabmetrics" and not name.startswith("collabmetrics."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    @contextlib.contextmanager
    def installed(self, op):
        """Trace the package while the block runs, as operation ``op``."""
        import collabmetrics.cli  # noqa: F401  (every module is loaded before patching)

        self.op = op
        for (module, attr), name in SPANS.items():
            self._patch(module, attr, lambda fn, name=name: self._span_wrapper(fn, name))
        for (module, attr), name in COUNTS.items():
            self._patch(module, attr, lambda fn, name=name: self._count_wrapper(fn, name))
        try:
            yield self
        finally:
            for module, key, original in reversed(self._patches):
                setattr(module, key, original)
            self._patches.clear()
            self.op = None

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values: self seconds of each span name (command spans
        pooled as ``cli.self``) and counts, each summed per operation and
        then the median over the operations in which the layer ran."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_op = defaultdict(dict)
        for (name, start, end, _parent, op), children in zip(self.spans, child_time):
            key = ("cli.self" if name.startswith(CLI_PREFIX) else name) + "_s"
            per_op[op][key] = per_op[op].get(key, 0.0) + (end - start) - children
        for op, counts in self.counts.items():
            per_op[op].update(counts)
        samples = defaultdict(list)
        for values in per_op.values():
            for name, value in values.items():
                samples[name].append(value)
        return {name: statistics.median(values) for name, values in samples.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
