"""Spans and counters around the calls into each corrtomo module.

The package is not instrumented; the benchmark replaces the module
attributes through which the package calls its own public functions with
timing wrappers for the length of a traced round, and restores them
afterwards.  A span records its name, start, end, its parent span and the
operation (one experiment run) it belongs to.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name).  A function is wrapped in every module
# that calls it through its own global name.
WRAPPED = [
    ("corrtomo.experiments", "run", "experiments.run"),
    ("corrtomo.experiments", "build_model", "noise.build_model"),
    ("corrtomo.device", "random_identity_sequences", "device.random_identity_sequences"),
    ("corrtomo.experiments", "random_identity_sequences", "device.random_identity_sequences"),
    ("corrtomo.device", "run_circuit", "device.run_circuit"),
    ("corrtomo.experiments", "run_circuit", "device.run_circuit"),
    ("corrtomo.experiments", "select_fiducials", "tomography.select_fiducials"),
    ("corrtomo.experiments", "collect_data", "tomography.collect_data"),
    ("corrtomo.linear_inversion", "collect_data", "tomography.collect_data"),
    ("corrtomo.experiments", "verify_factorization", "tomography.verify_factorization"),
    ("corrtomo.experiments", "predict", "tomography.predict"),
    ("corrtomo.experiments", "svd_truncate", "linear_inversion.svd_truncate"),
    ("corrtomo.linear_inversion", "svd_truncate", "linear_inversion.svd_truncate"),
    ("corrtomo.experiments", "gauge_fit_to_ideal", "linear_inversion.gauge_fit"),
    ("corrtomo.linear_inversion", "gauge_fit_to_ideal", "linear_inversion.gauge_fit"),
    ("corrtomo.experiments", "records_from_tomography", "mle.records"),
    ("corrtomo.experiments", "fit", "mle.fit"),
    ("corrtomo.mle", "negative_log_likelihood", "mle.likelihood"),
    ("corrtomo.experiments", "empirical_bound_check", "bounds.empirical_bound_check"),
    ("corrtomo.experiments", "gram_gauge_defect", "bounds.gram_gauge_defect"),
    ("corrtomo.experiments", "save_json", "io.write"),
    ("corrtomo.experiments", "save_matrix_csv", "io.write"),
    ("corrtomo.experiments", "save_rows_csv", "io.write"),
]

TIMED_LAYERS = [
    "noise.build_model",
    "device.random_identity_sequences",
    "device.run_circuit",
    "tomography.select_fiducials",
    "tomography.collect_data",
    "tomography.verify_factorization",
    "tomography.predict",
    "linear_inversion.svd_truncate",
    "linear_inversion.gauge_fit",
    "mle.records",
    "mle.likelihood",
    "mle.fit",
    "bounds.empirical_bound_check",
    "bounds.gram_gauge_defect",
    "io.write",
]


class Tracer:
    """In-memory spans and counters of one traced round."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (span id, parent id, op, name, start, end)
        self.counts: Counter = Counter()
        self.op = ""
        self.last: dict = {}  # latest records and fit, for the follow-up likelihood call
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self.op, name, start, end)

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, args, result)
            if name in ("mle.records", "mle.fit"):
                self.last[name] = result
            return result

        return wrapper

    def _count(self, name: str, args: tuple, result) -> None:
        if name == "device.run_circuit":
            self.counts["device.circuits"] += 1
        elif name == "device.random_identity_sequences" and args and int(args[0]) > 0:
            self.counts["device.accepted"] += len(result)
        elif name == "tomography.predict":
            self.counts["tomography.predict_calls"] += 1
        elif name == "linear_inversion.gauge_fit":
            self.counts["linear_inversion.gauge_fit_evals"] += result.n_evaluations
        elif name == "mle.fit":
            self.counts["mle.fit_evals"] += int(result.diagnostics["n_evaluations"])
        elif name == "io.write":
            self.counts["io.bytes"] += Path(result).stat().st_size

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package functions for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            device = importlib.import_module("corrtomo.device")
            returns_to_zero = device.returns_to_zero
            saved.append((device, "returns_to_zero", returns_to_zero))

            def counted(gates, *args, **kwargs):
                # one call per rejection-sampling draw
                self.counts["device.draws"] += 1
                return returns_to_zero(gates, *args, **kwargs)

            device.returns_to_zero = counted
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals of this round: inclusive seconds per layer, counts and ratios."""
        totals: dict[str, float] = dict.fromkeys(TIMED_LAYERS, 0.0)
        child_time: Counter = Counter()
        for span_id, parent, _op, name, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_s = sum(
            end - start - child_time[span_id]
            for span_id, _parent, _op, name, start, end in self.spans
            if name == "experiments.run"
        )
        out = {f"{layer}_s": totals[layer] for layer in TIMED_LAYERS}
        draws = self.counts["device.draws"]
        out.update(
            {
                "device.draws": draws,
                "device.acceptance": self.counts["device.accepted"] / draws if draws else 0.0,
                "device.circuits": self.counts["device.circuits"],
                "tomography.predict_calls": self.counts["tomography.predict_calls"],
                "linear_inversion.gauge_fit_evals": self.counts["linear_inversion.gauge_fit_evals"],
                "mle.fit_evals": self.counts["mle.fit_evals"],
                "io.bytes": self.counts["io.bytes"],
                "experiments.self_s": self_s,
            }
        )
        return out
