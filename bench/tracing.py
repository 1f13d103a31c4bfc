"""Spans and counts around dtclassify's layers, installed from outside.

The package is not edited: ``Tracer.install`` replaces each public function
named in ``LAYERS`` with a wrapper, in every ``dtclassify`` module that
holds a reference to it (``from .model import make_scenario_means`` makes a
second binding in ``harness``), and ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or ``None``. Spans are kept in memory. A span's self time is
its duration minus the durations of its direct children; the program runs
the traced calls on one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (layer, module, attribute path). Several functions may share one layer:
# the naive Bayes rule is its pooled variances plus its statistics.
LAYERS = (
    ("harness.experiment", "dtclassify.harness", "run_experiment"),
    ("harness.replication", "dtclassify.harness", "run_replication"),
    ("model.sample", "dtclassify.model", "PopulationModel.sample"),
    ("model.scenario_means", "dtclassify.model", "make_scenario_means"),
    ("covariance.mixing_matrix", "dtclassify.covariance",
     "MixingMatrix.from_spec"),
    ("classify.fit", "dtclassify.classify", "fit"),
    ("classify.d_statistics", "dtclassify.classify", "d_statistics"),
    ("classify.t_statistics", "dtclassify.classify", "t_statistics"),
    ("classify.nb", "dtclassify.classify", "naive_bayes_statistics"),
    ("classify.nb", "dtclassify.harness", "pooled_variances_from_data"),
    ("classify.oracle", "dtclassify.classify", "oracle_statistics"),
    ("theory.overlay", "dtclassify.harness", "theory_predictions"),
    ("io.emit", "dtclassify.io", "emit_report"),
    ("io.emit", "dtclassify.io", "emit_results"),
)

# Counted without a span, so their time stays in the caller's self time:
# the p x p inverse is built inside the scenario means, the oracle and the
# theory overlay, and each of those layers should show its cost.
COUNTED = (
    ("covariance.inverse_covariance", "dtclassify.covariance",
     "inverse_covariance"),
)


def _resolve(module: str, path: str):
    """(owner, attribute name, raw attribute) for 'func' or 'Class.method'."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    raw = owner.__dict__[attr] if isinstance(owner, type) else \
        getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Records spans and counts while installed; restores the package after."""

    def __init__(self, layers=LAYERS, counted=COUNTED):
        self.layers = tuple(layers)
        self.counted = tuple(counted)
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, counts = self.spans, self._open, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0,
                   stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if name == "model.sample":
                counts["model.variates"] += out.size
            elif name == "classify.d_statistics":
                counts["classify.d_queries"] += out.shape[0]
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def _replace(self, module, path, make):
        owner, attr, raw = _resolve(module, path)
        if isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(make(raw.__func__)))
            return
        wrapped = make(raw)
        if isinstance(owner, type):
            self._set(owner, attr, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "dtclassify" and \
                    mod.__dict__.get(attr) is raw:
                self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, module, path in self.layers:
            self._replace(module, path, lambda fn, n=name: self._spanned(n, fn))
        for name, module, path in self.counted:
            self._replace(module, path, lambda fn, n=name: self._counted(n, fn))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries -----------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(end - start) - c
                for (_, start, end, _), c in zip(self.spans, child)]

    def layer_self(self, within: str | None = None) -> Counter:
        """Self time per layer, optionally only inside spans named ``within``."""
        inside = [False] * len(self.spans)
        totals: Counter = Counter()
        for i, ((name, _, _, parent), own) in enumerate(
                zip(self.spans, self.self_times())):
            inside[i] = name == within or (
                parent is not None and inside[parent])
            if within is None or inside[i]:
                totals[name] += own
        return totals

    def total(self, name: str) -> float:
        """Summed duration of the spans named ``name``."""
        return sum(end - start for n, start, end, _ in self.spans
                   if n == name)


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, timed around a function doing nothing.

    The traced and untraced rounds of a workload differ by more from run to
    run than the spans cost, so the tracing overhead is this cost times the
    number of spans recorded.
    """
    def nothing():
        return None

    wrapped = Tracer((), ())._spanned("calibration", nothing)
    timings = []
    for fn in (nothing, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - start)
    return max(timings[1] - timings[0], 0.0) / calls
