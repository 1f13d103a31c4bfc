#!/usr/bin/env python3
"""Monte Carlo benchmark of dtclassify, one workload per run.

    python3 bench/run.py --workload dsweep --seed 1 --seconds 24 --trace 0

Workloads (see README.md for why each was chosen):

* ``dsweep``    -- D-rule dimension sweep through ``harness.run_experiment``,
                   workers = 1.
* ``table1_w2`` -- ``dtclassify reproduce table1 --workers 2`` through
                   ``cli.main``.
* ``table4``    -- ``dtclassify reproduce table4`` through ``cli.main``,
                   workers = 1.

A run repeats whole rounds of its workload, all on the inputs that
``--seed`` fixes, until ``--seconds`` have passed, checks that every round
gave the same output and that the output is right, and prints one JSON
object as its last line of standard output. With ``--trace 0`` it reports
the end-to-end metrics: medians over rounds of the wall and CPU time,
replications per second, peak memory, and the median of five fresh
processes' set-up time. With ``--trace 1`` each cycle runs the workload
traced at workers 1, then untraced at workers 1 and 2, and it reports the
per-layer metrics. BLAS threads and workers stay at the program's defaults;
the values in effect are printed on the line before the result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracing import COUNTED, LAYERS, Tracer, span_cost

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
ORACLE_STREAM = 7  # RNG stream of the determinant-oracle training sets
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXPERIMENT_ONLY = tuple(layer for layer in LAYERS
                        if layer[0] == "harness.experiment")

END_TO_END_UNITS = {"wall_s": "s", "reps_per_s": "1/s", "setup_s": "s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "model.sample_s": "s", "model.sample_calls": "count",
    "model.variates": "count",
    "model.scenario_means_s": "s", "model.scenario_means_calls": "count",
    "covariance.mixing_matrix_s": "s",
    "covariance.mixing_matrix_calls": "count",
    "covariance.inverse_covariance_calls": "count",
    "classify.fit_s": "s", "classify.fit_calls": "count",
    "classify.d_statistics_s": "s", "classify.d_queries_per_s": "1/s",
    "classify.t_statistics_s": "s", "classify.nb_s": "s",
    "classify.oracle_s": "s",
    "harness.replication_s": "s", "harness.self_s": "s",
    "harness.pool_s": "s", "harness.pool_speedup": "ratio",
    "theory.overlay_s": "s", "io.emit_s": "s", "tracing.overhead_s": "s",
}


class FirstReplication(BaseException):
    """Raised by the set-up probe at the first replication; not an error."""


def load_program():
    """Import dtclassify from this checkout's ``src/`` and from nowhere else."""
    pkg = SRC / "dtclassify"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"bench: no dtclassify sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dtclassify

    if Path(dtclassify.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"bench: dtclassify was imported from "
                         f"{dtclassify.__file__}, not from {pkg}")
    return dtclassify


# -- workloads ---------------------------------------------------------------

class Dsweep:
    """D-rule only: identity Sigma, flat mean shift with y / Delta^2 = 3/4.

    The inputs of acceptance criteria 2-3 on a subset of their p grid. The
    mean is fixed, so no scenario means or Gamma mixing run per replication.
    """

    name = "dsweep"
    workers = 1
    n1 = n2 = 250
    m = 100
    oracle_p = 450
    oracle_sets = 2
    oracle_queries = 5  # per group and training set

    def __init__(self, p_grid=(50, 150, 250, 350, 450), reps=40):
        self.p_grid = tuple(p_grid)
        self.reps = reps
        self.reps_per_round = reps * len(self.p_grid)

    def delta2(self, p: int) -> float:
        return (4.0 / 3.0) * p / (self.n1 + self.n2 - 2)

    def mu2(self, p: int) -> np.ndarray:
        return np.full(p, np.sqrt(self.delta2(p) / p))

    def round(self, seed: int, workers: int):
        """{p: per-replication error %} and the replications that failed."""
        from dtclassify import harness
        from dtclassify.covariance import CovarianceSpec
        from dtclassify.errors import NumericalError
        from dtclassify.model import ScenarioSpec

        out, failed = {}, 0
        for p in self.p_grid:
            config = harness.ExperimentConfig(
                p=p, n1=self.n1, n2=self.n2,
                covariance=CovarianceSpec.identity(p),
                scenario=ScenarioSpec("delocalized", 10), classifiers=("d",),
                reps=self.reps, master_seed=seed, m1=self.m, m2=self.m,
                mu2_override=self.mu2(p), theory_overlay=False,
            )
            try:
                result = harness.run_experiment(config, workers=workers)
            except NumericalError as exc:
                print(f"bench: dsweep p={p}: {exc}", file=sys.stderr)
                failed += self.reps
                continue
            out[p] = result.classifiers["d"].per_rep_errors
        return out, failed

    @staticmethod
    def same(a, b) -> bool:
        return a.keys() == b.keys() and all(
            np.array_equal(a[p], b[p]) for p in a)

    def check(self, out, seed: int) -> list[str]:
        from dtclassify import classify

        means = {p: float(np.mean(e)) / 100.0 for p, e in out.items()}
        fails = checks.check_dsweep(means, self.n1, self.n2, self.delta2)
        rng = np.random.default_rng([seed, ORACLE_STREAM])
        p, q = self.oracle_p, self.oracle_queries
        for _ in range(self.oracle_sets):
            X = rng.standard_normal((self.n1, p))
            Y = rng.standard_normal((self.n2, p)) + self.mu2(p)
            Z = np.vstack([rng.standard_normal((q, p)),
                           rng.standard_normal((q, p)) + self.mu2(p)])
            stats = classify.d_statistics(classify.fit(X, Y), Z)
            fails += checks.determinant_signs(X, Y, Z, stats)
        return fails


class Reproduce:
    """One ``dtclassify reproduce <target> --reps R`` through ``cli.main``."""

    reps = 50  # the smallest count the command accepts

    def __init__(self, name, target, workers, grid_size, check):
        self.name = name
        self.target = target
        self.workers = workers
        self.reps_per_round = self.reps * grid_size
        self._check = check

    def round(self, seed: int, workers: int):
        """The emitted CSV's bytes and the replications that failed."""
        from dtclassify import cli

        out_dir = OUT / self.name
        argv = ["reproduce", self.target, "--reps", str(self.reps),
                "--workers", str(workers), "--seed", str(seed),
                "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            return None, self.reps_per_round
        return (out_dir / f"{self.target}.csv").read_bytes(), 0

    @staticmethod
    def same(a, b) -> bool:
        return a == b

    def check(self, out, seed: int) -> list[str]:
        rows = list(csv.DictReader(io.StringIO(out.decode("utf-8"))))
        return self._check(rows, self.reps)


WORKLOADS = {
    "dsweep": Dsweep(),
    "table1_w2": Reproduce("table1_w2", "table1", 2, len(checks.TABLE1),
                           checks.check_table1),
    "table4": Reproduce("table4", "table4", 1, len(checks.TABLE4),
                        checks.check_table4),
}


# -- measurement -------------------------------------------------------------

def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_round(workload, seed: int, workers: int) -> dict:
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    out, failed = workload.round(seed, workers)
    wall = time.perf_counter() - t0
    return {"out": out, "failed": failed, "wall": wall,
            "cpu": _cpu_s() - cpu0, "reps": workload.reps_per_round,
            "workers": workers}


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_probe(workload, seed: int) -> None:
    """Child side: run until the first replication, print the clock, stop."""
    from dtclassify import harness

    def first(*args, **kwargs):
        raise FirstReplication

    harness.run_replication = first
    try:
        workload.round(seed, 1)
    except FirstReplication:
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)
        return
    raise SystemExit("bench: the workload ran no replication")


def setup_seconds(workload, seed: int) -> float:
    """Process start to first replication, in a fresh interpreter.

    Interpreter start, imports and input construction all count; the
    probe runs the workload at workers = 1, so pool start-up is not set-up.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def blas_threads() -> dict:
    """OpenBLAS threads in effect per loaded library (numpy's and scipy's)."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = fn()
                break
    return found


def settings(workload, dtclassify) -> dict:
    return {
        "workload": workload.name, "workers": workload.workers,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "dtclassify": dtclassify.__version__,
    }


def _med(values) -> float:
    return float(statistics.median(values))


def end_to_end(workload, seed: int, seconds: float):
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(timed_round(workload, seed, workload.workers))
    rss = peak_rss_mb()  # before the probes, which are children too
    wall = _med([r["wall"] for r in rounds])
    metrics = {
        "wall_s": wall,
        "reps_per_s": workload.reps_per_round / wall,
        "setup_s": _med([setup_seconds(workload, seed)
                         for _ in range(SETUP_PROBES)]),
        "cpu_s": _med([r["cpu"] for r in rounds]),
        "peak_rss_mb": rss,
    }
    return rounds, metrics


def layer_metrics(tt: Tracer, t1: Tracer, t2: Tracer, cost: float) -> dict:
    """Per-layer metrics of one cycle.

    ``tt`` traced the workers = 1 round; ``t1`` and ``t2`` timed only
    ``run_experiment`` at workers 1 and 2; ``cost`` is one span's cost.
    """
    own = tt.layer_self()
    n = tt.counts
    d_s = own["classify.d_statistics"]
    return {
        "model.sample_s": own["model.sample"],
        "model.sample_calls": n["model.sample.calls"],
        "model.variates": n["model.variates"],
        "model.scenario_means_s": own["model.scenario_means"],
        "model.scenario_means_calls": n["model.scenario_means.calls"],
        "covariance.mixing_matrix_s": own["covariance.mixing_matrix"],
        "covariance.mixing_matrix_calls": n["covariance.mixing_matrix.calls"],
        "covariance.inverse_covariance_calls":
            n["covariance.inverse_covariance.calls"],
        "classify.fit_s": own["classify.fit"],
        "classify.fit_calls": n["classify.fit.calls"],
        "classify.d_statistics_s": d_s,
        "classify.d_queries_per_s":
            n["classify.d_queries"] / d_s if d_s > 0 else 0.0,
        "classify.t_statistics_s": own["classify.t_statistics"],
        "classify.nb_s": own["classify.nb"],
        "classify.oracle_s": own["classify.oracle"],
        "harness.replication_s": tt.total("harness.replication"),
        "harness.self_s": own["harness.replication"],
        "harness.pool_s": t2.total("harness.experiment"),
        "harness.pool_speedup":
            t1.total("harness.experiment") / t2.total("harness.experiment"),
        "theory.overlay_s": own["theory.overlay"],
        "io.emit_s": own["io.emit"],
        "tracing.overhead_s": len(tt.spans) * cost,
    }


def self_time_gap(tracer: Tracer) -> float:
    """|sum of self times inside replications - replication time|, as a share."""
    total = tracer.total("harness.replication")
    inside = sum(tracer.layer_self(within="harness.replication").values())
    return abs(inside - total) / total


def per_layer(workload, seed: int, seconds: float):
    """Cycles of: traced at workers 1, untraced at 1, untraced at 2.

    The traced round goes first, so that the process's first-round costs
    fall on it and not on the pool comparison. The untraced rounds time
    only ``run_experiment`` (a few spans a round), for the pool figures.
    Pool children's spans are not collected, which is why the layer split
    always comes from the workers = 1 traced round.
    """
    rounds, cycles, fails = [], [], []
    cost = span_cost()
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        tracers = []
        for workers, layers, counted in ((1, LAYERS, COUNTED),
                                         (1, EXPERIMENT_ONLY, ()),
                                         (2, EXPERIMENT_ONLY, ())):
            with Tracer(layers, counted) as tracer:
                rounds.append(timed_round(workload, seed, workers))
            tracers.append(tracer)
        gap = self_time_gap(tracers[0])
        if gap > 0.1:
            fails.append(f"traced self times miss replication time by "
                         f"{100 * gap:.1f}%")
        cycles.append(layer_metrics(*tracers, cost))
    metrics = {name: _med([c[name] for c in cycles])
               for name in PER_LAYER_UNITS}
    return rounds, metrics, fails


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    dtclassify = load_program()
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0

    print(json.dumps({"settings": settings(workload, dtclassify)}),
          flush=True)
    if args.trace:
        rounds, metrics, fails = per_layer(workload, args.seed, args.seconds)
        units = PER_LAYER_UNITS
    else:
        rounds, metrics = end_to_end(workload, args.seed, args.seconds)
        fails, units = [], END_TO_END_UNITS

    print(json.dumps({"rounds": [
        {k: r[k] for k in ("workers", "wall", "cpu", "reps", "failed")}
        for r in rounds]}), flush=True)
    done = [r for r in rounds if r["out"] is not None and not r["failed"]]
    if done:
        if not all(workload.same(done[0]["out"], r["out"]) for r in done):
            fails.append("rounds on the same inputs gave different outputs")
        fails += workload.check(done[0]["out"], args.seed)
    else:
        fails.append("no round completed")
    for msg in fails:
        print(f"bench: check failed: {msg}", file=sys.stderr)

    print(json.dumps({
        "correct": not fails,
        "attempted": sum(r["reps"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
