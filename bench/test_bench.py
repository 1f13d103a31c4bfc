"""Tests of the benchmark itself: its tracer, its checks and its output.

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracing

run.load_program()

from dtclassify import classify, harness, theory  # noqa: E402
from dtclassify.covariance import CovarianceSpec, MixingMatrix  # noqa: E402
from dtclassify.model import ScenarioSpec  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_config(reps=6):
    """All four rules, a redrawn delocalized mean and a non-identity Sigma."""
    return harness.ExperimentConfig(
        p=12, n1=20, n2=20, covariance=CovarianceSpec.equal_corr(12, 0.3),
        scenario=ScenarioSpec("delocalized", 3), reps=reps, master_seed=5)


def errors(result):
    return {clf: r.per_rep_errors for clf, r in result.classifiers.items()}


def assert_same_errors(a, b):
    assert a.keys() == b.keys()
    for clf in a:
        np.testing.assert_array_equal(a[clf], b[clf])


def test_tracing_changes_no_result_and_covers_replication_time():
    original_rep = harness.run_replication
    original_mix = MixingMatrix.__dict__["from_spec"]
    plain = errors(harness.run_experiment(small_config()))
    with tracing.Tracer() as tracer:
        traced = errors(harness.run_experiment(small_config()))
    assert_same_errors(plain, traced)

    names = {span[0] for span in tracer.spans}
    assert names == {layer for layer, _, _ in tracing.LAYERS} - {"io.emit"}
    assert tracer.counts["harness.replication.calls"] == 6
    assert tracer.counts["model.sample.calls"] == 4 * 6
    assert tracer.counts["model.variates"] == 6 * (20 + 20 + 20 + 20) * 12
    assert tracer.counts["covariance.inverse_covariance.calls"] > 0
    inside = sum(tracer.layer_self(within="harness.replication").values())
    assert inside == pytest.approx(tracer.total("harness.replication"),
                                   rel=1e-9)

    assert harness.run_replication is original_rep
    assert MixingMatrix.__dict__["from_spec"] is original_mix


def test_workers_one_and_two_give_identical_errors():
    config = small_config(reps=8)
    assert_same_errors(errors(harness.run_experiment(config, workers=1)),
                       errors(harness.run_experiment(config, workers=2)))


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_printed_metrics_match_spec(monkeypatch, capsys, trace, kind):
    # a tiny sweep keeps the run short; its statistical checks may fail
    monkeypatch.setitem(run.WORKLOADS, "dsweep",
                        run.Dsweep(p_grid=(20,), reps=2))
    assert run.main(["--workload", "dsweep", "--seed", "1",
                     "--seconds", "0", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == (6 if trace == "1" else 2)
    assert result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_spec_names_the_workloads_and_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dsweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_limits_agree_with_the_package_theory():
    for p in (50, 250, 450):
        delta2 = run.Dsweep().delta2(p)
        inputs = theory.TheoryInputsD.from_design(p, 250, 250, delta2)
        phi1, phi2 = checks.d_limits(p, 250, 250, delta2)
        assert phi1 == pytest.approx(theory.d_misclass(inputs), abs=1e-12)
        assert phi2 == pytest.approx(
            theory.normal_cdf(theory.theta2(inputs.y, delta2)), abs=1e-12)
    # the published Table 4 limits at n = 100 and 500 (acceptance criterion 4)
    assert 100 * checks.t_limit(100) == pytest.approx(13.35, abs=0.01)
    assert 100 * checks.t_limit(500) == pytest.approx(7.47, abs=0.01)


def test_dsweep_check_rejects_perturbed_errors():
    sweep = run.Dsweep()
    limits = {p: checks.d_limits(p, 250, 250, sweep.delta2(p))
              for p in sweep.p_grid}
    exact = {p: phi1 for p, (phi1, _) in limits.items()}
    assert checks.check_dsweep(exact, 250, 250, sweep.delta2) == []
    shifted = {p: e + 0.05 for p, e in exact.items()}
    assert checks.check_dsweep(shifted, 250, 250, sweep.delta2)
    classical = {p: phi2 for p, (_, phi2) in limits.items()}
    assert checks.check_dsweep(classical, 250, 250, sweep.delta2)


def test_determinant_check_rejects_flipped_signs():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 6))
    Y = rng.standard_normal((12, 6)) + 0.5
    Z = rng.standard_normal((10, 6)) + 0.25
    stats = classify.d_statistics(classify.fit(X, Y), Z)
    assert checks.determinant_signs(X, Y, Z, stats) == []
    assert len(checks.determinant_signs(X, Y, Z, -stats)) == len(Z)


def table1_rows():
    return [{"rho": repr(rho), **{f"{rule}_median": repr(median)
                                  for rule, (median, _) in cells.items()}}
            for rho, cells in checks.TABLE1.items()]


def test_table1_check_rejects_perturbed_medians():
    assert checks.check_table1(table1_rows(), 50) == []
    bumped = table1_rows()
    bumped[5]["nb_median"] = repr(24.6 + 3.0)
    assert checks.check_table1(bumped, 50)
    # D error rising from rho = 0 to 0.1, each cell within its tolerance
    rising = table1_rows()
    rising[0]["d_median"], rising[1]["d_median"] = "8.6", "10.2"
    fails = checks.check_table1(rising, 50)
    assert fails and all("rises" in f for f in fails)
    assert checks.check_table1(table1_rows()[:-1], 50)


def table4_rows():
    return [{"n1": str(n), "t_median": repr(median),
             "t_theory": repr(100.0 * checks.t_limit(n))}
            for n, (median, _) in checks.TABLE4.items()]


def test_table4_check_rejects_perturbed_medians_and_theory():
    assert checks.check_table4(table4_rows(), 50) == []
    bumped = table4_rows()
    bumped[0]["t_median"] = repr(13.0 + 3.0)
    assert checks.check_table4(bumped, 50)
    overlay = table4_rows()
    overlay[4]["t_theory"] = repr(float(overlay[4]["t_theory"]) + 1e-3)
    assert checks.check_table4(overlay, 50)
    flat = table4_rows()
    for row in flat:
        row["t_median"] = "9.0"
    assert any("fall" in f for f in checks.check_table4(flat, 50))
