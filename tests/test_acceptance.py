"""End-to-end acceptance suite.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions; the pytest verdict per test is the pass/fail record. The heavy
Monte Carlo grids are shared through module-scoped fixtures.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from dtclassify.classify import d_criterion_det, d_statistics, fit
from dtclassify.cli import main
from dtclassify.covariance import CovarianceSpec
from dtclassify.data import ingest_csv
from dtclassify.harness import (
    ExperimentConfig,
    classify_dataset,
    run_experiment,
    trace_inputs,
)
from dtclassify.model import InnovationSpec, ScenarioSpec
from dtclassify.theory import (
    TheoryInputsD,
    TheoryInputsT,
    exact_trace_moments,
    mp_empirical,
    mp_limits,
    normal_cdf,
    t_misclass,
    theta1,
    theta2,
)

DATA_DIR = Path(__file__).parent / "data"

N1 = N2 = 250  # training sizes of the dimension-sweep grid (n = 498)
GRID_P = tuple(range(50, 451, 50))


def sweep_config(p, reps, master_seed=1001):
    """Identity covariance, flat mean shift with y / Delta^2 = 3/4."""
    n = N1 + N2 - 2
    delta2 = (4.0 / 3.0) * (p / n)
    return ExperimentConfig(
        p=p, n1=N1, n2=N2, covariance=CovarianceSpec.identity(p),
        scenario=ScenarioSpec("delocalized", 10), classifiers=("d",),
        reps=reps, master_seed=master_seed, m1=100, m2=100,
        mu2_override=np.full(p, np.sqrt(delta2 / p)), theory_overlay=False,
    )


@pytest.fixture(scope="module")
def dimension_sweep():
    """Empirical D-criterion error across the full p grid, 2000 reps each."""
    out = {}
    for p in GRID_P:
        result = run_experiment(sweep_config(p, reps=2000))
        out[p] = result.classifiers["d"].mean_error_pct / 100.0
    return out


def corr_table(kind, rho, classifiers, reps=200, seed=2024):
    sigma = CovarianceSpec(kind, 125, rho=rho) if rho else \
        CovarianceSpec.identity(125)
    config = ExperimentConfig(
        p=125, n1=250, n2=250, covariance=sigma,
        scenario=ScenarioSpec("delocalized", 10),
        classifiers=classifiers, reps=reps, master_seed=seed,
    )
    return run_experiment(config).classifiers


def test_criterion_01_determinant_equivalence():
    """The quadratic-form rule matches the determinant comparison exactly."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        p = int(rng.integers(1, 11))
        n1 = int(rng.integers(p + 3, 31))
        n2 = int(rng.integers(p + 3, 31))
        B = rng.standard_normal((p, p))
        L = np.linalg.cholesky(B @ B.T + p * np.eye(p))
        X = rng.standard_normal((n1, p)) @ L.T
        Y = rng.standard_normal((n2, p)) @ L.T + rng.uniform(0, 2)
        z = rng.standard_normal(p) @ L.T
        (fast,) = d_statistics(fit(X, Y), z)
        slow = d_criterion_det(X, Y, z)
        assert (fast <= 0) == (slow <= 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: 1000/1000 label agreements in {elapsed:.2f} s")


def test_criterion_02_limit_accuracy(dimension_sweep):
    """Empirical error tracks the shrunken-limit prediction within 0.02."""
    n = N1 + N2 - 2
    worst = 0.0
    for p in (50, 150, 250, 350, 450):
        y = p / n
        pred = normal_cdf(theta1(TheoryInputsD(y, N1 / n, (4.0 / 3.0) * y)))
        gap = abs(dimension_sweep[p] - pred)
        worst = max(worst, gap)
        assert gap <= 0.02, f"p={p}: |{dimension_sweep[p]:.4f}-{pred:.4f}|"
    print(f"PASS criterion 2: max |empirical - prediction| = {worst:.4f}")


def test_criterion_03_shrunken_vs_classical_limit(dimension_sweep):
    """The shrunken limit beats the classical one at every grid point."""
    n = N1 + N2 - 2
    for p in GRID_P:
        y = p / n
        d2 = (4.0 / 3.0) * y
        phi1 = normal_cdf(theta1(TheoryInputsD(y, N1 / n, d2)))
        phi2 = normal_cdf(theta2(y, d2))
        gap = abs(phi1 - phi2)
        assert 0.03 <= gap <= 0.06, f"y={y:.2f}: gap {gap:.4f}"
        emp = dimension_sweep[p]
        assert abs(emp - phi1) < abs(emp - phi2), \
            f"y={y:.2f}: empirical closer to the classical limit"
    print("PASS criterion 3: gap in [0.03, 0.06] and empirical nearer "
          "the shrunken limit at all 9 grid points")


def test_criterion_04_trace_rule_medians():
    """Trace-rule medians and spreads under delocalization, p = 500."""
    results = {}
    for n in (100, 500):
        config = ExperimentConfig(
            p=500, n1=n, n2=n, covariance=CovarianceSpec.identity(500),
            scenario=ScenarioSpec("delocalized", 10), classifiers=("t",),
            reps=200, master_seed=404,
        )
        results[n] = run_experiment(config).classifiers["t"]
    assert results[100].median_error_pct == pytest.approx(13.00, abs=1.0)
    assert results[100].se_pct == pytest.approx(2.52, abs=0.6)
    assert results[500].median_error_pct == pytest.approx(7.40, abs=0.7)

    delta = np.full(500, np.sqrt(10.0 / 500.0))  # E||delta||^2 = 10
    spec = CovarianceSpec.identity(500)
    pred100 = 100.0 * t_misclass(
        TheoryInputsT.from_delta(delta, spec, 100, 100), "v2")
    pred500 = 100.0 * t_misclass(
        TheoryInputsT.from_delta(delta, spec, 500, 500), "v2")
    assert pred100 == pytest.approx(13.35, abs=0.01)
    assert pred500 == pytest.approx(7.47, abs=0.01)
    assert abs(pred100 - results[100].median_error_pct) <= 1.0
    assert abs(pred500 - results[500].median_error_pct) <= 1.0
    print(f"PASS criterion 4: medians {results[100].median_error_pct:.2f} / "
          f"{results[500].median_error_pct:.2f} vs predictions "
          f"{pred100:.2f} / {pred500:.2f}")


def test_criterion_05_equal_correlation_spot_checks():
    """Published equal-correlation medians, normal samples, 200 reps."""
    refs_d = {0.0: 9.6, 0.5: 3.4, 0.9: 0.0}
    medians = {}
    for rho, ref in refs_d.items():
        res = corr_table("equal_corr", rho, ("d", "nb", "oracle"))
        medians[rho] = res
        assert res["d"].median_error_pct == pytest.approx(ref, abs=1.0), \
            f"rho={rho}"
    assert medians[0.5]["nb"].median_error_pct == pytest.approx(24.6, abs=1.5)
    assert medians[0.0]["oracle"].median_error_pct == pytest.approx(5.6,
                                                                    abs=0.8)
    print("PASS criterion 5: equal-correlation medians "
          + ", ".join(f"rho={r}: {m['d'].median_error_pct:.1f}"
                      for r, m in medians.items()))


def test_criterion_06_autoregressive_spot_checks():
    """Published AR(1) medians for both rules, 200 reps."""
    refs = {0.0: (9.6, 6.2), 0.5: (20.8, 17.8), 0.9: (17.0, 37.0)}
    seen = {}
    for rho, (ref_d, ref_t) in refs.items():
        res = corr_table("ar1", rho, ("d", "t"))
        seen[rho] = (res["d"].median_error_pct, res["t"].median_error_pct)
        assert seen[rho][0] == pytest.approx(ref_d, abs=1.5), f"rho={rho} D"
        assert seen[rho][1] == pytest.approx(ref_t, abs=1.5), f"rho={rho} T"
    print("PASS criterion 6: AR(1) medians "
          + ", ".join(f"rho={r}: D={d:.1f} T={t:.1f}"
                      for r, (d, t) in seen.items()))


def test_criterion_07_exact_moment_oracle():
    """Exact mean/variance of the trace statistic vs 10^5 direct draws."""
    p, n1, n2, N = 50, 50, 50, 10**5
    rng = np.random.default_rng(12345)
    sig = rng.uniform(0.5, 2.0, p)
    delta = rng.uniform(0.1, 1.0, p)
    innov = InnovationSpec("gamma_shifted")
    inputs = TheoryInputsT.from_delta(delta, CovarianceSpec.diagonal(sig),
                                      n1, n2, innov, innov)
    mean_th, var_th = exact_trace_moments(inputs)

    rs = np.sqrt(sig)
    ez = innov.sample(rng, (N, p))
    ex = innov.sample_mean(rng, n1, (N, p))
    ey = innov.sample_mean(rng, n2, (N, p))
    a1, a2 = n1 / (n1 + 1.0), n2 / (n2 + 1.0)
    stat = (a1 * np.sum(sig * (ez - ex) ** 2, axis=1)
            - a2 * np.sum((rs * (ez - ey) - delta) ** 2, axis=1))
    mean_rel = abs(np.mean(stat) - mean_th) / abs(mean_th)
    var_rel = abs(np.var(stat, ddof=1) - var_th) / var_th
    assert mean_rel <= 0.01
    assert var_rel <= 0.03
    print(f"PASS criterion 7: mean within {100 * mean_rel:.2f}%, "
          f"variance within {100 * var_rel:.2f}%")


def test_criterion_08_variance_truncation_ordering():
    """The O(p/n) variance beats the leading-order one for skewed samples."""
    innov = InnovationSpec("gamma_shifted")
    config = ExperimentConfig(
        p=500, n1=100, n2=200, covariance=CovarianceSpec.identity(500),
        scenario=ScenarioSpec("delocalized", 10),
        innovation1=innov, innovation2=innov, classifiers=("t",),
        reps=2000, master_seed=808, m1=200, m2=10, theory_overlay=False,
    )
    emp = run_experiment(config).classifiers["t"].mean_error_pi1_pct / 100.0

    inputs = trace_inputs(config)
    preds = {variant: t_misclass(inputs, variant) for variant in ("v1", "v3")}
    assert abs(emp - preds["v1"]) <= abs(emp - preds["v3"])
    assert abs(emp - preds["v1"]) <= 0.015
    print(f"PASS criterion 8: empirical {emp:.4f}, refined {preds['v1']:.4f},"
          f" leading-order {preds['v3']:.4f}")


def test_criterion_09_spectral_diagnostics():
    """Normalized inverse-trace diagnostics against their y = 1/2 limits."""
    rng = np.random.default_rng(909)
    t1, t2, _, _ = mp_empirical(400, 200, InnovationSpec("normal"), rng)
    lim = mp_limits(0.5)
    assert abs(t1 - lim.a1) < 0.05
    assert abs(t2 - lim.a2) < 0.5
    print(f"PASS criterion 9: tr(S^-1)/p = {t1:.4f} (limit 2), "
          f"tr(S^-2)/p = {t2:.4f} (limit 8)")


LEUKEMIA_ENV = "DTCLASSIFY_LEUKEMIA_DIR"


def test_criterion_10_real_data_pathway():
    """Leukemia benchmark if files are supplied; bundled synthetic otherwise."""
    leuk_dir = os.environ.get(LEUKEMIA_ENV)
    if leuk_dir:
        base = Path(leuk_dir)
        train = ingest_csv(base / "train_features.csv",
                           labels_path=base / "train_labels.csv")
        test = ingest_csv(base / "test_features.csv",
                          labels_path=base / "test_labels.csv")
        out = classify_dataset(train, test, ("t",))
        assert out["t"].train_errors == 0
        assert out["t"].test_errors == 2
        print("PASS criterion 10: leukemia trace-rule errors 0 train / "
              "2 test")
    else:
        print(f"notice: {LEUKEMIA_ENV} not set; leukemia check skipped, "
              "using the bundled synthetic dataset")
    ds = ingest_csv(DATA_DIR / "synthetic_40x100_features.csv",
                    labels_path=DATA_DIR / "synthetic_40x100_labels.csv")
    assert ds.features.shape == (40, 100)
    out = classify_dataset(ds, ds, ("t", "nb"))
    assert out["t"].train_errors == 0 and out["t"].test_errors == 0
    print("PASS criterion 10: synthetic 40x100 dataset classified 0 / 0")


def test_criterion_11_worker_determinism(tmp_path):
    """Identical outputs regardless of the worker count."""
    config = tmp_path / "run.ini"
    config.write_text(
        "[experiment]\np = 10\nn1 = 20\nn2 = 20\nreps = 16\nseed = 99\n"
    )
    for workers, sub in ((1, "w1"), (8, "w8")):
        code = main(["simulate", "--config", str(config),
                     "--workers", str(workers),
                     "--out", str(tmp_path / sub), "--id", "det"])
        assert code == 0
    for name in ("det_results.csv", "det_result.json"):
        a = (tmp_path / "w1" / name).read_bytes()
        b = (tmp_path / "w8" / name).read_bytes()
        assert a == b, f"{name} differs between 1 and 8 workers"
    print("PASS criterion 11: 1-worker and 8-worker outputs byte-identical")
