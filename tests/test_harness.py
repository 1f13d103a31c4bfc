"""Monte Carlo harness: configs, determinism, and sanity of the errors."""

import concurrent.futures
import importlib.util
import multiprocessing
import os
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dtclassify import classify, cli, covariance, harness, lapack, theory
from dtclassify.covariance import CovarianceSpec, MixingMatrix
from dtclassify.data import LabeledDataset
from dtclassify.errors import ConditioningError, DomainError, SingularityError
from dtclassify.harness import (
    ExperimentConfig,
    classify_dataset,
    fit_rows,
    fitted_rule_statistics,
    pooled_variances_from_data,
    run_experiment,
    run_replication,
    theory_predictions,
    trace_inputs,
)
from dtclassify.model import InnovationSpec, ScenarioSpec
from dtclassify.reproduce import RHO_GRID, reproduce

# the package root re-exports the function under the module's name
reproduce_module = importlib.import_module("dtclassify.reproduce")


def load_tracing():
    """The benchmark's tracer, ``bench/tracing.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_config(**overrides):
    defaults = dict(
        p=10, n1=20, n2=20, covariance=CovarianceSpec.identity(10),
        scenario=ScenarioSpec("delocalized", 5), reps=30, master_seed=42,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_dimension_limit_for_d(self):
        with pytest.raises(SingularityError):
            small_config(p=40, covariance=CovarianceSpec.identity(40),
                         scenario=ScenarioSpec("delocalized", 5))

    def test_t_only_allows_large_p(self):
        config = small_config(p=40, covariance=CovarianceSpec.identity(40),
                              classifiers=("t", "nb"))
        assert config.p == 40

    def test_sizes_must_be_at_least_two(self):
        with pytest.raises(DomainError):
            small_config(n1=1)
        with pytest.raises(DomainError):
            small_config(m2=1)

    def test_unknown_classifier(self):
        with pytest.raises(DomainError):
            small_config(classifiers=("d", "knn"))

    def test_repeated_classifier_rejected(self):
        with pytest.raises(DomainError, match=r"more than once: \['t'\]"):
            small_config(classifiers=("t", "t", "oracle"))

    def test_reps_must_be_at_least_one(self):
        with pytest.raises(DomainError, match="reps must be >= 1, got 0"):
            small_config(reps=0)
        assert small_config(reps=1).reps == 1

    def test_covariance_dimension_mismatch(self):
        with pytest.raises(DomainError):
            small_config(p=11)

    def test_mu2_override_length(self):
        with pytest.raises(DomainError):
            small_config(mu2_override=np.ones(3))

    def test_n0_larger_than_p_rejected(self):
        with pytest.raises(DomainError, match="n0 exceeds p"):
            small_config(scenario=ScenarioSpec("localized", 20))
        with pytest.raises(DomainError, match="n0 exceeds p"):
            small_config(scenario=ScenarioSpec("delocalized", 11))
        assert small_config(scenario=ScenarioSpec("localized", 10)).p == 10

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            small_config(master_seed=-1)
        assert small_config(master_seed=0).master_seed == 0

    def test_test_sizes_default_to_training_sizes(self):
        config = small_config(n1=20, n2=30)
        assert config.test1 == 20 and config.test2 == 30
        config = small_config(m1=7, m2=9)
        assert config.test1 == 7 and config.test2 == 9


@pytest.fixture
def fake_pool(monkeypatch):
    """A stand-in executor that records its sizes and the tasks submitted
    to it, and runs each task in-process as it is submitted."""
    sizes, submitted = [], []

    class FakePool:
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args)
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    return SimpleNamespace(sizes=sizes, submitted=submitted,
                           install=lambda: monkeypatch.setattr(
                               concurrent.futures, "ProcessPoolExecutor",
                               FakePool))


class TestReplications:
    def test_separated_populations_are_error_free(self):
        config = small_config(mu2_override=np.full(10, 20.0), reps=5)
        result = run_experiment(config)
        for r in result.classifiers.values():
            assert np.all(r.per_rep_errors == 0.0)

    def test_identical_populations_near_chance(self):
        config = small_config(mu2_override=np.zeros(10), reps=200,
                              m1=100, m2=100, theory_overlay=False)
        result = run_experiment(config)
        for r in result.classifiers.values():
            assert 45.0 < r.mean_error_pct < 55.0

    def test_replication_counts_bounded_by_test_sizes(self):
        config = small_config(m1=6, m2=8)
        (counts,) = run_replication(config, [0])
        for mis1, mis2 in counts.values():
            assert 0 <= mis1 <= 6 and 0 <= mis2 <= 8

    def test_same_seed_same_result(self):
        config = small_config()
        a = run_experiment(config)
        b = run_experiment(config)
        for clf in config.classifiers:
            assert np.array_equal(a.classifiers[clf].per_rep_errors,
                                  b.classifiers[clf].per_rep_errors)

    def test_different_seed_different_result(self):
        a = run_experiment(small_config(master_seed=1))
        b = run_experiment(small_config(master_seed=2))
        assert not np.array_equal(a.classifiers["d"].per_rep_errors,
                                  b.classifiers["d"].per_rep_errors)

    def test_worker_count_does_not_change_results(self):
        config = small_config(reps=20)
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=4)
        for clf in config.classifiers:
            assert np.array_equal(serial.classifiers[clf].per_rep_errors,
                                  parallel.classifiers[clf].per_rep_errors)

    def test_fixed_mu2_shared_across_replications(self):
        # with redraw off, every replication sees the same populations, so
        # rerunning a replication reproduces its counts exactly
        config = small_config(
            scenario=ScenarioSpec("delocalized", 5, redraw_mu2=False))
        assert run_replication(config, [3]) == run_replication(config, [3])

    def test_mirrored_mean_difference_is_statistically_equivalent(self):
        # flipping the sign of the (normal-innovation) mean difference
        # mirrors the whole problem, so error levels must agree
        v = np.full(10, 0.5)
        a = run_experiment(small_config(mu2_override=v, reps=300,
                                        classifiers=("t",), m1=50, m2=50))
        b = run_experiment(small_config(mu2_override=-v, reps=300,
                                        classifiers=("t",), m1=50, m2=50))
        ra, rb = a.classifiers["t"], b.classifiers["t"]
        spread = np.hypot(ra.se_pct, rb.se_pct) / np.sqrt(300)
        assert abs(ra.mean_error_pct - rb.mean_error_pct) < 4 * spread

    def test_single_replication_has_no_spread_estimate(self):
        result = run_experiment(small_config(reps=1))
        r = result.classifiers["d"]
        assert not r.se_defined
        assert r.se_pct == 0.0

    def test_means_drawn_directly_without_d_or_naive_bayes(self,
                                                             monkeypatch):
        # T and the oracle read the training samples only through their
        # means: the row path draws m1 + m2 test rows and two means
        config = small_config(n2=25, m1=6, m2=9, reps=2,
                              innovation1=InnovationSpec("gamma_shifted"),
                              classifiers=("t", "oracle"))
        assert config.sampler == "rows"
        sizes, means = [], []
        real_sample = harness.PopulationModel.sample
        real_mean = harness.PopulationModel.sample_mean
        monkeypatch.setattr(
            harness.PopulationModel, "sample",
            lambda self, n, rng: sizes.append(n) or real_sample(self, n, rng))
        monkeypatch.setattr(
            harness.PopulationModel, "sample_mean",
            lambda self, n, rng: means.append(n) or real_mean(self, n, rng))
        run_replication(config, [0])
        assert sizes == [6, 9] and means == [20, 25]
        sizes.clear()
        means.clear()
        run_replication(small_config(n2=25, m1=6, m2=9, reps=2,
                                     classifiers=("t", "nb")), [0])
        assert sizes == [20, 25, 6, 9] and means == []

    def test_t_errors_agree_in_law_with_rows_drawn(self):
        # T alone draws xbar and ybar; with naive Bayes the n1 + n2 rows
        # are drawn. The T-rule's errors follow one law either way
        from scipy.stats import ks_2samp

        skewed = InnovationSpec("gamma_shifted")
        common = dict(n1=8, n2=12, m1=30, m2=30, reps=800,
                      innovation1=skewed, innovation2=skewed,
                      theory_overlay=False)
        alone = run_experiment(small_config(classifiers=("t",), **common))
        with_nb = run_experiment(small_config(classifiers=("t", "nb"),
                                              **common))
        assert ks_2samp(alone.classifiers["t"].per_rep_errors,
                        with_nb.classifiers["t"].per_rep_errors
                        ).pvalue > 1e-3

    def test_workers_below_one_rejected(self):
        with pytest.raises(DomainError, match="workers"):
            run_experiment(small_config(reps=2), workers=0)

    @pytest.mark.parametrize("cpus, size", [(3, 3), (64, 5), (None, None)])
    def test_pool_capped_at_reps_and_cpus(self, fake_pool, monkeypatch,
                                          cpus, size):
        config = small_config(reps=5)
        serial = run_experiment(config)
        fake_pool.install()
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        pooled = run_experiment(config, workers=10**6)
        assert fake_pool.sizes == ([] if size is None else [size])
        for clf in config.classifiers:
            assert np.array_equal(serial.classifiers[clf].per_rep_errors,
                                  pooled.classifiers[clf].per_rep_errors)

    def test_series_shares_one_pool(self, fake_pool, monkeypatch):
        configs = [small_config(reps=5, master_seed=s) for s in (1, 2, 3)]
        serial = [run_experiment(c) for c in configs]
        fake_pool.install()
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        with harness.worker_pool(3, configs) as pool:
            pooled = [run_experiment(c, pool=pool) for c in configs]
        assert fake_pool.sizes == [3]
        for a, b in zip(serial, pooled):
            for clf in a.classifiers:
                assert np.array_equal(a.classifiers[clf].per_rep_errors,
                                      b.classifiers[clf].per_rep_errors)

    def test_reproduce_target_starts_one_pool(self, fake_pool, monkeypatch):
        serial = reproduce("table4", table_reps=50)
        fake_pool.install()
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        pooled = reproduce("table4", table_reps=50, workers=2)
        assert fake_pool.sizes == [2]
        assert pooled.rows == serial.rows

    def test_reproduce_queues_the_whole_grid_first(self, fake_pool,
                                                   monkeypatch):
        # every chunk of every grid point is submitted before the first
        # point is collected, and each point is collected once, in order
        fake_pool.install()
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        real, seen = reproduce_module.run_experiment, []

        def collect(config, pool):
            seen.append((config.covariance.rho, len(fake_pool.submitted)))
            return real(config, pool=pool)

        monkeypatch.setattr(reproduce_module, "run_experiment", collect)
        reproduce("table1", table_reps=50, workers=2)
        assert seen == [(rho, 20) for rho in RHO_GRID]
        assert [(args[0].covariance.rho, args[1])
                for (args,) in fake_pool.submitted] == [
            (rho, chunk) for rho in RHO_GRID
            for chunk in (range(0, 25), range(25, 50))]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reproduce_frees_each_point_after_its_row(self, fake_pool,
                                                      monkeypatch, workers):
        # a config and its lazy members (Gamma, Sigma^-1) are not kept to
        # the end of the target; only the previous point's result may still
        # hold its config when the next point runs
        fake_pool.install()
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        real, refs, alive = reproduce_module.run_experiment, [], []

        def collect(config, pool):
            fake_pool.submitted.clear()  # the fake's record holds configs
            alive.append(sum(ref() is not None for ref in refs[:-1]))
            refs.append(weakref.ref(config))
            return real(config, pool=pool)

        monkeypatch.setattr(reproduce_module, "run_experiment", collect)
        reproduce("table4", table_reps=50, workers=workers)
        assert len(refs) == 9 and alive == [0] * 9

    def test_single_worker_pool_runs_inline(self, fake_pool, monkeypatch):
        # no executor at one process; each config's replications run when
        # its counts are collected, and equal those of a pool of three
        configs = [small_config(reps=5, master_seed=s) for s in (1, 2, 3)]
        fake_pool.install()
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        ran = []
        real = harness._run_chunk
        monkeypatch.setattr(harness, "_run_chunk",
                            lambda args: ran.append(args) or real(args))
        with harness.worker_pool(1, configs) as pool:
            assert ran == []
            inline = [pool.counts(c) for c in configs]
        assert fake_pool.sizes == []
        assert ran == [(c, range(5)) for c in configs]
        with harness.worker_pool(3, configs) as pool:
            pooled = [pool.counts(c) for c in configs]
        assert fake_pool.sizes == [3]
        assert inline == pooled

    def test_pool_below_one_worker_rejected(self):
        with pytest.raises(DomainError, match="workers"):
            with harness.worker_pool(0, [small_config()]):
                pass

    def test_pooled_variances_helper(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((12, 4))
        Y = rng.standard_normal((10, 4))
        manual = (np.sum((X - X.mean(0)) ** 2, 0)
                  + np.sum((Y - Y.mean(0)) ** 2, 0)) / 20
        assert np.allclose(pooled_variances_from_data(X, Y), manual)


class TestConfigMembers:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Count Gamma builds, oracle inverses and delocalized scales."""
        counts = {"gamma": 0, "sigma_inv": 0, "scale": 0}
        real_from_spec = MixingMatrix.from_spec.__func__

        def from_spec(cls, spec):
            counts["gamma"] += 1
            return real_from_spec(cls, spec)

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(MixingMatrix, "from_spec",
                            classmethod(from_spec))
        monkeypatch.setattr(harness, "inverse_covariance", counted(
            "sigma_inv", harness.inverse_covariance))
        monkeypatch.setattr(harness, "delocalized_scale", counted(
            "scale", harness.delocalized_scale))
        return counts

    def test_construction_builds_nothing(self, calls):
        small_config(covariance=CovarianceSpec.equal_corr(10, 0.3))
        assert calls == {"gamma": 0, "sigma_inv": 0, "scale": 0}

    def test_one_build_per_run_with_every_rule_and_the_overlay(self, calls):
        config = small_config(covariance=CovarianceSpec.equal_corr(10, 0.3),
                              reps=4)
        assert config.theory_overlay and "oracle" in config.classifiers
        run_experiment(config, workers=1)
        assert calls == {"gamma": 1, "sigma_inv": 1, "scale": 1}

    def test_known_mean_difference_overlay_builds_gamma_once(self, calls):
        # the overlay's 1' Gamma^3 delta reads the config's Gamma
        config = small_config(covariance=CovarianceSpec.ar1(10, 0.5),
                              scenario=ScenarioSpec("localized", 3), reps=3)
        assert config.theory_overlay and config.fixed_delta is not None
        run_experiment(config, workers=1)
        assert calls["gamma"] == 1

    def test_t_only_run_never_reads_sigma_inv(self, calls):
        config = small_config(classifiers=("t",), reps=3)
        run_experiment(config)
        assert calls["sigma_inv"] == 0
        assert "sigma_inv" not in vars(config)

    def test_table1_inverts_sigma_once_per_config(self):
        # counted as the benchmark counts it; the oracle, the delocalized
        # scale and the overlay's Delta^2 all read the config's Sigma^-1
        tracing = load_tracing()
        with tracing.Tracer((), tracing.COUNTED) as tracer:
            report = reproduce("table1", table_reps=50)
        assert len(report.rows) == 10
        assert tracer.counts["covariance.inverse_covariance.calls"] == 10

    def test_fixed_mu2_drawn_from_its_own_stream(self):
        config = small_config(
            scenario=ScenarioSpec("delocalized", 5, redraw_mu2=False))
        rng = np.random.default_rng([42, harness.FIXED_MU_STREAM])
        e = harness.delocalized_scale(config.covariance,
                                      config.localized_delta2)
        assert np.array_equal(config.fixed_mu2,
                              rng.uniform(e / 2.0, 3.0 * e / 2.0, 10))
        assert config.fixed_delta is None

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 5])
    def test_replication_stream_is_the_seed_list_stream(self, seed):
        # the uint32 array seeds the stream that the list [seed, r] seeds
        for r in (0, 7, harness.FIXED_MU_STREAM):
            ours = harness.replication_rng(seed, r)
            reference = np.random.default_rng([seed, r])
            np.testing.assert_array_equal(ours.standard_normal(8),
                                          reference.standard_normal(8))
            assert ours.integers(2**63) == reference.integers(2**63)

    def test_known_mean_difference_is_fixed(self):
        config = small_config(scenario=ScenarioSpec("localized", 3))
        assert np.array_equal(config.fixed_delta, [1.0] * 3 + [0.0] * 7)
        assert config.fixed_mu2 is config.fixed_delta
        assert small_config().fixed_mu2 is None


class TestBlasThreads:
    @pytest.fixture
    def two_threads(self):
        """OpenBLAS at 2 threads for the test, then as before."""
        before = lapack.blas_threads()
        lapack.set_blas_threads(2)
        yield
        lapack.set_blas_threads(before)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replications_run_on_one_thread(self, two_threads, monkeypatch,
                                            workers):
        real = harness.run_replication
        caller = os.getpid()

        def checked(*args):
            # runs in the pool children too: they are forked after the patch
            threads = lapack.blas_threads()
            if threads != 1:
                raise AssertionError(f"BLAS threads in replication: {threads}")
            # and a pool child has started no idle OpenBLAS worker threads
            tasks = len(os.listdir("/proc/self/task"))
            if os.getpid() != caller and tasks != 1:
                raise AssertionError(f"{tasks} threads in a pool worker")
            return real(*args)

        monkeypatch.setattr(harness, "run_replication", checked)
        config = small_config(reps=6)
        result = run_experiment(config, workers=workers)
        assert len(result.classifiers["d"].per_rep_errors) == 6

    def test_pool_initializer_pins_spawned_workers(self):
        # a spawned worker imports numpy afresh, at OpenBLAS's default
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=ctx,
                                 initializer=harness._pin_one_blas_thread
                                 ) as pool:
            threads = pool.submit(lapack.blas_threads).result(timeout=120)
        assert threads == 1

    def test_caller_threads_restored_after_return(self, two_threads):
        run_experiment(small_config(reps=3), workers=2)
        assert lapack.blas_threads() == 2

    def test_caller_threads_restored_after_error(self, two_threads,
                                                 monkeypatch):
        def ill_conditioned(*args, **kwargs):
            raise ConditioningError("forced")

        monkeypatch.setattr(classify, "fit", ill_conditioned)
        config = small_config(reps=3, n2=21)  # the row path, which fits
        assert config.sampler == "rows"
        with pytest.raises(ConditioningError, match="replication 0"):
            run_experiment(config)
        assert lapack.blas_threads() == 2

    def test_pool_pins_the_caller_once_per_target(self, two_threads,
                                                  monkeypatch):
        # one pin on entering the pool, one restore after its processes
        # are joined, and nothing between the grid points
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        events, real_set = [], lapack.set_blas_threads

        class Logged(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                events.append("pool")
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                events.append("joined")

        def logged_set(count):
            events.append(("blas", count))
            real_set(count)

        real_run = reproduce_module.run_experiment

        def logged_run(*args, **kwargs):
            events.append("point")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Logged)
        monkeypatch.setattr(lapack, "set_blas_threads", logged_set)
        monkeypatch.setattr(reproduce_module, "run_experiment", logged_run)
        reproduce("table1", table_reps=50, workers=2)
        assert events == [("blas", 1), "pool", *["point"] * len(RHO_GRID),
                          "joined", ("blas", 2)]
        assert lapack.blas_threads() == 2


class TestQueuedGrid:
    """A target's grid queued at once on a real pool of two processes."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)

    @pytest.mark.parametrize("target, kwargs", [("table1", {"table_reps": 50}),
                                                ("fig2", {"scale": 0.005})])
    def test_pooled_rows_equal_serial_rows(self, target, kwargs):
        serial = reproduce(target, **kwargs)
        pooled = reproduce(target, workers=2, **kwargs)
        assert pooled.rows == serial.rows

    def test_failing_point_stops_the_queued_grid(self, tmp_path, capsys,
                                                 monkeypatch):
        # the D-rule's forms fail at rho = 0, the first point; the pool
        # children are forked after these patches, so they run them too
        log = tmp_path / "replications.log"
        real_rep, real_forms = harness.run_replication, classify.linear_forms
        current = {}

        def logged(config, indices):  # a line per replication
            current["rho"] = config.covariance.rho
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{config.covariance.rho}\n" * len(indices))
            return real_rep(config, indices)

        def forms(*args, **kwargs):
            if current["rho"] == 0.0:
                raise ConditioningError("forced")
            return real_forms(*args, **kwargs)

        monkeypatch.setattr(harness, "run_replication", logged)
        monkeypatch.setattr(classify, "linear_forms", forms)
        code = cli.main(["reproduce", "table1", "--reps", "50",
                         "--workers", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "replication 0: forced" in capsys.readouterr().err
        later = [line for line in log.read_text().split() if line != "0.0"]
        # without the cancel, leaving the pool runs all 9 later points
        assert len(later) < 50 * (len(RHO_GRID) - 1)


class TestTheoryOverlay:
    def test_predictions_present_per_classifier(self):
        config = small_config()
        preds = theory_predictions(config)
        assert preds["nb"] is None
        for clf in ("d", "t", "oracle"):
            assert 0.0 < preds[clf] < 100.0

    def test_oracle_prediction_is_phi_of_half_distance(self):
        from dtclassify.theory import normal_cdf

        config = small_config(scenario=ScenarioSpec("localized", 5))
        preds = theory_predictions(config)
        assert preds["oracle"] == pytest.approx(
            100.0 * normal_cdf(-np.sqrt(5.0) / 2.0))

    @pytest.mark.parametrize("overrides", [
        {},
        {"covariance": CovarianceSpec.equal_corr(10, 0.3),
         "innovation1": InnovationSpec("gamma_shifted"),
         "innovation2": InnovationSpec("student_t", df=7)},
        {"covariance": CovarianceSpec.diagonal(np.linspace(0.5, 2.0, 10)),
         "scenario": ScenarioSpec("localized", 4)},
        {"mu2_override": np.linspace(0.0, 1.0, 10)},
    ])
    def test_t_prediction_is_the_trace_limit_of_the_config(self, overrides):
        from dtclassify.theory import t_misclass

        config = small_config(**overrides)
        assert theory_predictions(config)["t"] == \
            100.0 * t_misclass(trace_inputs(config), "v1")

    def test_identity_trace_inputs_build_no_matrix(self, monkeypatch):
        # tr Sigma, 1' Sigma 1 and 1' Gamma^3 1 are each p for the identity
        config = small_config(classifiers=("t",))
        e, p = config.mean_scale, config.p
        sigma = g3 = np.eye(p)
        dense = (float(np.sum(sigma ** 2)),
                 float(e * e * (np.trace(sigma) / 12.0 + np.sum(sigma))),
                 e * float(np.sum(g3)))

        def refuse(*args):
            raise AssertionError("built a p x p matrix")

        monkeypatch.setattr(covariance, "build_covariance", refuse)
        monkeypatch.setattr(MixingMatrix, "cube", refuse)
        inputs = trace_inputs(config)
        assert (inputs.tr_sigma2, inputs.delta_sigma_delta,
                inputs.ones_gamma3_delta) == dense
        assert "gamma" not in vars(config.gamma)

    def test_identity_known_mean_trace_inputs_build_no_matrix(
            self, monkeypatch):
        # delta' Sigma delta and 1' Gamma^3 delta are delta'delta and 1'delta
        config = small_config(p=500, covariance=CovarianceSpec.identity(500),
                              scenario=ScenarioSpec("localized", 10),
                              classifiers=("t",))
        delta = config.fixed_delta
        built = []

        def counted(spec):
            built.append(spec.p)
            return np.eye(spec.p)

        for module in (covariance, theory):
            monkeypatch.setattr(module, "build_covariance", counted)
        monkeypatch.setattr(MixingMatrix, "cube", counted)
        inputs = trace_inputs(config)
        assert built == []
        assert (inputs.delta_sigma_delta, inputs.ones_gamma3_delta,
                inputs.norm2) == (10.0, 10.0, 10.0)
        assert inputs.delta_sigma_delta == float(delta @ np.eye(500) @ delta)

    def test_overlay_attached_to_results(self):
        result = run_experiment(small_config(reps=5))
        assert result.classifiers["d"].theory_pred_pct is not None
        result = run_experiment(small_config(reps=5, theory_overlay=False))
        assert result.classifiers["d"].theory_pred_pct is None


def toy_dataset(rng, n_per, p, gap, labels=("a", "b")):
    X = rng.standard_normal((n_per, p))
    Y = rng.standard_normal((n_per, p)) + gap
    feats = np.vstack([X, Y])
    labs = (labels[0],) * n_per + (labels[1],) * n_per
    return LabeledDataset(feats, labs, labels)


class TestClassifyDataset:
    def test_separated_data_perfectly_classified(self):
        rng = np.random.default_rng(31)
        train = toy_dataset(rng, 10, 5, 8.0)
        test = toy_dataset(rng, 10, 5, 8.0)
        out = classify_dataset(train, test, ("d", "t", "nb"))
        for r in out.values():
            assert r.train_errors == 0 and r.test_errors == 0
            assert r.n_features == 5

    def test_d_requires_enough_samples(self):
        rng = np.random.default_rng(32)
        train = toy_dataset(rng, 5, 30, 8.0)
        test = toy_dataset(rng, 5, 30, 8.0)
        with pytest.raises(SingularityError):
            classify_dataset(train, test, ("d",))
        # the trace rule handles p > n fine
        out = classify_dataset(train, test, ("t",))
        assert out["t"].test_errors == 0

    def test_label_order_reconciled(self):
        rng = np.random.default_rng(33)
        train = toy_dataset(rng, 10, 4, 8.0, labels=("a", "b"))
        test_flipped = toy_dataset(rng, 10, 4, 8.0).with_label_order(("b", "a"))
        out = classify_dataset(train, test_flipped, ("t",))
        assert out["t"].test_errors == 0

    def test_one_fit_scores_every_rule(self, monkeypatch):
        rng = np.random.default_rng(36)
        X = rng.standard_normal((12, 3))
        Y = rng.standard_normal((15, 3)) + 1.0
        Z = rng.standard_normal((7, 3))
        real_fit, fits = classify.fit, []

        def counted_fit(*args, **kwargs):
            fits.append(kwargs)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(classify, "fit", counted_fit)
        truth = (np.zeros(3), np.ones(3), np.eye(3))
        rules = ("d", "t", "nb", "oracle")
        stats = fit_rows(rules, X, Y)
        stats.truth = truth
        out = fitted_rule_statistics(rules, stats, Z)
        assert fits == [{"need_scatter": True}]
        stats = real_fit(X, Y)
        expected = {
            "d": classify.d_statistics(stats, Z),
            "t": classify.t_statistics(stats, Z),
            "nb": classify.naive_bayes_statistics(
                stats, pooled_variances_from_data(X, Y), Z),
            "oracle": classify.oracle_statistics(*truth, Z),
        }
        assert list(out) == list(expected)
        for clf, s in expected.items():
            assert np.array_equal(out[clf], s), clf

    def test_oracle_not_usable_on_real_data(self):
        rng = np.random.default_rng(34)
        train = toy_dataset(rng, 10, 4, 8.0)
        with pytest.raises(DomainError):
            classify_dataset(train, train, ("oracle",))

    def test_repeated_or_empty_classifier_list_rejected(self):
        # the same rule-list check as ExperimentConfig's
        rng = np.random.default_rng(37)
        train = toy_dataset(rng, 10, 4, 8.0)
        with pytest.raises(DomainError, match=r"more than once: \['t'\]"):
            classify_dataset(train, train, ("t", "t"))
        with pytest.raises(DomainError, match="at least one classifier"):
            classify_dataset(train, train, ())

    def test_mismatched_label_sets(self):
        rng = np.random.default_rng(35)
        train = toy_dataset(rng, 10, 4, 8.0, labels=("a", "b"))
        test = toy_dataset(rng, 10, 4, 8.0, labels=("a", "c"))
        with pytest.raises(DomainError):
            classify_dataset(train, test, ("t",))
        with pytest.raises(DomainError, match="LabeledDataset instances"):
            classify_dataset(train.features, train, ("t",))
        wider = toy_dataset(rng, 10, 5, 8.0)
        with pytest.raises(DomainError, match="train 4, test 5"):
            classify_dataset(train, wider, ("t",))
