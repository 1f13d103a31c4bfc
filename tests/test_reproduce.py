"""Reproduction targets: report structure and reference bookkeeping."""

import dataclasses
import importlib
from types import SimpleNamespace

import numpy as np
import pytest

from dtclassify.errors import DomainError
from dtclassify.harness import run_experiment, trace_inputs
from dtclassify.reproduce import (
    REFERENCE_TABLE1,
    REFERENCE_TABLE3,
    REFERENCE_TABLE4,
    RHO_GRID,
    TARGETS,
    reproduce,
)
from dtclassify.theory import t_misclass

# the package root re-exports the function under the module's name
reproduce_module = importlib.import_module("dtclassify.reproduce")


class TestBookkeeping:
    def test_reference_grids_cover_all_rhos(self):
        assert set(REFERENCE_TABLE1) == set(RHO_GRID)
        assert set(REFERENCE_TABLE3) == set(RHO_GRID)
        assert set(REFERENCE_TABLE4) == set(range(100, 501, 50))

    def test_unknown_target(self):
        with pytest.raises(DomainError):
            reproduce("table9")

    def test_scale_validation(self):
        with pytest.raises(DomainError):
            reproduce("table1", scale=0.0)
        with pytest.raises(DomainError):
            reproduce("table1", scale=0.01)  # fewer than 50 replications

    @pytest.mark.parametrize("target", ["table1", "table2", "table3",
                                        "table4"])
    def test_zero_table_reps_rejected_before_any_run(self, target,
                                                     monkeypatch):
        # 0 is a count, not "unset": it must not fall back to the default
        def no_run(*args, **kwargs):
            raise AssertionError("a replication was started")

        monkeypatch.setattr(reproduce_module, "run_experiment", no_run)
        with pytest.raises(DomainError, match="need >= 50"):
            reproduce(target, table_reps=0)

    def test_small_reps_blamed_on_the_count(self):
        with pytest.raises(DomainError) as exc:
            reproduce("table4", table_reps=30)
        assert str(exc.value) == "30 replications requested; need >= 50"

    def test_small_scale_blamed_on_the_scale(self):
        with pytest.raises(DomainError) as exc:
            reproduce("table1", scale=0.01)
        assert str(exc.value) == \
            "1000 replications at scale 0.01 give only 10; need >= 50"


class TestReports:
    def test_table1_rows_carry_results_and_references(self):
        report = reproduce("table1", table_reps=50)
        assert report.target == "table1"
        assert report.reps == 50
        assert len(report.rows) == 10
        row = report.rows[5]
        assert row["rho"] == 0.5
        for key in ("d_median", "d_se", "d_theory", "t_median",
                    "ref_road_median", "ref_oracle_se"):
            assert key in row
        # quoted references pass through untouched
        assert row["ref_d_median"] == REFERENCE_TABLE1[0.5]["d"][0]
        assert row["ref_road_se"] == REFERENCE_TABLE1[0.5]["road"][1]

    def test_table3_has_no_nb_column(self):
        report = reproduce("table3", table_reps=50)
        assert "nb_median" not in report.rows[0]
        assert "d_median" in report.rows[0]

    def test_fig1_grid_and_theory_columns(self):
        report = reproduce("fig1", scale=0.005)
        assert [row["p"] for row in report.rows] == list(range(50, 451, 50))
        for row in report.rows:
            # both limit curves present, with the shrunken one higher
            assert row["phi_theta1"] > row["phi_theta2"]
            assert 0.0 <= row["empirical"] <= 1.0
        xs = [row["x"] for row in report.rows]
        assert xs[0] == pytest.approx(50 / 498)
        assert xs[-1] == pytest.approx(450 / 498)

    def test_columns_preserve_first_seen_order(self):
        report = reproduce("table4", table_reps=50)
        cols = report.columns()
        assert cols[0] == "n1"
        assert set(cols) == set(report.rows[0])

    def test_all_targets_registered(self):
        assert TARGETS == ("table1", "table2", "table3", "table4",
                           "fig1", "fig2", "fig5")

    def test_fig5_rows_are_the_trace_limit_of_their_configs(self,
                                                            monkeypatch):
        # the phi columns depend on the config only; skip the replications
        configs = []

        def record(config, workers=1, pool=None):
            configs.append(config)
            stub = SimpleNamespace(mean_error_pi1_pct=0.0)
            return SimpleNamespace(classifiers={"t": stub})

        monkeypatch.setattr(reproduce_module, "run_experiment", record)
        report = reproduce("fig5", scale=0.005)
        assert len(report.rows) == len(configs) == 20
        for row, config in zip(report.rows, configs):
            assert (row["n1"], row["n2"]) == (config.n1, config.n2)
            inputs = trace_inputs(config)
            for variant in ("v1", "v2", "v3"):
                assert row[f"phi_{variant}"] == t_misclass(inputs, variant)

    @pytest.mark.parametrize("point", [0, 10], ids=["normal", "gamma"])
    def test_fig5_group_one_errors_need_no_group_two_rows(self, point):
        # fig5 reports only the group-1 error, so its configs draw two
        # group-2 test rows; group 1's rows come first, so its counts are
        # those of the full m2 = n2
        config, _ = reproduce_module._fig5(3, 20240901)[point]
        full = dataclasses.replace(config, m2=config.n2)
        assert config.test2 == 2 and full.test2 == config.n1 + 100
        few = run_experiment(config).classifiers["t"].per_rep_errors_pi1
        pi1 = run_experiment(full).classifiers["t"].per_rep_errors_pi1
        assert pi1.any()
        np.testing.assert_array_equal(few, pi1)
