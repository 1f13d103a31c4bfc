"""Command-line interface: subcommands, outputs, and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dtclassify
from dtclassify.cli import main

SMALL = """\
[experiment]
p = 8
n1 = 15
n2 = 15
reps = 20
seed = 5

[scenario]
kind = delocalized
n0 = 4
"""

TOO_WIDE = """\
[experiment]
p = 60
n1 = 15
n2 = 15
reps = 20
seed = 5

[classifiers]
list = d
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSimulate:
    def test_writes_results_and_reports_medians(self, tmp_path, capsys):
        config = write(tmp_path, SMALL)
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out"), "--id", "demo"])
        assert code == 0
        out = capsys.readouterr().out
        assert "median=" in out and "theory=" in out
        assert (tmp_path / "out" / "demo_results.csv").exists()
        assert (tmp_path / "out" / "demo_result.json").exists()

    def test_formats_subset(self, tmp_path):
        config = write(tmp_path, SMALL)
        main(["simulate", "--config", str(config),
              "--out", str(tmp_path / "o"), "--formats", "csv"])
        assert (tmp_path / "o" / "experiment_results.csv").exists()
        assert not (tmp_path / "o" / "experiment_result.json").exists()

    def test_unknown_format_flag_names_the_flag(self, tmp_path, capsys):
        config = write(tmp_path, SMALL)  # no [output] section
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(config),
                  "--out", str(tmp_path / "o"), "--formats", "csv,xml"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --formats: unknown format(s) ['xml']" in err
        assert "[output]" not in err
        assert not (tmp_path / "o").exists()

    def test_dimension_limit_is_validation_error(self, tmp_path, capsys):
        config = write(tmp_path, TOO_WIDE)
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "p < n1+n2-2" in capsys.readouterr().err

    def test_workers_below_one_exits_one(self, tmp_path, capsys):
        config = write(tmp_path, SMALL)
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path), "--workers", "0"])
        assert code == 1
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        config = write(tmp_path, SMALL.replace("seed = 5", "seed = -3"))
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: [experiment].seed: seed must be >= 0, got -3")
        assert not (tmp_path / "out").exists()

    def test_zero_reps_exits_one(self, tmp_path, capsys):
        config = write(tmp_path, SMALL.replace("reps = 20", "reps = 0"))
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "reps must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        (SMALL.replace("n1 = 15", "n1 = 1"),
         "[experiment].n1: n1 must be >= 2, got 1"),
        (SMALL.replace("n2 = 15", "n2 = 15\nm1 = 1"),
         "[experiment].m1: m1 must be >= 2, got 1"),
        (SMALL.replace("reps = 20", "reps = 0"),
         "[experiment].reps: reps must be >= 1, got 0"),
        (SMALL.replace("seed = 5", "seed = -1"),
         "[experiment].seed: seed must be >= 0, got -1"),
        (SMALL.replace("p = 8", "p = 40") + "\n[classifiers]\nlist = d,t\n",
         "[experiment].p, [experiment].n1, [experiment].n2, "
         "[classifiers].list: the D-criterion needs p < n1+n2-2"),
    ], ids=["n1", "m1", "reps", "seed", "d_limit"])
    def test_experiment_errors_name_their_config_paths(self, tmp_path,
                                                       capsys, text, message):
        config = write(tmp_path, text)
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    def test_key_the_kind_does_not_take_exits_one(self, tmp_path, capsys):
        config = write(tmp_path, SMALL + "\n[innovation]\nkind = normal\n"
                       "df = 7\n")
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [innovation]: df")
        assert not (tmp_path / "out").exists()

    def test_repeated_classifier_exits_one(self, tmp_path, capsys):
        config = write(tmp_path,
                       SMALL + "\n[classifiers]\nlist = t,t,oracle\n")
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "more than once: ['t']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_key_exits_one(self, tmp_path, capsys):
        config = write(tmp_path, SMALL + "\n[experiment]\n")
        # duplicate section is a parse error
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path)])
        assert code == 1

    def test_output_path_that_is_a_file_exits_one(self, tmp_path, capsys):
        config = write(tmp_path, SMALL)
        taken = write(tmp_path, "", name="taken")
        code = main(["simulate", "--config", str(config),
                     "--out", str(taken)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(taken) in err

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 1


class TestTheory:
    def test_d_prints_frozen_values(self, capsys):
        code = main(["theory", "d", "--y", "0.5", "--lambda", "0.5",
                     "--delta2", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Phi(theta1) = 0.361837" in out
        assert "theta1 = -0.353553" in out
        assert "tau = " in out

    def test_d_rejects_bad_domain(self, capsys):
        code = main(["theory", "d", "--y", "1.5", "--lambda", "0.5",
                     "--delta2", "2"])
        assert code == 1

    def test_t_prints_all_variants(self, tmp_path, capsys):
        config = write(tmp_path, SMALL)
        code = main(["theory", "t", "--config", str(config)])
        assert code == 0
        out = capsys.readouterr().out
        for variant in ("v1", "v2", "v3", "full"):
            assert f"{variant}: B_p^2 = " in out

    def test_t_skips_full_for_correlated_structure(self, tmp_path, capsys):
        text = SMALL + "\n[covariance]\nkind = ar1\nrho = 0.5\n"
        config = write(tmp_path, text)
        code = main(["theory", "t", "--config", str(config)])
        assert code == 0
        assert "full: requires a diagonal covariance" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("extra", [
        "", "\n[covariance]\nkind = equal_corr\nrho = 0.3\n",
        "\n[covariance]\nkind = diagonal\nsigmas = 1,2,3,4,1,2,3,4\n"],
        ids=["identity", "equal_corr", "diagonal"])
    def test_t_prints_the_trace_limit_of_the_config(self, tmp_path, capsys,
                                                    extra):
        from dtclassify.harness import trace_inputs
        from dtclassify.io import parse_config
        from dtclassify.theory import t_misclass, t_variance

        text = SMALL + extra
        if "diagonal" in extra:  # calibrated only for identity/equal_corr/ar1
            text = text.replace("delocalized", "localized")
        config = write(tmp_path, text)
        code = main(["theory", "t", "--config", str(config),
                     "--variant", "v1"])
        assert code == 0
        inputs = trace_inputs(parse_config(config))
        assert capsys.readouterr().out == (
            f"v1: B_p^2 = {t_variance(inputs, 'v1'):.6f}  "
            f"misclass = {t_misclass(inputs, 'v1'):.6f}\n")


@pytest.mark.parametrize("command", [["simulate"], ["theory", "t"]])
def test_uncalibrated_delocalized_mean_names_its_config_paths(
        tmp_path, capsys, command):
    # the delocalized law is calibrated for identity, equal_corr and ar1
    # only, so a diagonal Sigma needs [scenario].kind = localized
    config = write(tmp_path, SMALL + "\n[covariance]\nkind = diagonal\n"
                   "sigmas = 1,2,3,4,5,6,7,8\n")
    args = [*command, "--config", str(config)]
    if command == ["simulate"]:
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(
        "error: [covariance].kind, [scenario].kind: beta calibration is "
        "only available for identity/equal_corr/ar1, not 'diagonal'")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["equal_corr", "ar1"])
@pytest.mark.parametrize("command", [["simulate"], ["theory", "t"]])
def test_calibration_past_one_dimension_names_its_config_paths(
        tmp_path, capsys, command, kind):
    # the delocalized law's beta^2 for correlated Sigma needs p >= 2
    config = write(tmp_path, "[experiment]\np = 1\nn1 = 15\nn2 = 15\n"
                   "reps = 5\nseed = 5\n\n[covariance]\n"
                   f"kind = {kind}\nrho = 0.3\n\n[scenario]\n"
                   "kind = delocalized\nn0 = 1\n\n[classifiers]\nlist = t\n")
    args = [*command, "--config", str(config)]
    if command == ["simulate"]:
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: [experiment].p, [scenario].kind: the delocalized mean's "
        f"calibration for {kind} needs p >= 2, got p = 1\n")
    assert not (tmp_path / "out").exists()


def write_dataset(tmp_path, rng, stem, n_per=10, p=5, gap=8.0):
    X = rng.standard_normal((n_per, p))
    Y = rng.standard_normal((n_per, p)) + gap
    feats = tmp_path / f"{stem}_x.csv"
    feats.write_text("\n".join(",".join(f"{v:.6f}" for v in row)
                               for row in np.vstack([X, Y])) + "\n")
    labs = tmp_path / f"{stem}_y.csv"
    labs.write_text("\n".join(["pos"] * n_per + ["neg"] * n_per) + "\n")
    return feats, labs


class TestClassify:
    def test_counts_reported_per_classifier(self, tmp_path, capsys):
        rng = np.random.default_rng(40)
        tr_x, tr_y = write_dataset(tmp_path, rng, "train")
        te_x, te_y = write_dataset(tmp_path, rng, "test")
        code = main(["classify", "--train", str(tr_x),
                     "--train-labels", str(tr_y),
                     "--test", str(te_x), "--test-labels", str(te_y),
                     "--classifier", "t", "--classifier", "nb"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "classifier,train_errors,test_errors,n_features"
        assert "t,0,0,5" in out and "nb,0,0,5" in out

    def test_bad_data_exits_one(self, tmp_path, capsys):
        feats = tmp_path / "x.csv"
        feats.write_text("1,2\n3\n")
        labs = tmp_path / "y.csv"
        labs.write_text("a\nb\n")
        code = main(["classify", "--train", str(feats),
                     "--train-labels", str(labs),
                     "--test", str(feats), "--test-labels", str(labs)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        rng = np.random.default_rng(43)
        te_x, te_y = write_dataset(tmp_path, rng, "test")
        missing = tmp_path / "missing.csv"
        code = main(["classify", "--train", str(missing),
                     "--train-labels", str(te_y),
                     "--test", str(te_x), "--test-labels", str(te_y)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err

    def test_d_on_wide_data_exits_two(self, tmp_path, capsys):
        rng = np.random.default_rng(41)
        tr_x, tr_y = write_dataset(tmp_path, rng, "train", n_per=5, p=40)
        code = main(["classify", "--train", str(tr_x),
                     "--train-labels", str(tr_y),
                     "--test", str(tr_x), "--test-labels", str(tr_y),
                     "--classifier", "d"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_repeated_classifier_exits_one(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        tr_x, tr_y = write_dataset(tmp_path, rng, "train")
        code = main(["classify", "--train", str(tr_x),
                     "--train-labels", str(tr_y),
                     "--test", str(tr_x), "--test-labels", str(tr_y),
                     "--classifier", "t", "--classifier", "t"])
        assert code == 1
        assert "more than once: ['t']" in capsys.readouterr().err


class TestReproduce:
    def test_unknown_target_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "table9"])
        assert exc.value.code == 1

    def test_table4_smoke(self, tmp_path):
        code = main(["reproduce", "table4", "--reps", "50",
                     "--out", str(tmp_path), "--workers", "2"])
        assert code == 0
        lines = (tmp_path / "table4.csv").read_text().splitlines()
        assert lines[0].startswith("n1,t_median,t_se,t_theory,ref_t_median")
        assert len(lines) == 10  # header + 9 sample sizes

    def test_scale_too_small_rejected(self, capsys):
        code = main(["reproduce", "table1", "--scale", "0.01"])
        assert code == 1
        assert "50" in capsys.readouterr().err

    def test_stdout_csv_when_no_out_dir(self, capsys):
        code = main(["reproduce", "table1", "--reps", "50"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("rho,")
        assert len(lines) == 11

    def test_stdout_is_the_csv_file(self, tmp_path, capsys):
        args = ["reproduce", "table4", "--reps", "50"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert main(args + ["--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / 'table4.csv'}\n"
        assert (tmp_path / "table4.csv").read_bytes() == printed.encode()

    def test_negative_seed_exits_one(self, capsys):
        code = main(["reproduce", "table4", "--reps", "50", "--seed", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0, got -1")
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["fig1", "fig2", "fig5"])
    def test_reps_rejected_for_figures(self, target, capsys):
        code = main(["reproduce", target, "--reps", "50"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --reps applies to the tables only")
        assert "--scale" in err


class TestModuleEntryPoint:
    def test_python_m_dtclassify_help_exits_zero(self):
        src = Path(dtclassify.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "dtclassify", "--help"], env=env,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "reproduce" in proc.stdout
