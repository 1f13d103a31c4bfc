"""Config parsing, CSV ingestion, and result emission."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import dtclassify
from dtclassify import cli
from dtclassify import io as dtio
from dtclassify.covariance import CovarianceSpec
from dtclassify.data import LabeledDataset, ingest_csv
from dtclassify.errors import ConfigError, DataError
from dtclassify.harness import ExperimentConfig, run_experiment
from dtclassify.model import InnovationSpec, ScenarioSpec


MINIMAL = """\
[experiment]
p = 10
n1 = 20
n2 = 20
seed = 7
"""

FULL = """\
[experiment]
p = 125
n1 = 250
n2 = 250
m1 = 100
m2 = 100
reps = 500
seed = 99

[covariance]
kind = equal_corr
rho = 0.5

[scenario]
kind = delocalized
n0 = 10
redraw_mu2 = true

[innovation]
kind = student_t
df = 7

[classifiers]
list = d,t,nb,oracle
"""


# a valid diagonal for MINIMAL's p = 10
SIGMAS = "sigmas = " + ",".join(["1"] * 10)


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        config = dtio.parse_config(write(tmp_path, MINIMAL))
        assert config.p == 10 and config.master_seed == 7
        assert config.covariance == CovarianceSpec.identity(10)
        assert config.scenario == ScenarioSpec("delocalized", 10)
        assert config.innovation1 == InnovationSpec("normal")
        assert config.reps == 1000
        assert config.classifiers == ("d", "t", "nb", "oracle")

    def test_default_classifiers_drop_d_when_p_large(self, tmp_path):
        text = MINIMAL.replace("p = 10", "p = 100")
        config = dtio.parse_config(write(tmp_path, text))
        assert config.classifiers == ("t", "nb", "oracle")

    def test_full_config(self, tmp_path):
        config = dtio.parse_config(write(tmp_path, FULL))
        assert config.covariance == CovarianceSpec.equal_corr(125, 0.5)
        assert config.innovation1 == InnovationSpec("student_t", df=7)
        assert config.innovation2 == config.innovation1
        assert config.test1 == 100 and config.test2 == 100
        assert config.reps == 500
        assert config.scenario.redraw_mu2
        text = FULL.replace("redraw_mu2 = true", "redraw_mu2 = off")
        assert not dtio.parse_config(write(tmp_path, text)).scenario.redraw_mu2

    def test_second_innovation(self, tmp_path):
        text = FULL.replace("df = 7", "df = 7\nkind2 = gamma_shifted\n"
                            "negate2 = true")
        config = dtio.parse_config(write(tmp_path, text))
        assert config.innovation2 == InnovationSpec("gamma_shifted",
                                                    negate=True)

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL + "\n[plotting]\nstyle = dots\n")
        with pytest.raises(ConfigError, match="plotting"):
            dtio.parse_config(path)

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = write(tmp_path, MINIMAL + "\n[scenario]\nsparsity = 3\n")
        with pytest.raises(ConfigError, match=r"scenario.*sparsity"):
            dtio.parse_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write(tmp_path, "[experiment]\np = 10\nn1 = 20\nn2 = 20\n")
        with pytest.raises(ConfigError, match=r"\[experiment\].seed"):
            dtio.parse_config(path)
        path = write(tmp_path, "[classifiers]\nlist = t\n")
        with pytest.raises(ConfigError, match=r"section \[experiment\]"):
            dtio.parse_config(path)

    def test_rho_out_of_range(self, tmp_path):
        path = write(tmp_path, MINIMAL + "\n[covariance]\nkind = ar1\n"
                     "rho = 1.2\n")
        with pytest.raises(ConfigError, match="rho"):
            dtio.parse_config(path)

    def test_rho_out_of_range_for_identity(self, tmp_path):
        # identity takes no rho, so CovarianceSpec rejects any value
        path = write(tmp_path, MINIMAL + "\n[covariance]\nkind = identity\n"
                     "rho = 5\n")
        with pytest.raises(ConfigError,
                           match=r"\[covariance\]: rho only applies to"):
            dtio.parse_config(path)

    def test_unparseable_value(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("n1 = 20", "n1 = twenty"))
        with pytest.raises(ConfigError, match=r"\[experiment\].n1"):
            dtio.parse_config(path)
        path = write(tmp_path, FULL.replace("redraw_mu2 = true",
                                            "redraw_mu2 = maybe"))
        with pytest.raises(ConfigError, match=r"\[scenario\].redraw_mu2: "
                                              r"cannot parse 'maybe'"):
            dtio.parse_config(path)
        path = write(tmp_path, MINIMAL + "\n[classifiers]\nlist = t,,d\n")
        with pytest.raises(ConfigError, match=r"\[classifiers\].list"):
            dtio.parse_config(path)

    def test_unknown_classifier_lists_valid_ids(self, tmp_path):
        path = write(tmp_path, MINIMAL + "\n[classifiers]\nlist = d,svm\n")
        with pytest.raises(ConfigError, match=r"svm.*valid ids"):
            dtio.parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            dtio.parse_config(tmp_path / "absent.ini")

    @pytest.mark.parametrize("section,text,key", [
        ("covariance", "kind = identity\nrho = 0.5", "rho"),
        ("covariance", f"kind = diagonal\nrho = 0.5\n{SIGMAS}", "rho"),
        ("covariance", f"kind = identity\n{SIGMAS}", "sigmas"),
        ("covariance", f"kind = equal_corr\nrho = 0.5\n{SIGMAS}", "sigmas"),
        ("covariance", f"kind = ar1\nrho = 0.5\n{SIGMAS}", "sigmas"),
        ("covariance", "kind = diagonal\nsigmas = 1,2,3", "sigmas"),
        ("innovation", "kind = normal\ndf = 7", "df"),
        ("innovation", "kind = gamma_shifted\ndf = 7", "df"),
        ("innovation", "kind = normal\ndf2 = 7", "df2"),
        ("innovation", "kind = gamma_shifted\nnegate2 = true", "negate2"),
    ], ids=["rho-identity", "rho-diagonal", "sigmas-identity",
            "sigmas-equal_corr", "sigmas-ar1", "sigmas-not-length-p",
            "df-normal", "df-gamma_shifted", "df2-without-kind2",
            "negate2-without-kind2"])
    def test_key_the_kind_does_not_take_is_rejected(self, tmp_path, section,
                                                    text, key):
        path = write(tmp_path, f"{MINIMAL}\n[{section}]\n{text}\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\]: .*{key}"):
            dtio.parse_config(path)

    def test_default_n0_above_p_gives_both_values(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("p = 10", "p = 6"))
        with pytest.raises(ConfigError, match="n0 = 10, p = 6"):
            dtio.parse_config(path)

    @pytest.mark.parametrize("text,paths", [
        (MINIMAL.replace("p = 10", "p = 0"), ["[experiment].p"]),
        (MINIMAL.replace("p = 10", "p = 6"),
         ["[scenario].n0", "[experiment].p"]),
        (MINIMAL + "\n[classifiers]\nlist = d,svm\n", ["[classifiers].list"]),
        (MINIMAL + "\n[classifiers]\nlist = t,d,t\n", ["[classifiers].list"]),
    ], ids=["p-below-one", "n0-above-p", "unknown-id", "repeated-id"])
    def test_error_names_its_config_keys(self, tmp_path, capsys, text, paths):
        code = cli.main(["simulate", "--config", str(write(tmp_path, text)),
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        for path in paths:
            assert path in err

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md"
                  ).read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        path = write(tmp_path, block)
        config = dtio.parse_config(path)
        assert config.covariance == CovarianceSpec.equal_corr(125, 0.5)
        assert config.innovation1 == InnovationSpec("student_t", df=7)
        assert config.master_seed == 42 and config.test1 == 100
        opts = dtio.parse_output_options(path)
        assert opts == dtio.OutputOptions("results", ("csv", "json"))


class TestOutputOptions:
    def test_defaults_to_cwd_and_both_formats(self, tmp_path, monkeypatch):
        monkeypatch.delenv(dtio.ENV_OUTPUT_DIR, raising=False)
        opts = dtio.parse_output_options(write(tmp_path, MINIMAL))
        assert opts.directory == "."
        assert opts.formats == ("csv", "json")

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(dtio.ENV_OUTPUT_DIR, "/tmp/results")
        opts = dtio.parse_output_options(write(tmp_path, MINIMAL))
        assert opts.directory == "/tmp/results"

    def test_config_section_and_overrides(self, tmp_path):
        text = MINIMAL + "\n[output]\ndirectory = out\nformats = csv\n"
        path = write(tmp_path, text)
        opts = dtio.parse_output_options(path)
        assert opts == dtio.OutputOptions("out", ("csv",))
        opts = dtio.parse_output_options(path, override_dir="elsewhere",
                                         override_formats=("json",))
        assert opts == dtio.OutputOptions("elsewhere", ("json",))

    def test_unknown_format_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL + "\n[output]\nformats = parquet\n")
        with pytest.raises(ConfigError, match="parquet"):
            dtio.parse_output_options(path)


class TestEmitResults:
    @pytest.fixture
    def result(self):
        config = ExperimentConfig(
            p=5, n1=10, n2=10, covariance=CovarianceSpec.identity(5),
            scenario=ScenarioSpec("delocalized", 3), reps=10, master_seed=1,
        )
        return run_experiment(config)

    def test_csv_and_json_written(self, result, tmp_path):
        written = dtio.emit_results(result, ("csv", "json"), tmp_path, "exp1")
        names = sorted(p.name for p in written)
        assert names == ["exp1_result.json", "exp1_results.csv"]
        csv_path = next(p for p in written if p.suffix == ".csv")
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("experiment_id,classifier")

    def test_json_mirrors_per_rep_errors(self, result, tmp_path):
        (path,) = dtio.emit_results(result, ("json",), tmp_path)
        payload = json.loads(path.read_text())
        errs = payload["classifiers"]["t"]["per_rep_errors"]
        assert errs == list(result.classifiers["t"].per_rep_errors)

    def test_json_records_the_package_version(self, result, tmp_path):
        (path,) = dtio.emit_results(result, ("json",), tmp_path)
        payload = json.loads(path.read_text())
        assert payload["dtclassify_version"] == dtclassify.__version__

    def test_reemission_is_byte_identical(self, result, tmp_path):
        a = dtio.emit_results(result, ("csv", "json"), tmp_path / "a")
        b = dtio.emit_results(result, ("csv", "json"), tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_json_config_reruns_the_experiment(self, tmp_path):
        path = write(tmp_path, """\
[experiment]
p = 3
n1 = 10
n2 = 12
m1 = 6
m2 = 7
reps = 4
seed = 5

[covariance]
kind = diagonal
sigmas = 1,2,3

[scenario]
kind = localized
n0 = 2

[innovation]
kind = student_t
df = 9
kind2 = gamma_shifted
negate2 = true
""")
        from dtclassify.cli import main

        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path), "--formats", "json"]) == 0
        record = json.loads(
            (tmp_path / "experiment_result.json").read_text())["config"]
        cov = record["covariance"]
        rebuilt = ExperimentConfig(
            p=record["p"], n1=record["n1"], n2=record["n2"],
            m1=record["m1"], m2=record["m2"], reps=record["reps"],
            master_seed=record["seed"],
            covariance=CovarianceSpec(cov["kind"], record["p"],
                                      rho=cov["rho"], sigmas=cov["sigmas"]),
            scenario=ScenarioSpec(**record["scenario"]),
            innovation1=InnovationSpec(**record["innovation1"]),
            innovation2=InnovationSpec(**record["innovation2"]),
            classifiers=tuple(record["classifiers"]),
            theory_overlay=record["theory_overlay"],
            mu2_override=record["mu2_override"],
        )
        assert rebuilt == dtio.parse_config(path)
        assert record["sampler"] == rebuilt.sampler == "rows"

    def test_json_records_mu2_override(self, tmp_path):
        config = ExperimentConfig(
            p=3, n1=10, n2=10, covariance=CovarianceSpec.identity(3),
            scenario=ScenarioSpec("delocalized", 1), reps=2, master_seed=1,
            mu2_override=[1.0, 0.5, 0.25],
        )
        (path,) = dtio.emit_results(run_experiment(config), ("json",),
                                    tmp_path)
        record = json.loads(path.read_text())["config"]
        assert record["mu2_override"] == [1.0, 0.5, 0.25]
        assert record["sampler"] == "reduced"

    def test_fmt_roundtrips_floats(self):
        for value in (0.1, 1 / 3, 12.5, 1e-17):
            assert float(dtio.fmt(value)) == value
        assert dtio.fmt(None) == ""
        assert dtio.fmt(7) == "7"
        assert dtio.fmt(True) == "true"


class TestIngestCsv:
    def test_separate_label_file(self, tmp_path):
        feats = tmp_path / "x.csv"
        feats.write_text("1,2\n3,4\n5,6\n7,8\n")
        labs = tmp_path / "y.csv"
        labs.write_text("a\na\nb\nb\n")
        ds = ingest_csv(feats, labels_path=labs)
        assert ds.n == 4 and ds.p == 2
        assert ds.label_set == ("a", "b")
        assert np.array_equal(ds.group(2), [[5, 6], [7, 8]])

    def test_header_autodetected(self, tmp_path):
        feats = tmp_path / "x.csv"
        feats.write_text("g1,g2\n1,2\n3,4\n")
        labs = tmp_path / "y.csv"
        labs.write_text("a\nb\n")
        ds = ingest_csv(feats, labels_path=labs)
        assert ds.feature_names == ("g1", "g2")
        assert ds.n == 2
        # a label file's header names the column, and is none of the labels
        labs.write_text("label\na\nb\n")
        assert ingest_csv(feats, labels_path=labs).labels == ("a", "b")
        feats.write_text("g1,g2\n")
        with pytest.raises(DataError, match="no data rows after the header"):
            ingest_csv(feats, labels_path=labs)

    def test_label_column_in_features_file(self, tmp_path):
        feats = tmp_path / "x.csv"
        feats.write_text("f1,f2,cls\n1,2,a\n3,4,a\n5,6,b\n7,8,b\n")
        ds = ingest_csv(feats, label_column="cls")
        assert ds.p == 2
        assert ds.labels == ("a", "a", "b", "b")
        with pytest.raises(DataError, match="'group' not found in header"):
            ingest_csv(feats, label_column="group")
        feats.write_text("1,2\n3,4\n")
        with pytest.raises(DataError, match="requires a header row"):
            ingest_csv(feats, label_column="cls")
        # cells are stripped as a label file's lines are
        feats.write_text("f1,f2,label\n1,2,x\n3,4, x\n5,6,y\n")
        assert ingest_csv(feats, label_column="label").label_set == ("x", "y")

    def test_positive_label_pins_group_one(self, tmp_path):
        feats = tmp_path / "x.csv"
        feats.write_text("1\n2\n3\n4\n")
        labs = tmp_path / "y.csv"
        labs.write_text("a\na\nb\nb\n")
        ds = ingest_csv(feats, labels_path=labs, positive_label="b")
        assert ds.label_set == ("b", "a")
        assert np.array_equal(ds.group(1), [[3], [4]])
        with pytest.raises(DataError, match="positive label 'c' not present"):
            ingest_csv(feats, labels_path=labs, positive_label="c")

    def test_ragged_rows_rejected(self, tmp_path):
        feats = tmp_path / "x.csv"
        feats.write_text("1,2\n3\n")
        labs = tmp_path / "y.csv"
        labs.write_text("a\nb\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_csv(feats, labels_path=labs)
        with pytest.raises(DataError, match="2-D"):
            LabeledDataset(np.zeros(2), ("a", "b"), ("a", "b"))

    def test_non_numeric_cell_rejected(self, tmp_path):
        feats = tmp_path / "x.csv"
        feats.write_text("f1,f2\n1,2\n3,oops\n")
        labs = tmp_path / "y.csv"
        labs.write_text("a\nb\n")
        with pytest.raises(DataError, match="oops"):
            ingest_csv(feats, labels_path=labs)
        feats.write_text("1,2\n3,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            ingest_csv(feats, labels_path=labs)

    def test_label_count_mismatch(self, tmp_path):
        feats = tmp_path / "x.csv"
        feats.write_text("1,2\n3,4\n")
        labs = tmp_path / "y.csv"
        labs.write_text("a\na\nb\nb\n")
        with pytest.raises(DataError, match="4 labels"):
            ingest_csv(feats, labels_path=labs)
        # one label too many, the first non-numeric but also a label below
        feats.write_text("1,2\n3,4\n5,6\n")
        with pytest.raises(DataError, match="4 labels for 3 samples"):
            ingest_csv(feats, labels_path=labs)
        labs.write_text("label\na\nb\nb\n")
        assert ingest_csv(feats, labels_path=labs).labels == ("a", "b", "b")
        labs.write_text("")
        with pytest.raises(DataError, match="file is empty"):
            ingest_csv(feats, labels_path=labs)
        with pytest.raises(DataError, match="one label per sample"):
            LabeledDataset(np.zeros((2, 1)), ("a", "b", "b"), ("a", "b"))

    def test_more_than_two_classes_rejected(self, tmp_path):
        feats = tmp_path / "x.csv"
        feats.write_text("1\n2\n3\n")
        labs = tmp_path / "y.csv"
        labs.write_text("a\nb\nc\n")
        with pytest.raises(DataError, match="exactly 2"):
            ingest_csv(feats, labels_path=labs)
        with pytest.raises(DataError, match=r"found \['a', 'b', 'c'\]"):
            LabeledDataset(np.zeros((3, 1)), ("a", "b", "c"), ("a", "b"))

    def test_exactly_one_label_source_required(self, tmp_path):
        feats = tmp_path / "x.csv"
        feats.write_text("1\n2\n")
        with pytest.raises(DataError):
            ingest_csv(feats)
