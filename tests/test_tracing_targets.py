"""The benchmark tracer names package functions by path; each must resolve.

``bench/tracing.py`` wraps the functions listed in ``LAYERS`` and
``COUNTED`` by module and attribute path, so renaming or deleting one
breaks ``bench/run.py --trace 1``. This check fails first, and so does a
traced run in which a layer stops being called through the binding the
tracer patches.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from dtclassify import harness
from dtclassify.covariance import CovarianceSpec
from dtclassify.model import ScenarioSpec
from dtclassify.reproduce import reproduce

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "module, path",
    [(module, path) for _, module, path in tracing.LAYERS + tracing.COUNTED],
    ids=lambda value: value,
)
def test_traced_path_resolves(module, path):
    _, _, raw = tracing._resolve(module, path)
    assert callable(getattr(raw, "__func__", raw))


def traced_config(**sizes) -> harness.ExperimentConfig:
    """Every rule, a redrawn delocalized mean, a non-identity Sigma and the
    overlay on."""
    config = harness.ExperimentConfig(
        covariance=CovarianceSpec.equal_corr(6, 0.3),
        scenario=ScenarioSpec("delocalized", 2), reps=2, master_seed=3,
        **sizes)
    assert config.theory_overlay
    return config


def traced_layers(**sizes) -> set[str]:
    """Layers recorded by a traced run of ``traced_config(**sizes)``."""
    with tracing.Tracer() as tracer:
        harness.run_experiment(traced_config(**sizes))
    return {span[0] for span in tracer.spans}


def test_traced_run_records_every_layer():
    # n1 != n2 takes the row sampler, which reaches every layer
    recorded = traced_layers(p=6, n1=10, n2=11)
    assert recorded == {layer for layer, _, _ in tracing.LAYERS} - {"io.emit"}


def test_traced_reduced_run_records_its_layers():
    # the reduced sampler draws no rows and fits nothing
    recorded = traced_layers(p=6, n1=10, n2=10)
    assert recorded == {"harness.experiment", "harness.replication",
                        "model.scenario_means", "covariance.mixing_matrix",
                        "theory.overlay"}


# The reduced sampler's stages, which bench/tracing.LAYERS does not list
# yet: a block of replications and, inside it, each replication's Schur
# factor, the block's Schur draw and its guarded solve, its linear forms
# and its test draw
REDUCED_STAGES = (
    ("harness.block_statistics", "dtclassify.harness", "block_statistics"),
    ("model.bartlett_factor", "dtclassify.model", "bartlett_factor"),
    ("harness.whitened_solve", "dtclassify.harness", "whitened_solve"),
    ("classify.drawn_root_solve", "dtclassify.classify", "drawn_root_solve"),
    ("classify.linear_forms", "dtclassify.classify", "linear_forms"),
    ("harness.draw_test_statistics", "dtclassify.harness",
     "draw_test_statistics"),
)


def test_reduced_stages_can_be_traced_inside_each_replication():
    # a tracer given these layers splits the replications' span into the
    # reduced sampler's stages: per block of replications one Schur draw,
    # one guarded solve, one set of linear forms and one test draw (both
    # test groups' statistics come from it), per replication one Schur
    # factor; and changes no result
    config = dataclasses.replace(traced_config(p=6, n1=10, n2=10),
                                 classifiers=("d", "t", "oracle"),
                                 reps=harness.BLOCK + 2)
    plain = harness.run_experiment(config)
    with tracing.Tracer(tracing.LAYERS + REDUCED_STAGES) as tracer:
        traced = harness.run_experiment(config)
    for rule, result in plain.classifiers.items():
        assert (result.per_rep_errors
                == traced.classifiers[rule].per_rep_errors).all()
    spans = tracer.spans
    blocks = 2
    inside = {"harness.block_statistics": ("harness.replication", blocks),
              "model.bartlett_factor": ("harness.whitened_solve",
                                        config.reps),
              "harness.whitened_solve": ("harness.block_statistics",
                                         blocks),
              "classify.drawn_root_solve": ("harness.whitened_solve", blocks),
              "classify.linear_forms": ("harness.block_statistics", blocks),
              "harness.draw_test_statistics": ("harness.block_statistics",
                                               blocks)}
    assert set(inside) == {name for name, _, _ in REDUCED_STAGES}
    for name, (parent, calls) in inside.items():
        assert tracer.counts[name + ".calls"] == calls, name
        assert {spans[s[3]][0] for s in spans if s[0] == name} == {parent}


def test_traced_reproduce_records_one_experiment_per_grid_point():
    # the benchmark's pool figures time only run_experiment, which
    # reproduce must call once per grid point through the binding the
    # tracer patches
    experiment_only = tuple(layer for layer in tracing.LAYERS
                            if layer[0] == "harness.experiment")
    with tracing.Tracer(experiment_only, ()) as tracer:
        report = reproduce("table4", table_reps=50)
    assert len(report.rows) == 9
    assert [span[0] for span in tracer.spans] == ["harness.experiment"] * 9
