"""The benchmark tracer names package functions by path; each must resolve.

``bench/tracing.py`` wraps the functions listed in ``LAYERS`` and
``COUNTED`` by module and attribute path, so renaming or deleting one
breaks ``bench/run.py --trace 1``. This check fails first, and so does a
traced run in which a layer stops being called through the binding the
tracer patches.
"""

import importlib.util
from pathlib import Path

import pytest

from dtclassify import harness
from dtclassify.covariance import CovarianceSpec
from dtclassify.model import ScenarioSpec

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


def test_traced_run_records_every_layer():
    # every rule, a redrawn delocalized mean, a non-identity Sigma, overlay on
    config = harness.ExperimentConfig(
        p=6, n1=10, n2=10, covariance=CovarianceSpec.equal_corr(6, 0.3),
        scenario=ScenarioSpec("delocalized", 2), reps=2, master_seed=3)
    assert config.theory_overlay
    with tracing.Tracer() as tracer:
        harness.run_experiment(config)
    recorded = {span[0] for span in tracer.spans}
    assert recorded == {layer for layer, _, _ in tracing.LAYERS} - {"io.emit"}
