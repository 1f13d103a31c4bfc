"""The benchmark tracer names package functions by path; each must resolve.

``bench/tracing.py`` wraps the functions listed in ``LAYERS`` and
``COUNTED`` by module and attribute path, so renaming or deleting one
breaks ``bench/run.py --trace 1``. This check fails first.
"""

import importlib.util
from pathlib import Path

import pytest

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
