"""Every layer boundary of the benchmark's trace (``bench/layers.py``) still
names a plain function of the engine, so a refactor cannot drop a layer from
the trace without a failing test.  The table is only read."""

import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
_spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
layers = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


@pytest.mark.parametrize("role", list(layers.BOUNDARIES))
def test_every_boundary_target_resolves(role):
    assert layers._resolve(layers.BOUNDARIES[role].target) is not None, role
