"""The per-layer benchmark tracer names package functions by string; a renamed
or deleted function would only show up as zeros in a trace report."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = load_layers()


@pytest.mark.parametrize("module_name", sorted(LAYERS))
def test_every_traced_layer_exists(module_name):
    module = importlib.import_module(f"eaftlab.{module_name}")
    missing = [f for f in LAYERS[module_name] if not callable(getattr(module, f, None))]
    assert missing == [], f"eaftlab.{module_name} lacks traced functions {missing}"
