"""Every function the end-to-end benchmark wraps still resolves.

``benchmarks/e2e/layers.py`` wraps each layer's entry points by name and
reads a method with ``vars(cls)[attr]``, so a target that moves, is
renamed, or becomes inherited from a base class raises ``KeyError`` in
every traced benchmark child.  This resolves each target the way
``layers.install`` does, without installing any wrapper.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("_e2e_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()

#: The SPANS and COUNTS targets plus the two ``install`` wraps by hand.
TARGETS = sorted(
    {
        target
        for table in (layers.SPANS, layers.COUNTS)
        for targets in table.values()
        for target in targets
    }
    | {
        "repro.interconnect.fabric:CXLFabric.__init__",
        "repro.experiments.executor:_run_cell",
    }
)


@pytest.mark.parametrize("target", TARGETS)
def test_wrap_target_resolves(target):
    _owner, _attr, fn = layers._resolve(target)
    assert callable(fn)
