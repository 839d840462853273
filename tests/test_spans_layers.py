"""Every function the benchmark's traced run wraps still exists where it looks.

``perfbench/spans.py`` names each traced function as ``LAYERS[layer]`` and
looks it up as an attribute of ``pscore.<layer>``; a name that moved away
makes the traced run fail with ``AttributeError``. An import of the moved
function into that module is enough.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in load_layers().items() for name in names
])
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"pscore.{layer}"), name))
