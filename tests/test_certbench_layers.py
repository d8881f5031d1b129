"""The traced benchmark's layer table still names real program attributes.

``certbench/layers.py`` wraps each layer of :data:`WRAPPED_LAYERS` by name
when a run is traced; a renamed or deleted target would otherwise surface
only in a traced benchmark run.  The module is read by path and not changed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[1] / "certbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("certbench_layers", LAYERS_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED_LAYERS = _load_layers().WRAPPED_LAYERS


@pytest.mark.parametrize(
    "name, target, attribute",
    WRAPPED_LAYERS,
    ids=[f"{target}.{attribute}" for _, target, attribute in WRAPPED_LAYERS],
)
def test_wrapped_layer_resolves(name, target, attribute):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
        assert inspect.isclass(owner), target
        # The recorder patches ``owner.__dict__[attribute]``: an inherited
        # attribute would be wrapped on the wrong class.
        assert attribute in vars(owner), f"{target} does not define {attribute}"
    assert callable(getattr(owner, attribute)), f"{name}: {target}.{attribute}"
