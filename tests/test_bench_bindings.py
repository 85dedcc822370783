"""Every function the benchmark traces still exists under its name.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of its
``TRACED`` table by name, so a renamed or deleted function would
silently drop out of the benchmark's per-layer figures.  The file is
loaded by its path, so a bare ``pytest`` needs no ``perfbench`` import.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return [entry[:2] for entry in module.TRACED]


@pytest.mark.parametrize("mod_name, attr", _traced(), ids=lambda name: name)
def test_traced_binding_is_callable(mod_name, attr):
    owner = importlib.import_module(f"demapsim.{mod_name}")
    for part in attr.split("."):  # "Class.method" names a method
        owner = getattr(owner, part)
    assert callable(owner)
