import importlib
import pkgutil

import pytest

import apdiff

MODULES = sorted(info.name for info in pkgutil.iter_modules(apdiff.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"apdiff.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"apdiff.{name}.__all__ names undefined {missing}"
    namespace = {}
    exec(f"from apdiff.{name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
