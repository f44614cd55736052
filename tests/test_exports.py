import ast
import importlib
import pkgutil
from pathlib import Path

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


# The package runs its BLAS and LAPACK work in scipy's OpenBLAS pool, not in
# numpy's (``linsolve.dot`` and ``linsolve.norm2``, ``scipy.linalg``).  Allowed,
# by module, top-level definition and callee, are numpy calls that never reach
# BLAS: the 1- and inf-norms of ``rel_error``, a sum and a maximum.
NUMPY_BLAS_ALLOWED = {"experiments": {("rel_error", "np.linalg.norm")}}
NUMPY_BLAS_CALLS = {"np.dot", "np.vdot", "np.inner", "np.matmul", "np.tensordot"}


def numpy_blas_references(source: str) -> set:
    """``(top-level definition, callee)`` of each call or import of numpy's BLAS or LAPACK."""
    found = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = ast.unparse(node.func).replace("numpy.", "np.", 1)
                if callee in NUMPY_BLAS_CALLS or callee.startswith("np.linalg."):
                    found.add((owner, callee))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found.update((owner, f"{node.module}.{alias.name}") for alias in node.names
                             if "linalg" in f"{node.module}.{alias.name}"
                             or f"np.{alias.name}" in NUMPY_BLAS_CALLS)
    return found


def test_numpy_blas_scan_finds_calls_and_imports():
    source = ("import numpy as np\nfrom numpy.linalg import qr\n"
              "def f(a):\n    return np.dot(a, a) + numpy.linalg.norm(a) + a.sum()\n")
    assert numpy_blas_references(source) == {("<module>", "numpy.linalg.qr"), ("f", "np.dot"),
                                             ("f", "np.linalg.norm")}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_calls_numpy_blas_or_lapack(name):
    source = (Path(apdiff.__file__).parent / f"{name}.py").read_text()
    assert numpy_blas_references(source) == NUMPY_BLAS_ALLOWED.get(name, set())
