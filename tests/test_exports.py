"""Every name a levyq module, or the package itself, lists in ``__all__``
exists in it, so that ``from levyq.<module> import *`` works after code is
removed; and the package exports what the demo script imports from it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import levyq

MODULES = ["levyq"] + sorted(info.name for info in pkgutil.iter_modules(
    levyq.__path__, prefix="levyq."))
DEMO = Path(__file__).resolve().parents[1] / "demos" / "direct_increments_demo.py"


def test_modules_found():
    assert "levyq.adaptive" in MODULES and "levyq.inversion" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)


def test_package_exports_what_the_demo_imports():
    imported = {alias.name for node in ast.walk(ast.parse(DEMO.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "levyq"
                for alias in node.names}
    assert imported, "the demo imports nothing from levyq"
    assert imported <= set(levyq.__all__), imported - set(levyq.__all__)
