"""Every name a levyq module lists in ``__all__`` exists in it, so that
``from levyq.<module> import *`` works after code is removed."""

import importlib
import pkgutil

import pytest

import levyq

MODULES = sorted(info.name for info in
                 pkgutil.iter_modules(levyq.__path__, prefix="levyq."))


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
