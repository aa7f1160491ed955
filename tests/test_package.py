import importlib
import pkgutil

import pytest

import venttsel

MODULES = sorted(info.name for info in pkgutil.iter_modules(venttsel.__path__, "venttsel."))


@pytest.mark.parametrize("name", ["venttsel", *MODULES])
def test_all_names_exist(name):
    # a stale __all__ entry would otherwise fail only on `import *`
    module = importlib.import_module(name)
    assert [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)] == []

