"""The export tables: every name a module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import quantstab

MODULES = ["quantstab"] + [f"quantstab.{info.name}" for info in
                           pkgutil.iter_modules(quantstab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []

