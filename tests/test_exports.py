"""Every exported name resolves, so a name left in `__all__` after its deletion fails here."""

import importlib
import types

import pytest

import expsampling as es

MODULES = ("kernels", "spaces", "operators", "analysis", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"expsampling.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_are_module_exports():
    exported = {n for m in MODULES for n in importlib.import_module(f"expsampling.{m}").__all__}
    errors = importlib.import_module("expsampling.errors")
    public = [n for n in dir(es) if not n.startswith("_") and not isinstance(getattr(es, n), types.ModuleType)]
    assert [n for n in public if n not in exported and not hasattr(errors, n)] == []
