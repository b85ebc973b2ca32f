"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import ecsqp

MODULES = sorted(m.name for m in pkgutil.iter_modules(ecsqp.__path__))


def test_package_exports_resolve():
    assert [n for n in ecsqp.__all__ if not hasattr(ecsqp, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"ecsqp.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
