"""The package's public surface: exported names and importable modules."""

import importlib
import pkgutil

import crowdgauge


def test_every_public_name_resolves_once():
    names = crowdgauge.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(crowdgauge, name)]
    assert missing == []


def test_every_module_imports():
    modules = [info.name for info in pkgutil.iter_modules(crowdgauge.__path__)]
    assert modules
    for name in modules:
        importlib.import_module(f"crowdgauge.{name}")
