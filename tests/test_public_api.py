"""Tests for the package's public surface: every exported name exists."""

import importlib
import pkgutil

import movingcavity


def _submodules_with_exports():
    modules = (
        importlib.import_module(f"movingcavity.{info.name}")
        for info in pkgutil.iter_modules(movingcavity.__path__)
    )
    return [module for module in modules if hasattr(module, "__all__")]


def test_every_exported_name_resolves():
    # a name left in an __all__ list after its object is deleted fails
    # here, not only in a star import
    for module in [movingcavity, *_submodules_with_exports()]:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_exports_only_submodule_exports():
    exported = {"__version__"}
    for module in _submodules_with_exports():
        exported.update(module.__all__)
    assert set(movingcavity.__all__) <= exported
