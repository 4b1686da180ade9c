"""The package's public names: ``rdbp.__all__`` lists them once, and each
comes from the ``__all__`` of the one module that defines it."""

import importlib
import pkgutil

import rdbp

MODULES = {info.name: importlib.import_module(f"rdbp.{info.name}") for info in pkgutil.iter_modules(rdbp.__path__)}


def test_star_import_binds_every_package_name():
    namespace = {}
    exec("from rdbp import *", namespace)
    assert [name for name in rdbp.__all__ if name not in namespace] == []
    assert len(set(rdbp.__all__)) == len(rdbp.__all__)


def test_each_package_name_comes_from_one_module_list():
    for name in rdbp.__all__:
        owners = [stem for stem, module in MODULES.items() if name in getattr(module, "__all__", ())]
        assert len(owners) == 1, (name, owners)
        assert getattr(MODULES[owners[0]], name) is getattr(rdbp, name)
