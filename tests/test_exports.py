"""Every exported name resolves, and the export lists agree.

A public name deleted from a module must leave every export list with
it: `from hamca.<module> import *` fails on a name in `__all__` that
the module no longer binds, and `hamca/__init__` re-exports by name
from the modules' lists.
"""

import importlib
import pkgutil

import pytest

import hamca

MODULES = sorted(info.name for info in pkgutil.iter_modules(hamca.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"hamca.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from hamca.{name} import *", {})


def test_package_reexports_are_listed_by_their_modules():
    unlisted = []
    for name, obj in vars(hamca).items():
        if name.startswith("_") or not hasattr(obj, "__module__"):
            continue  # dunders, and the submodules themselves
        home = importlib.import_module(obj.__module__)
        if getattr(home, obj.__name__) is not obj or name not in home.__all__:
            unlisted.append(f"{obj.__module__}.{name}")
    assert unlisted == []
