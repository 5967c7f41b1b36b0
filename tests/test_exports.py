"""Every exported name resolves.

A public name deleted from a module must leave its export list with
it: `from hamca.<module> import *` fails on a name in `__all__` that
the module no longer binds.
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

