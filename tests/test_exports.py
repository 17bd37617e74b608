"""Every name a `cfalign` module lists in `__all__` still resolves.

A deleted function whose name stays in `__all__` breaks only
``from cfalign.<module> import *``, which no test runs; this catches it.
"""

import importlib
import pkgutil

import pytest

import cfalign

# __main__ is the CLI entry point and has no __all__
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(cfalign.__path__, "cfalign.") if m.name != "cfalign.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"
