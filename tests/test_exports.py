import importlib
import pkgutil

import pytest

import fracpois

MODULES = ["fracpois"] + [f"fracpois.{m.name}"
                          for m in pkgutil.iter_modules(fracpois.__path__)]


@pytest.mark.parametrize("name", [
    name for name in MODULES
    if hasattr(importlib.import_module(name), "__all__")])
def test_star_import_resolves_every_export(name):
    """Every name in ``__all__`` exists, so ``import *`` works."""
    exec(f"from {name} import *", {})
