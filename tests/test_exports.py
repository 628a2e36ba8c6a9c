"""Every name that a module of the package exports resolves."""

import pkgutil

import pytest

import symqm


@pytest.mark.parametrize("name", sorted(info.name for info in pkgutil.iter_modules(symqm.__path__)))
def test_star_import_resolves(name):
    # A stale entry of __all__ makes the star import raise AttributeError.
    exec(f"from symqm.{name} import *", {})
