"""Every name a reslab module lists in __all__ exists.  The benchmark's
span tracer looks public functions up through __all__, so a stale entry
would hide a function from it."""

import importlib
import pkgutil

import pytest

import reslab

MODULES = sorted(m.name for m in pkgutil.iter_modules(reslab.__path__))


@pytest.mark.parametrize("modname", MODULES)
def test_every_public_name_resolves(modname):
    mod = importlib.import_module("reslab." + modname)
    names = mod.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(mod, n)] == []
