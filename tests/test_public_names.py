"""Every name a module lists in ``__all__`` resolves in that module, so a
deleted function or class cannot linger in the public surface."""

import importlib

import pytest

import unionerm


@pytest.mark.parametrize("module", ["unionerm"] + [f"unionerm.{name}" for name in unionerm.__all__])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
