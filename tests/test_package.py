"""The package namespace: lazily loaded public names."""

import importlib

import pytest

import eitsim


@pytest.mark.parametrize("name", [n for n in eitsim.__all__
                                  if n != "__version__"])
def test_public_name_is_its_submodule_attribute(name):
    module = importlib.import_module(f"eitsim.{eitsim._MODULE_OF[name]}")
    value = getattr(eitsim, name)
    assert value is getattr(module, name)
    if callable(value):
        # listed under the module that defines it, not one that imports it
        assert value.__module__ == module.__name__


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        eitsim.no_such_name


def test_star_import():
    namespace = {}
    exec("from eitsim import *", namespace)
    assert set(eitsim.__all__) <= set(namespace)
    lambda_system = importlib.import_module("eitsim.lambda_system")
    assert namespace["chi_analytic"] is lambda_system.chi_analytic
    assert namespace["__version__"] == "0.1.0"
