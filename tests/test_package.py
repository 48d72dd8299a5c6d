"""The package namespace: each public name has one home, its module.

`import eitsim` defines no public name.  The names that the package root
once re-exported are imported from the module that defines them; this
table pins that migration path, `from eitsim.<module> import X`.
"""

import importlib

import pytest

import eitsim

HOME = {
    "bloch": ("build_hamiltonian", "build_liouvillian", "evolve",
              "full_model_chi", "rho_to_chi", "steady_state",
              "steady_states"),
    "config": ("DriveSet", "GridSpec", "pryso_defaults"),
    "constants": ("C_LIGHT", "EPSILON_0", "HBAR", "TWO_PI"),
    "errors": ("ConfigError", "ConventionError", "DivergentVelocityError",
               "EitsimError", "IntegrationError", "InvalidArgumentError",
               "SingularParametersError", "StateCorruptionError",
               "SteadyStateError"),
    "lambda_system": ("LambdaParams", "chi_analytic", "dchi_prime_ddelta",
                      "lambda_from_material"),
    "materials": ("MaterialParams", "derive_gamma", "equal_branching"),
    "optics": ("absorption", "group_velocity", "probe_angular_frequency",
               "refractive_index", "spectrum_to_csv", "sweep",
               "transparency_window", "window_width_closed_form"),
    "states": ("assert_density_matrices", "assert_density_matrix",
               "basis_state", "mixed_state"),
    "validation": ("validate_reduction",),
}


@pytest.mark.parametrize("module_name, name",
                         [(m, n) for m, names in HOME.items() for n in names])
def test_public_name_lives_in_its_module_only(module_name, name):
    module = importlib.import_module(f"eitsim.{module_name}")
    value = getattr(module, name)
    if callable(value):
        # defined there, not imported from elsewhere
        assert value.__module__ == module.__name__
    assert not hasattr(eitsim, name)
    with pytest.raises(ImportError, match=name):
        exec(f"from eitsim import {name}", {})


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        eitsim.no_such_name


def test_star_import_binds_no_public_name():
    namespace = {}
    exec("from eitsim import *", namespace)
    # a submodule imported earlier is an attribute of the package; nothing
    # else is
    bound = {n: v for n, v in namespace.items() if not n.startswith("_")}
    assert all(getattr(v, "__name__", None) == f"eitsim.{n}"
               for n, v in bound.items())
    assert not set(bound) & {n for names in HOME.values() for n in names}
