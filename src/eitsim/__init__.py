"""eitsim: density-matrix simulation of probe absorption, dispersion and
slow light in a six-level rare-earth-doped crystal driven by probe,
coupling and auxiliary fields, with a three-level closed-form backend and
a full master-equation backend.

The public names below load on first access (PEP 562), so `import eitsim`
imports no numpy and `eitsim.cli` can fix numpy's BLAS threads before
numpy starts.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
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
    "materials": ("LevelSystem", "MaterialParams", "derive_gamma",
                  "equal_branching"),
    "optics": ("absorption", "group_velocity", "probe_angular_frequency",
               "refractive_index", "spectrum_to_csv", "sweep",
               "transparency_window", "window_width_closed_form"),
    "states": ("assert_density_matrices", "assert_density_matrix",
               "basis_state", "mixed_state"),
    "validation": ("validate_reduction",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
