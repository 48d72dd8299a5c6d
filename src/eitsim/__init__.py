"""eitsim: density-matrix simulation of probe absorption, dispersion and
slow light in a six-level rare-earth-doped crystal driven by probe,
coupling and auxiliary fields, with a three-level closed-form backend and
a full master-equation backend."""

from .bloch import (FieldDrive, Liouvillian, Trajectory, build_hamiltonian,
                    build_liouvillian, evolve, frame_phases, generator_drift,
                    steady_state, steady_states)
from .constants import C_LIGHT, EPSILON_0, HBAR, TWO_PI, hz_to_angular
from .errors import (ConfigError, ConventionError, DivergentVelocityError,
                     EitsimError, InconsistentFrameError, IntegrationError,
                     InvalidArgumentError, SingularParametersError,
                     StateCorruptionError, SteadyStateError)
from .lambda_system import (LambdaParams, Susceptibility, chi_analytic,
                            dchi_prime_ddelta, lambda_from_material,
                            lambda_steady_state, suppression_ratio)
from .materials import (LevelSystem, MaterialParams, derive_gamma,
                        equal_branching, pryso_defaults)
from .optics import (DriveSet, GridSpec, Spectrum, WindowReport, absorption,
                     full_model_chi, group_velocity, make_index_sampler,
                     probe_angular_frequency, refractive_index, rho_to_chi,
                     spectrum_to_csv, sweep, transparency_window,
                     window_width_closed_form)
from .states import (DensityMatrix, assert_density_matrices,
                     assert_density_matrix, basis_state, coherence,
                     mixed_state)
from .validation import ReductionReport, validate_reduction

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT", "EPSILON_0", "HBAR", "TWO_PI", "hz_to_angular",
    "EitsimError", "ConfigError", "ConventionError", "DivergentVelocityError",
    "InconsistentFrameError", "IntegrationError", "InvalidArgumentError",
    "SingularParametersError", "StateCorruptionError", "SteadyStateError",
    "DensityMatrix", "assert_density_matrices", "assert_density_matrix",
    "basis_state", "coherence",
    "mixed_state",
    "LevelSystem", "MaterialParams", "derive_gamma", "equal_branching",
    "pryso_defaults",
    "FieldDrive", "Liouvillian", "Trajectory", "build_hamiltonian",
    "build_liouvillian", "evolve", "frame_phases", "generator_drift",
    "steady_state", "steady_states",
    "LambdaParams", "Susceptibility", "chi_analytic", "dchi_prime_ddelta",
    "lambda_from_material", "lambda_steady_state", "suppression_ratio",
    "DriveSet", "GridSpec", "Spectrum", "WindowReport", "absorption",
    "full_model_chi", "group_velocity", "make_index_sampler",
    "probe_angular_frequency", "refractive_index", "rho_to_chi",
    "spectrum_to_csv", "sweep", "transparency_window",
    "window_width_closed_form",
    "ReductionReport", "validate_reduction",
    "__version__",
]
