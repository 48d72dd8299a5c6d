"""Physical constants.

Every frequency-like quantity inside the package is angular (rad/s).  Inputs
quoted in Hz are converted once: a `_hz` config key by 2*pi where the run
configuration resolves (config.SPELLINGS), and the dephasing table, which
stays in Hz, in materials.derive_gamma.
"""

import math

EPSILON_0 = 8.8541878128e-12  # vacuum permittivity, F/m (CODATA 2018)
HBAR = 1.054571817e-34  # reduced Planck constant, J s (CODATA 2018)
C_LIGHT = 2.99792458e8  # speed of light in vacuum, m/s (exact)

TWO_PI = 2.0 * math.pi
