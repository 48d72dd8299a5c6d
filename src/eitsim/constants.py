"""Physical constants.

Every frequency-like quantity inside the package is angular (rad/s), and
every configuration key but a dephasing rate is given in rad/s.  The
dephasing table alone is given and stored in Hz; materials.derive_gamma
converts it once.
"""

import math

EPSILON_0 = 8.8541878128e-12  # vacuum permittivity, F/m (CODATA 2018)
HBAR = 1.054571817e-34  # reduced Planck constant, J s (CODATA 2018)
C_LIGHT = 2.99792458e8  # speed of light in vacuum, m/s (exact)

TWO_PI = 2.0 * math.pi
