"""Level structure, relaxation rates and material parameters.

The bundled default is a praseodymium-doped yttrium orthosilicate crystal
modelled with six levels: 1..3 are long-lived ground hyperfine states
(T1 ~ 400 s), 4..6 are short-lived excited hyperfine states (T1 ~ 164 us).
The optical probe couples 5-2, the coupling field 5-3 and an auxiliary
repump 6-1; level 4 carries no field.

Coherence decay rates are derived from lifetimes and pure-dephasing inputs:

    cyclic  (default):  gamma_ij = pi * (1/T1(i) + 1/T1(j) + dephasing_ij[Hz])
    angular:            gamma_ij = 0.5 * (1/T1(i) + 1/T1(j) + 2*pi*dephasing_ij)

The cyclic rule treats the lifetime inverses as Hz-like rates and converts the
half-sum to rad/s in one go; it is the convention that reproduces the measured
gamma_32 ~ 6.28e3 rad/s and gamma_52 ~ 4.74e4 rad/s for the default inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import EPSILON_0, HBAR
from .errors import ConfigError, InvalidArgumentError

N_LEVELS = 6

# Default decay destinations: each level decays with equal branching to the
# listed lower levels, at total rate 1/T1.  Level 1 is terminal.
DEFAULT_DESTINATIONS = {
    2: (1,),
    3: (1, 2),
    4: (1, 2, 3),
    5: (1, 2, 3, 4),
    6: (1, 2, 3, 4, 5),
}

GROUND_LIFETIME_S = 400.0
EXCITED_LIFETIME_S = 164e-6
DEFAULT_DEPHASING_HZ = {(3, 2): 2e3, (5, 2): 9e3, (5, 3): 9e3}

NUMBER_DENSITY_PER_M3 = 4.7e24
PROBE_DIPOLE_C_M = 1e-33
# Probe transition wavelength; not part of the rate data set, sourced from
# standard tables for this crystal.
PROBE_WAVELENGTH_M = 605.7e-9

RATE_CONVENTIONS = ("cyclic", "angular")

BRANCHING_SUM_RTOL = 1e-12


@dataclass(frozen=True)
class LevelSystem:
    """Level count, lifetimes and relaxation tables.

    lifetimes : (n,) seconds, np.inf allowed (non-decaying level)
    branching : (n, n) population decay rates, branching[m, n] = rate of
                m -> n in 1/s.  Row sums must equal 1/T1 for every level
                that decays at all; empty rows mark terminal levels whose
                lifetime enters only the coherence-decay derivation.
    dephasing : (n, n) symmetric pure-dephasing table in Hz (input unit).
    """

    n_levels: int
    lifetimes: np.ndarray
    branching: np.ndarray
    dephasing: np.ndarray

    def __post_init__(self):
        n = self.n_levels
        lifetimes = np.asarray(self.lifetimes, dtype=float)
        branching = np.asarray(self.branching, dtype=float)
        dephasing = np.asarray(self.dephasing, dtype=float)
        object.__setattr__(self, "lifetimes", lifetimes)
        object.__setattr__(self, "branching", branching)
        object.__setattr__(self, "dephasing", dephasing)

        if n < 2:
            raise InvalidArgumentError("need at least two levels")
        if lifetimes.shape != (n,) or branching.shape != (n, n) or dephasing.shape != (n, n):
            raise InvalidArgumentError("lifetimes/branching/dephasing shape mismatch")
        if np.any(lifetimes <= 0):
            raise InvalidArgumentError("lifetimes must be positive (np.inf allowed)")
        if np.any(branching < 0) or not np.all(np.isfinite(branching)):
            raise InvalidArgumentError("branching rates must be finite and non-negative")
        if np.any(np.diag(branching) != 0):
            raise InvalidArgumentError("self-decay entries must be zero")
        if np.any(dephasing < 0) or not np.all(np.isfinite(dephasing)):
            raise InvalidArgumentError("dephasing must be finite and non-negative")
        if not np.array_equal(dephasing, dephasing.T):
            raise InvalidArgumentError("dephasing table must be symmetric")

        for m in range(n):
            total = branching[m].sum()
            if total == 0.0:
                continue  # terminal level; lifetime only feeds derive_gamma
            expected = 1.0 / lifetimes[m]
            if expected == 0.0 or abs(total - expected) > BRANCHING_SUM_RTOL * expected:
                raise ConfigError(
                    f"branching out of level {m + 1} sums to {total!r}, "
                    f"expected 1/T1 = {expected!r}"
                )


def derive_gamma(levels: LevelSystem, rate_convention: str = "cyclic") -> np.ndarray:
    """Coherence decay rates gamma_ij in rad/s for every level pair.

    Pairs without a dephasing entry get the pure lifetime half-sum.
    The diagonal is zero.
    """
    if rate_convention not in RATE_CONVENTIONS:
        raise ConfigError(f"rate_convention must be one of {RATE_CONVENTIONS}")
    inv_t1 = np.where(np.isinf(levels.lifetimes), 0.0, 1.0 / levels.lifetimes)
    pair_sum = inv_t1[:, None] + inv_t1[None, :]
    if rate_convention == "cyclic":
        gamma = math.pi * (pair_sum + levels.dephasing)
    else:
        gamma = 0.5 * (pair_sum + 2.0 * math.pi * levels.dephasing)
    np.fill_diagonal(gamma, 0.0)
    return gamma


@dataclass(frozen=True)
class MaterialParams:
    """Everything the optical response depends on besides the drives."""

    levels: LevelSystem
    gamma: np.ndarray  # (n, n) coherence decay rates, rad/s
    number_density: float  # dopant number density, 1/m^3
    probe_dipole: float  # probe transition dipole moment, C m
    probe_wavelength: float  # probe vacuum wavelength, m
    rate_convention: str = "cyclic"

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "gamma", gamma)
        n = self.levels.n_levels
        if gamma.shape != (n, n):
            raise InvalidArgumentError("gamma table shape mismatch")
        if np.any(gamma < 0) or not np.array_equal(gamma, gamma.T):
            raise InvalidArgumentError("gamma must be symmetric and non-negative")
        if not self.number_density > 0:
            raise InvalidArgumentError("number density must be positive")
        if not self.probe_dipole > 0:
            raise InvalidArgumentError("probe dipole moment must be positive")
        if not self.probe_wavelength > 0:
            raise InvalidArgumentError("probe wavelength must be positive")

    @property
    def coupling_strength(self) -> float:
        """N |mu|^2 / (eps0 hbar): scale factor between rho_52 and chi, rad/s."""
        return self.number_density * self.probe_dipole**2 / (EPSILON_0 * HBAR)


def equal_branching(lifetimes: np.ndarray, destinations=None) -> np.ndarray:
    """Branching table with 1/T1 split equally over each level's destinations."""
    if destinations is None:
        destinations = DEFAULT_DESTINATIONS
    n = len(lifetimes)
    table = np.zeros((n, n))
    for m, dests in destinations.items():
        if not dests:
            continue
        rate = 1.0 / (len(dests) * lifetimes[m - 1])
        for d in dests:
            table[m - 1, d - 1] = rate
    return table


def pryso_defaults(rate_convention: str = "cyclic", lifetimes=None,
                   dephasing_hz=None, branching=None) -> MaterialParams:
    """Default six-level Pr3+:Y2SiO5 material.

    Any of the tables can be swapped out wholesale through the keyword
    arguments.  The config layer does not call this: it builds its material
    from the canonical document's keys.
    """
    if lifetimes is None:
        lifetimes = np.array([GROUND_LIFETIME_S] * 3 + [EXCITED_LIFETIME_S] * 3)
    else:
        lifetimes = np.asarray(lifetimes, dtype=float)
    deph = np.zeros((N_LEVELS, N_LEVELS))
    for (i, j), val in (dephasing_hz or DEFAULT_DEPHASING_HZ).items():
        deph[i - 1, j - 1] = val
        deph[j - 1, i - 1] = val
    if branching is None:
        branching = equal_branching(lifetimes)
    levels = LevelSystem(N_LEVELS, lifetimes, branching, deph)
    return MaterialParams(
        levels=levels,
        gamma=derive_gamma(levels, rate_convention),
        number_density=NUMBER_DENSITY_PER_M3,
        probe_dipole=PROBE_DIPOLE_C_M,
        probe_wavelength=PROBE_WAVELENGTH_M,
        rate_convention=rate_convention,
    )
