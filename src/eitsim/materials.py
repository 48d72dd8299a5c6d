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
from collections import namedtuple

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

RATE_CONVENTIONS = ("cyclic", "angular")

BRANCHING_SUM_RTOL = 1e-12


def _lifetimes(values) -> tuple:
    """values as a tuple of floats, each positive (inf allowed)."""
    lifetimes = tuple(map(float, values))
    if not all(t > 0 for t in lifetimes):
        raise InvalidArgumentError("lifetimes must be positive (inf allowed)")
    return lifetimes


def _table(rows) -> tuple:
    return tuple(tuple(map(float, row)) for row in rows)


def _is_square(table, n: int) -> bool:
    return len(table) == n and all(len(row) == n for row in table)


def _finite_non_negative(table) -> bool:
    return all(0 <= value < math.inf for row in table for value in row)


def _symmetric(table) -> bool:
    return all(row[j] == table[j][i] for i, row in enumerate(table)
               for j in range(i))


def derive_gamma(lifetimes, dephasing, rate_convention: str = "cyclic") -> tuple:
    """Coherence decay rates gamma[i][j] in rad/s for every level pair, as
    an n x n tuple of floats, from n lifetimes in s and the n x n
    dephasing table in Hz.

    Pairs without a dephasing entry get the pure lifetime half-sum.
    The diagonal is zero.
    """
    if rate_convention not in RATE_CONVENTIONS:
        raise ConfigError(f"rate_convention must be one of {RATE_CONVENTIONS}")
    inv_t1 = [0.0 if math.isinf(t) else 1.0 / t for t in lifetimes]
    scale, per_hz = ((math.pi, 1.0) if rate_convention == "cyclic"
                     else (0.5, 2.0 * math.pi))
    return tuple(
        tuple(0.0 if i == j
              else scale * (inv_t1[i] + inv_t1[j] + per_hz * deph)
              for j, deph in enumerate(row))
        for i, row in enumerate(dephasing))


class MaterialParams(namedtuple("MaterialParams",
                                "lifetimes branching dephasing gamma "
                                "number_density probe_dipole probe_wavelength "
                                "rate_convention")):
    """Everything the optical response depends on besides the drives; the
    level count n is len(lifetimes).  Tables are tuples of floats.

    lifetimes        n seconds, inf allowed (non-decaying level)
    branching        n x n population decay rates, branching[m][n] = rate
                     of m -> n in 1/s.  Row sums must equal 1/T1 for every
                     level that decays at all; empty rows mark terminal
                     levels whose lifetime enters only derive_gamma.
    dephasing        n x n symmetric pure-dephasing table in Hz (input unit)
    gamma            n x n coherence decay rates, rad/s
    number_density   dopant number density, 1/m^3
    probe_dipole     probe transition dipole moment, C m
    probe_wavelength probe vacuum wavelength, m
    """

    __slots__ = ()

    def __new__(cls, lifetimes, branching, dephasing, gamma, number_density,
                probe_dipole, probe_wavelength, rate_convention="cyclic"):
        n = len(lifetimes)
        if n < 2:
            raise InvalidArgumentError("need at least two levels")
        branching = _table(branching)
        dephasing = _table(dephasing)
        if not _is_square(branching, n) or not _is_square(dephasing, n):
            raise InvalidArgumentError(
                "lifetimes/branching/dephasing shape mismatch")
        lifetimes = _lifetimes(lifetimes)
        if not _finite_non_negative(branching):
            raise InvalidArgumentError(
                "branching rates must be finite and non-negative")
        if any(branching[m][m] != 0 for m in range(n)):
            raise InvalidArgumentError("self-decay entries must be zero")
        if not _finite_non_negative(dephasing):
            raise InvalidArgumentError(
                "dephasing must be finite and non-negative")
        if not _symmetric(dephasing):
            raise InvalidArgumentError("dephasing table must be symmetric")
        for m in range(n):
            total = sum(branching[m])
            if total == 0.0:
                continue  # terminal level; lifetime only feeds derive_gamma
            expected = 1.0 / lifetimes[m]
            if expected == 0.0 or abs(total - expected) > BRANCHING_SUM_RTOL * expected:
                raise ConfigError(
                    f"branching out of level {m + 1} sums to {total!r}, "
                    f"expected 1/T1 = {expected!r}"
                )

        gamma = _table(gamma)
        if not _is_square(gamma, n):
            raise InvalidArgumentError("gamma table shape mismatch")
        if any(g < 0 for row in gamma for g in row) or not _symmetric(gamma):
            raise InvalidArgumentError("gamma must be symmetric and non-negative")
        if not all(math.isfinite(g) for row in gamma for g in row):
            raise InvalidArgumentError(
                "a coherence decay rate overflows: lower config key "
                "'material.dephasing_<ij>_hz' or raise "
                "'material.lifetime_<i>_s'")
        if not number_density > 0:
            raise InvalidArgumentError("number density must be positive")
        if not probe_dipole > 0:
            raise InvalidArgumentError("probe dipole moment must be positive")
        if not probe_wavelength > 0:
            raise InvalidArgumentError("probe wavelength must be positive")
        mat = super().__new__(cls, lifetimes, branching, dephasing, gamma,
                              number_density, probe_dipole, probe_wavelength,
                              rate_convention)
        try:
            finite = math.isfinite(mat.coupling_strength)
        except OverflowError:  # probe_dipole**2 past the float range
            finite = False
        if not finite:
            raise InvalidArgumentError(
                "coupling strength overflows: lower config key 'material."
                "probe_dipole_c_m' or 'material.number_density_per_m3'")
        return mat

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would otherwise skip the
        # checks in __new__.
        return cls(*iterable)

    @property
    def coupling_strength(self) -> float:
        """N |mu|^2 / (eps0 hbar): scale factor between rho_52 and chi, rad/s."""
        return self.number_density * self.probe_dipole**2 / (EPSILON_0 * HBAR)


def equal_branching(lifetimes) -> tuple:
    """The six-level branching table, a 6 x 6 tuple of floats, with 1/T1
    split equally over each level's DEFAULT_DESTINATIONS.  The lifetimes
    are checked first, so a zero one is refused rather than divided by."""
    lifetimes = _lifetimes(lifetimes)
    if len(lifetimes) != N_LEVELS:
        raise InvalidArgumentError(
            f"need {N_LEVELS} lifetimes, got {len(lifetimes)}")
    table = [[0.0] * N_LEVELS for _ in range(N_LEVELS)]
    for m, dests in DEFAULT_DESTINATIONS.items():
        rate = 1.0 / (len(dests) * lifetimes[m - 1])
        for d in dests:
            table[m - 1][d - 1] = rate
    return _table(table)
