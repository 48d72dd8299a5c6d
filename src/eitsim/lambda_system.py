"""Closed-form weak-probe response of the three-level lambda subsystem.

The six-level model reduces, for a weak probe on 5-2 and a coupling field on
5-3 with the population held in level 2, to two coupled coherence equations
whose stationary solution is the probe susceptibility (Fleischhauer,
Imamoglu & Marangos, Rev. Mod. Phys. 77, 633 (2005)):

    chi = i A / F,   F = gamma52 + i delta + k^2 / g,
    k = omega_c / 2,  g = gamma32 + i (delta - delta_c),

with delta_c the coupling detuning.  All rates and frequencies are rad/s;
delta is the probe detuning (omega_atom - omega_field), a float or an array
of them.  F meets 0 * inf at g = 0 (gamma32 = 0 on two-photon resonance,
where chi vanishes), so chi is evaluated as i A (g / s) / (F g / s), with
s = gamma32 + |delta - delta_c| + k keeping g / s and k / s within 1.
"""

from collections import namedtuple

import numpy as np

from .errors import InvalidArgumentError, SingularParametersError
from .materials import MaterialParams


# Largest magnitude R, in rad/s, of a LambdaParams field.  In _scaled, n
# and e are at most 1, so delta - delta_c, s and both parts of G are |delta|
# plus a few terms of at most R, added one at a time.  A float of at most
# the float maximum M plus at most R rounds back to at most M while R is
# below half the spacing of floats at M, 2^970 ~ 9.98e291.  So every finite
# delta keeps every intermediate finite; chi and its slope then divide by G,
# and only a result beyond the float range (|chi| <= A / gamma52) can
# overflow, which chi_analytic and group_velocity refuse.
RATE_MAX = 1e291


class LambdaParams(namedtuple("LambdaParams",
                              "gamma52 gamma32 omega_c coupling_a "
                              "coupling_detuning", defaults=(0.0,))):
    """Inputs of the closed-form response.

    coupling_a is the prefactor between the 5-2 coherence per unit probe
    Rabi frequency and chi: number_density * dipole^2 / (eps0 * hbar).
    coupling_detuning is omega_atom - omega_field of the 5-3 field.
    """

    __slots__ = ()

    def __new__(cls, gamma52, gamma32, omega_c, coupling_a,
                coupling_detuning=0.0):
        vals = (gamma52, gamma32, omega_c, coupling_a, coupling_detuning)
        if not all(np.isfinite(v) for v in vals):
            raise InvalidArgumentError("lambda parameters must be finite")
        for name, value in zip(cls._fields, vals):
            if abs(value) > RATE_MAX:
                raise InvalidArgumentError(
                    f"{name} = {float(value)!r} rad/s exceeds {RATE_MAX:.0e} "
                    "rad/s, beyond which the closed form overflows")
        if not gamma52 > 0:
            raise InvalidArgumentError("gamma52 must be positive")
        if gamma32 < 0 or omega_c < 0:
            raise InvalidArgumentError("gamma32 and omega_c must be >= 0")
        if not coupling_a > 0:
            raise InvalidArgumentError("coupling prefactor must be positive")
        return super().__new__(cls, *vals)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would otherwise skip the
        # checks in __new__.
        return cls(*iterable)


def lambda_from_material(mat: MaterialParams, drives) -> LambdaParams:
    """The lambda-system inputs of the 5-2 probe and the 5-3 coupling field
    of the DriveSet drives."""
    return LambdaParams(
        mat.gamma[4][1], mat.gamma[2][1], float(abs(drives.coupling_rabi)),
        mat.coupling_strength, float(drives.coupling_detuning))


def _refuse(bad, delta, what: str, why: str) -> None:
    """Raise SingularParametersError naming the first detuning where bad
    holds."""
    bad = np.reshape(bad, -1)
    if np.any(bad):
        first = float(np.reshape(delta, -1)[int(np.argmax(bad))])
        raise SingularParametersError(
            f"{what} at delta = {first!r} rad/s: {why}")


def _scaled(p: LambdaParams, delta, what: str):
    """(delta, n, e, G), flat, with n = g / s, e = k / s and G = g F / s =
    (gamma52 + i delta) n + k e, so that chi = i A n / G.  s vanishes only
    where gamma32, delta - delta_c and omega_c all do, and chi is
    indeterminate there: that point is refused by name."""
    # Flat: numpy multiplies complex scalars unlike complex arrays, and one
    # detuning must give one value either way.
    delta = np.asarray(delta, dtype=float).reshape(-1)
    k = 0.5 * p.omega_c
    x = delta - p.coupling_detuning
    s = p.gamma32 + np.abs(x) + k
    _refuse(s == 0.0, delta, f"{what} is indeterminate",
            "gamma32, delta - coupling_detuning and omega_c all vanish")
    # Real divisions: numpy divides a complex by 1 / s, which overflows
    # for a subnormal s.
    n = p.gamma32 / s + 1j * (x / s)
    e = k / s
    return delta, n, e, (p.gamma52 + 1j * delta) * n + k * e


def chi_analytic(p: LambdaParams, delta):
    """Closed-form probe susceptibility chi = i A / F, elementwise: a
    complex for one detuning, a complex array for an array.

    |chi| <= A / gamma52, so only such a bound beyond the float range makes
    chi non-finite; that raises SingularParametersError naming the detuning.
    """
    shape = np.shape(delta)
    # G underflows to 0 only past that bound too.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        delta, n, _, g = _scaled(p, delta, "susceptibility")
        chi = 1j * p.coupling_a * n / g
    _refuse(~np.isfinite(chi), delta, "susceptibility is not finite",
            "the closed form overflows the float range")
    return complex(chi[0]) if shape == () else chi.reshape(shape)


def dchi_prime_ddelta(p: LambdaParams, delta):
    """Exact detuning derivative of chi_re, Re(-i A F' / F^2) with F' =
    i (1 - k^2 / g^2), which the scaling turns into Re(A (n^2 - e^2) / G^2);
    a float for one detuning, an array for an array."""
    # A slope beyond the float range comes out inf or nan; group_velocity
    # refuses that by name, so numpy need not warn as well.
    shape = np.shape(delta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, n, e, g = _scaled(p, delta, "derivative")
        slope = (p.coupling_a * (n * n - e * e) / g / g).real
    return float(slope[0]) if shape == () else slope.reshape(shape)
