"""Closed-form weak-probe response of the three-level lambda subsystem.

The six-level model reduces, for a weak probe on 5-2 and a coupling field on
5-3 with the population held in level 2, to two coupled coherence equations
whose stationary solution is the probe susceptibility (Fleischhauer,
Imamoglu & Marangos, Rev. Mod. Phys. 77, 633 (2005)):

    chi = i A / F,   F = gamma52 + i delta + k^2 / g,
    k = omega_c / 2,  g = gamma32 + i (delta - delta_c),

with delta_c the coupling detuning.  All rates and frequencies are rad/s;
delta is the probe detuning (omega_atom - omega_field), a float or a
sequence of them, evaluated point by point in Python complex arithmetic, so
the closed form needs no numpy.  F meets 0 * inf at g = 0 (gamma32 = 0 on
two-photon resonance, where chi vanishes), so chi is evaluated as
i A (g / s) / (F g / s), with s = gamma32 + |delta - delta_c| + k keeping
g / s and k / s within 1.
"""

import cmath
import math
from collections import namedtuple

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
        if not all(math.isfinite(v) for v in vals):
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


def elementwise(f, values):
    """f of a sequence of values (a list, a tuple or a numpy array), or
    f([value])[0] of one value: f maps a sequence to the list of its
    elementwise results."""
    try:
        iter(values)
    except TypeError:
        return f([values])[0]
    return f(values)


def _scaled(p: LambdaParams, deltas, what: str):
    """(delta, n, e, G) for each detuning of deltas, as Python numbers, with
    n = g / s, e = k / s and G = g F / s = (gamma52 + i delta) n + k e, so
    that chi = i A n / G.  s vanishes only where gamma32, delta - delta_c
    and omega_c all do, and chi is indeterminate there: that point is
    refused by name."""
    gamma52, gamma32, k = p.gamma52, p.gamma32, 0.5 * p.omega_c
    delta_c = p.coupling_detuning
    for delta in deltas:
        # A numpy scalar would carry the arithmetic into numpy.
        delta = float(delta)
        x = delta - delta_c
        s = gamma32 + abs(x) + k
        if s == 0.0:
            raise SingularParametersError(
                f"{what} is indeterminate at delta = {delta!r} rad/s: "
                "gamma32, delta - coupling_detuning and omega_c all vanish")
        n = complex(gamma32 / s, x / s)
        e = k / s
        yield delta, n, e, complex(gamma52, delta) * n + k * e


def chi_analytic(p: LambdaParams, delta):
    """Closed-form probe susceptibility chi = i A / F, point by point: a
    complex for one detuning, a list of them for a sequence.

    |chi| <= A / gamma52, so only such a bound beyond the float range makes
    chi non-finite; that raises SingularParametersError naming the detuning.
    """
    def chis(deltas):
        ia, isfinite = 1j * p.coupling_a, cmath.isfinite
        out = []
        for d, n, _, g in _scaled(p, deltas, "susceptibility"):
            # G underflows to 0 only past that bound too, and dividing by 0
            # would raise a ZeroDivisionError that names no detuning.
            chi = ia * n / g if g and isfinite(g) else math.nan
            if not isfinite(chi):
                raise SingularParametersError(
                    f"susceptibility is not finite at delta = {d!r} rad/s: "
                    "the closed form overflows the float range")
            out.append(chi)
        return out

    return elementwise(chis, delta)


def dchi_prime_ddelta(p: LambdaParams, delta):
    """Exact detuning derivative of chi_re, Re(-i A F' / F^2) with F' =
    i (1 - k^2 / g^2), which the scaling turns into Re(A (n^2 - e^2) / G^2);
    a float for one detuning, a list of them for a sequence.  A slope beyond
    the float range comes out inf or nan, which group_velocity refuses by
    name."""
    def slopes(deltas):
        a, isfinite = p.coupling_a, cmath.isfinite
        return [(a * (n * n - e * e) / g / g).real
                if g and isfinite(g) else math.nan
                for _, n, e, g in _scaled(p, deltas, "derivative")]

    return elementwise(slopes, delta)
