"""Closed-form weak-probe response of the three-level lambda subsystem.

The six-level model reduces, for a weak probe on 5-2 and a coupling field on
5-3 with the population held in level 2, to two coupled coherence equations
whose stationary solution gives the probe susceptibility in closed form.
All rates and frequencies are rad/s; delta is the probe detuning
(omega_atom - omega_field), a float or an array of them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SingularParametersError
from .materials import MaterialParams


# Largest magnitude, in rad/s, of a LambdaParams field.  The highest power
# of the rates in the closed forms is Z * Z in dchi_prime_ddelta, degree 8.
# With every rate and |delta| at most R: 0 <= c <= 1.25 R^2, so |u| <= 1.25
# R^2, and (gamma52 + gamma32)^2 <= 4 R^2, so Z <= 1.25^2 R^4 + 4 R^4 < 5.6
# R^4 and Z * Z < 31 R^8.  Every other product stays far lower (the slope's
# numerator A * (dnumer * Z - numer * dZ) < 49 R^7).  31 R^8 below the float
# maximum 1.8e308 needs R < 2.2e38; R = 1e38 also keeps finite the Python
# float powers, such as p.omega_c ** 2, which raise OverflowError instead of
# returning inf.  A |delta| beyond R can still overflow; chi_analytic and
# group_velocity refuse the non-finite result.
RATE_MAX = 1e38


@dataclass(frozen=True)
class LambdaParams:
    """Inputs of the closed-form response.

    coupling_a is the prefactor between the 5-2 coherence per unit probe
    Rabi frequency and chi: number_density * dipole^2 / (eps0 * hbar).
    """

    gamma52: float
    gamma32: float
    omega_c: float
    coupling_a: float

    def __post_init__(self):
        vals = (self.gamma52, self.gamma32, self.omega_c, self.coupling_a)
        if not all(np.isfinite(v) for v in vals):
            raise InvalidArgumentError("lambda parameters must be finite")
        for name, value in zip(("gamma52", "gamma32", "omega_c",
                                "coupling_a"), vals):
            if abs(value) > RATE_MAX:
                raise InvalidArgumentError(
                    f"{name} = {float(value)!r} rad/s exceeds {RATE_MAX:.0e} "
                    "rad/s, beyond which the closed form overflows")
        if not self.gamma52 > 0:
            raise InvalidArgumentError("gamma52 must be positive")
        if self.gamma32 < 0 or self.omega_c < 0:
            raise InvalidArgumentError("gamma32 and omega_c must be >= 0")
        if not self.coupling_a > 0:
            raise InvalidArgumentError("coupling prefactor must be positive")


def lambda_from_material(mat: MaterialParams, omega_c: float) -> LambdaParams:
    """Extract the lambda-system inputs for the 5-2 probe / 5-3 coupling."""
    return LambdaParams(
        gamma52=float(mat.gamma[4, 1]),
        gamma32=float(mat.gamma[2, 1]),
        omega_c=float(omega_c),
        coupling_a=mat.coupling_strength,
    )


def _refuse(bad, delta, what: str, why: str) -> None:
    """Raise SingularParametersError naming the first detuning where bad
    holds."""
    bad = np.reshape(bad, -1)
    if np.any(bad):
        first = float(np.reshape(delta, -1)[int(np.argmax(bad))])
        raise SingularParametersError(
            f"{what} at delta = {first!r} rad/s: {why}")


def _check_regular(z, delta, what: str) -> None:
    """Raise, naming the first detuning, where the denominator Z vanishes."""
    _refuse(z == 0.0, delta, f"{what} is indeterminate",
            "gamma32, delta and omega_c all vanish")


def chi_analytic(p: LambdaParams, delta):
    """Closed-form probe susceptibility chi = chi_re + i*chi_im, elementwise:
    a complex for one detuning, a complex array for an array.

    chi_re = A * delta * (delta^2 + gamma32^2 - omega_c^2/4) / Z
    chi_im = A * [gamma32*(gamma32*gamma52 + omega_c^2/4) + delta^2*gamma52] / Z
    Z      = (delta^2 - gamma32*gamma52 - omega_c^2/4)^2
             + delta^2*(gamma52 + gamma32)^2

    Z > 0 except at the single degenerate point delta = gamma32 = omega_c = 0.
    Far off resonance the numerators and Z overflow; a chi that is then not
    finite raises SingularParametersError naming its detuning.
    """
    delta = np.asarray(delta, dtype=float)
    c = p.gamma32 * p.gamma52 + 0.25 * p.omega_c ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = delta * delta
        # u * u, not u ** 2: numpy squares arrays exactly where the scalar
        # pow can land one ulp off, and one detuning must give one value
        # either way.
        u = d2 - c
        z = u * u + d2 * (p.gamma52 + p.gamma32) ** 2
        _check_regular(z, delta, "susceptibility")
        a = p.coupling_a
        # Two real formulas, assigned by part: chi_re + 1j * chi_im would
        # turn a -0.0 real part into 0.0.
        chi = np.empty(delta.shape, dtype=complex)
        chi.real = (a * delta * (d2 + p.gamma32 ** 2 - 0.25 * p.omega_c ** 2)
                    / z)
        chi.imag = a * (p.gamma32 * c + d2 * p.gamma52) / z
    _refuse(~np.isfinite(chi), delta, "susceptibility is not finite",
            "the closed form overflows this far off resonance")
    return complex(chi) if chi.ndim == 0 else chi


def dchi_prime_ddelta(p: LambdaParams, delta):
    """Exact detuning derivative of chi_re (quotient rule on the closed form);
    a float for one detuning, an array for an array."""
    delta = np.asarray(delta, dtype=float)
    b = p.gamma32 ** 2 - 0.25 * p.omega_c ** 2
    c = p.gamma32 * p.gamma52 + 0.25 * p.omega_c ** 2
    s = (p.gamma52 + p.gamma32) ** 2
    # Far off resonance the slope overflows to inf or nan; group_velocity
    # refuses that by name, so numpy need not warn as well.
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = delta * delta
        u = d2 - c
        z = u * u + d2 * s
        _check_regular(z, delta, "derivative")
        numer = delta * (d2 + b)
        dnumer = 3.0 * d2 + b
        dz = 2.0 * delta * (2.0 * u + s)
        slope = p.coupling_a * (dnumer * z - numer * dz) / (z * z)
    return float(slope) if slope.ndim == 0 else slope
