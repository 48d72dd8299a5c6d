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


@dataclass(frozen=True)
class Susceptibility:
    """chi = chi_re + i*chi_im, dimensionless: floats at one detuning,
    arrays shaped like the detunings on a grid."""

    chi_re: float
    chi_im: float

    @classmethod
    def of(cls, chi_re, chi_im) -> "Susceptibility":
        """Floats for a 0-d result, arrays otherwise."""
        if np.ndim(chi_re) == 0:
            return cls(chi_re=float(chi_re), chi_im=float(chi_im))
        return cls(chi_re=np.asarray(chi_re), chi_im=np.asarray(chi_im))

    @property
    def as_complex(self) -> complex:
        return complex(self.chi_re, self.chi_im)


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


def _denominator(p: LambdaParams, delta: float) -> complex:
    return ((p.gamma52 + 1j * delta) * (p.gamma32 + 1j * delta)
            + 0.25 * p.omega_c ** 2)


def lambda_steady_state(p: LambdaParams, omega_p: complex,
                        delta: float) -> tuple:
    """Stationary (rho52, rho32) of the two-coherence system.

    rho32 is returned in the cancelled form -(omega_c * omega_p / 4) / D so
    the gamma32 + i*delta = 0 point stays well defined while the coupling
    is on.
    """
    if p.gamma32 == 0.0 and delta == 0.0 and p.omega_c == 0.0:
        raise SingularParametersError(
            "rho32 is indeterminate when gamma32, delta and omega_c all vanish"
        )
    d = _denominator(p, delta)
    rho52 = 0.5j * omega_p * (p.gamma32 + 1j * delta) / d
    rho32 = -0.25 * p.omega_c * omega_p / d
    return rho52, rho32


def _check_regular(z, delta, what: str) -> None:
    """Raise, naming the first detuning, where the denominator Z vanishes."""
    zero = np.reshape(z == 0.0, -1)
    if np.any(zero):
        bad = float(np.reshape(delta, -1)[int(np.argmax(zero))])
        raise SingularParametersError(
            f"{what} is indeterminate at delta = {bad!r} rad/s: gamma32, "
            "delta and omega_c all vanish"
        )


def chi_analytic(p: LambdaParams, delta) -> Susceptibility:
    """Closed-form probe susceptibility chi(delta), elementwise over an
    array of detunings.

    chi_re = A * delta * (delta^2 + gamma32^2 - omega_c^2/4) / Z
    chi_im = A * [gamma32*(gamma32*gamma52 + omega_c^2/4) + delta^2*gamma52] / Z
    Z      = (delta^2 - gamma32*gamma52 - omega_c^2/4)^2
             + delta^2*(gamma52 + gamma32)^2

    Z > 0 except at the single degenerate point delta = gamma32 = omega_c = 0.
    """
    delta = np.asarray(delta, dtype=float)
    c = p.gamma32 * p.gamma52 + 0.25 * p.omega_c ** 2
    d2 = delta * delta
    # u * u, not u ** 2: numpy squares arrays exactly where the scalar pow
    # can land one ulp off, and one detuning must give one value either way.
    u = d2 - c
    z = u * u + d2 * (p.gamma52 + p.gamma32) ** 2
    _check_regular(z, delta, "susceptibility")
    a = p.coupling_a
    chi_re = a * delta * (d2 + p.gamma32 ** 2 - 0.25 * p.omega_c ** 2) / z
    chi_im = a * (p.gamma32 * c + d2 * p.gamma52) / z
    return Susceptibility.of(chi_re, chi_im)


def dchi_prime_ddelta(p: LambdaParams, delta):
    """Exact detuning derivative of chi_re (quotient rule on the closed form);
    a float for one detuning, an array for an array."""
    delta = np.asarray(delta, dtype=float)
    b = p.gamma32 ** 2 - 0.25 * p.omega_c ** 2
    c = p.gamma32 * p.gamma52 + 0.25 * p.omega_c ** 2
    s = (p.gamma52 + p.gamma32) ** 2
    d2 = delta * delta
    u = d2 - c
    z = u * u + d2 * s
    _check_regular(z, delta, "derivative")
    numer = delta * (d2 + b)
    dnumer = 3.0 * d2 + b
    dz = 2.0 * delta * (2.0 * u + s)
    slope = p.coupling_a * (dnumer * z - numer * dz) / (z * z)
    return float(slope) if slope.ndim == 0 else slope


def suppression_ratio(p: LambdaParams) -> float:
    """chi_im(0) without coupling over chi_im(0) with coupling (exact)."""
    if p.gamma32 <= 0:
        raise SingularParametersError(
            "suppression ratio requires gamma32 > 0"
        )
    return 1.0 + 0.25 * p.omega_c ** 2 / (p.gamma32 * p.gamma52)
