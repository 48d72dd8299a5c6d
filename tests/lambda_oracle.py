"""Oracles for the closed-form lambda response that share no code with
eitsim.lambda_system.

lambda_steady_state solves the two coherence equations and nothing else:

    (gamma52 + i d) rho52 = i omega_p / 2 + (i omega_c / 2) rho32
    (gamma32 + i (d - d_c)) rho32 = (i omega_c / 2) rho52

with d_c the coupling detuning.  chi_parts and chi_prime_slope expand the
closed form into two real formulas over the quartic Z (d_c = 0 only), an
evaluation that shares no step with eitsim's complex fraction.
exact_response evaluates chi and its slope in exact rational arithmetic at
the float inputs.
"""

import math
from fractions import Fraction

import numpy as np

from eitsim.errors import SingularParametersError


def lambda_steady_state(p, omega_p: complex, delta: float) -> tuple:
    """Stationary (rho52, rho32) for the LambdaParams p.

    rho32 is returned in the cancelled form -(omega_c * omega_p / 4) / D so
    the gamma32 + i*(delta - d_c) = 0 point stays well defined while the
    coupling is on.
    """
    two_photon = delta - p.coupling_detuning
    if p.gamma32 == 0.0 and two_photon == 0.0 and p.omega_c == 0.0:
        raise SingularParametersError(
            "rho32 is indeterminate when gamma32, delta - coupling_detuning "
            "and omega_c all vanish"
        )
    d = ((p.gamma52 + 1j * delta) * (p.gamma32 + 1j * two_photon)
         + 0.25 * p.omega_c ** 2)
    rho52 = 0.5j * omega_p * (p.gamma32 + 1j * two_photon) / d
    rho32 = -0.25 * p.omega_c * omega_p / d
    return rho52, rho32


def chi_parts(p, delta):
    """(chi_re, chi_im) on resonant coupling, as two real formulas:

    chi_re = A * delta * (delta^2 + gamma32^2 - omega_c^2/4) / Z
    chi_im = A * [gamma32*(gamma32*gamma52 + omega_c^2/4) + delta^2*gamma52] / Z
    Z      = (delta^2 - gamma32*gamma52 - omega_c^2/4)^2
             + delta^2*(gamma52 + gamma32)^2
    """
    assert p.coupling_detuning == 0.0
    delta = np.asarray(delta, dtype=float)
    c = p.gamma32 * p.gamma52 + 0.25 * p.omega_c ** 2
    d2 = delta * delta
    u = d2 - c
    z = u * u + d2 * (p.gamma52 + p.gamma32) ** 2
    a = p.coupling_a
    return (a * delta * (d2 + p.gamma32 ** 2 - 0.25 * p.omega_c ** 2) / z,
            a * (p.gamma32 * c + d2 * p.gamma52) / z)


def chi_prime_slope(p, delta):
    """d chi_re / d delta on resonant coupling: the quotient rule on
    chi_parts' chi_re."""
    assert p.coupling_detuning == 0.0
    delta = np.asarray(delta, dtype=float)
    b = p.gamma32 ** 2 - 0.25 * p.omega_c ** 2
    c = p.gamma32 * p.gamma52 + 0.25 * p.omega_c ** 2
    s = (p.gamma52 + p.gamma32) ** 2
    d2 = delta * delta
    u = d2 - c
    z = u * u + d2 * s
    numer = delta * (d2 + b)
    dz = 2.0 * delta * (2.0 * u + s)
    return p.coupling_a * ((3.0 * d2 + b) * z - numer * dz) / (z * z)


def exact_response(p, delta: float) -> tuple:
    """(chi, slope, chi_scale, slope_scale), each rounded once from exact
    arithmetic at the float inputs.

    chi = i A g / D and slope = Re(A (g^2 - k^2) / D^2) with g = gamma32 +
    i x, x = delta - d_c, k = omega_c / 2 and D = (gamma52 + i delta) g +
    k^2.  The scales bound what rounding each input and product of D by a
    relative eps can move them by, up to a constant: chi_scale =
    |chi| (1 + cond) and slope_scale = A (|g|^2 + k^2) / |D|^2 (1 + 2 cond),
    with cond = (|gamma52 + i delta| |g| + k^2) / |D| and 1-norms for the
    magnitudes in the numerators.
    """
    g52, g32, oc, a, dc, d = map(Fraction, (
        p.gamma52, p.gamma32, p.omega_c, p.coupling_a, p.coupling_detuning,
        delta))
    x = d - dc
    k2 = oc * oc / 4
    dr = g52 * g32 - d * x + k2
    di = g52 * x + d * g32
    m2 = dr * dr + di * di
    # chi = A (-x + i g32) (dr - i di) / |D|^2
    chi = complex(float(a * (-x * dr + g32 * di) / m2),
                  float(a * (g32 * dr + x * di) / m2))
    wr, wi = g32 * g32 - x * x - k2, 2 * g32 * x
    slope = float(a * (wr * (dr * dr - di * di) + wi * 2 * dr * di) / (m2 * m2))
    g1 = g32 + abs(x)
    cond = math.sqrt(float((((g52 + abs(d)) * g1 + k2) ** 2) / m2))
    chi_scale = abs(chi) * (1 + cond)
    slope_scale = float(a * (g1 * g1 + k2) / m2) * (1 + 2 * cond)
    return chi, slope, chi_scale, slope_scale
