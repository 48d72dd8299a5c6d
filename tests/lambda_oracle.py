"""Stationary coherences of the three-level lambda system, solved from its
two coherence equations and nothing else:

    (gamma52 + i d) rho52 = i omega_p / 2 + (i omega_c / 2) rho32
    (gamma32 + i d) rho32 = (i omega_c / 2) rho52

An oracle for the closed-form chi (test_lambda) and for rho52 of the full
six-level steady state at a weak probe (test_bloch); it shares no code with
eitsim.lambda_system.
"""

from eitsim.errors import SingularParametersError


def lambda_steady_state(p, omega_p: complex, delta: float) -> tuple:
    """Stationary (rho52, rho32) for the LambdaParams p.

    rho32 is returned in the cancelled form -(omega_c * omega_p / 4) / D so
    the gamma32 + i*delta = 0 point stays well defined while the coupling
    is on.
    """
    if p.gamma32 == 0.0 and delta == 0.0 and p.omega_c == 0.0:
        raise SingularParametersError(
            "rho32 is indeterminate when gamma32, delta and omega_c all vanish"
        )
    d = ((p.gamma52 + 1j * delta) * (p.gamma32 + 1j * delta)
         + 0.25 * p.omega_c ** 2)
    rho52 = 0.5j * omega_p * (p.gamma32 + 1j * delta) / d
    rho32 = -0.25 * p.omega_c * omega_p / d
    return rho52, rho32
