"""Observable optics derived from the probe coherence: susceptibility,
refractive index, absorption, group velocity, transparency window, and
detuning sweeps over the analytic lambda backend or the full six-level
steady-state backend.
The group velocity needs only chi' and its exact detuning slope.

The observables take and give Python floats and complex numbers, one or a
list of them, so the analytic backend runs on the standard library.  numpy
and the six-level model (bloch, states) load on the first call that needs
them (_load_six_level); the full backend hands its chi over as a list.
"""

import bisect
import math
import operator

from .config import DriveSet, GridSpec
from .constants import C_LIGHT, TWO_PI
from .errors import (ConfigError, ConventionError, DivergentVelocityError,
                     InvalidArgumentError)
from .lambda_system import (chi_analytic, dchi_prime_ddelta, elementwise,
                            lambda_from_material)
from .materials import N_LEVELS, MaterialParams

# The names _load_six_level binds in this module.  steady_state is among
# them only because the benchmark's traced pass (perfbench/launcher.py)
# wraps it under this module's name.
_SIX_LEVEL_NAMES = ("np", "PROBE_DRIFT", "PROBE_LEVELS", "build_hamiltonian",
                    "build_liouvillian", "reduction", "steady_state",
                    "steady_state_slope", "steady_states", "basis_state",
                    "mixed_state")


def _load_six_level() -> None:
    """Import numpy and the six-level model's names into this module.
    Only the first call imports, so a name rebound since (by a tracer or a
    test, say) stays rebound.  The CLI has loaded them already, through
    cli.load_numeric, by the time a command reaches a call of this."""
    global np, PROBE_DRIFT, PROBE_LEVELS, build_hamiltonian, \
        build_liouvillian, reduction, steady_state, steady_state_slope, \
        steady_states, basis_state, mixed_state
    if "np" in globals():
        return
    import numpy as np
    from .bloch import (PROBE_DRIFT, PROBE_LEVELS, build_hamiltonian,
                        build_liouvillian, reduction, steady_state,
                        steady_state_slope, steady_states)
    from .states import basis_state, mixed_state


def __getattr__(name):
    if name not in _SIX_LEVEL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_six_level()
    return globals()[name]


BACKEND_ANALYTIC = "analytic"
BACKEND_FULL = "full"
BACKENDS = (BACKEND_ANALYTIC, BACKEND_FULL)

# chi_im more negative than this violates the absorption sign convention;
# anything between it and zero is rounded up to zero absorption.
CHI_IM_SIGN_TOL = 1e-12

GROUP_INDEX_MIN = 1e-12

# Detuning points full_model_chi solves together.  It only bounds memory:
# no point depends on another, and only rho52 of each slice is kept.  A
# 4,001-point six-level sweep peaks at 0.22, 0.47 and 9.8 MB of tracemalloc
# at chunks of 32, 128 and 4,001 (at 40,001 points: 1.3, 1.3 and 97 MB) and
# takes 45, 26 and 33 ms on one BLAS thread of a shared 2-vCPU VM.
STEADY_STATE_CHUNK = 128


def grid_values(grid: GridSpec) -> list:
    """The grid's detunings as a list, with np.linspace's arithmetic and
    bits, refused unless they increase strictly: a grid too narrow for its
    point count repeats a detuning."""
    start, stop, points = grid.delta_min, grid.delta_max, grid.points
    span, div = stop - start, points - 1
    if div < 1:
        deltas = [0.0 * span + start] if points == 1 else []
    else:
        step = span / div
        deltas = [i * step + start for i in range(div)] + [stop]
    if any(map(operator.le, deltas[1:], deltas)):
        raise InvalidArgumentError("deltas must be strictly increasing")
    return deltas


def initial_state(name: str):
    """The six-level state `evolve.initial_state` names, "mixed" or
    "level_<k>", as a numpy array."""
    _load_six_level()
    if name == "mixed":
        return mixed_state(N_LEVELS)
    return basis_state(N_LEVELS, int(name.split("_")[1]))


def rho_to_chi(rho52, mat: MaterialParams, omega_p: complex):
    """Probe susceptibility from the 5-2 coherence at Rabi frequency
    omega_p: chi = 2 * A * rho52 / omega_p with A = N*mu^2/(eps0*hbar); a
    complex for one rho52, a complex array for an array.

    Raises ZeroDivisionError for omega_p = 0.
    """
    _load_six_level()
    omega_p = complex(omega_p)
    if omega_p == 0:
        raise ZeroDivisionError("probe rabi frequency is zero")
    chi = 2.0 * mat.coupling_strength * np.asarray(rho52, dtype=complex) \
        / omega_p
    return complex(chi) if chi.ndim == 0 else chi


def refractive_index(chi):
    """n = 1 + chi_re/2; a float for one chi, a list for a sequence."""
    return elementwise(lambda chis: [1.0 + 0.5 * c.real for c in chis], chi)


def absorption(chi, wavelength: float):
    """alpha = 0.5 * (2*pi/wavelength) * chi_im, in 1/m; a float for one
    chi, a list for a sequence.

    chi_im below -CHI_IM_SIGN_TOL breaks the sign convention; tiny negative
    values inside the tolerance are clamped to zero absorption.
    """
    if not wavelength > 0:
        raise InvalidArgumentError("wavelength must be positive")
    scale = 0.5 * (TWO_PI / wavelength)

    def alphas(chis):
        chi_im = [c.imag for c in chis]
        low = min(chi_im, default=0.0)
        if low < -CHI_IM_SIGN_TOL:
            raise ConventionError(
                f"chi_im = {float(low)!r} is negative beyond tolerance; "
                "absorption must be non-negative")
        # np.maximum's clamp: a NaN or -0.0 passes through.
        return [a if not a < 0.0 else 0.0 for a in map(scale.__mul__, chi_im)]

    return elementwise(alphas, chi)


def interp_at(x: float, xs, ys):
    """ys, given on the increasing xs, linearly interpolated at x, with
    np.interp's arithmetic and bits for finite slopes; the end values
    outside xs."""
    j = bisect.bisect_right(xs, x) - 1
    if j < 0:
        return ys[0]
    if j == len(xs) - 1 or xs[j] == x:
        return ys[j]
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    return slope * (x - xs[j]) + ys[j]


def probe_angular_frequency(mat: MaterialParams) -> float:
    return TWO_PI * C_LIGHT / mat.probe_wavelength


def window_width_closed_form(gamma52: float, omega_c: float) -> float:
    """Half-absorption window width in the small-gamma32 limit:
    sqrt(gamma52^2 + omega_c^2) - gamma52."""
    return math.hypot(gamma52, omega_c) - gamma52


def peak_index(values) -> int:
    """Index of the first largest of values, which hold no NaN: np.argmax's
    answer."""
    return max(range(len(values)), key=values.__getitem__)


def transparency_window(deltas, alpha, reference_alpha: float):
    """Maximal contiguous interval containing delta = 0 with
    alpha <= reference_alpha / 2 on the increasing grid deltas, as
    (left, right, truncated), edges in rad/s by linear interpolation;
    truncated when the interval runs into the end of the grid.  None when
    alpha(0) is already at or above the threshold: there is no window."""
    if not reference_alpha > 0:
        raise InvalidArgumentError("reference absorption must be positive")
    if deltas[0] > 0.0 or deltas[-1] < 0.0:
        raise ConfigError("spectrum grid must cover delta = 0")
    threshold = 0.5 * reference_alpha

    if interp_at(0.0, deltas, alpha) >= threshold:
        return None

    last = len(deltas) - 1
    center = bisect.bisect_left(deltas, 0.0)
    if center > last or (center > 0 and alpha[center] > threshold):
        center -= 1

    def crossing(inside: int, outside: int) -> float:
        d_in, a_in = deltas[inside], alpha[inside]
        d_out, a_out = deltas[outside], alpha[outside]
        return d_in + (threshold - a_in) * (d_out - d_in) / (a_out - a_in)

    truncated = False
    lo = center
    while lo > 0 and alpha[lo - 1] <= threshold:
        lo -= 1
    if lo == 0:
        left, truncated = float(deltas[0]), True
    else:
        left = crossing(lo, lo - 1)

    hi = center
    while hi < last and alpha[hi + 1] <= threshold:
        hi += 1
    if hi == last:
        right, truncated = float(deltas[-1]), True
    else:
        right = crossing(hi, hi + 1)

    return left, right, truncated


def generator(mat: MaterialParams, drives: DriveSet,
              probe_detuning: float):
    """The six-level generator of the fields of drives on the material's
    levels, the probe at probe_detuning, a numpy array."""
    _load_six_level()
    return build_liouvillian(build_hamiltonian(drives, probe_detuning),
                             mat.levels, mat.gamma)


def _full_generator(mat: MaterialParams, drives: DriveSet):
    """L0 and D of L(delta) = L0 + delta * diag(D) for the full backend,
    which reads chi as 2 * A * rho52 / omega_p: a zero probe is refused."""
    if drives.probe_rabi == 0:
        raise ConfigError("full backend needs a nonzero probe field")
    return generator(mat, drives, 0.0), PROBE_DRIFT


def full_model_chi(mat: MaterialParams, drives: DriveSet, probe_detuning):
    """Steady-state six-level susceptibility at one probe detuning or an
    array of them.

    The generator is assembled and reduced once, at zero probe detuning;
    bloch.steady_states then solves the detunings as L0 + delta * D, one
    STEADY_STATE_CHUNK slice at a time, and only rho52 of each validated
    slice is kept.  A failure names its detuning; one in the reduction
    names the first.
    """
    gen0, drift = _full_generator(mat, drives)
    deltas = np.asarray(probe_detuning, dtype=float)
    shape, deltas = deltas.shape, deltas.reshape(-1)
    reduced = reduction(gen0, drift, deltas[0] if deltas.size else 0.0)
    upper, lower = PROBE_LEVELS
    rho52 = np.empty(deltas.size, dtype=complex)
    for start in range(0, deltas.size, STEADY_STATE_CHUNK):
        chunk = deltas[start:start + STEADY_STATE_CHUNK]
        rho52[start:start + chunk.size] = steady_states(
            gen0, drift, chunk, reduced)[:, upper - 1, lower - 1]
    return rho_to_chi(rho52.reshape(shape), mat, drives.probe_rabi)


def group_velocity(backend: str, mat: MaterialParams, drives: DriveSet,
                   delta0: float) -> float:
    """c / n_g at probe detuning delta0, in m/s, with the exact
    n_g = 1 + chi'/2 - omega0 * 0.5 * dchi'/ddelta (n = 1 + chi'/2 and
    d delta / d omega = -1).  The slope comes from dchi_prime_ddelta or
    bloch.steady_state_slope (chi is linear in rho52), which shares the
    state's reduction.  A non-finite n_g or |n_g| below GROUP_INDEX_MIN
    raises DivergentVelocityError.
    """
    omega0 = probe_angular_frequency(mat)
    if not (math.isfinite(omega0) and omega0 > 0):
        raise InvalidArgumentError(
            f"probe angular frequency {omega0!r} must be positive and finite")
    if backend == BACKEND_FULL:
        gen0, drift = _full_generator(mat, drives)
        reduced = reduction(gen0, drift, delta0)
        rho = steady_states(gen0, drift, delta0, reduced)[0]
        slope = steady_state_slope(gen0, drift, delta0, rho, reduced)
        upper, lower = PROBE_LEVELS
        chi = rho_to_chi(rho[upper - 1, lower - 1], mat, drives.probe_rabi)
        dchi_re = rho_to_chi(slope[upper - 1, lower - 1], mat,
                             drives.probe_rabi).real
    elif backend == BACKEND_ANALYTIC:
        lam = lambda_from_material(mat, drives)
        chi = chi_analytic(lam, delta0)
        dchi_re = dchi_prime_ddelta(lam, delta0)
    else:
        raise ConfigError(f"backend must be one of {BACKENDS}")
    group_index = refractive_index(chi) - omega0 * 0.5 * dchi_re
    if not math.isfinite(group_index):
        raise DivergentVelocityError(
            f"group index {group_index!r} is not finite at delta = "
            f"{float(delta0)!r} rad/s"
        )
    if abs(group_index) < GROUP_INDEX_MIN:
        raise DivergentVelocityError(
            f"group index {group_index!r} is below {GROUP_INDEX_MIN:.0e}"
        )
    return C_LIGHT / group_index


def sweep(backend: str, mat: MaterialParams, drives: DriveSet,
          grid: GridSpec):
    """(deltas, chi, alpha) on the detuning grid as lists, all points in
    one batched call of the chosen backend; n is refractive_index(chi).  A
    grid too narrow for its point count to increase strictly is refused
    before the solve (grid_values).
    """
    if backend not in BACKENDS:
        raise ConfigError(f"backend must be one of {BACKENDS}")
    deltas = grid_values(grid)
    if backend == BACKEND_FULL:
        chi = full_model_chi(mat, drives, deltas).tolist()
    else:
        chi = chi_analytic(lambda_from_material(mat, drives), deltas)
    return deltas, chi, absorption(chi, mat.probe_wavelength)


CSV_HEADER = "delta_rad_s,chi_re,chi_im,n,alpha_per_m"


def csv_text(header: str, columns) -> str:
    """Byte-stable CSV of equal-length columns of Python floats under
    header: the shortest round-trip decimal (repr) of every value."""
    rows = zip(*(map(repr, column) for column in columns))
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def spectrum_to_csv(deltas, chi, alpha) -> str:
    """The spectrum.csv text of sweep's (deltas, chi, alpha)."""
    return csv_text(CSV_HEADER, (deltas, (c.real for c in chi),
                                 (c.imag for c in chi),
                                 refractive_index(chi), alpha))
