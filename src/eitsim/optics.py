"""Observable optics derived from the probe coherence: susceptibility,
refractive index, absorption, group velocity, transparency window, and
detuning sweeps over the analytic lambda backend or the full six-level
steady-state backend.
The group velocity needs only chi' and its exact detuning slope.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

# steady_state stays importable here: the benchmark's traced pass
# (perfbench/launcher.py) wraps it under this module's name.
from .bloch import (FieldDrive, build_hamiltonian, build_liouvillian,
                    generator_drift, reduction, steady_state,
                    steady_state_slope, steady_states)
from .constants import C_LIGHT, TWO_PI
from .errors import (ConfigError, ConventionError, DivergentVelocityError,
                     InvalidArgumentError)
from .lambda_system import (chi_analytic, dchi_prime_ddelta,
                            lambda_from_material)
from .materials import MaterialParams

BACKEND_ANALYTIC = "analytic"
BACKEND_FULL = "full"
BACKENDS = (BACKEND_ANALYTIC, BACKEND_FULL)

# Fixed drive geometry of the six-level model: probe 5-2, coupling 5-3,
# auxiliary repump 6-1.
PROBE_LEVELS = (5, 2)
COUPLING_LEVELS = (5, 3)
AUX_LEVELS = (6, 1)

# Largest probe/coupling Rabi ratio the full backend accepts.  Staying under
# it does not keep the probe from redistributing population: with 400 s
# ground lifetimes the saturation parameter Omega_p^2 / (Gamma_5 * gamma_52),
# not this ratio, decides that, and already at 0.01 x coupling the probe
# pumps rho22 - rho55 down to 0.57 near the Autler-Townes peaks.
WEAK_PROBE_RATIO = 0.05

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


@dataclass(frozen=True)
class GridSpec:
    """Uniform detuning grid in rad/s."""

    delta_min: float
    delta_max: float
    points: int

    def __post_init__(self):
        if not (np.isfinite(self.delta_min) and np.isfinite(self.delta_max)):
            raise ConfigError("grid bounds must be finite")
        if self.delta_max <= self.delta_min:
            raise ConfigError("grid needs delta_max > delta_min")
        if self.points < 2:
            raise ConfigError("grid needs at least 2 points")

    def values(self) -> np.ndarray:
        return np.linspace(self.delta_min, self.delta_max, self.points)


@dataclass(frozen=True)
class DriveSet:
    """Rabi frequencies and detunings of the three standard fields.

    The probe detuning stored here is the sweep's reference point; sweeps
    override it per grid point.  Zero-magnitude drives are kept in the
    model because they still anchor the rotating frame.
    """

    probe_rabi: complex
    coupling_rabi: complex
    aux_rabi: complex
    probe_detuning: float = 0.0
    coupling_detuning: float = 0.0
    aux_detuning: float = 0.0

    def field_drives(self, probe_detuning: float) -> tuple:
        return (
            FieldDrive(*PROBE_LEVELS, rabi=self.probe_rabi,
                       detuning=float(probe_detuning)),
            FieldDrive(*COUPLING_LEVELS, rabi=self.coupling_rabi,
                       detuning=self.coupling_detuning),
            FieldDrive(*AUX_LEVELS, rabi=self.aux_rabi,
                       detuning=self.aux_detuning),
        )


@dataclass(frozen=True)
class Spectrum:
    """Probe susceptibility, index and absorption on a detuning grid."""

    backend: str
    deltas: np.ndarray
    chi_re: np.ndarray
    chi_im: np.ndarray
    n_index: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("deltas", "chi_re", "chi_im", "n_index", "alpha"):
            arrays[name] = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arrays[name])
        if any(a.shape != arrays["deltas"].shape for a in arrays.values()):
            raise InvalidArgumentError("spectrum columns must share one shape")
        if np.any(np.diff(arrays["deltas"]) <= 0):
            raise InvalidArgumentError("deltas must be strictly increasing")
        if np.any(arrays["alpha"] < 0):
            raise InvalidArgumentError("alpha must be non-negative")
        if not np.array_equal(arrays["n_index"], 1.0 + 0.5 * arrays["chi_re"]):
            raise InvalidArgumentError("n must equal 1 + chi_re/2 on every row")

    def rows(self):
        for i in range(self.deltas.size):
            yield (self.deltas[i], self.chi_re[i], self.chi_im[i],
                   self.n_index[i], self.alpha[i])


@dataclass(frozen=True)
class WindowReport:
    """Half-absorption transparency interval around zero detuning."""

    width: float  # rad/s
    width_hz: float
    threshold_alpha: float
    reference_alpha: float
    edges: Tuple[float, float]
    has_window: bool
    truncated: bool = False


def rho_to_chi(rho52, mat: MaterialParams, omega_p: complex):
    """Probe susceptibility from the 5-2 coherence at Rabi frequency
    omega_p: chi = 2 * A * rho52 / omega_p with A = N*mu^2/(eps0*hbar); a
    complex for one rho52, a complex array for an array.

    Raises ZeroDivisionError for omega_p = 0.
    """
    omega_p = complex(omega_p)
    if omega_p == 0:
        raise ZeroDivisionError("probe rabi frequency is zero")
    chi = 2.0 * mat.coupling_strength * np.asarray(rho52, dtype=complex) \
        / omega_p
    return complex(chi) if chi.ndim == 0 else chi


def refractive_index(chi):
    """n = 1 + chi_re/2; a float for one chi, an array for an array."""
    return 1.0 + 0.5 * chi.real


def absorption(chi, wavelength: float):
    """alpha = 0.5 * (2*pi/wavelength) * chi_im, in 1/m; a float for one
    chi_im, an array for an array.

    chi_im below -CHI_IM_SIGN_TOL breaks the sign convention; tiny negative
    values inside the tolerance are clamped to zero absorption.
    """
    if not wavelength > 0:
        raise InvalidArgumentError("wavelength must be positive")
    chi_im = np.asarray(chi.imag, dtype=float)
    if np.any(chi_im < -CHI_IM_SIGN_TOL):
        raise ConventionError(
            f"chi_im = {float(chi_im.min())!r} is negative beyond tolerance; "
            "absorption must be non-negative"
        )
    alpha = np.maximum(0.5 * (TWO_PI / wavelength) * chi_im, 0.0)
    return float(alpha) if alpha.ndim == 0 else alpha


def probe_angular_frequency(mat: MaterialParams) -> float:
    return TWO_PI * C_LIGHT / mat.probe_wavelength


def window_width_closed_form(gamma52: float, omega_c: float) -> float:
    """Half-absorption window width in the small-gamma32 limit:
    sqrt(gamma52^2 + omega_c^2) - gamma52."""
    return math.hypot(gamma52, omega_c) - gamma52


def transparency_window(spectrum: Spectrum,
                        reference_alpha: float) -> WindowReport:
    """Maximal contiguous interval containing delta = 0 with
    alpha <= reference_alpha / 2; edges by linear interpolation."""
    if not reference_alpha > 0:
        raise InvalidArgumentError("reference absorption must be positive")
    deltas, alpha = spectrum.deltas, spectrum.alpha
    if deltas[0] > 0.0 or deltas[-1] < 0.0:
        raise ConfigError("spectrum grid must cover delta = 0")
    threshold = 0.5 * reference_alpha

    if float(np.interp(0.0, deltas, alpha)) >= threshold:
        return WindowReport(
            width=0.0, width_hz=0.0, threshold_alpha=threshold,
            reference_alpha=reference_alpha, edges=(0.0, 0.0),
            has_window=False,
        )

    center = int(np.searchsorted(deltas, 0.0))
    if center == deltas.size or (center > 0 and alpha[center] > threshold):
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
    while hi < deltas.size - 1 and alpha[hi + 1] <= threshold:
        hi += 1
    if hi == deltas.size - 1:
        right, truncated = float(deltas[-1]), True
    else:
        right = crossing(hi, hi + 1)

    width = right - left
    return WindowReport(
        width=width, width_hz=width / TWO_PI, threshold_alpha=threshold,
        reference_alpha=reference_alpha, edges=(left, right),
        has_window=True, truncated=truncated,
    )


# The probe detuning per unit sweep parameter of each standard drive: only
# the probe moves.  generator_drift reads nothing but the detunings.
_PROBE_SCAN = DriveSet(0.0, 0.0, 0.0).field_drives(1.0)


def _full_generator(mat: MaterialParams, drives: DriveSet):
    """L0 and D of L(delta) = L0 + delta * diag(D) for the full backend,
    which reads chi as 2 * A * rho52 / omega_p: a zero probe is refused."""
    if drives.probe_rabi == 0:
        raise ConfigError("full backend needs a nonzero probe field")
    n = mat.levels.n_levels
    ham0 = build_hamiltonian(n, drives.field_drives(0.0))
    lv0 = build_liouvillian(ham0, mat.levels, mat.gamma)
    return lv0, generator_drift(n, _PROBE_SCAN)


def full_model_chi(mat: MaterialParams, drives: DriveSet, probe_detuning):
    """Steady-state six-level susceptibility at one probe detuning or an
    array of them.

    The generator is assembled and reduced once, at zero probe detuning;
    bloch.steady_states then solves the detunings as L0 + delta * D, one
    STEADY_STATE_CHUNK slice at a time, and only rho52 of each validated
    slice is kept.  A failure names its detuning; one in the reduction
    names the first.
    """
    lv0, drift = _full_generator(mat, drives)
    deltas = np.asarray(probe_detuning, dtype=float).reshape(-1)
    reduced = reduction(lv0, drift, deltas[0] if deltas.size else 0.0)
    upper, lower = PROBE_LEVELS
    rho52 = np.empty(deltas.size, dtype=complex)
    for start in range(0, deltas.size, STEADY_STATE_CHUNK):
        chunk = deltas[start:start + STEADY_STATE_CHUNK]
        rho52[start:start + chunk.size] = steady_states(
            lv0, drift, chunk, reduced)[:, upper - 1, lower - 1]
    return rho_to_chi(rho52.reshape(np.shape(probe_detuning)), mat,
                      drives.probe_rabi)


def group_velocity(backend: str, mat: MaterialParams, drives: DriveSet,
                   delta0: float) -> float:
    """c / n_g at probe detuning delta0, in m/s, with the exact
    n_g = 1 + chi'/2 - omega0 * 0.5 * dchi'/ddelta (n = 1 + chi'/2 and
    d delta / d omega = -1).  The slope comes from dchi_prime_ddelta or
    bloch.steady_state_slope (chi is linear in rho52), which shares the
    state's reduction.  A non-finite n_g (the closed form overflows far off
    resonance) or |n_g| below GROUP_INDEX_MIN raises
    DivergentVelocityError.
    """
    omega0 = probe_angular_frequency(mat)
    if not (np.isfinite(omega0) and omega0 > 0):
        raise InvalidArgumentError(
            f"probe angular frequency {omega0!r} must be positive and finite")
    if backend == BACKEND_FULL:
        lv0, drift = _full_generator(mat, drives)
        reduced = reduction(lv0, drift, delta0)
        rho = steady_states(lv0, drift, delta0, reduced)[0]
        slope = steady_state_slope(lv0, drift, delta0, rho, reduced)
        upper, lower = PROBE_LEVELS
        chi = rho_to_chi(rho[upper - 1, lower - 1], mat, drives.probe_rabi)
        dchi_re = rho_to_chi(slope[upper - 1, lower - 1], mat,
                             drives.probe_rabi).real
    elif backend == BACKEND_ANALYTIC:
        lam = lambda_from_material(mat, abs(drives.coupling_rabi))
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
          grid: GridSpec) -> Spectrum:
    """Evaluate chi, n, alpha on the detuning grid, all points in one
    batched call of the chosen backend."""
    if backend not in BACKENDS:
        raise ConfigError(f"backend must be one of {BACKENDS}")
    omega_c = abs(drives.coupling_rabi)
    omega_p = abs(drives.probe_rabi)
    deltas = grid.values()
    if backend == BACKEND_FULL:
        if omega_c > 0.0 and omega_p > WEAK_PROBE_RATIO * omega_c:
            raise ConfigError(
                f"full backend requires probe rabi <= {WEAK_PROBE_RATIO} * "
                f"coupling rabi (got {omega_p!r} vs {omega_c!r})"
            )
        chi = full_model_chi(mat, drives, deltas)
    else:
        chi = chi_analytic(lambda_from_material(mat, omega_c), deltas)

    return Spectrum(
        backend=backend, deltas=deltas, chi_re=chi.real, chi_im=chi.imag,
        n_index=1.0 + 0.5 * chi.real,
        alpha=absorption(chi, mat.probe_wavelength),
    )


CSV_HEADER = "delta_rad_s,chi_re,chi_im,n,alpha_per_m"


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """Byte-stable CSV: shortest round-trip decimal per value."""
    lines = [CSV_HEADER]
    for row in spectrum.rows():
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
