"""Cross-validation of the full six-level steady state against the
closed-form lambda response on a detuning grid."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidArgumentError
from .lambda_system import LambdaParams, chi_analytic, lambda_from_material
from .materials import MaterialParams
from .optics import WEAK_PROBE_RATIO, DriveSet, full_model_chi

# Grid points where the analytic chi_im falls below this fraction of its
# maximum are excluded from relative-deviation statistics (the transparency
# hole would otherwise divide by ~0).
MASK_FRACTION = 0.01


@dataclass(frozen=True)
class ReductionReport:
    """Worst-case disagreement between the two backends.

    chi_im deviations are relative to the analytic chi_im pointwise;
    chi_re deviations are relative to the analytic |chi| pointwise (chi_re
    crosses zero inside the compared region).  peak_shift_rad_s is the
    largest displacement of corresponding absorption maxima on the grid.
    """

    max_rel_dev_chi_im: float
    max_rel_dev_chi_re: float
    peak_shift_rad_s: float
    worst_delta_rad_s: float
    n_compared: int
    n_grid: int

    def as_dict(self) -> dict:
        return {
            "max_rel_dev_chi_im": self.max_rel_dev_chi_im,
            "max_rel_dev_chi_re": self.max_rel_dev_chi_re,
            "peak_shift_rad_s": self.peak_shift_rad_s,
            "worst_delta_rad_s": self.worst_delta_rad_s,
            "n_compared": self.n_compared,
            "n_grid": self.n_grid,
        }


def _peak_positions(deltas: np.ndarray, chi_im: np.ndarray,
                    two_peaks: bool) -> list:
    if two_peaks:
        positions = []
        for side in (deltas < 0.0, deltas > 0.0):
            if np.any(side):
                idx = np.flatnonzero(side)
                positions.append(deltas[idx[np.argmax(chi_im[idx])]])
        if positions:
            return positions
    return [deltas[int(np.argmax(chi_im))]]


def validate_reduction(mat: MaterialParams, omega_c: float, omega_p: float,
                       grid, omega_a: float = None,
                       analytic_gamma52_factor: float = 1.0) -> ReductionReport:
    """Compare full-model chi with the closed form over the grid.

    omega_a defaults to omega_c.  analytic_gamma52_factor is a fault-
    injection hook that perturbs only the analytic side, used to prove the
    comparison actually detects disagreement.
    """
    deltas = np.atleast_1d(np.asarray(grid, dtype=float))
    if deltas.size < 1:
        raise InvalidArgumentError("grid must contain at least one detuning")
    if not omega_p > 0:
        raise InvalidArgumentError("probe rabi frequency must be positive")
    if omega_c > 0 and omega_p > WEAK_PROBE_RATIO * omega_c:
        raise ConfigError(
            f"weak-probe regime violated: probe rabi {omega_p!r} exceeds "
            f"{WEAK_PROBE_RATIO} * coupling rabi {omega_c!r}"
        )
    if omega_a is None:
        omega_a = omega_c

    lam = lambda_from_material(mat, omega_c)
    if analytic_gamma52_factor != 1.0:
        lam = LambdaParams(
            gamma52=lam.gamma52 * analytic_gamma52_factor,
            gamma32=lam.gamma32, omega_c=lam.omega_c,
            coupling_a=lam.coupling_a,
        )
    drives = DriveSet(probe_rabi=omega_p, coupling_rabi=omega_c,
                      aux_rabi=omega_a)

    ana = chi_analytic(lam, deltas)
    full = full_model_chi(mat, drives, deltas)
    ana_re, ana_im = ana.chi_re, ana.chi_im
    full_re, full_im = full.chi_re, full.chi_im

    mask = ana_im >= MASK_FRACTION * ana_im.max()
    ana_mag = np.hypot(ana_re[mask], ana_im[mask])
    dev_im = np.abs(full_im[mask] - ana_im[mask]) / ana_im[mask]
    dev_re = np.abs(full_re[mask] - ana_re[mask]) / ana_mag
    worst = int(np.argmax(dev_im))

    two_peaks = lam.omega_c > 2.0 * lam.gamma32 and deltas.size >= 3
    peaks_ana = _peak_positions(deltas, ana_im, two_peaks)
    peaks_full = _peak_positions(deltas, full_im, two_peaks)
    peak_shift = max(
        abs(pf - pa) for pf, pa in zip(peaks_full, peaks_ana)
    ) if len(peaks_full) == len(peaks_ana) else float("nan")

    return ReductionReport(
        max_rel_dev_chi_im=float(dev_im.max()),
        max_rel_dev_chi_re=float(dev_re.max()),
        peak_shift_rad_s=float(peak_shift),
        worst_delta_rad_s=float(deltas[mask][worst]),
        n_compared=int(mask.sum()),
        n_grid=int(deltas.size),
    )
