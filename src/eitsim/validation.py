"""Cross-validation of the full six-level steady state against the
closed-form lambda response on a detuning grid."""

import numpy as np

from .bloch import full_model_chi
from .config import DriveSet
from .errors import InvalidArgumentError
from .lambda_system import chi_analytic, lambda_from_material
from .materials import MaterialParams

# Grid points where the analytic chi_im falls below this fraction of its
# maximum are excluded from relative-deviation statistics (the transparency
# hole would otherwise divide by ~0).
MASK_FRACTION = 0.01


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


def validate_reduction(mat: MaterialParams, drives: DriveSet, grid,
                       analytic_gamma52_factor: float = 1.0) -> dict:
    """Compare full-model chi with the closed form of the same drives over
    the grid; return the worst-case disagreement as a dict.

    max_rel_dev_chi_im is relative to the analytic chi_im pointwise,
    max_rel_dev_chi_re to the analytic |chi| pointwise (chi_re crosses zero
    inside the compared region), both over the n_compared of the n_grid
    points outside the transparency hole; worst_delta_rad_s is where the
    chi_im deviation peaks.  peak_shift_rad_s is the largest displacement
    of corresponding absorption maxima on the grid.

    analytic_gamma52_factor is a fault-injection hook that perturbs only
    the analytic side, used to prove the comparison actually detects
    disagreement.
    """
    deltas = np.atleast_1d(np.asarray(grid, dtype=float))
    if deltas.size < 1:
        raise InvalidArgumentError("grid must contain at least one detuning")

    lam = lambda_from_material(mat, drives)
    if analytic_gamma52_factor != 1.0:
        lam = lam._replace(gamma52=lam.gamma52 * analytic_gamma52_factor)

    ana = np.asarray(chi_analytic(lam, deltas))
    full = full_model_chi(mat, drives, deltas)
    ana_re, ana_im = ana.real, ana.imag
    full_re, full_im = full.real, full.imag

    # Each compared point divides by the closed form's chi_im, so it must be
    # a normal float: a subnormal or zero chi_im is never compared.
    mask = ana_im >= max(MASK_FRACTION * ana_im.max(), np.finfo(float).tiny)
    if not mask.any():
        raise InvalidArgumentError(
            f"the closed-form chi_im peaks at {float(ana_im.max())!r} on this "
            "grid, below the smallest normal float: no relative deviation "
            "to measure")
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

    return {
        "max_rel_dev_chi_im": float(dev_im.max()),
        "max_rel_dev_chi_re": float(dev_re.max()),
        "peak_shift_rad_s": float(peak_shift),
        "worst_delta_rad_s": float(deltas[mask][worst]),
        "n_compared": int(mask.sum()),
        "n_grid": int(deltas.size),
    }
