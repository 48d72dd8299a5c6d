"""Validation and repair of density matrices held as numpy arrays: one
(n, n) complex matrix, or a (k, n, n) stack of them; and the six-level
initial states.

Levels are addressed 1-based everywhere in the public API, matching the
conventional labelling of the six-level scheme (1..3 ground hyperfine,
4..6 excited hyperfine).
"""

import numpy as np

from .errors import InvalidArgumentError, StateCorruptionError
from .materials import N_LEVELS

# A candidate state further than this from hermitian/unit-trace is rejected
# outright; smaller deviations are repaired (symmetrize + renormalize).
VALIDATION_TOL = 1e-6


def _check_index(level: int) -> None:
    # bool is an int subclass: True would address level 1.
    if (isinstance(level, bool) or not isinstance(level, (int, np.integer))
            or not 1 <= level <= N_LEVELS):
        raise InvalidArgumentError(
            f"level index {level!r} outside 1..{N_LEVELS}")


def assert_density_matrix(matrix) -> np.ndarray:
    """Validate and repair a candidate density matrix; the repaired (n, n)
    complex array is returned.

    Deviations from hermiticity or unit trace below VALIDATION_TOL are
    repaired (hermitian part taken, trace renormalized); larger ones raise
    StateCorruptionError.  Populations must be real and non-negative to the
    same tolerance.  This is the one-matrix case of assert_density_matrices.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateCorruptionError(f"expected a square matrix, got shape {m.shape}")
    return assert_density_matrices(m[np.newaxis])[0]


def assert_density_matrices(stack, label=None) -> np.ndarray:
    """Validate and repair a (k, n, n) stack of candidate density matrices.

    Every matrix passes the gates of assert_density_matrix and gets the same
    repair; the repaired stack is returned.  The first failing matrix raises
    StateCorruptionError, its message prefixed by label(i) when a label
    callable is given.
    """
    m = np.asarray(stack, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise StateCorruptionError(
            f"expected a stack of square matrices, got shape {m.shape}")

    def check(bad, message):
        if np.any(bad):
            i = int(np.argmax(bad))
            prefix = "" if label is None else f"{label(i)}: "
            raise StateCorruptionError(prefix + message(i))

    check(~np.isfinite(m).all(axis=(1, 2)),
          lambda i: "non-finite entries in density matrix")

    adjoint = m.conj().swapaxes(1, 2)
    herm_dev = np.abs(m - adjoint).max(axis=(1, 2))
    check(herm_dev > VALIDATION_TOL,
          lambda i: f"hermiticity deviation {herm_dev[i]:.3e} exceeds "
                    f"{VALIDATION_TOL:.0e}")
    sym = 0.5 * (m + adjoint)

    trace = np.trace(sym, axis1=1, axis2=2).real
    trace_dev = np.abs(trace - 1.0)
    check(trace_dev > VALIDATION_TOL,
          lambda i: f"trace deviation {trace_dev[i]:.3e} exceeds "
                    f"{VALIDATION_TOL:.0e}")
    sym = sym / trace[:, np.newaxis, np.newaxis]

    pops = np.real(np.diagonal(sym, axis1=1, axis2=2))
    check(((pops < -VALIDATION_TOL) | (pops > 1.0 + VALIDATION_TOL)).any(axis=1),
          lambda i: f"populations outside [0, 1]: {pops[i]}")
    return sym


def mixed_state() -> np.ndarray:
    """Maximally mixed six-level state: every population 1/6, no
    coherences."""
    return np.eye(N_LEVELS, dtype=complex) / N_LEVELS


def basis_state(level: int) -> np.ndarray:
    """Pure six-level state with all population in one level (1-based)."""
    _check_index(level)
    m = np.zeros((N_LEVELS, N_LEVELS), dtype=complex)
    m[level - 1, level - 1] = 1.0
    return m


def initial_state(name: str) -> np.ndarray:
    """The six-level state `evolve.initial_state` names, "mixed" or
    "level_<k>"."""
    if name == "mixed":
        return mixed_state()
    return basis_state(int(name.split("_")[1]))
