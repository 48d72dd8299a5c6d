"""Density-matrix container and validation.

Levels are addressed 1-based everywhere in the public API, matching the
conventional labelling of the six-level scheme (1..3 ground hyperfine,
4..6 excited hyperfine).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, StateCorruptionError

# A candidate state further than this from hermitian/unit-trace is rejected
# outright; smaller deviations are repaired (symmetrize + renormalize).
VALIDATION_TOL = 1e-6


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: hermitian, unit trace."""

    matrix: np.ndarray

    @property
    def n_levels(self) -> int:
        return self.matrix.shape[0]

    def population(self, level: int) -> float:
        """Population of a level (1-based)."""
        _check_index(level, self.n_levels)
        return float(self.matrix[level - 1, level - 1].real)

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()


def _check_index(level: int, n: int) -> None:
    if not isinstance(level, (int, np.integer)) or not 1 <= level <= n:
        raise InvalidArgumentError(f"level index {level!r} outside 1..{n}")


def assert_density_matrix(matrix) -> DensityMatrix:
    """Validate and repair a candidate density matrix.

    Deviations from hermiticity or unit trace below VALIDATION_TOL are
    repaired (hermitian part taken, trace renormalized); larger ones raise
    StateCorruptionError.  Populations must be real and non-negative to the
    same tolerance.  This is the one-matrix case of assert_density_matrices.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateCorruptionError(f"expected a square matrix, got shape {m.shape}")
    return DensityMatrix(assert_density_matrices(m[np.newaxis])[0])


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


def coherence(rho: DensityMatrix, m: int, n: int) -> complex:
    """Matrix element rho_mn (1-based level labels)."""
    nlv = rho.n_levels
    _check_index(m, nlv)
    _check_index(n, nlv)
    return complex(rho.matrix[m - 1, n - 1])


def mixed_state(n: int) -> DensityMatrix:
    """Maximally mixed state: every population 1/n, no coherences."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"level count must be a positive int, got {n!r}")
    return DensityMatrix(np.eye(n, dtype=complex) / n)


def basis_state(n: int, level: int) -> DensityMatrix:
    """Pure state with all population in one level (1-based)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError(f"level count must be a positive int, got {n!r}")
    _check_index(level, n)
    m = np.zeros((n, n), dtype=complex)
    m[level - 1, level - 1] = 1.0
    return DensityMatrix(m)
