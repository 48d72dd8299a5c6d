"""Rotating-frame optical Bloch equations for an n-level system.

Builds the rotating-frame Hamiltonian from a set of classical drives, adds
Bloch-form relaxation (population branching plus per-pair coherence decay,
not a Lindblad dissipator), and solves the resulting linear master equation
dvec(rho)/dt = L vec(rho) for steady states and transients.  Only the
rotating-frame phases depend on a drive's detuning, so a detuning sweep is
affine: L(delta) = L0 + delta * D with D diagonal, and its steady states are
solved as stacked batches.

The density matrix is vectorized row-major: element (m, k) of the n x n
matrix sits at index m*n + k of the length-n^2 state vector.
"""

from collections import deque
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import kernels
from .errors import (ConfigError, InconsistentFrameError, IntegrationError,
                     InvalidArgumentError, SteadyStateError)
from .materials import LevelSystem
from .states import (VALIDATION_TOL, DensityMatrix, assert_density_matrices,
                     assert_density_matrix)

# Residual gate for the steady-state solve, relative to the generator's
# infinity norm.
STEADY_STATE_RTOL = 1e-9
# Two independent pivot orderings must agree this closely or the nullspace
# is treated as degenerate.
DEGENERACY_TOL = 1e-8
# Detuning points per stacked solve.  One chunk of pinned 36 x 36 complex
# systems is ~0.33 MB; a 4,001-point sweep stacked at once needs ~270 MB.
# Chunks of 16 to 64 solve a 4,001-point sweep equally fast; larger ones
# only raise the peak memory.
STEADY_STATE_CHUNK = 16

# The reference level whose rotating-frame phase is pinned to zero when it
# participates in the drive graph (the probe's lower level in the default
# six-level model); any other connected component is anchored at its lowest
# level.
FRAME_REFERENCE_LEVEL = 2


@dataclass(frozen=True)
class FieldDrive:
    """One classical field coupling two levels.

    upper/lower are 1-based level indices; rabi is the complex Rabi
    frequency in rad/s; detuning = omega_atom - omega_field in rad/s.
    A zero-rabi drive is legal and still pins the rotating frame.
    """

    upper: int
    lower: int
    rabi: complex
    detuning: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.upper, int) and isinstance(self.lower, int)):
            raise InvalidArgumentError("level indices must be integers")
        if self.upper == self.lower:
            raise InvalidArgumentError("a drive must couple two distinct levels")
        if self.upper < 1 or self.lower < 1:
            raise InvalidArgumentError("level indices are 1-based")
        rabi = complex(self.rabi)
        detuning = float(self.detuning)
        if not (np.isfinite(rabi.real) and np.isfinite(rabi.imag)):
            raise InvalidArgumentError("rabi frequency must be finite")
        if not np.isfinite(detuning):
            raise InvalidArgumentError("detuning must be finite")
        object.__setattr__(self, "rabi", rabi)
        object.__setattr__(self, "detuning", detuning)


@dataclass(frozen=True)
class Liouvillian:
    """Linear generator acting on the row-major vectorized density matrix."""

    generator: np.ndarray
    n_levels: int

    def __post_init__(self):
        gen = np.asarray(self.generator, dtype=complex)
        object.__setattr__(self, "generator", gen)
        dim = self.n_levels * self.n_levels
        if gen.shape != (dim, dim):
            raise ConfigError("generator dimension does not match level count")


@dataclass(frozen=True)
class Trajectory:
    """Sampled transient solution plus propagation diagnostics.

    max_trace_dev / max_herm_dev are measured on the raw propagated samples,
    before the per-state validation pass cleans the states up.
    """

    times: np.ndarray
    states: Tuple[DensityMatrix, ...]
    max_trace_dev: float
    max_herm_dev: float

    @property
    def final(self) -> DensityMatrix:
        return self.states[-1]

    def populations(self) -> np.ndarray:
        """(n_times, n_levels) array of level populations."""
        return np.array([s.populations() for s in self.states])


def _check_drives(n_levels: int, drives) -> None:
    seen = set()
    for d in drives:
        if d.upper > n_levels or d.lower > n_levels:
            raise InvalidArgumentError(
                f"drive {d.upper}-{d.lower} outside 1..{n_levels}"
            )
        pair = frozenset((d.upper, d.lower))
        if pair in seen:
            raise ConfigError(
                f"duplicate drive on level pair {d.lower}-{d.upper}"
            )
        seen.add(pair)


def frame_phases(n_levels: int, drives) -> np.ndarray:
    """Rotating-frame phase derivative (rad/s) for every level.

    Constraint: phase(upper) - phase(lower) = detuning for every drive.
    The component containing FRAME_REFERENCE_LEVEL is anchored there at
    zero; every other component is anchored at its lowest level.  A drive
    cycle whose detunings contradict each other has no consistent frame.
    """
    _check_drives(n_levels, drives)
    adjacency = {m: [] for m in range(1, n_levels + 1)}
    max_det = 1.0
    for d in drives:
        adjacency[d.upper].append((d.lower, -d.detuning))
        adjacency[d.lower].append((d.upper, d.detuning))
        max_det = max(max_det, abs(d.detuning))
    tol = 1e-9 * max_det

    phases = np.zeros(n_levels)
    assigned = [False] * (n_levels + 1)
    for start in range(1, n_levels + 1):
        if assigned[start]:
            continue
        component = []
        stack = [start]
        marked = {start}
        while stack:
            m = stack.pop()
            component.append(m)
            for neighbor, _ in adjacency[m]:
                if neighbor not in marked:
                    marked.add(neighbor)
                    stack.append(neighbor)
        root = FRAME_REFERENCE_LEVEL if FRAME_REFERENCE_LEVEL in component \
            else min(component)
        phases[root - 1] = 0.0
        assigned[root] = True
        queue = deque([root])
        while queue:
            m = queue.popleft()
            for neighbor, offset in adjacency[m]:
                candidate = phases[m - 1] + offset
                if assigned[neighbor]:
                    if abs(phases[neighbor - 1] - candidate) > tol:
                        raise InconsistentFrameError(
                            f"drive cycle through level {neighbor} implies "
                            f"frame phases {phases[neighbor - 1]!r} and "
                            f"{candidate!r}"
                        )
                    continue
                phases[neighbor - 1] = candidate
                assigned[neighbor] = True
                queue.append(neighbor)
    return phases


def build_hamiltonian(n_levels: int, drives) -> np.ndarray:
    """Rotating-frame Hamiltonian divided by hbar, in rad/s.

    Diagonal: frame phases.  Off-diagonal: H[u,l] = -rabi/2 and its
    conjugate, for each drive.
    """
    ham = np.diag(frame_phases(n_levels, drives)).astype(complex)
    for d in drives:
        u, l = d.upper - 1, d.lower - 1
        ham[u, l] = -0.5 * d.rabi
        ham[l, u] = -0.5 * np.conj(d.rabi)
    return ham


def build_liouvillian(ham: np.ndarray, levels: LevelSystem,
                      gamma: np.ndarray) -> Liouvillian:
    """Assemble the full generator: coherent commutator, population
    branching, and coherence decay."""
    n = levels.n_levels
    ham = np.asarray(ham, dtype=complex)
    gamma = np.asarray(gamma, dtype=float)
    if ham.shape != (n, n):
        raise ConfigError("Hamiltonian dimension does not match level count")
    if gamma.shape != (n, n):
        raise ConfigError("gamma table dimension does not match level count")

    eye = np.eye(n)
    gen = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))

    branching = levels.branching
    for m in range(n):
        row = m * n + m
        gen[row, row] -= branching[m].sum()
        for j in range(n):
            if j != m:
                gen[row, j * n + j] += branching[j, m]
    for m in range(n):
        for k in range(n):
            if m != k:
                gen[m * n + k, m * n + k] -= gamma[m, k]
    return Liouvillian(generator=gen, n_levels=n)


def generator_drift(n_levels: int, slope_drives) -> np.ndarray:
    """Diagonal of dL/d(delta), D, for a sweep parameter delta that moves
    each drive's detuning by that drive's `detuning` per unit delta.

    The frame phases are linear in the detunings and nothing else in the
    generator depends on them, so L(delta) = L(0) + delta * diag(D) with
    D[m*n + k] = -i (p_m - p_k), p the phases of slope_drives.
    """
    slopes = frame_phases(n_levels, slope_drives)
    return (-1j * (slopes[:, None] - slopes[None, :])).reshape(-1)


def _at(delta: float) -> str:
    return f"at delta = {float(delta)!r} rad/s"


def _first_singular(pinned: np.ndarray, first: np.ndarray) -> int:
    """Index of the first stacked system that either pivot ordering finds
    singular."""
    for i, a in enumerate(pinned):
        try:
            np.linalg.solve(a, first)
            np.linalg.solve(a[::-1], first[::-1])
        except np.linalg.LinAlgError:
            return i
    return 0


def steady_states(lv0: Liouvillian, drift, deltas) -> np.ndarray:
    """Stationary density matrices of L(delta) = L0 + delta * diag(drift)
    for every delta, as a validated and repaired (k, n, n) stack.

    Each point is a dense solve by elimination with partial pivoting, with
    the trace constraint substituted for the first row, re-solved under the
    reversed row ordering to detect degenerate (non-unique) nullspaces.
    Points go in chunks of STEADY_STATE_CHUNK stacked systems, one
    np.linalg.solve per ordering.  Every point must pass the residual gate
    ||L v|| <= STEADY_STATE_RTOL * max(||L||, 1) (infinity norms) and the
    DEGENERACY_TOL agreement gate, then the state validation; a failure
    names its delta.
    """
    n = lv0.n_levels
    dim = n * n
    gen0 = lv0.generator
    drift = np.asarray(drift, dtype=complex)
    deltas = np.asarray(deltas, dtype=float).reshape(-1)
    if drift.shape != (dim,):
        raise ConfigError("drift dimension does not match generator")

    diag = np.arange(dim)
    diag0 = gen0[diag, diag]
    off_diag_norm = np.abs(gen0 - np.diag(diag0)).sum(axis=1)
    trace_row = np.zeros(dim, dtype=complex)
    trace_row[:: n + 1] = 1.0
    first = np.zeros(dim, dtype=complex)
    first[0] = 1.0

    states = np.empty((deltas.size, n, n), dtype=complex)
    for start in range(0, deltas.size, STEADY_STATE_CHUNK):
        chunk = deltas[start:start + STEADY_STATE_CHUNK]
        diags = diag0 + chunk[:, None] * drift
        pinned = np.repeat(gen0[np.newaxis], chunk.size, axis=0)
        pinned[:, diag, diag] = diags
        pinned[:, 0, :] = trace_row
        # Right-hand sides as (k, dim, 1) stacks: numpy 1.x and 2.x read
        # a 1-d b against stacked systems differently.
        rhs = np.broadcast_to(first[:, np.newaxis], (chunk.size, dim, 1))
        try:
            vec = np.linalg.solve(pinned, rhs)[..., 0]
            vec_alt = np.linalg.solve(pinned[:, ::-1], rhs[:, ::-1])[..., 0]
        except np.linalg.LinAlgError as exc:
            bad = chunk[_first_singular(pinned, first)]
            raise SteadyStateError(
                f"{_at(bad)}: singular steady-state system: {exc}") from exc

        # L(delta) v = L0 v + delta * (D o v), ||L(delta)|| from the
        # off-diagonal row sums plus the shifted diagonal: no second stack.
        residual = np.abs(vec @ gen0.T + chunk[:, None] * (drift * vec)
                          ).max(axis=1)
        gen_norm = (off_diag_norm + np.abs(diags)).max(axis=1)
        disagreement = np.abs(vec - vec_alt).max(axis=1)
        too_large = residual > STEADY_STATE_RTOL * np.maximum(gen_norm, 1.0)
        not_unique = disagreement > DEGENERACY_TOL
        if np.any(too_large | not_unique):
            i = int(np.argmax(too_large | not_unique))
            if too_large[i]:
                raise SteadyStateError(
                    f"{_at(chunk[i])}: steady-state residual "
                    f"{residual[i]:.3e} exceeds {STEADY_STATE_RTOL:.1e} * "
                    f"||L|| = {STEADY_STATE_RTOL * gen_norm[i]:.3e}"
                )
            raise SteadyStateError(
                f"{_at(chunk[i])}: steady state is not unique: two pivot "
                f"orderings disagree by {disagreement[i]:.3e} "
                f"(residual {residual[i]:.3e})"
            )
        states[start:start + chunk.size] = assert_density_matrices(
            vec.reshape(-1, n, n), label=lambda i: _at(chunk[i]))
    return states


def steady_state(lv: Liouvillian) -> DensityMatrix:
    """Stationary density matrix of the generator: the one-point call of
    steady_states at delta = 0, so its errors name delta = 0.0."""
    zero = np.zeros(lv.n_levels * lv.n_levels)
    return DensityMatrix(steady_states(lv, zero, np.zeros(1))[0])


def evolve(rho0, lv: Liouvillian, t_end: float,
           n_samples: int = 201) -> Trajectory:
    """Propagate the master equation from rho0 over [0, t_end] on a uniform
    grid of n_samples points, exactly: rho_{k+1} = exp(L dt) rho_k.

    t_end = 0 returns the validated initial state alone.  A sample that is
    non-finite or whose trace is off by more than VALIDATION_TOL means the
    propagator itself broke down (the squarings of exp(L dt) amplify its
    rounding; at the default drives this starts near t_end = 1e5 s) and
    raises IntegrationError.
    """
    if isinstance(rho0, DensityMatrix):
        rho0 = rho0.matrix
    start = assert_density_matrix(rho0)
    n = start.n_levels
    if n != lv.n_levels:
        raise ConfigError("initial state dimension does not match generator")
    t_end = float(t_end)
    if not np.isfinite(t_end) or t_end < 0:
        raise InvalidArgumentError("t_end must be finite and non-negative")
    if t_end == 0.0:
        return Trajectory(times=np.zeros(1), states=(start,),
                          max_trace_dev=0.0, max_herm_dev=0.0)
    if n_samples < 2:
        raise InvalidArgumentError("need at least two samples when t_end > 0")

    times = np.linspace(0.0, t_end, n_samples)
    # Called through the module: the benchmark's traced pass wraps
    # kernels.integrate by that name.
    raw, squarings, _ = kernels.integrate(
        lv.generator, start.matrix.reshape(-1), t_end / (n_samples - 1),
        n_samples)
    mats = raw.reshape(n_samples, n, n)
    trace_dev = np.abs(np.einsum("tii->t", mats) - 1.0)
    broken = (~np.isfinite(mats).all(axis=(1, 2))
              | ~(trace_dev <= VALIDATION_TOL))
    if broken.any():
        k = int(np.argmax(broken))
        raise IntegrationError(
            f"propagator exp(L dt) broke down after {squarings} squarings: "
            f"sample at t = {times[k]:.6e} s is non-finite or has trace "
            f"deviation {trace_dev[k]:.3e} > {VALIDATION_TOL:.0e}"
        )
    herm_dev = np.abs(mats - np.conj(np.swapaxes(mats, 1, 2))).max(axis=(1, 2))
    states = tuple(DensityMatrix(m) for m in assert_density_matrices(mats))
    return Trajectory(
        times=times, states=states,
        max_trace_dev=float(trace_dev.max()),
        max_herm_dev=float(herm_dev.max()),
    )
