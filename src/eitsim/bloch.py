"""Rotating-frame optical Bloch equations for an n-level system.

Builds the rotating-frame Hamiltonian from a set of classical drives, adds
Bloch-form relaxation (population branching plus per-pair coherence decay,
not a Lindblad dissipator), and solves the resulting linear master equation
dvec(rho)/dt = L vec(rho) for steady states and transients.  Only the
rotating-frame phases depend on a drive's detuning, so a detuning sweep is
affine: L(delta) = L0 + delta * D with D diagonal.  One factorization at the
complex detuning i * sigma reaches every real delta, and d rho / d delta, by
a Woodbury update of the few entries D moves (see reduction).

The generator couples a coherence rho_mk only to rho_jk' with j in m's drive
component and k' in k's, and relaxation couples populations only to
populations.  So L splits into an invariant block P (the populations plus
the coherences inside each drive component: 14 of 36 entries in the
six-level model) and the rest X, which has no source term.  On X the
hermitian part of L is minus the coherence decay rates for every detuning;
when that is negative definite L_X is nonsingular, rho_X = 0 exactly and
only P is solved (see solved_indices).

The density matrix is vectorized row-major: element (m, k) of the n x n
matrix sits at index m*n + k of the length-n^2 state vector.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (ConfigError, InconsistentFrameError, IntegrationError,
                     InvalidArgumentError, SteadyStateError)
from .materials import LevelSystem
from .states import (VALIDATION_TOL, assert_density_matrices,
                     assert_density_matrix)

# Residual gate for the steady-state solve, relative to the generator's
# infinity norm.
STEADY_STATE_RTOL = 1e-9
# The reference solve's two pivot orderings must agree this closely, and a
# detuning must keep DEGENERACY_TOL * sigma off every pole.
DEGENERACY_TOL = 1e-8

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

    rho is the (n_times, n, n) stack of validated density matrices, one per
    entry of times.  max_trace_dev / max_herm_dev are measured on the raw
    propagated samples, before the validation pass cleans the states up.
    """

    times: np.ndarray
    rho: np.ndarray
    max_trace_dev: float
    max_herm_dev: float

    @property
    def final(self) -> np.ndarray:
        return self.rho[-1]

    def populations(self) -> np.ndarray:
        """(n_times, n_levels) array of level populations."""
        return np.diagonal(self.rho, axis1=1, axis2=2).real.copy()


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
    # One BFS per component: the reference level's first, then each
    # remaining component from its lowest level.
    for root in sorted(range(1, n_levels + 1),
                       key=lambda m: m != FRAME_REFERENCE_LEVEL):
        if assigned[root]:
            continue
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


def solved_indices(lv0: Liouvillian, drift) -> np.ndarray:
    """Sorted indices of vec(rho) that steady_states solves for.

    Block P is the union of the connected components of the off-diagonal
    sparsity of L0 that hold a population; the diagonal, delta * diag(drift)
    included, adds no edges.  L(delta) therefore maps P into P and the rest,
    X, into X for every delta.  If drift is purely imaginary on X and the
    hermitian part of L0 restricted to X is negative definite, then
    Re(v^H L_X(delta) v) < 0 for every v != 0 and real delta, so L_X(delta)
    is nonsingular and rho_X = 0: only P is returned.  Otherwise (X holds a
    coherence with no decay, say) every index is.
    """
    n = lv0.n_levels
    gen0 = lv0.generator
    drift = np.asarray(drift, dtype=complex)
    linked = (gen0 != 0) | (gen0.T != 0)
    block = np.zeros(n * n, dtype=bool)
    block[:: n + 1] = True
    while True:
        grown = block | linked[block].any(axis=0)
        if np.array_equal(grown, block):
            break
        block = grown
    rest = ~block
    if rest.any():
        sub = gen0[np.ix_(rest, rest)]
        if (np.any(drift[rest].real != 0.0)
                or np.linalg.eigvalsh(0.5 * (sub + sub.conj().T)).max() >= 0):
            block[:] = True
    return np.flatnonzero(block)


def reduction(lv0: Liouvillian, drift, first=0.0, kind="steady-state"):
    """The one factorization behind steady_states and steady_state_slope;
    pass it to both to share it.  A(delta) = L(delta)[P, P] with the
    trace row in place of rho_11's equation moves only on the diagonal of S,
    the rows with nonzero drift: A(delta) = A(i sigma) + (delta - i sigma)
    E_S C E_S^T, C = diag(drift_S), sigma = max(||L0||, 1).  A(i sigma) is
    solved under both pivot orderings for y = A^-1 e_1 and Z = A^-1 E_S; by
    Woodbury A(delta)^-1 e_1 = y - Z R^-1 (delta - i sigma) C y_S with R =
    I + (delta - i sigma) C Z_S, singular only at the poles i sigma - 1/mu,
    mu the eigenvalues of C Z_S.  Errors name first."""
    gen0 = lv0.generator
    drift = np.asarray(drift, dtype=complex)
    if drift.shape != (gen0.shape[0],):
        raise ConfigError("drift dimension does not match generator")
    solved = solved_indices(lv0, drift)
    sigma = max(np.abs(gen0).sum(axis=1).max(), 1.0)
    rate = drift[solved]
    rate[0] = 0.0  # the trace row carries no delta
    moving = np.flatnonzero(rate)
    pinned = gen0[np.ix_(solved, solved)] + np.diag(1j * sigma * rate)
    pinned[0] = solved % (lv0.n_levels + 1) == 0
    rhs = np.eye(solved.size, dtype=complex)[:, np.r_[0, moving]]
    try:
        sol = np.linalg.solve(pinned, rhs)
        alt = np.linalg.solve(pinned[::-1], rhs[::-1])
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError(
            f"{_at(first)}: singular {kind} system: {exc}") from exc
    disagreement = np.abs(sol - alt).max()
    if not disagreement <= DEGENERACY_TOL:
        raise SteadyStateError(
            f"{_at(first)}: steady state is not unique: two pivot orderings "
            f"disagree by {disagreement:.3e}")
    cz = rate[moving, None] * sol[moving, 1:]
    mu = np.linalg.eigvals(cz)
    return (solved, moving, rate[moving], sigma, sol[:, 0], sol[:, 1:], cz,
            1j * sigma - 1.0 / mu[mu != 0])


def _woodbury(deltas, sigma, cz, poles, rhs, kind="steady-state"):
    """R(delta)^-1 rhs for each delta, (k, |S|); a delta within
    DEGENERACY_TOL * sigma of a pole is refused by name."""
    gap = np.abs(deltas[:, None] - poles)
    near = ~(gap > DEGENERACY_TOL * sigma).all(axis=1)
    if near.any():
        i = int(np.argmax(near))
        raise SteadyStateError(
            f"{_at(deltas[i])}: singular {kind} system: within "
            f"{DEGENERACY_TOL * sigma:.3e} of the pole "
            f"{poles[gap[i].argmin()]:.6e}")
    r = np.eye(cz.shape[0]) + (deltas - 1j * sigma)[:, None, None] * cz
    try:
        # Right-hand sides as (k, |S|, 1) stacks: numpy 1.x and 2.x read
        # a 1-d b against stacked systems differently.
        return np.linalg.solve(r, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        bad = gap.min(axis=1, initial=np.inf).argmin()
        raise SteadyStateError(
            f"{_at(deltas[bad])}: singular {kind} system: {exc}") from exc


def _check_residual(gen0, drift, deltas, vec, source, kind, scale=1.0,
                    norm="||L||"):
    """Refuse, by its delta, the first row of vec with ||L(delta) v +
    source|| > STEADY_STATE_RTOL * max(||L(delta)||, 1) * scale."""
    # L(delta) v = L0 v + delta * (D o v): no second stack.
    residual = np.abs(vec @ gen0.T + deltas[:, None] * (drift * vec)
                      + source).max(axis=1)
    diag0 = np.diagonal(gen0)
    gen_norm = (np.abs(gen0 - np.diag(diag0)).sum(axis=1)
                + np.abs(diag0 + deltas[:, None] * drift)).max(axis=1)
    bound = STEADY_STATE_RTOL * np.maximum(gen_norm, 1.0) * scale
    bad = ~(residual <= bound)
    if bad.any():
        i = int(np.argmax(bad))
        raise SteadyStateError(
            f"{_at(deltas[i])}: {kind} residual {residual[i]:.3e} exceeds "
            f"{STEADY_STATE_RTOL:.1e} * {norm} = {bound[i]:.3e}")


def steady_states(lv0: Liouvillian, drift, deltas,
                  reduced=None) -> np.ndarray:
    """Stationary density matrices of L(delta) = L0 + delta * diag(drift)
    for every delta, as a validated and repaired (k, n, n) stack.

    Only the invariant block P of solved_indices is solved; the certified
    rest of vec(rho) is exactly zero.  Past the reduction (reduced, or one
    made here) each delta costs one |S| x |S| solve (4 x 4 at the default
    drives).  Every point must keep DEGENERACY_TOL * sigma off the poles
    and pass the residual gate ||L v|| <= STEADY_STATE_RTOL * max(||L||, 1)
    (infinity norms over the full generator), then the state validation; a
    failure names its delta.  The k deltas are solved in one pass that
    holds several (k, n^2) temporaries, so a caller with a long grid passes
    it in slices (optics.full_model_chi does) and keeps what it needs.
    """
    n = lv0.n_levels
    drift = np.asarray(drift, dtype=complex)
    deltas = np.asarray(deltas, dtype=float).reshape(-1)
    if reduced is None:
        reduced = reduction(lv0, drift, deltas[0] if deltas.size else 0.0)
    solved, moving, rate, sigma, y, z, cz, poles = reduced
    s = _woodbury(deltas, sigma, cz, poles, (deltas - 1j * sigma)[:, None]
                  * (rate * y[moving]))
    vec = np.zeros((deltas.size, n * n), dtype=complex)
    vec[:, solved] = y - (z @ s[..., None])[..., 0]
    _check_residual(lv0.generator, drift, deltas, vec, 0.0, "steady-state")
    return assert_density_matrices(vec.reshape(-1, n, n),
                                   label=lambda i: _at(deltas[i]))


def steady_state_slope(lv0: Liouvillian, drift, delta, rho,
                       reduced=None) -> np.ndarray:
    """d rho / d delta, (n, n), of the state rho steady_states gave at delta;
    pass that call's reduction as reduced to factor once for both.

    L(delta) rho = 0 and tr rho = 1 give A(delta) rho'_P = -E_S C rho_S,
    which by the reduction's Woodbury identity is rho'_P = -Z R^-1 C rho_S.
    The residual ||L rho' + D o rho|| must stay within STEADY_STATE_RTOL *
    max(||L||, 1) * max(||rho'||, 1); a failure or a pole names delta.
    """
    delta = np.array([float(delta)])
    drift = np.asarray(drift, dtype=complex)
    if reduced is None:
        reduced = reduction(lv0, drift, delta[0], "slope")
    solved, moving, _, sigma, _, z, cz, poles = reduced
    source = drift * rho.reshape(-1)
    slope = np.zeros_like(source)
    slope[solved] = -z @ _woodbury(delta, sigma, cz, poles,
                                   source[solved[moving]], "slope")[0]
    _check_residual(lv0.generator, drift, delta, slope[None], source,
                    "slope", max(np.abs(slope).max(), 1.0), "||L|| * ||rho'||")
    return slope.reshape(rho.shape)


def steady_state(lv: Liouvillian) -> np.ndarray:
    """Stationary density matrix of the generator: the one-point call of
    steady_states at delta = 0, so its errors name delta = 0.0."""
    zero = np.zeros(lv.n_levels * lv.n_levels)
    return steady_states(lv, zero, np.zeros(1))[0]


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
    start = assert_density_matrix(rho0)
    n = start.shape[0]
    if n != lv.n_levels:
        raise ConfigError("initial state dimension does not match generator")
    t_end = float(t_end)
    if not np.isfinite(t_end) or t_end < 0:
        raise InvalidArgumentError("t_end must be finite and non-negative")
    if t_end == 0.0:
        return Trajectory(times=np.zeros(1), rho=start[np.newaxis],
                          max_trace_dev=0.0, max_herm_dev=0.0)
    if n_samples < 2:
        raise InvalidArgumentError("need at least two samples when t_end > 0")

    times = np.linspace(0.0, t_end, n_samples)
    # Called through the module: the benchmark's traced pass wraps
    # kernels.integrate by that name.
    raw, squarings, _ = kernels.integrate(
        lv.generator, start.reshape(-1), t_end / (n_samples - 1),
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
    return Trajectory(
        times=times, rho=assert_density_matrices(mats),
        max_trace_dev=float(trace_dev.max()),
        max_herm_dev=float(herm_dev.max()),
    )
