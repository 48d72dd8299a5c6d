"""Rotating-frame optical Bloch equations.

Builds the rotating-frame Hamiltonian of the six-level model's three fields
in their fixed geometry (probe 5-2, coupling 5-3, auxiliary repump 6-1),
adds Bloch-form relaxation (population branching plus per-pair coherence
decay, not a Lindblad dissipator), and solves the resulting linear master
equation dvec(rho)/dt = L vec(rho) for steady states and transients.  Only
the rotating-frame phases depend on a drive's detuning, so a detuning sweep
is affine: L(delta) = L0 + delta * D with D diagonal.  One factorization at
the complex detuning i * sigma reaches every real delta, and d rho / d
delta, by a Woodbury update of the few entries D moves (see reduction).  The
full backend of the observables reads the probe susceptibility off rho52
here (full_model_chi, full_model_chi_slope).

The generator couples a coherence rho_mk only to rho_jk' with j in m's drive
component and k' in k's, and relaxation couples populations only to
populations.  So L splits into an invariant block P (the populations plus
the coherences inside each drive component: 14 of the 36 entries with all
three fields on) and the rest X, which has no source term.  On X the
hermitian part of L is minus the coherence decay rates for every detuning;
when that is negative definite L_X is nonsingular, rho_X = 0 exactly and
only P is solved (see solved_indices).

The density matrix is vectorized row-major: element (m, k) of the 6 x 6
matrix sits at index 6*m + k of the length-36 state vector.
"""

import math

import numpy as np

from . import kernels
from .config import DriveSet
from .errors import (ConfigError, IntegrationError, InvalidArgumentError,
                     SteadyStateError)
from .materials import N_LEVELS, MaterialParams
from .states import (VALIDATION_TOL, assert_density_matrices,
                     assert_density_matrix)

# Residual gate for the steady-state solve, relative to the generator's
# infinity norm.
STEADY_STATE_RTOL = 1e-9
# The reference solve's two pivot orderings must agree this closely, and a
# detuning must keep DEGENERACY_TOL * sigma off every pole.
DEGENERACY_TOL = 1e-8

# Fixed drive geometry of the six-level model, (upper, lower) 1-based: probe
# 5-2, coupling 5-3 and auxiliary repump 6-1.
PROBE_LEVELS = (5, 2)
COUPLING_LEVELS = (5, 3)
AUX_LEVELS = (6, 1)

# Detuning points full_model_chi solves together.  It only bounds memory:
# no point depends on another, and only rho52 of each slice is kept.  A
# 4,001-point six-level sweep peaks at 0.22, 0.47 and 9.8 MB of tracemalloc
# at chunks of 32, 128 and 4,001 (at 40,001 points: 1.3, 1.3 and 97 MB) and
# takes 45, 26 and 33 ms on one BLAS thread of a shared 2-vCPU VM.
STEADY_STATE_CHUNK = 128

# Length of vec(rho).
_DIM = N_LEVELS * N_LEVELS


def _check_generator(gen) -> None:
    """Refuse, by name, a generator that is not (36, 36)."""
    if np.shape(gen) != (_DIM, _DIM):
        raise ConfigError(
            f"generator shape {np.shape(gen)} is not ({_DIM}, {_DIM})")


def build_hamiltonian(drives, probe_detuning: float) -> np.ndarray:
    """Rotating-frame Hamiltonian divided by hbar, in rad/s, of the three
    fields of the DriveSet drives on their levels, the probe at
    probe_detuning.

    Diagonal: the frame phases p, with p(upper) - p(lower) = detuning for
    each field (omega_atom - omega_field); p2 = p1 = p4 = 0, so p5 = delta_p,
    p3 = delta_p - delta_c and p6 = delta_a.  Off-diagonal: H[u,l] = -rabi/2
    and its conjugate.  A zero-rabi field still sets its phase.
    """
    # Each phase is its lower level's (+0.0) plus the offset, so a -0.0
    # detuning gives +0.0, as a frame anchored at level 2 does.
    p5 = 0.0 + float(probe_detuning)
    phases = (0.0, 0.0, p5 + -float(drives.coupling_detuning), 0.0, p5,
              0.0 + float(drives.aux_detuning))
    if not all(map(math.isfinite, phases)):
        raise ConfigError(f"rotating-frame phases {phases!r} overflow")
    ham = np.diag(phases).astype(complex)
    for (u, l), rabi in ((PROBE_LEVELS, drives.probe_rabi),
                         (COUPLING_LEVELS, drives.coupling_rabi),
                         (AUX_LEVELS, drives.aux_rabi)):
        rabi = complex(rabi)
        ham[u - 1, l - 1] = -0.5 * rabi
        ham[l - 1, u - 1] = -0.5 * np.conj(rabi)
    return ham


def build_liouvillian(mat: MaterialParams, drives: DriveSet,
                      probe_detuning: float) -> np.ndarray:
    """The (36, 36) generator, acting on the row-major vec(rho), of the
    fields of drives on the material's levels, the probe at probe_detuning:
    coherent commutator, population branching, and coherence decay."""
    # Through the module global: the benchmark's traced pass counts
    # build_hamiltonian by that name.
    ham = build_hamiltonian(drives, probe_detuning)
    branching = np.asarray(mat.branching, dtype=float)
    gamma = np.asarray(mat.gamma, dtype=float)
    n = N_LEVELS
    eye = np.eye(n)
    gen = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))

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
    return gen


# Diagonal of dL/d(delta_p), D: only the phases of levels 3 and 5 move with
# the probe detuning, so L(delta_p) = L(0) + delta_p * diag(D) with
# D[6*m + k] = -i (s_m - s_k), s = e_3 + e_5.
_PROBE_PHASE_SLOPE = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 0.0])
PROBE_DRIFT = (-1j * (_PROBE_PHASE_SLOPE[:, None]
                      - _PROBE_PHASE_SLOPE[None, :])).reshape(-1)
PROBE_DRIFT.flags.writeable = False


def _at(delta: float) -> str:
    return f"at delta = {float(delta)!r} rad/s"


def solved_indices(gen0: np.ndarray, drift) -> np.ndarray:
    """Sorted indices of vec(rho) that steady_states solves for; a generator
    that is not (36, 36), or a drift that is not (36,), is refused.

    Block P is the union of the connected components of the off-diagonal
    sparsity of L0 that hold a population; the diagonal, delta * diag(drift)
    included, adds no edges.  L(delta) therefore maps P into P and the rest,
    X, into X for every delta.  If drift is purely imaginary on X and the
    hermitian part of L0 restricted to X is negative definite, then
    Re(v^H L_X(delta) v) < 0 for every v != 0 and real delta, so L_X(delta)
    is nonsingular and rho_X = 0: only P is returned.  Otherwise (X holds a
    coherence with no decay, say) every index is.

    P is walked from L0, not fixed to the 14 entries all three fields link:
    with a field off, that fixed set keeps coherences with no source, whose
    pinned rows in reduction can be singular (with every field off at the
    default material, sigma = gamma_52 and rho_52's row -gamma_52 + sigma is
    exactly 0).
    """
    _check_generator(gen0)
    drift = np.asarray(drift, dtype=complex)
    if drift.shape != (_DIM,):
        raise ConfigError("drift dimension does not match generator")
    linked = (gen0 != 0) | (gen0.T != 0)
    block = np.zeros(_DIM, dtype=bool)
    block[:: N_LEVELS + 1] = True
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


def reduction(gen0: np.ndarray, drift, first=0.0, kind="steady-state"):
    """The one factorization behind steady_states and steady_state_slope;
    pass it to both to share it.  A(delta) = L(delta)[P, P] with the
    trace row in place of rho_11's equation moves only on the diagonal of S,
    the rows with nonzero drift: A(delta) = A(i sigma) + (delta - i sigma)
    E_S C E_S^T, C = diag(drift_S), sigma = ||L0||.  A(i sigma) is
    solved under both pivot orderings for y = A^-1 e_1 and Z = A^-1 E_S; by
    Woodbury A(delta)^-1 e_1 = y - Z R^-1 (delta - i sigma) C y_S with R =
    I + (delta - i sigma) C Z_S, singular only at the poles i sigma - 1/mu,
    mu the eigenvalues of C Z_S.  Errors name first."""
    solved = solved_indices(gen0, drift)
    drift = np.asarray(drift, dtype=complex)
    sigma = np.abs(gen0).sum(axis=1).max()
    rate = drift[solved]
    rate[0] = 0.0  # the trace row carries no delta
    moving = np.flatnonzero(rate)
    pinned = gen0[np.ix_(solved, solved)] + np.diag(1j * sigma * rate)
    pinned[0] = solved % (N_LEVELS + 1) == 0
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
    with np.errstate(over="ignore", invalid="ignore"):
        poles = 1j * sigma - 1.0 / mu[mu != 0]
    if not np.isfinite(poles).all():
        raise SteadyStateError(
            f"{_at(first)}: {kind} system has a pole beyond the float range")
    return (solved, moving, rate[moving], sigma, sol[:, 0], sol[:, 1:], cz,
            poles)


def _shifted(deltas, sigma, factor, name, kind):
    """(delta - i sigma) * factor for each delta, a (k, *factor.shape)
    stack; a delta whose product leaves the float range (a rate near
    1e298 rad/s, say) is refused by name before numpy warns."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = (deltas - 1j * sigma).reshape(-1, *(1,) * factor.ndim) * factor
    if not np.isfinite(out).all():
        i = np.isfinite(out).reshape(deltas.size, -1).all(axis=1).argmin()
        raise SteadyStateError(
            f"{_at(deltas[i])}: {kind} system overflows: (delta - i sigma) "
            f"* {name} is beyond the float range, with sigma = "
            f"||L0|| = {sigma:.3e}")
    return out


def _woodbury(deltas, sigma, cz, poles, rhs, kind="steady-state"):
    """R(delta)^-1 rhs for each delta, (k, |S|); a delta within
    DEGENERACY_TOL * sigma of a pole is refused by name."""
    width = DEGENERACY_TOL * sigma
    gap = np.abs(deltas[:, None] - poles)
    near = ~(gap > width).all(axis=1)
    if near.any():
        i = int(np.argmax(near))
        # With sigma far beyond the grid the gate covers the whole grid, and
        # i sigma - 1/mu can cancel to a pole at 0: name the gate, not only
        # the pole.
        raise SteadyStateError(
            f"{_at(deltas[i])}: singular {kind} system: within {width:.3e} "
            f"of the pole {poles[gap[i].argmin()]:.6e}; the gate "
            f"DEGENERACY_TOL * sigma = {width:.3e} rad/s, with sigma = "
            f"||L0|| = {sigma:.3e}, covers this detuning")
    r = np.eye(cz.shape[0]) + _shifted(deltas, sigma, cz, "C Z_S", kind)
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
    source|| > STEADY_STATE_RTOL * ||L(delta)|| * scale."""
    # L(delta) v = L0 v + delta * (D o v): no second stack.  A residual
    # past the float range fails the gate below as inf or nan.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(vec @ gen0.T + deltas[:, None] * (drift * vec)
                          + source).max(axis=1)
    # ||L(delta)|| summed at a quarter of its size: near |delta| = 1e308
    # its diagonal itself overflows.
    diag0 = np.diagonal(gen0)
    quarter = (0.25 * np.abs(gen0 - np.diag(diag0)).sum(axis=1)
               + np.abs(0.25 * diag0 + (0.25 * deltas)[:, None] * drift)
               ).max(axis=1)
    bound = 4.0 * STEADY_STATE_RTOL * quarter * scale
    bad = ~(residual <= bound)
    if bad.any():
        i = int(np.argmax(bad))
        raise SteadyStateError(
            f"{_at(deltas[i])}: {kind} residual {residual[i]:.3e} exceeds "
            f"{STEADY_STATE_RTOL:.1e} * {norm} = {bound[i]:.3e}")


def steady_states(gen0: np.ndarray, drift, deltas,
                  reduced=None) -> np.ndarray:
    """Stationary density matrices of L(delta) = L0 + delta * diag(drift)
    for every delta, as a validated and repaired (k, 6, 6) stack.

    Only the invariant block P of solved_indices is solved; the certified
    rest of vec(rho) is exactly zero.  Past the reduction (reduced, or one
    made here) each delta costs one |S| x |S| solve (4 x 4 at the default
    drives).  Every point must keep DEGENERACY_TOL * sigma off the poles
    and pass the residual gate ||L v|| <= STEADY_STATE_RTOL * ||L||
    (infinity norms over the full generator), then the state validation; a
    failure names its delta.  The k deltas are solved in one pass that
    holds several (k, 36) temporaries, so a caller with a long grid passes
    it in slices (full_model_chi does) and keeps what it needs.
    """
    drift = np.asarray(drift, dtype=complex)
    deltas = np.asarray(deltas, dtype=float).reshape(-1)
    if reduced is None:
        reduced = reduction(gen0, drift, deltas[0] if deltas.size else 0.0)
    solved, moving, rate, sigma, y, z, cz, poles = reduced
    s = _woodbury(deltas, sigma, cz, poles, _shifted(
        deltas, sigma, rate * y[moving], "C y_S", "steady-state"))
    vec = np.zeros((deltas.size, _DIM), dtype=complex)
    vec[:, solved] = y - (z @ s[..., None])[..., 0]
    _check_residual(gen0, drift, deltas, vec, 0.0, "steady-state")
    return assert_density_matrices(vec.reshape(-1, N_LEVELS, N_LEVELS),
                                   label=lambda i: _at(deltas[i]))


def steady_state_slope(gen0: np.ndarray, drift, delta, rho,
                       reduced=None) -> np.ndarray:
    """d rho / d delta, (6, 6), of the state rho steady_states gave at delta;
    pass that call's reduction as reduced to factor once for both.

    L(delta) rho = 0 and tr rho = 1 give A(delta) rho'_P = -E_S C rho_S,
    which by the reduction's Woodbury identity is rho'_P = -Z R^-1 C rho_S.
    The residual ||L rho' + D o rho|| must stay within STEADY_STATE_RTOL *
    ||L|| * max(||rho'||, 1); a failure or a pole names delta.
    """
    delta = np.array([float(delta)])
    drift = np.asarray(drift, dtype=complex)
    if reduced is None:
        reduced = reduction(gen0, drift, delta[0], "slope")
    solved, moving, _, sigma, _, z, cz, poles = reduced
    source = drift * rho.reshape(-1)
    slope = np.zeros_like(source)
    slope[solved] = -z @ _woodbury(delta, sigma, cz, poles,
                                   source[solved[moving]], "slope")[0]
    _check_residual(gen0, drift, delta, slope[None], source,
                    "slope", max(np.abs(slope).max(), 1.0), "||L|| * ||rho'||")
    return slope.reshape(rho.shape)


def steady_state(gen: np.ndarray) -> np.ndarray:
    """Stationary density matrix of the generator: the one-point call of
    steady_states at delta = 0, so its errors name delta = 0.0."""
    return steady_states(gen, np.zeros(_DIM), np.zeros(1))[0]


def _full_generator(mat: MaterialParams, drives: DriveSet):
    """L0 and D of L(delta) = L0 + delta * diag(D) for the full backend,
    which reads chi as 2 * A * rho52 / omega_p: a zero probe is refused."""
    if drives.probe_rabi == 0:
        raise ConfigError("full backend needs a nonzero probe field")
    return build_liouvillian(mat, drives, 0.0), PROBE_DRIFT


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


def full_model_chi(mat: MaterialParams, drives: DriveSet, probe_detuning):
    """Steady-state six-level susceptibility at one probe detuning or an
    array of them.

    The generator is assembled and reduced once, at zero probe detuning;
    steady_states then solves the detunings as L0 + delta * D, one
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


def full_model_chi_slope(mat: MaterialParams, drives: DriveSet,
                         delta0: float):
    """(chi, dchi'/ddelta) of the full backend at the probe detuning
    delta0: the steady state and its exact slope (chi is linear in rho52)
    from one shared reduction."""
    gen0, drift = _full_generator(mat, drives)
    reduced = reduction(gen0, drift, delta0)
    rho = steady_states(gen0, drift, delta0, reduced)[0]
    slope = steady_state_slope(gen0, drift, delta0, rho, reduced)
    upper, lower = PROBE_LEVELS
    chi = rho_to_chi(rho[upper - 1, lower - 1], mat, drives.probe_rabi)
    dchi_re = rho_to_chi(slope[upper - 1, lower - 1], mat,
                         drives.probe_rabi).real
    return chi, dchi_re


def evolve(rho0, gen: np.ndarray, t_end: float, n_samples: int = 201):
    """Propagate the master equation from rho0 over [0, t_end] on a uniform
    grid of n_samples points, exactly: rho_{k+1} = exp(L dt) rho_k.

    Returns (times, rho, max_trace_dev, max_herm_dev): rho is the
    (n_samples, 6, 6) stack of validated density matrices, one per entry of
    times, and the two deviations are measured on the raw propagated
    samples, before the validation pass cleans the states up.  t_end = 0
    returns the validated initial state alone.  A sample that is
    non-finite or whose trace is off by more than VALIDATION_TOL means the
    propagator itself broke down (the squarings of exp(L dt) amplify its
    rounding; at the default drives this starts near t_end = 1e5 s) and
    raises IntegrationError.
    """
    start = assert_density_matrix(rho0)
    _check_generator(gen)
    if start.shape != (N_LEVELS, N_LEVELS):
        raise ConfigError("initial state dimension does not match generator")
    t_end = float(t_end)
    if not np.isfinite(t_end) or t_end < 0:
        raise InvalidArgumentError("t_end must be finite and non-negative")
    if t_end == 0.0:
        return np.zeros(1), start[np.newaxis], 0.0, 0.0
    if n_samples < 2:
        raise InvalidArgumentError("need at least two samples when t_end > 0")

    times = np.linspace(0.0, t_end, n_samples)
    # Called through the module: the benchmark's traced pass wraps
    # kernels.integrate by that name.
    raw, squarings, _ = kernels.integrate(
        gen, start.reshape(-1), t_end / (n_samples - 1), n_samples)
    mats = raw.reshape(n_samples, N_LEVELS, N_LEVELS)
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
    return (times, assert_density_matrices(mats), float(trace_dev.max()),
            float(herm_dev.max()))
