"""Independent expected outputs for any generated invocation.

The oracle shares no code with `eitsim`.  It rebuilds the six-level model
from the documented defaults and computes what each command must print:

* analytic chi from the complex form chi = i*A*(g32 + i*d) / D of the
  Lambda steady state (the package uses the expanded real form);
* full-backend chi from the steady state of L(d) = L0 + d*D, solved in
  stacked batches with the trace constraint pinned on the rho55 row (the
  package pins rho11 and pivots point by point);
* evolve populations from the exact propagator expm(L*dt) (the package
  integrates with adaptive Dormand-Prince 5(4));
* the window, group-velocity, validate and params headlines from those.

Only the `--set` paths the generator emits are understood here.
"""

import math

import numpy as np
from scipy.linalg import expm

N = 6
EPSILON_0 = 8.8541878128e-12
HBAR = 1.054571817e-34
C_LIGHT = 2.99792458e8
LIFETIMES_S = np.array([400.0] * 3 + [164e-6] * 3)
DEPHASING_HZ = {(3, 2): 2e3, (5, 2): 9e3, (5, 3): 9e3}
DECAY_DESTINATIONS = {2: (1,), 3: (1, 2), 4: (1, 2, 3), 5: (1, 2, 3, 4),
                      6: (1, 2, 3, 4, 5)}
NUMBER_DENSITY = 4.7e24
PROBE_DIPOLE = 1e-33
WAVELENGTH = 605.7e-9
WINDOW_POINTS = 4001
WINDOW_SPAN_WIDTHS = 2.0
VALIDATE_MASK_FRACTION = 0.01
SOLVE_BATCH = 512  # 512 stacked 36x36 complex systems are ~10 MB

DEFAULTS = {
    "drives.probe_rabi_rad_s": 1.5e3,
    "drives.coupling_rabi_rad_s": 1.5e6,
    "drives.aux_rabi_rad_s": 1.5e6,
    "drives.probe_detuning_rad_s": 0.0,
    "grid.delta_min_rad_s": -2e7,
    "grid.delta_max_rad_s": 2e7,
    "grid.points_count": 201,
    "evolve.t_end_s": 10e-3,
    "evolve.samples_count": 201,
    "evolve.initial_state": "mixed",
    "validate.max_dev_rel": 0.02,
    "validate.fault_gamma52_factor": 1.0,
    "conventions.rate_convention": "cyclic",
}
COUPLING_A = NUMBER_DENSITY * PROBE_DIPOLE ** 2 / (EPSILON_0 * HBAR)


def _idx(m: int, k: int) -> int:
    """Row-major position of rho_mk (1-based levels) in vec(rho)."""
    return (m - 1) * N + (k - 1)


def gamma_table(convention: str = "cyclic") -> np.ndarray:
    inv = 1.0 / LIFETIMES_S
    deph = np.zeros((N, N))
    for (m, k), hz in DEPHASING_HZ.items():
        deph[m - 1, k - 1] = deph[k - 1, m - 1] = hz
    pair = inv[:, None] + inv[None, :]
    if convention == "cyclic":
        gamma = math.pi * (pair + deph)
    else:
        gamma = 0.5 * (pair + 2.0 * math.pi * deph)
    np.fill_diagonal(gamma, 0.0)
    return gamma


def _generator_parts(p: dict):
    """(L0, D) with L(d) = L0 + d*D for probe detuning d."""
    gamma = gamma_table(p["conventions.rate_convention"])
    omega_p = p["drives.probe_rabi_rad_s"]
    omega_c = p["drives.coupling_rabi_rad_s"]
    omega_a = p["drives.aux_rabi_rad_s"]
    # Frame: level 2 and level 1 anchor their components; the probe
    # detuning d lifts levels 5 and 3 (coupling and aux detunings are 0).
    ham = np.zeros((N, N), dtype=complex)
    for (u, l), rabi in (((5, 2), omega_p), ((5, 3), omega_c),
                         ((6, 1), omega_a)):
        ham[u - 1, l - 1] = ham[l - 1, u - 1] = -0.5 * rabi
    shift = np.diag([0.0, 0.0, 1.0, 0.0, 1.0, 0.0]).astype(complex)
    eye = np.eye(N)

    def commutator(h):
        return -1j * (np.kron(h, eye) - np.kron(eye, h.T))

    l0 = commutator(ham)
    for m, dests in DECAY_DESTINATIONS.items():
        rate = 1.0 / (len(dests) * LIFETIMES_S[m - 1])
        for d in dests:
            l0[_idx(m, m), _idx(m, m)] -= rate
            l0[_idx(d, d), _idx(m, m)] += rate
    for m in range(1, N + 1):
        for k in range(1, N + 1):
            if m != k:
                l0[_idx(m, k), _idx(m, k)] -= gamma[m - 1, k - 1]
    return l0, commutator(shift)


def full_chi(p: dict, deltas) -> np.ndarray:
    """Complex full-model susceptibility at each probe detuning."""
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    l0, dl = _generator_parts(p)
    pin = _idx(5, 5)
    trace_row = np.zeros(N * N, dtype=complex)
    trace_row[[_idx(m, m) for m in range(1, N + 1)]] = 1.0
    rhs = np.zeros(N * N, dtype=complex)
    rhs[pin] = 1.0
    out = np.empty(deltas.size, dtype=complex)
    for start in range(0, deltas.size, SOLVE_BATCH):
        chunk = deltas[start:start + SOLVE_BATCH]
        a = l0[None, :, :] + chunk[:, None, None] * dl[None, :, :]
        a[:, pin, :] = trace_row
        vec = np.linalg.solve(a, np.broadcast_to(rhs[:, None],
                                                 (chunk.size, N * N, 1)))
        out[start:start + chunk.size] = vec[:, _idx(5, 2), 0]
    return 2.0 * COUPLING_A * out / p["drives.probe_rabi_rad_s"]


def _lambda_rates(p: dict, gamma52_factor: float = 1.0):
    gamma = gamma_table(p["conventions.rate_convention"])
    return gamma[4, 1] * gamma52_factor, gamma[2, 1]


def analytic_chi(p: dict, deltas, gamma52_factor: float = 1.0,
                 omega_c: float = None) -> np.ndarray:
    """Complex Lambda-system susceptibility i*A*(g32 + i*d) / D."""
    g52, g32 = _lambda_rates(p, gamma52_factor)
    if omega_c is None:
        omega_c = p["drives.coupling_rabi_rad_s"]
    d = np.atleast_1d(np.asarray(deltas, dtype=float))
    denom = (g52 + 1j * d) * (g32 + 1j * d) + 0.25 * omega_c ** 2
    return 1j * COUPLING_A * (g32 + 1j * d) / denom


def alpha_of(chi) -> np.ndarray:
    return math.pi / WAVELENGTH * np.maximum(np.imag(chi), 0.0)


def _chi(p: dict, backend: str, deltas) -> np.ndarray:
    if backend == "full":
        return full_chi(p, deltas)
    return analytic_chi(p, deltas)


def _grid(p: dict) -> np.ndarray:
    return np.linspace(p["grid.delta_min_rad_s"], p["grid.delta_max_rad_s"],
                       int(p["grid.points_count"]))


def _window_width(p: dict, backend: str, grid_set: bool) -> float:
    g52, _ = _lambda_rates(p)
    reference = alpha_of(analytic_chi(p, [0.0], omega_c=0.0))[0]
    estimate = math.hypot(g52, p["drives.coupling_rabi_rad_s"]) - g52
    if grid_set:
        deltas = _grid(p)
    else:
        span = WINDOW_SPAN_WIDTHS * estimate
        deltas = np.linspace(-span, span, WINDOW_POINTS)
    alpha = alpha_of(_chi(p, backend, deltas))
    threshold = 0.5 * reference
    if np.interp(0.0, deltas, alpha) >= threshold:
        return 0.0
    inside = alpha <= threshold
    center = int(np.argmin(np.abs(deltas)))
    lo = hi = center
    while lo > 0 and inside[lo - 1]:
        lo -= 1
    while hi < deltas.size - 1 and inside[hi + 1]:
        hi += 1

    def edge(i, j):
        return deltas[i] + (threshold - alpha[i]) * (deltas[j] - deltas[i]) \
            / (alpha[j] - alpha[i])

    left = deltas[0] if lo == 0 else edge(lo, lo - 1)
    right = deltas[-1] if hi == deltas.size - 1 else edge(hi, hi + 1)
    return float(right - left)


def _group_index(p: dict, backend: str) -> float:
    omega0 = 2.0 * math.pi * C_LIGHT / WAVELENGTH
    delta0 = p["drives.probe_detuning_rad_s"]
    _, g32 = _lambda_rates(p)
    h = g32 / 100.0
    above, below = omega0 + h, omega0 - h
    chi = _chi(p, backend, [delta0 + (omega0 - w) for w in (omega0, above,
                                                            below)])
    n = 1.0 + 0.5 * np.real(chi)
    return float(n[0] + omega0 * (n[1] - n[2]) / (above - below))


def _validate_dev(p: dict) -> float:
    deltas = _grid(p)
    ana = analytic_chi(p, deltas, p["validate.fault_gamma52_factor"]).imag
    full = full_chi(p, deltas).imag
    mask = ana >= VALIDATE_MASK_FRACTION * ana.max()
    return float(np.max(np.abs(full[mask] - ana[mask]) / ana[mask]))


def _populations(p: dict) -> np.ndarray:
    l0, dl = _generator_parts(p)
    gen = l0 + p["drives.probe_detuning_rad_s"] * dl
    state = p["evolve.initial_state"]
    rho = np.eye(N, dtype=complex) / N if state == "mixed" else \
        np.diag([1.0 if m == int(state.split("_")[1]) else 0.0
                 for m in range(1, N + 1)]).astype(complex)
    samples = int(p["evolve.samples_count"])
    step = expm(gen * (p["evolve.t_end_s"] / (samples - 1)))
    vec = rho.reshape(-1)
    out = np.empty((samples, N))
    for i in range(samples):
        out[i] = vec[[_idx(m, m) for m in range(1, N + 1)]].real
        vec = step @ vec
    return out


def expected(inv) -> dict:
    """Expected exit status and outputs of one invocation.

    Keys match `check.observed`: "exit", "chi" (complex array),
    "populations" (samples x 6) and "headline" (scalars).
    """
    p = dict(DEFAULTS)
    p.update(inv.sets)
    backend = inv.backend or "analytic"
    grid_set = any(k.startswith("grid.") for k in inv.sets)
    if inv.command == "spectrum":
        return {"exit": 0, "chi": _chi(p, backend, _grid(p))}
    if inv.command == "window":
        return {"exit": 0, "headline": {
            "width_rad_s": _window_width(p, backend, grid_set)}}
    if inv.command == "vg":
        return {"exit": 0, "headline": {
            "group_index": _group_index(p, backend)}}
    if inv.command == "validate":
        dev = _validate_dev(p)
        return {"exit": 0 if dev < p["validate.max_dev_rel"] else 4,
                "headline": {"max_rel_dev_chi_im": dev},
                "threshold": p["validate.max_dev_rel"]}
    if inv.command == "evolve":
        return {"exit": 0, "populations": _populations(p)}
    if inv.command == "params":
        gamma = gamma_table(p["conventions.rate_convention"])
        return {"exit": 0, "headline": {
            "gamma_32_rad_s": gamma[2, 1], "gamma_52_rad_s": gamma[4, 1],
            "gamma_53_rad_s": gamma[4, 2],
            "coupling_strength_rad_s": COUPLING_A}}
    raise ValueError(f"no oracle for command {inv.command!r}")
