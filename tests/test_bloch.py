import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitsim import bloch
from eitsim.bloch import (AUX_LEVELS, COUPLING_LEVELS, DEGENERACY_TOL,
                          PROBE_DRIFT, PROBE_LEVELS, build_hamiltonian,
                          build_liouvillian, evolve, full_model_chi,
                          solved_indices, steady_state, steady_state_slope,
                          steady_states)
from eitsim.config import DriveSet, pryso_defaults
from eitsim.errors import (ConfigError, IntegrationError,
                           InvalidArgumentError, SteadyStateError)
from eitsim.lambda_system import lambda_from_material
from eitsim.materials import LevelSystem, equal_branching
from eitsim.states import basis_state, mixed_state

from lambda_oracle import lambda_steady_state

MAT = pryso_defaults()

OFF = DriveSet(0.0, 0.0, 0.0)
EIT_DRIVES = DriveSet(1.5e3, 1.5e6, 1.5e6)
PUMP_DRIVES = DriveSet(0.0, 1e6, 1e6)
FIELD_LEVELS = (PROBE_LEVELS, COUPLING_LEVELS, AUX_LEVELS)

# Two levels whose 1-2 coherence neither decays nor is driven: frame phases
# (-1, 0) per unit delta, so D[m*2 + k] = -i (p_m - p_k).
TWO_LEVEL_DRIFT = np.array([0.0, 1j, -1j, 0.0])
# The Lambda system 1-3-2 of four levels, both fields at rabi 2, and its
# drift for delta on the 3-2 field: frame phases (1, 0, 1, 0) per unit delta.
LAMBDA_HAM = np.array([[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, -1.0, 0.0],
                       [-1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
LAMBDA_DRIFT = -1j * np.array([[0.0, 1.0, 0.0, 1.0], [-1.0, 0.0, -1.0, 0.0],
                               [0.0, 1.0, 0.0, 1.0],
                               [-1.0, 0.0, -1.0, 0.0]]).reshape(-1)


def eit_drives(rabi=(1.5e3, 1.5e6, 1.5e6), coupling_det=0.0, aux_det=0.0):
    return DriveSet(*rabi, coupling_detuning=coupling_det,
                    aux_detuning=aux_det)


def assembled(drives, delta=0.0, mat=MAT):
    return build_liouvillian(build_hamiltonian(drives, delta), mat.levels,
                             mat.gamma)


def reference_rhs(rho, ham, branching, gamma):
    """Element-by-element master equation, written independently of the
    superoperator assembly: -i[H,rho] plus population branching on the
    diagonal and plain coherence decay off it."""
    n = rho.shape[0]
    out = -1j * (ham @ rho - rho @ ham)
    for m in range(n):
        for k in range(n):
            if m == k:
                gain = sum(branching[j, m] * rho[j, j] for j in range(n))
                out[m, m] += gain - branching[m].sum() * rho[m, m]
            else:
                out[m, k] -= gamma[m, k] * rho[m, k]
    return out


def assert_matches_null_space(rabi, coupling_det, aux_det, delta):
    """All 36 entries of steady_states at delta against the SVD nullspace
    of the full generator assembled afresh there.  The SVD's own error,
    ~dim * eps * sigma_1 / sigma_{n-1}, is added to DEGENERACY_TOL: where
    the slow ground-level decay sets sigma_{n-1} it reaches 5e-6 (coupling
    and auxiliary fields off), while steady_states there agrees with a
    40-digit elimination to the last bit."""
    drives = eit_drives(rabi, coupling_det, aux_det)
    lv0 = assembled(drives)
    drift = PROBE_DRIFT
    rho = steady_states(lv0, drift, [delta])[0].reshape(-1)
    gen = assembled(drives, delta)
    basis = scipy.linalg.null_space(gen)
    assert basis.shape[1] == 1
    want = basis[:, 0] / basis[:: 7, 0].sum()
    sigma = scipy.linalg.svdvals(gen)
    tol = DEGENERACY_TOL + 36 * np.finfo(float).eps * sigma[0] / sigma[-2]
    assert np.max(np.abs(rho - want)) <= tol
    return lv0, drift, rho


def exact_steady_state(gen0, drift, delta):
    """The steady state of L0 + delta * diag(drift), every float entry and
    delta taken as exact: Gaussian elimination over (re, im) pairs of
    Fractions, standard library only, with the trace row in place of
    rho_11's equation, rounded to complex floats once at the end; (n, n)."""
    size = gen0.shape[0]
    n = math.isqrt(size)

    def exact(z):
        return Fraction(z.real), Fraction(z.imag)

    def sub_mul(a, f, b):  # a - f * b
        return (a[0] - (f[0] * b[0] - f[1] * b[1]),
                a[1] - (f[0] * b[1] + f[1] * b[0]))

    def div(a, b):
        norm = b[0] * b[0] + b[1] * b[1]
        return ((a[0] * b[0] + a[1] * b[1]) / norm,
                (a[1] * b[0] - a[0] * b[1]) / norm)

    zero = exact(0j)
    step = Fraction(float(delta))
    rows = [[exact(complex(z)) for z in row] + [zero] for row in gen0]
    for i in range(size):
        rate = exact(complex(drift[i]))
        rows[i][i] = (rows[i][i][0] + step * rate[0],
                      rows[i][i][1] + step * rate[1])
    rows[0] = [exact(float(j % (n + 1) == 0)) for j in range(size)] \
        + [exact(1.0)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != zero)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size):
            if r != col and rows[r][col] != zero:
                factor = div(rows[r][col], rows[col][col])
                rows[r] = [a if b == zero else sub_mul(a, factor, b)
                           for a, b in zip(rows[r], rows[col])]
    return np.array([complex(*map(float, div(row[size], row[i])))
                     for i, row in enumerate(rows)]).reshape(n, n)


def block_by_drives(drives):
    """Indices of vec(rho) in block P worked out from the drive graph alone:
    every population, plus every coherence between two levels that a chain
    of nonzero-rabi fields connects."""
    component = list(range(6))
    for (upper, lower), rabi in zip(FIELD_LEVELS, drives[:3]):
        if rabi != 0:
            old, new = component[upper - 1], component[lower - 1]
            component = [new if c == old else c for c in component]
    return np.array([m * 6 + k for m in range(6) for k in range(6)
                     if component[m] == component[k]])


def random_hermitian_state(rng, n=6):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# Finite field values, signed zeros and magnitudes from 1e-300 to 1e300.
FIELD_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e300, 1e300).filter(lambda v: v == 0.0 or abs(v) >= 1e-300))


class TestFramePhases:
    def test_probe_scan_diagonal(self):
        ham = build_hamiltonian(DriveSet(1.0, 1.0, 1.0), 7e5)
        # reference level 2 at zero; 5 at the probe detuning; 3 at the
        # probe-coupling difference; 1 at zero below the 6-1 repump
        assert np.array_equal(np.diag(ham), [0.0, 0.0, 7e5, 0.0, 7e5, 0.0])

    def test_aux_detuning_lands_on_level6(self):
        ham = build_hamiltonian(DriveSet(0.0, 0.0, 1.0, aux_detuning=2e4),
                                0.0)
        assert np.array_equal(np.diag(ham), [0.0, 0.0, 0.0, 0.0, 0.0, 2e4])

    def test_no_drives_all_zero(self):
        assert np.array_equal(np.diag(build_hamiltonian(OFF, 0.0)),
                              np.zeros(6))


class TestHamiltonian:
    def test_no_drives_zero_matrix(self):
        assert np.array_equal(build_hamiltonian(OFF, 0.0), np.zeros((6, 6)))

    def test_coupling_entries(self):
        ham = build_hamiltonian(DriveSet(2.0, 0.0, 0.0), 9.0)
        assert ham[4, 1] == -1.0
        assert ham[1, 4] == -1.0
        assert ham[4, 4] == 9.0
        assert ham[1, 1] == 0.0

    def test_complex_rabi_is_hermitian(self):
        ham = build_hamiltonian(DriveSet(1.0 + 2.0j, 0.0, 0.0), 0.0)
        assert np.allclose(ham, ham.conj().T)
        assert ham[4, 1] == -0.5 * (1.0 + 2.0j)

    def test_zero_rabi_still_pins_detuning(self):
        ham = build_hamiltonian(OFF, 4e5)
        assert ham[4, 4] == 4e5
        assert ham[4, 1] == 0.0

    def test_phase_overflow_refused(self):
        with pytest.raises(ConfigError, match="overflow"):
            build_hamiltonian(
                DriveSet(0.0, 0.0, 0.0, coupling_detuning=-1e308), 1e308)

    @settings(max_examples=300, deadline=None)
    @given(rabi=st.tuples(*[st.one_of(
               FIELD_VALUES, st.builds(complex, FIELD_VALUES, FIELD_VALUES))]
               * 3),
           detunings=st.tuples(FIELD_VALUES, FIELD_VALUES, FIELD_VALUES))
    def test_fixed_geometry_over_random_drive_sets(self, rabi, detunings):
        probe_det, coupling_det, aux_det = detunings
        ham = build_hamiltonian(
            DriveSet(*rabi, coupling_detuning=coupling_det,
                     aux_detuning=aux_det), probe_det)
        # level 2 anchors the frame; the coupling's phase difference is
        # p5 - (p5 - delta_c), exact but for the rounding of p3
        assert ham[1, 1] == 0.0
        bound = 2.0 * np.finfo(float).eps * max(map(abs, detunings))
        for (u, l), r, det in zip(FIELD_LEVELS, rabi, detunings):
            assert abs((ham[u - 1, u - 1] - ham[l - 1, l - 1]) - det) <= bound
            assert ham[u - 1, l - 1] == -0.5 * complex(r)
        assert np.array_equal(ham, ham.conj().T)
        assert np.count_nonzero(ham - np.diag(np.diag(ham))) == \
            2 * sum(r != 0 for r in rabi)


class TestLiouvillian:
    def test_dual_route_against_elementwise_equations(self):
        # superoperator route vs independently written component equations
        ham = build_hamiltonian(EIT_DRIVES, 0.0)
        lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
        rng = np.random.default_rng(11)
        scale = np.max(np.abs(lv))
        for _ in range(25):
            rho = random_hermitian_state(rng)
            via_gen = (lv @ rho.reshape(-1)).reshape(6, 6)
            via_ref = reference_rhs(rho, ham, np.array(MAT.levels.branching),
                                    np.array(MAT.gamma))
            assert np.max(np.abs(via_gen - via_ref)) < 1e-13 * scale

    def test_probe_coupling_coefficients_in_population_equation(self):
        # d rho_22/dt picks up -i*Omega_P/2 * rho_25 + i*Omega_P/2 * rho_52
        ham = build_hamiltonian(DriveSet(2.0, 0.0, 0.0), 0.0)
        lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
        idx22, idx25, idx52 = 1 * 6 + 1, 1 * 6 + 4, 4 * 6 + 1
        assert lv[idx22, idx25] == -1.0j
        assert lv[idx22, idx52] == 1.0j

    def test_population_decay_rates_from_level5(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        rho = basis_state(6, 5)
        rhs = (lv @ rho.reshape(-1)).reshape(6, 6)
        # equal split into 1..4 at 1/(4*T1), total drain 1/T1
        assert rhs[0, 0].real == pytest.approx(1524.3902439024391, rel=1e-12)
        assert rhs[4, 4].real == pytest.approx(-6097.560975609756, rel=1e-12)
        assert rhs[5, 5].real == 0.0

    def test_coherence_decay_entry(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        idx52 = 4 * 6 + 1
        assert lv[idx52, idx52] == -MAT.gamma[4][1]

    def test_trace_preserved_structurally(self):
        # the population rows of the generator sum to the zero row: exact
        for drives in (OFF, PUMP_DRIVES, EIT_DRIVES):
            ham = build_hamiltonian(drives, 0.0)
            lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
            rows = [m * 6 + m for m in range(6)]
            colsum = lv[rows, :].sum(axis=0)
            assert np.max(np.abs(colsum)) == 0.0

    def test_trace_and_hermiticity_preserved_applied(self):
        # applied to states, the residues scale with ||L||*eps
        rng = np.random.default_rng(13)
        for drives in (OFF, PUMP_DRIVES, EIT_DRIVES):
            ham = build_hamiltonian(drives, 0.0)
            lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
            norm = np.abs(lv).sum(axis=1).max()
            bound = max(1e-12, 1e-15 * norm)
            states = [mixed_state(6)] + \
                [random_hermitian_state(rng) for _ in range(20)]
            for rho in states:
                rhs = (lv @ rho.reshape(-1)).reshape(6, 6)
                assert abs(np.trace(rhs)) <= bound
                assert np.max(np.abs(rhs - rhs.conj().T)) <= bound

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            build_liouvillian(np.zeros((5, 5)), MAT.levels, MAT.gamma)
        with pytest.raises(ConfigError):
            build_liouvillian(np.zeros((6, 6)), MAT.levels,
                              np.array(MAT.gamma)[:5, :5])
        # a generator that is not (n^2, n^2) is refused wherever one is
        # accepted
        zero = np.zeros(36)
        for gen in (np.zeros((6, 6)), np.zeros((36, 35)), np.zeros(36)):
            for call in (lambda: steady_state(gen),
                         lambda: steady_states(gen, zero, [0.0]),
                         lambda: steady_state_slope(gen, zero, 0.0,
                                                    mixed_state(6)),
                         lambda: solved_indices(gen, zero),
                         lambda: bloch.reduction(gen, zero),
                         lambda: evolve(mixed_state(6), gen, 1e-3)):
                with pytest.raises(ConfigError, match=r"not \(n\^2, n\^2\)"):
                    call()


class TestSteadyState:
    def test_all_fields_off_collects_in_terminal_level(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        rho = steady_state(lv)
        want = np.zeros(6)
        want[0] = 1.0
        assert np.allclose(np.diag(rho).real, want, atol=1e-9)
        assert np.max(np.abs(rho - np.diag(want))) < 1e-9

    def test_pumping_concentrates_in_level2(self):
        ham = build_hamiltonian(PUMP_DRIVES, 0.0)
        lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
        rho = steady_state(lv)
        assert rho[1, 1].real > 0.999

    def test_weak_probe_coherence_matches_lambda_form(self):
        lam = lambda_from_material(MAT, EIT_DRIVES)
        for delta in (0.0, 3e5, -8e5, 2e6):
            rho52 = steady_state(assembled(EIT_DRIVES, delta))[4, 1]
            ref, _ = lambda_steady_state(lam, 1.5e3, delta)
            assert abs(rho52 - ref) / abs(ref) < 0.02

    def test_transient_agrees_with_steady_state(self):
        # 24 ms is ~20 times the slowest decay mode of the pumped generator
        ham = build_hamiltonian(PUMP_DRIVES, 0.0)
        lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
        ss = steady_state(lv)
        rho = evolve(mixed_state(6), lv, 24e-3, n_samples=9)[1]
        assert np.max(np.abs(rho[-1] - ss)) < 1e-6

    def test_degenerate_nullspace_rejected(self):
        # two terminal ground levels, no fields: any population split
        # between them is stationary
        lifetimes = np.array([np.inf, np.inf, 1e-3])
        branching = equal_branching(lifetimes, destinations={3: (1, 2)})
        levels = LevelSystem(3, lifetimes, branching, np.zeros((3, 3)))
        gamma = np.full((3, 3), 100.0)
        np.fill_diagonal(gamma, 0.0)
        lv = build_liouvillian(np.zeros((3, 3)), levels, gamma)
        with pytest.raises(SteadyStateError):
            steady_state(lv)

    def test_pivot_orderings_agree_on_regular_problems(self):
        # the weakest probe the acceptance criteria use: conditioning is
        # worst here, and the two pivot paths must still agree
        for probe in (1.5e3, 1.5e4):
            lv = assembled(DriveSet(probe, 1.5e6, 1.5e6), -8e5)
            steady_state(lv)  # raises if disagreement > DEGENERACY_TOL
        assert DEGENERACY_TOL == 1e-8


class TestSolvedBlock:
    def test_defaults_solve_fourteen_entries(self):
        # the populations plus the coherences within {2, 3, 5} and {1, 6}
        solved = solved_indices(assembled(EIT_DRIVES), PROBE_DRIFT)
        want = sorted([m * 7 for m in range(6)]
                      + [(m - 1) * 6 + k - 1 for group in ((2, 3, 5), (1, 6))
                         for m in group for k in group if m != k])
        assert solved.size == 14
        assert np.array_equal(solved, want)
        assert np.array_equal(solved, block_by_drives(EIT_DRIVES))

    def test_undamped_uncoupled_coherence_solves_everything(self):
        # rho_12 has no decay and no drive: the rest is not certified
        lifetimes = np.array([np.inf, 1e-3])
        levels = LevelSystem(2, lifetimes,
                             equal_branching(lifetimes, destinations={2: (1,)}),
                             np.zeros((2, 2)))
        lv0 = build_liouvillian(np.zeros((2, 2)), levels, np.zeros((2, 2)))
        drift = TWO_LEVEL_DRIFT
        assert np.array_equal(solved_indices(lv0, drift), np.arange(4))
        damped = build_liouvillian(np.zeros((2, 2)), levels,
                                   np.full((2, 2), 10.0))
        assert np.array_equal(solved_indices(damped, drift), [0, 3])

    def test_real_drift_on_the_rest_solves_everything(self):
        lv0 = assembled(EIT_DRIVES)
        drift = PROBE_DRIFT.copy()
        assert solved_indices(lv0, drift).size == 14
        drift[1] = 1.0  # rho_12: outside the block
        assert np.array_equal(solved_indices(lv0, drift), np.arange(36))

    @settings(max_examples=40, deadline=None)
    @given(probe=st.floats(1.0, 1e5),
           coupling=st.one_of(st.just(0.0), st.floats(1.5e5, 5e6)),
           aux=st.one_of(st.just(0.0), st.floats(1e5, 5e6)),
           coupling_det=st.floats(-1e6, 1e6),
           aux_det=st.floats(-1e6, 1e6),
           delta=st.floats(-2e7, 2e7))
    def test_matches_full_space_null_space(self, probe, coupling, aux,
                                           coupling_det, aux_det, delta):
        rabi = (probe, coupling, aux)
        lv0, drift, rho = assert_matches_null_space(rabi, coupling_det,
                                                    aux_det, delta)
        solved = solved_indices(lv0, drift)
        assert np.array_equal(solved, block_by_drives(
            eit_drives(rabi, coupling_det, aux_det)))
        outside = np.setdiff1d(np.arange(36), solved)
        assert np.all(rho[outside] == 0.0)

    # Omega_c = 4.1998e4 rad/s is the exceptional point of the default
    # material, where EIT turns into an Autler-Townes doublet and two poles
    # of the reduced 4 x 4 system coalesce.
    @settings(max_examples=30, deadline=None)
    @given(coupling=st.floats(3e4, 6e4), delta=st.floats(-2e5, 2e5))
    @example(coupling=4.1998e4, delta=0.0)
    @example(coupling=4.1998e4, delta=2.1e4)
    def test_matches_null_space_across_the_exceptional_point(self, coupling,
                                                             delta):
        assert_matches_null_space((1.5e3, coupling, 1.5e6), 0.0, 0.0, delta)


class TestExactArithmetic:
    # Against exact_steady_state at these points the worst entry of
    # steady_states is 1.004 eps * max|rho| off, and full_model_chi is at
    # most 3.9e-14 (176 eps) relative off the exact rho52's chi, both at
    # Omega_c = 5e6, Omega_p = 7.5e4.  The SVD tests above cannot see an
    # error below ~1e-8.
    ENTRY_EPS = 4.0
    CHI_RTOL = 1e-13

    @pytest.mark.parametrize("drives, delta", [
        (EIT_DRIVES, 0.0),
        (EIT_DRIVES, -7.5e5),
        (EIT_DRIVES, 3e5),
        (EIT_DRIVES._replace(coupling_rabi=4.1998e4), 0.0),
        (EIT_DRIVES._replace(coupling_rabi=0.0), 0.0),
        (EIT_DRIVES._replace(probe_rabi=7.5e4, coupling_rabi=5e6), 0.0),
    ], ids=["defaults-0", "defaults-minus7.5e5", "defaults-3e5",
            "exceptional-point", "coupling-off", "strong-probe"])
    def test_matches_exact_elimination(self, drives, delta):
        gen0 = bloch.generator(MAT, drives, 0.0)
        want = exact_steady_state(gen0, PROBE_DRIFT, delta)
        rho = steady_states(gen0, PROBE_DRIFT, [delta])[0]
        eps = np.finfo(float).eps
        assert np.abs(rho - want).max() \
            <= self.ENTRY_EPS * eps * np.abs(want).max()
        chi = full_model_chi(MAT, drives, delta)
        exact_chi = bloch.rho_to_chi(want[4, 1], MAT, drives.probe_rabi)
        assert abs(chi - exact_chi) <= self.CHI_RTOL * abs(exact_chi)


class TestBatchedSteadyStates:
    def test_affine_generator_matches_assembly(self):
        # L0 + delta * D against a fresh assembly at delta, over random
        # complex drives with coupling and auxiliary detunings switched on
        rng = np.random.default_rng(23)
        eps = np.finfo(float).eps
        drift = PROBE_DRIFT
        for _ in range(25):
            rabi = ((rng.standard_normal(3) + 1j * rng.standard_normal(3))
                    * 10 ** rng.uniform(2, 7, 3))
            det_c, det_a = rng.uniform(-2e7, 2e7, 2)
            drives = eit_drives(rabi, det_c, det_a)
            lv0 = assembled(drives)
            for delta in rng.uniform(-2e7, 2e7, 4):
                want = assembled(drives, delta)
                got = lv0 + np.diag(delta * drift)
                assert np.max(np.abs(got - want)) \
                    <= 8 * eps * np.max(np.abs(want))

    def test_drift_is_the_frame_phase_difference(self):
        drift = PROBE_DRIFT.reshape(6, 6)
        # levels 5 and 3 move with the probe detuning, the rest stay put
        assert drift[4, 1] == -1j and drift[1, 4] == 1j
        assert drift[2, 1] == -1j and drift[4, 2] == 0.0
        assert drift[0, 5] == 0.0 and np.all(np.diag(drift) == 0.0)

    def test_batch_agrees_with_per_point_solves(self):
        lv0 = assembled(EIT_DRIVES)
        drift = PROBE_DRIFT
        deltas = np.linspace(-3e6, 3e6, 7)
        batch = steady_states(lv0, drift, deltas)
        for delta, rho in zip(deltas, batch):
            one = steady_state(assembled(EIT_DRIVES, delta))
            assert np.max(np.abs(rho - one)) < DEGENERACY_TOL

    def test_no_point_depends_on_the_rest_of_the_call(self):
        # every point is its own small solve from the same factorization:
        # the other points of the call may not move a single bit (how
        # full_model_chi slices a grid is tested in test_optics)
        lv0 = assembled(EIT_DRIVES)
        drift = PROBE_DRIFT
        deltas = np.linspace(-2e7, 2e7, 259)
        batch = steady_states(lv0, drift, deltas)
        assert batch.shape == (259, 6, 6)
        for i in (0, 127, 128, 258):
            alone = steady_states(lv0, drift, deltas[i:i + 1])[0]
            assert np.array_equal(alone, batch[i])

    def test_poles_are_where_the_pinned_block_is_singular(self):
        # the four dressed-state resonances at the defaults, against a
        # fresh pinned block at each pole: singular to rounding
        lv0 = assembled(EIT_DRIVES)
        drift = PROBE_DRIFT
        poles = bloch.reduction(lv0, drift)[-1]
        assert np.allclose(np.abs(poles.real), 7.497e5, rtol=1e-4)
        assert np.allclose(np.abs(poles.imag), 2.729e4, rtol=1e-3)
        assert np.sign(poles.real).sum() == np.sign(poles.imag).sum() == 0
        solved = solved_indices(lv0, drift)
        for pole in poles:
            block = (lv0 + np.diag(pole * drift))[
                np.ix_(solved, solved)]
            block[0] = solved % 7 == 0
            sv = np.linalg.svd(block, compute_uv=False)
            assert sv[-1] <= 1e-12 * sv[0]

    def test_terminal_level_collects_every_population(self):
        # level 4 decays nowhere and every route leads into it, so each
        # point is exactly |4><4|, though the delta-independent part of the
        # pinned block is singular (cond 1.2e18)
        lifetimes = MAT.levels.lifetimes
        branching = np.array(equal_branching(lifetimes))
        branching[3, :3] = 0.0
        branching[1, 0] = 0.0
        mat = pryso_defaults(lifetimes=lifetimes, branching=branching)
        lv0 = assembled(EIT_DRIVES, mat=mat)
        rho = steady_states(lv0, PROBE_DRIFT,
                            np.linspace(-2e7, 2e7, 201))
        assert np.array_equal(rho, np.broadcast_to(
            np.diag([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]), rho.shape))

    def test_peak_allocation_of_a_window_sweep(self):
        # full_model_chi keeps rho52 of each validated slice and no
        # (k, 6, 6) stack (576 B a point): its peak is one slice's
        # temporaries (~0.35 MB) plus rho52 and chi, 16 B a point each.
        # Measured: 0.47 MB at 4,001 points, 1.31 MB at 40,001.
        drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=1.5e6,
                          aux_rabi=1.5e6)
        full_model_chi(MAT, drives, np.zeros(2))
        for k in (4001, 40001):
            deltas = np.linspace(-3e6, 3e6, k)
            tracemalloc.start()
            try:
                full_model_chi(MAT, drives, deltas)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.45e6 + 32 * k

    def test_singular_point_names_its_detuning(self):
        # two levels, undamped coherence: the nullspace is two-dimensional
        # only at delta = 0, which sits mid-grid
        lifetimes = np.array([np.inf, 1e-3])
        levels = LevelSystem(2, lifetimes,
                             equal_branching(lifetimes, destinations={2: (1,)}),
                             np.zeros((2, 2)))
        lv0 = build_liouvillian(np.zeros((2, 2)), levels, np.zeros((2, 2)))
        drift = TWO_LEVEL_DRIFT
        rho = steady_states(lv0, drift, [-2.0, 1.0, 3.0])
        assert np.array_equal(rho[:, 0, 0], np.ones(3))
        grid = np.linspace(-264.0, 264.0, 529)
        assert grid[264] == 0.0
        with pytest.raises(SteadyStateError,
                           match=r"at delta = 0\.0 rad/s: singular"):
            steady_states(lv0, drift, grid)

    def test_singular_population_block_names_its_detuning(self):
        # Lambda system 1-3-2 whose excited level decays only into a trap,
        # level 4, with an undamped 1-2 coherence.  Off two-photon
        # resonance everything ends in the trap; at delta = 0 the dark
        # state of levels 1 and 2 is stationary too.  The coherences with
        # level 4 decay, so the solve runs on the 10-entry block.
        lifetimes = np.array([np.inf, np.inf, 1e-3, np.inf])
        levels = LevelSystem(4, lifetimes,
                             equal_branching(lifetimes, destinations={3: (4,)}),
                             np.zeros((4, 4)))
        gamma = np.full((4, 4), 100.0)
        np.fill_diagonal(gamma, 0.0)
        gamma[0, 1] = gamma[1, 0] = 0.0
        lv0 = build_liouvillian(LAMBDA_HAM, levels, gamma)
        drift = LAMBDA_DRIFT
        assert np.array_equal(solved_indices(lv0, drift),
                              [0, 1, 2, 4, 5, 6, 8, 9, 10, 15])
        rho = steady_states(lv0, drift, [-2.0, 1.0, 3.0])
        assert np.array_equal(rho[:, 3, 3], np.ones(3))
        grid = np.linspace(-264.0, 264.0, 529)
        assert grid[264] == 0.0
        with pytest.raises(SteadyStateError,
                           match=r"at delta = 0\.0 rad/s: singular"):
            steady_states(lv0, drift, grid)

    def test_drift_dimension_checked(self):
        with pytest.raises(ConfigError):
            steady_states(assembled(EIT_DRIVES), np.zeros(35), [0.0])

    def test_residual_gate_holds_where_the_norm_would_overflow(self):
        # at delta = 1e308 with d_c = -1e308 the level-3 phase of L(delta)
        # is 2e308, so ||L(delta)|| itself is not a float; the gate still
        # bounds the residual, and refuses a vector L(delta) maps past it
        lv0 = assembled(eit_drives((1.5e3, 1.5e6, 1.5e6), -1e308, 0.0))
        unit = np.zeros((1, 36), dtype=complex)
        unit[0, 2 * 6] = 1.0  # rho31, on the overflowing diagonal
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = 1e\+308 rad/s: steady-state "
                                 r"residual inf exceeds"):
            bloch._check_residual(lv0, PROBE_DRIFT, np.array([1e308]), unit,
                                  0.0, "steady-state")

    def test_pole_beyond_the_float_range_is_refused(self):
        # a 6e246 rad/s ground decay next to a 6e298 rad/s probe leaves an
        # eigenvalue of C Z_S of 1.7e-315 whose pole -1/mu is not a float
        mat = pryso_defaults(lifetimes=np.array(
            [1.6e-247, 400.0, 400.0, 164e-6, 164e-6, 164e-6]))
        lv0 = assembled(eit_drives((6.45e298, 1.5e6, 1.5e6)), mat=mat)
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = 0\.0 rad/s: steady-state "
                                 r"system has a pole beyond the float range"):
            bloch.reduction(lv0, PROBE_DRIFT)


class TestSteadyStateSlope:
    def test_slope_of_a_hermitian_unit_trace_state(self):
        # rho(delta) is hermitian with unit trace for every real delta, so
        # its derivative is hermitian with zero trace, to rounding: eps
        # times the condition number of the pinned system, ~1.5e6 here
        lv0 = assembled(EIT_DRIVES)
        drift = PROBE_DRIFT
        for delta in (-8e5, 0.0, 2.5e5):
            rho = steady_states(lv0, drift, [delta])[0]
            slope = steady_state_slope(lv0, drift, delta, rho)
            scale = np.abs(slope).max()
            assert scale > 0
            assert abs(np.trace(slope)) <= 1e-9 * scale
            assert np.abs(slope - slope.conj().T).max() <= 1e-9 * scale

    def test_matches_a_difference_of_steady_states(self):
        # away from narrow features a plain central difference of the
        # stationary states agrees to its O(h^2) truncation
        lv0 = assembled(EIT_DRIVES)
        drift = PROBE_DRIFT
        delta, h = 3e6, 10.0
        rho = steady_states(lv0, drift, [delta - h, delta, delta + h])
        slope = steady_state_slope(lv0, drift, delta, rho[1])
        diff = (rho[2] - rho[0]) / (2.0 * h)
        assert np.abs(slope - diff).max() <= 1e-6 * np.abs(slope).max()

    def test_shared_reduction_changes_no_bit(self):
        lv0 = assembled(EIT_DRIVES)
        drift = PROBE_DRIFT
        for delta in (-8e5, 0.0, 2.5e5):
            reduced = bloch.reduction(lv0, drift, delta)
            rho = steady_states(lv0, drift, [delta])[0]
            assert np.array_equal(
                steady_states(lv0, drift, [delta], reduced)[0], rho)
            assert np.array_equal(
                steady_state_slope(lv0, drift, delta, rho, reduced),
                steady_state_slope(lv0, drift, delta, rho))

    def test_residual_gate_names_its_detuning(self, monkeypatch):
        lv0 = assembled(EIT_DRIVES)
        drift = PROBE_DRIFT
        rho = steady_states(lv0, drift, [2.5e5])[0]
        # a gate below zero fails any slope, however exact
        monkeypatch.setattr(bloch, "STEADY_STATE_RTOL", -1.0)
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = 250000\.0 rad/s: slope "
                                 r"residual"):
            steady_state_slope(lv0, drift, 2.5e5, rho)

    def test_singular_system_names_its_detuning(self):
        # the trap system of test_singular_population_block_names_its_
        # detuning: its pinned system is singular at delta = 0
        lifetimes = np.array([np.inf, np.inf, 1e-3, np.inf])
        levels = LevelSystem(4, lifetimes,
                             equal_branching(lifetimes, destinations={3: (4,)}),
                             np.zeros((4, 4)))
        gamma = np.full((4, 4), 100.0)
        np.fill_diagonal(gamma, 0.0)
        gamma[0, 1] = gamma[1, 0] = 0.0
        lv0 = build_liouvillian(LAMBDA_HAM, levels, gamma)
        drift = LAMBDA_DRIFT
        rho = steady_states(lv0, drift, [1.0])[0]
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = 0\.0 rad/s: singular slope"):
            steady_state_slope(lv0, drift, 0.0, rho)


class TestEvolve:
    def test_exponential_decay_of_level5(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        t_end = 4 * 164e-6
        times, rho, _, _ = evolve(basis_state(6, 5), lv, t_end, n_samples=5)
        pops = np.diagonal(rho, axis1=1, axis2=2).real
        want = np.exp(-times / 164e-6)
        assert np.allclose(pops[:, 4], want, rtol=1e-7, atol=1e-10)

    def test_drift_diagnostics_within_budget(self):
        ham = build_hamiltonian(PUMP_DRIVES, 0.0)
        lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
        times, rho, trace_dev, herm_dev = evolve(mixed_state(6), lv, 10e-3)
        assert trace_dev <= 1e-9
        assert herm_dev <= 1e-9
        assert rho[-1, 1, 1].real > 0.99
        assert times.size == 201

    def test_zero_horizon_returns_initial(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        times, rho, trace_dev, herm_dev = evolve(basis_state(6, 3), lv, 0.0)
        assert len(rho) == 1
        assert times[0] == 0.0
        assert rho[-1, 2, 2].real == 1.0
        assert trace_dev == herm_dev == 0.0

    def test_accepts_raw_matrix_input(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        rho = evolve(np.eye(6, dtype=complex) / 6, lv, 1e-5, n_samples=3)[1]
        assert len(rho) == 3

    def test_states_are_validated_density_matrices(self):
        rho = evolve(mixed_state(6), assembled(PUMP_DRIVES), 1e-3,
                     n_samples=5)[1]
        assert rho.shape == (5, 6, 6) and rho.dtype == complex
        for state in rho:
            assert np.trace(state).real == pytest.approx(1.0, abs=1e-15)
            assert np.array_equal(state, state.conj().T)

    def test_bad_horizon_rejected(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        with pytest.raises(InvalidArgumentError):
            evolve(mixed_state(6), lv, -1.0)
        with pytest.raises(InvalidArgumentError):
            evolve(mixed_state(6), lv, float("nan"))

    def test_propagator_breakdown_raises(self):
        # exp(L dt) at dt = 5e27 s needs 110 squarings and loses the trace;
        # at 1e305 s L dt overflows outright
        ham = build_hamiltonian(PUMP_DRIVES, 0.0)
        lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
        with pytest.raises(IntegrationError,
                           match=r"sample at t = 5\.000000e\+27 s"):
            evolve(mixed_state(6), lv, 1e30)
        with pytest.raises(IntegrationError, match="non-finite"):
            evolve(mixed_state(6), lv, 1e305)

    @settings(max_examples=25, deadline=None)
    @given(rabi=st.tuples(st.floats(0.0, 1e5), st.floats(0.0, 5e6),
                          st.floats(0.0, 5e6)),
           detunings=st.tuples(st.floats(-2e7, 2e7), st.floats(-1e6, 1e6),
                               st.floats(-1e6, 1e6)),
           initial=st.integers(0, 6),
           t_end=st.floats(1e-6, 1e-2),
           n_samples=st.integers(2, 201))
    def test_samples_are_density_matrices_over_drives(
            self, rabi, detunings, initial, t_end, n_samples):
        # Initial states are the ones `evolve.initial_state` offers (0 is
        # "mixed").  From a state with ground-level coherences the
        # Bloch-form dephasing table does not keep rho positive, so those
        # are left out.
        rho0 = mixed_state(6) if initial == 0 else basis_state(6, initial)
        lv = assembled(eit_drives(rabi, *detunings[1:]), detunings[0])
        _, rho, trace_dev, herm_dev = evolve(rho0, lv, t_end,
                                             n_samples=n_samples)
        assert trace_dev <= 1e-9 and herm_dev <= 1e-9
        for m in rho:
            assert np.max(np.abs(m - m.conj().T)) <= 1e-9
            assert abs(np.trace(m) - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(m).min() >= -1e-9

    def test_dimension_mismatch_rejected(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        with pytest.raises(ConfigError):
            evolve(np.eye(4) / 4, lv, 1e-3)

    def test_rescaled_ground_lifetimes_reach_terminal_state(self):
        # with ground T1 shortened to 1 ms the all-off cascade is integrable:
        # the transient must land on the same state the linear solve finds
        mat = pryso_defaults(lifetimes=np.array([1e-3] * 3 + [164e-6] * 3))
        lv = build_liouvillian(np.zeros((6, 6)), mat.levels, mat.gamma)
        ss = steady_state(lv)
        rho = evolve(mixed_state(6), lv, 20e-3, n_samples=5)[1]
        assert ss[0, 0].real == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(rho[-1] - ss)) < 1e-6
