import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitsim.bloch import (DEGENERACY_TOL, STEADY_STATE_CHUNK, FieldDrive,
                          Liouvillian, build_hamiltonian, build_liouvillian,
                          evolve, frame_phases, generator_drift, steady_state,
                          steady_states)
from eitsim.errors import (ConfigError, InconsistentFrameError,
                           IntegrationError, InvalidArgumentError,
                           SteadyStateError)
from eitsim.lambda_system import lambda_from_material, lambda_steady_state
from eitsim.materials import LevelSystem, equal_branching, pryso_defaults
from eitsim.states import DensityMatrix, basis_state, coherence, mixed_state

MAT = pryso_defaults()

EIT_DRIVES = (FieldDrive(5, 2, 1.5e3), FieldDrive(5, 3, 1.5e6),
              FieldDrive(6, 1, 1.5e6))
PUMP_DRIVES = (FieldDrive(5, 3, 1e6), FieldDrive(6, 1, 1e6),
               FieldDrive(5, 2, 0.0))
# Per unit sweep parameter only the probe detuning moves.
PROBE_SCAN = (FieldDrive(5, 2, 0.0, 1.0), FieldDrive(5, 3, 0.0),
              FieldDrive(6, 1, 0.0))


def eit_drives(delta, rabi=(1.5e3, 1.5e6, 1.5e6), coupling_det=0.0,
               aux_det=0.0):
    return (FieldDrive(5, 2, rabi[0], delta),
            FieldDrive(5, 3, rabi[1], coupling_det),
            FieldDrive(6, 1, rabi[2], aux_det))


def assembled(drives, mat=MAT):
    return build_liouvillian(build_hamiltonian(mat.levels.n_levels, drives),
                             mat.levels, mat.gamma)


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


def random_hermitian_state(rng, n=6):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestFieldDrive:
    def test_basic_fields(self):
        d = FieldDrive(5, 2, 1.5e6, -3.0)
        assert (d.upper, d.lower) == (5, 2)
        assert d.rabi == 1.5e6 and d.detuning == -3.0

    def test_zero_rabi_is_legal(self):
        FieldDrive(5, 2, 0.0)  # pins the frame without coupling

    def test_rejects_identical_levels(self):
        with pytest.raises(InvalidArgumentError):
            FieldDrive(3, 3, 1.0)

    def test_rejects_bad_levels_and_values(self):
        with pytest.raises(InvalidArgumentError):
            FieldDrive(0, 2, 1.0)
        with pytest.raises(InvalidArgumentError):
            FieldDrive(2.5, 1, 1.0)
        with pytest.raises(InvalidArgumentError):
            FieldDrive(2, 1, float("nan"))
        with pytest.raises(InvalidArgumentError):
            FieldDrive(2, 1, 1.0, float("inf"))


class TestFramePhases:
    def test_probe_scan_diagonal(self):
        drives = (FieldDrive(5, 2, 1.0, 7e5), FieldDrive(5, 3, 1.0, 0.0),
                  FieldDrive(6, 1, 1.0, 0.0))
        phases = frame_phases(6, drives)
        # reference level 2 at zero; 5 at probe detuning; 3 at probe-coupling
        # difference; the 6-1 component roots at its lowest level 1
        assert np.allclose(phases, [0.0, 0.0, 7e5, 0.0, 7e5, 0.0])

    def test_aux_detuning_lands_on_level6(self):
        drives = (FieldDrive(6, 1, 1.0, 2e4),)
        phases = frame_phases(6, drives)
        assert np.allclose(phases, [0.0, 0.0, 0.0, 0.0, 0.0, 2e4])

    def test_no_drives_all_zero(self):
        assert np.array_equal(frame_phases(6, ()), np.zeros(6))

    def test_consistent_cycle_accepted(self):
        drives = (FieldDrive(2, 1, 1.0, 3.0), FieldDrive(3, 2, 1.0, 4.0),
                  FieldDrive(3, 1, 1.0, 7.0))
        phases = frame_phases(3, drives)
        # root level 2 at zero; 7.0 = 3.0 + 4.0 closes the cycle
        assert np.allclose(phases, [-3.0, 0.0, 4.0])

    def test_inconsistent_cycle_rejected(self):
        drives = (FieldDrive(2, 1, 1.0, 3.0), FieldDrive(3, 2, 1.0, 4.0),
                  FieldDrive(3, 1, 1.0, 7.5))
        with pytest.raises(InconsistentFrameError):
            frame_phases(3, drives)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ConfigError):
            frame_phases(6, (FieldDrive(5, 2, 1.0), FieldDrive(2, 5, 2.0)))

    def test_out_of_range_level(self):
        with pytest.raises(InvalidArgumentError):
            frame_phases(4, (FieldDrive(5, 2, 1.0),))


class TestHamiltonian:
    def test_no_drives_zero_matrix(self):
        assert np.array_equal(build_hamiltonian(6, ()), np.zeros((6, 6)))

    def test_coupling_entries(self):
        ham = build_hamiltonian(6, (FieldDrive(5, 2, 2.0, 9.0),))
        assert ham[4, 1] == -1.0
        assert ham[1, 4] == -1.0
        assert ham[4, 4] == 9.0
        assert ham[1, 1] == 0.0

    def test_complex_rabi_is_hermitian(self):
        ham = build_hamiltonian(6, (FieldDrive(5, 2, 1.0 + 2.0j),))
        assert np.allclose(ham, ham.conj().T)
        assert ham[4, 1] == -0.5 * (1.0 + 2.0j)

    def test_zero_rabi_still_pins_detuning(self):
        ham = build_hamiltonian(6, (FieldDrive(5, 2, 0.0, 4e5),))
        assert ham[4, 4] == 4e5
        assert ham[4, 1] == 0.0


class TestLiouvillian:
    def test_dual_route_against_elementwise_equations(self):
        # superoperator route vs independently written component equations
        ham = build_hamiltonian(6, EIT_DRIVES)
        lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
        rng = np.random.default_rng(11)
        scale = np.max(np.abs(lv.generator))
        for _ in range(25):
            rho = random_hermitian_state(rng)
            via_gen = (lv.generator @ rho.reshape(-1)).reshape(6, 6)
            via_ref = reference_rhs(rho, ham, MAT.levels.branching, MAT.gamma)
            assert np.max(np.abs(via_gen - via_ref)) < 1e-13 * scale

    def test_probe_coupling_coefficients_in_population_equation(self):
        # d rho_22/dt picks up -i*Omega_P/2 * rho_25 + i*Omega_P/2 * rho_52
        ham = build_hamiltonian(6, (FieldDrive(5, 2, 2.0),))
        lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
        idx22, idx25, idx52 = 1 * 6 + 1, 1 * 6 + 4, 4 * 6 + 1
        assert lv.generator[idx22, idx25] == -1.0j
        assert lv.generator[idx22, idx52] == 1.0j

    def test_population_decay_rates_from_level5(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        rho = basis_state(6, 5).matrix
        rhs = (lv.generator @ rho.reshape(-1)).reshape(6, 6)
        # equal split into 1..4 at 1/(4*T1), total drain 1/T1
        assert rhs[0, 0].real == pytest.approx(1524.3902439024391, rel=1e-12)
        assert rhs[4, 4].real == pytest.approx(-6097.560975609756, rel=1e-12)
        assert rhs[5, 5].real == 0.0

    def test_coherence_decay_entry(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        idx52 = 4 * 6 + 1
        assert lv.generator[idx52, idx52] == -MAT.gamma[4, 1]

    def test_trace_preserved_structurally(self):
        # the population rows of the generator sum to the zero row: exact
        for drives in ((), PUMP_DRIVES, EIT_DRIVES):
            ham = build_hamiltonian(6, drives)
            lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
            rows = [m * 6 + m for m in range(6)]
            colsum = lv.generator[rows, :].sum(axis=0)
            assert np.max(np.abs(colsum)) == 0.0

    def test_trace_and_hermiticity_preserved_applied(self):
        # applied to states, the residues scale with ||L||*eps
        rng = np.random.default_rng(13)
        for drives in ((), PUMP_DRIVES, EIT_DRIVES):
            ham = build_hamiltonian(6, drives)
            lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
            norm = np.abs(lv.generator).sum(axis=1).max()
            bound = max(1e-12, 1e-15 * norm)
            states = [mixed_state(6).matrix] + \
                [random_hermitian_state(rng) for _ in range(20)]
            for rho in states:
                rhs = (lv.generator @ rho.reshape(-1)).reshape(6, 6)
                assert abs(np.trace(rhs)) <= bound
                assert np.max(np.abs(rhs - rhs.conj().T)) <= bound

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            build_liouvillian(np.zeros((5, 5)), MAT.levels, MAT.gamma)
        with pytest.raises(ConfigError):
            build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma[:5, :5])
        with pytest.raises(ConfigError):
            Liouvillian(np.zeros((6, 6)), 6)  # not n^2 x n^2


class TestSteadyState:
    def test_all_fields_off_collects_in_terminal_level(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        rho = steady_state(lv)
        want = np.zeros(6)
        want[0] = 1.0
        assert np.allclose(rho.populations(), want, atol=1e-9)
        assert np.max(np.abs(rho.matrix - np.diag(want))) < 1e-9

    def test_pumping_concentrates_in_level2(self):
        ham = build_hamiltonian(6, PUMP_DRIVES)
        lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
        rho = steady_state(lv)
        assert rho.population(2) > 0.999

    def test_weak_probe_coherence_matches_lambda_form(self):
        lam = lambda_from_material(MAT, 1.5e6)
        for delta in (0.0, 3e5, -8e5, 2e6):
            drives = (FieldDrive(5, 2, 1.5e3, delta),
                      FieldDrive(5, 3, 1.5e6), FieldDrive(6, 1, 1.5e6))
            ham = build_hamiltonian(6, drives)
            lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
            rho52 = coherence(steady_state(lv), 5, 2)
            ref, _ = lambda_steady_state(lam, 1.5e3, delta)
            assert abs(rho52 - ref) / abs(ref) < 0.02

    def test_transient_agrees_with_steady_state(self):
        # 24 ms is ~20 times the slowest decay mode of the pumped generator
        ham = build_hamiltonian(6, PUMP_DRIVES)
        lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
        ss = steady_state(lv)
        traj = evolve(mixed_state(6), lv, 24e-3, n_samples=9)
        assert np.max(np.abs(traj.final.matrix - ss.matrix)) < 1e-6

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
            drives = (FieldDrive(5, 2, probe, -8e5),
                      FieldDrive(5, 3, 1.5e6), FieldDrive(6, 1, 1.5e6))
            ham = build_hamiltonian(6, drives)
            lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
            steady_state(lv)  # raises if disagreement > DEGENERACY_TOL
        assert DEGENERACY_TOL == 1e-8


class TestBatchedSteadyStates:
    def test_affine_generator_matches_assembly(self):
        # L0 + delta * D against a fresh assembly at delta, over random
        # complex drives with coupling and auxiliary detunings switched on
        rng = np.random.default_rng(23)
        eps = np.finfo(float).eps
        drift = generator_drift(6, PROBE_SCAN)
        for _ in range(25):
            rabi = ((rng.standard_normal(3) + 1j * rng.standard_normal(3))
                    * 10 ** rng.uniform(2, 7, 3))
            det_c, det_a = rng.uniform(-2e7, 2e7, 2)
            lv0 = assembled(eit_drives(0.0, rabi, det_c, det_a))
            for delta in rng.uniform(-2e7, 2e7, 4):
                want = assembled(eit_drives(delta, rabi, det_c, det_a))
                got = lv0.generator + np.diag(delta * drift)
                assert np.max(np.abs(got - want.generator)) \
                    <= 8 * eps * np.max(np.abs(want.generator))

    def test_drift_is_the_frame_phase_difference(self):
        drift = generator_drift(6, PROBE_SCAN).reshape(6, 6)
        # levels 5 and 3 move with the probe detuning, the rest stay put
        assert drift[4, 1] == -1j and drift[1, 4] == 1j
        assert drift[2, 1] == -1j and drift[4, 2] == 0.0
        assert drift[0, 5] == 0.0 and np.all(np.diag(drift) == 0.0)

    def test_batch_agrees_with_per_point_solves(self):
        lv0 = assembled(eit_drives(0.0))
        drift = generator_drift(6, PROBE_SCAN)
        deltas = np.linspace(-3e6, 3e6, 7)
        batch = steady_states(lv0, drift, deltas)
        for delta, rho in zip(deltas, batch):
            one = steady_state(assembled(eit_drives(delta)))
            assert np.max(np.abs(rho - one.matrix)) < DEGENERACY_TOL

    def test_chunking_does_not_change_any_point(self):
        # every point is its own stacked system: where the chunk
        # boundaries fall must not move a single bit
        lv0 = assembled(eit_drives(0.0))
        drift = generator_drift(6, PROBE_SCAN)
        deltas = np.linspace(-2e7, 2e7, 2 * STEADY_STATE_CHUNK + 3)
        batch = steady_states(lv0, drift, deltas)
        assert batch.shape == (deltas.size, 6, 6)
        for i in (0, STEADY_STATE_CHUNK - 1, STEADY_STATE_CHUNK,
                  deltas.size - 1):
            alone = steady_states(lv0, drift, deltas[i:i + 1])[0]
            assert np.array_equal(alone, batch[i])

    def test_singular_point_names_its_detuning(self):
        # two levels, undamped coherence: the nullspace is two-dimensional
        # only at delta = 0, which sits in the second chunk of this grid
        lifetimes = np.array([np.inf, 1e-3])
        levels = LevelSystem(2, lifetimes,
                             equal_branching(lifetimes, destinations={2: (1,)}),
                             np.zeros((2, 2)))
        lv0 = build_liouvillian(np.zeros((2, 2)), levels, np.zeros((2, 2)))
        drift = generator_drift(2, (FieldDrive(2, 1, 0.0, 1.0),))
        rho = steady_states(lv0, drift, [-2.0, 1.0, 3.0])
        assert np.array_equal(rho[:, 0, 0], np.ones(3))
        grid = np.linspace(-40.0, 40.0, 81)
        assert int(np.argmax(grid == 0.0)) >= STEADY_STATE_CHUNK
        with pytest.raises(SteadyStateError,
                           match=r"at delta = 0\.0 rad/s: singular"):
            steady_states(lv0, drift, grid)

    def test_drift_dimension_checked(self):
        with pytest.raises(ConfigError):
            steady_states(assembled(EIT_DRIVES), np.zeros(35), [0.0])


class TestEvolve:
    def test_exponential_decay_of_level5(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        t_end = 4 * 164e-6
        traj = evolve(basis_state(6, 5), lv, t_end, n_samples=5)
        pops = traj.populations()
        want = np.exp(-traj.times / 164e-6)
        assert np.allclose(pops[:, 4], want, rtol=1e-7, atol=1e-10)

    def test_drift_diagnostics_within_budget(self):
        ham = build_hamiltonian(6, PUMP_DRIVES)
        lv = build_liouvillian(ham, MAT.levels, MAT.gamma)
        traj = evolve(mixed_state(6), lv, 10e-3)
        assert traj.max_trace_dev <= 1e-9
        assert traj.max_herm_dev <= 1e-9
        assert traj.final.population(2) > 0.99
        assert traj.times.size == 201

    def test_zero_horizon_returns_initial(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        traj = evolve(basis_state(6, 3), lv, 0.0)
        assert len(traj.states) == 1
        assert traj.times[0] == 0.0
        assert traj.final.population(3) == 1.0
        assert traj.max_trace_dev == 0.0

    def test_accepts_raw_matrix_input(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        traj = evolve(np.eye(6, dtype=complex) / 6, lv, 1e-5, n_samples=3)
        assert len(traj.states) == 3

    def test_states_are_validated_density_matrices(self):
        traj = evolve(mixed_state(6), assembled(PUMP_DRIVES), 1e-3,
                      n_samples=5)
        assert isinstance(traj.states, tuple) and len(traj.states) == 5
        for state in traj.states:
            assert isinstance(state, DensityMatrix)
            assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-15)
            assert np.array_equal(state.matrix, state.matrix.conj().T)

    def test_bad_horizon_rejected(self):
        lv = build_liouvillian(np.zeros((6, 6)), MAT.levels, MAT.gamma)
        with pytest.raises(InvalidArgumentError):
            evolve(mixed_state(6), lv, -1.0)
        with pytest.raises(InvalidArgumentError):
            evolve(mixed_state(6), lv, float("nan"))

    def test_propagator_breakdown_raises(self):
        # exp(L dt) at dt = 5e27 s needs 110 squarings and loses the trace;
        # at 1e305 s L dt overflows outright
        ham = build_hamiltonian(6, PUMP_DRIVES)
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
        lv = assembled(eit_drives(detunings[0], rabi, *detunings[1:]))
        traj = evolve(rho0, lv, t_end, n_samples=n_samples)
        assert traj.max_trace_dev <= 1e-9 and traj.max_herm_dev <= 1e-9
        for state in traj.states:
            m = state.matrix
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
        traj = evolve(mixed_state(6), lv, 20e-3, n_samples=5)
        assert ss.population(1) == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(traj.final.matrix - ss.matrix)) < 1e-6
