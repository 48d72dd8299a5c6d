import itertools
import math
import re
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
from eitsim.config import DriveSet, default_document, pryso_defaults
from eitsim.errors import (ConfigError, IntegrationError,
                           InvalidArgumentError, SteadyStateError)
from eitsim.lambda_system import lambda_from_material
from eitsim.states import basis_state, mixed_state

from lambda_oracle import lambda_steady_state

MAT = pryso_defaults()


def _material(**keys):
    return pryso_defaults(material={**default_document()["material"], **keys})


OFF = DriveSet(0.0, 0.0, 0.0)
EIT_DRIVES = DriveSet(1.5e3, 1.5e6, 1.5e6)
PUMP_DRIVES = DriveSet(0.0, 1e6, 1e6)
FIELD_LEVELS = (PROBE_LEVELS, COUPLING_LEVELS, AUX_LEVELS)

# The default material with an undamped 4-3 coherence, under the probe
# alone: levels 3 and 4 carry no field, so rho_43 neither decays nor is
# driven.  Level 3 moves with the probe detuning and level 4 does not, so
# its drift is -i (s_4 - s_3) = i.  Every population ends in level 1.
UNDAMPED_43 = MAT._replace(gamma=[
    [0.0 if {m, k} == {2, 3} else g for k, g in enumerate(row)]
    for m, row in enumerate(MAT.gamma)])
PROBE_ONLY = DriveSet(1.5e3, 0.0, 0.0)
# The Lambda system 2-5-3, every field at rabi 2.  Level 5 decays only into
# a trap, level 4, made terminal; levels 2 and 3 never decay (T1 = inf), and
# with no dephasing their coherence is undamped, gamma_32 = 0.
TRAP = _material(lifetime_2_s=math.inf, lifetime_3_s=math.inf,
                 dephasing_32_hz=0.0, branching_41_per_s=0.0,
                 branching_42_per_s=0.0, branching_43_per_s=0.0,
                 branching_51_per_s=0.0, branching_52_per_s=0.0,
                 branching_53_per_s=0.0, branching_54_per_s=1 / 164e-6)
TRAP_DRIVES = DriveSet(2.0, 2.0, 2.0)


def eit_drives(rabi=(1.5e3, 1.5e6, 1.5e6), coupling_det=0.0, aux_det=0.0):
    return DriveSet(*rabi, coupling_detuning=coupling_det,
                    aux_detuning=aux_det)


def assembled(drives, delta=0.0, mat=MAT):
    return build_liouvillian(mat, drives, delta)


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
    rho = steady_states(lv0, [delta])[0].reshape(-1)
    gen = assembled(drives, delta)
    basis = scipy.linalg.null_space(gen)
    assert basis.shape[1] == 1
    want = basis[:, 0] / basis[:: 7, 0].sum()
    sigma = scipy.linalg.svdvals(gen)
    tol = DEGENERACY_TOL + 36 * np.finfo(float).eps * sigma[0] / sigma[-2]
    assert np.max(np.abs(rho - want)) <= tol
    return lv0, rho


def _exact(z):
    return Fraction(z.real), Fraction(z.imag)


def _sub_mul(a, f, b):  # a - f * b on (re, im) pairs
    return (a[0] - (f[0] * b[0] - f[1] * b[1]),
            a[1] - (f[0] * b[1] + f[1] * b[0]))


def _div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm,
            (a[1] * b[0] - a[0] * b[1]) / norm)


def _exact_solve(gen0, drift, delta, rhs):
    """x with (L0 + delta * diag(drift)) x = rhs, rho_11's equation replaced
    by tr x = rhs[0], every float entry and delta taken as exact: Gaussian
    elimination over (re, im) pairs of Fractions, standard library only;
    rhs and x are lists of such pairs."""
    size = 36
    zero = _exact(0j)
    step = Fraction(float(delta))
    rows = [[_exact(complex(z)) for z in row] + [b]
            for row, b in zip(gen0, rhs)]
    for i in range(size):
        rate = _exact(complex(drift[i]))
        rows[i][i] = (rows[i][i][0] + step * rate[0],
                      rows[i][i][1] + step * rate[1])
    rows[0] = [_exact(float(j % 7 == 0)) for j in range(size)] + [rhs[0]]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != zero)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size):
            if r != col and rows[r][col] != zero:
                factor = _div(rows[r][col], rows[col][col])
                rows[r] = [a if b == zero else _sub_mul(a, factor, b)
                           for a, b in zip(rows[r], rows[col])]
    return [_div(row[size], row[i]) for i, row in enumerate(rows)]


def _rounded(x):
    """Exact (re, im) pairs as a (6, 6) complex array, each rounded once."""
    return np.array([complex(float(re), float(im)) for re, im in x]) \
        .reshape(6, 6)


def _exact_state(gen0, drift, delta):
    unit = [_exact(1.0)] + [_exact(0j)] * (gen0.shape[0] - 1)
    return _exact_solve(gen0, drift, delta, unit)


def exact_steady_state(gen0, drift, delta):
    """The steady state of L0 + delta * diag(drift) by exact elimination
    with the trace row in place of rho_11's equation, rounded to complex
    floats once at the end; (6, 6)."""
    return _rounded(_exact_state(gen0, drift, delta))


def exact_steady_state_and_slope(gen0, drift, delta):
    """(rho, d rho / d delta), each (6, 6) and rounded once: the slope
    solves L(delta) rho' = -D o rho with tr rho' = 0 exactly, on the exact
    rho."""
    rho = _exact_state(gen0, drift, delta)
    source = [_sub_mul(_exact(0j), _exact(complex(d)), r)
              for d, r in zip(drift, rho)]
    source[0] = _exact(0j)
    return _rounded(rho), _rounded(_exact_solve(gen0, drift, delta, source))


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


# Drive strengths, detunings and probe detuning of the nullspace and the
# exact-arithmetic properties.
DRIVE_SPACE = dict(
    probe=st.floats(1.0, 1e5),
    coupling=st.one_of(st.just(0.0), st.floats(1.5e5, 5e6)),
    aux=st.one_of(st.just(0.0), st.floats(1e5, 5e6)),
    coupling_det=st.floats(-1e6, 1e6),
    aux_det=st.floats(-1e6, 1e6),
    delta=st.floats(-2e7, 2e7))
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
        lv = assembled(EIT_DRIVES)
        rng = np.random.default_rng(11)
        scale = np.max(np.abs(lv))
        for _ in range(25):
            rho = random_hermitian_state(rng)
            via_gen = (lv @ rho.reshape(-1)).reshape(6, 6)
            via_ref = reference_rhs(rho, ham, np.array(MAT.branching),
                                    np.array(MAT.gamma))
            assert np.max(np.abs(via_gen - via_ref)) < 1e-13 * scale

    def test_probe_coupling_coefficients_in_population_equation(self):
        # d rho_22/dt picks up -i*Omega_P/2 * rho_25 + i*Omega_P/2 * rho_52
        lv = assembled(DriveSet(2.0, 0.0, 0.0))
        idx22, idx25, idx52 = 1 * 6 + 1, 1 * 6 + 4, 4 * 6 + 1
        assert lv[idx22, idx25] == -1.0j
        assert lv[idx22, idx52] == 1.0j

    def test_population_decay_rates_from_level5(self):
        lv = assembled(OFF)
        rho = basis_state(5)
        rhs = (lv @ rho.reshape(-1)).reshape(6, 6)
        # equal split into 1..4 at 1/(4*T1), total drain 1/T1
        assert rhs[0, 0].real == pytest.approx(1524.3902439024391, rel=1e-12)
        assert rhs[4, 4].real == pytest.approx(-6097.560975609756, rel=1e-12)
        assert rhs[5, 5].real == 0.0

    def test_coherence_decay_entry(self):
        lv = assembled(OFF)
        idx52 = 4 * 6 + 1
        assert lv[idx52, idx52] == -MAT.gamma[4][1]

    def test_trace_preserved_structurally(self):
        # the population rows of the generator sum to the zero row: exact
        for drives in (OFF, PUMP_DRIVES, EIT_DRIVES):
            lv = assembled(drives)
            rows = [m * 6 + m for m in range(6)]
            colsum = lv[rows, :].sum(axis=0)
            assert np.max(np.abs(colsum)) == 0.0

    def test_trace_and_hermiticity_preserved_applied(self):
        # applied to states, the residues scale with ||L||*eps
        rng = np.random.default_rng(13)
        for drives in (OFF, PUMP_DRIVES, EIT_DRIVES):
            lv = assembled(drives)
            norm = np.abs(lv).sum(axis=1).max()
            bound = max(1e-12, 1e-15 * norm)
            states = [mixed_state()] + \
                [random_hermitian_state(rng) for _ in range(20)]
            for rho in states:
                rhs = (lv @ rho.reshape(-1)).reshape(6, 6)
                assert abs(np.trace(rhs)) <= bound
                assert np.max(np.abs(rhs - rhs.conj().T)) <= bound

    def test_dimension_mismatch_rejected(self):
        # a generator that is not (36, 36), a two- or seven-level one
        # included, is refused by name wherever one is accepted
        for gen in (np.zeros((6, 6)), np.zeros((4, 4)), np.zeros((49, 49)),
                    np.zeros((36, 35)), np.zeros(36)):
            for call in (lambda: steady_state(gen),
                         lambda: steady_states(gen, [0.0]),
                         lambda: steady_state_slope(gen, 0.0, mixed_state()),
                         lambda: solved_indices(gen),
                         lambda: bloch.reduction(gen),
                         lambda: evolve(mixed_state(), gen, 1e-3)):
                with pytest.raises(ConfigError,
                                   match=rf"^generator shape "
                                         rf"{re.escape(str(gen.shape))} is "
                                         rf"not \(36, 36\)$"):
                    call()


class TestSteadyState:
    def test_all_fields_off_collects_in_terminal_level(self):
        lv = assembled(OFF)
        rho = steady_state(lv)
        want = np.zeros(6)
        want[0] = 1.0
        assert np.allclose(np.diag(rho).real, want, atol=1e-9)
        assert np.max(np.abs(rho - np.diag(want))) < 1e-9

    def test_pumping_concentrates_in_level2(self):
        rho = steady_state(assembled(PUMP_DRIVES))
        assert rho[1, 1].real > 0.999

    def test_weak_probe_coherence_matches_lambda_form(self):
        lam = lambda_from_material(MAT, EIT_DRIVES)
        for delta in (0.0, 3e5, -8e5, 2e6):
            rho52 = steady_state(assembled(EIT_DRIVES, delta))[4, 1]
            ref, _ = lambda_steady_state(lam, 1.5e3, delta)
            assert abs(rho52 - ref) / abs(ref) < 0.02

    def test_transient_agrees_with_steady_state(self):
        # 24 ms is ~20 times the slowest decay mode of the pumped generator
        lv = assembled(PUMP_DRIVES)
        ss = steady_state(lv)
        rho = evolve(mixed_state(), lv, 24e-3, n_samples=9)[1]
        assert np.max(np.abs(rho[-1] - ss)) < 1e-6

    def test_degenerate_nullspace_rejected(self):
        # two terminal ground levels, 1 and 2, no fields: any population
        # split between them is stationary
        lv = assembled(OFF, mat=_material(branching_21_per_s=0.0))
        with pytest.raises(SteadyStateError):
            steady_state(lv)

    @pytest.mark.parametrize("solve", [
        steady_state, lambda gen: steady_states(gen, [0.0])],
        ids=["still", "probe"])
    def test_all_zero_generator_is_singular(self, solve):
        # sigma = ||L0|| = 0, so no shift i sigma * C rescues the pinned
        # system, whether the generator is solved alone or swept
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = 0\.0 rad/s: singular "
                                 r"steady-state system"):
            solve(np.zeros((36, 36)))

    def test_refusals_are_the_sweeps_at_delta_zero(self):
        # the undamped, undriven rho_43 of UNDAMPED_43: assembled at
        # delta != 0 its row carries the drift and the state is unique;
        # at delta = 0 the row is zero and steady_state refuses it the way
        # steady_states refuses that grid point
        for delta in (-2.0, 1.0, 3.0):
            rho = steady_state(assembled(PROBE_ONLY, delta, mat=UNDAMPED_43))
            assert np.array_equal(rho, basis_state(1))
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = 0\.0 rad/s: singular "
                                 r"steady-state system"):
            steady_state(assembled(PROBE_ONLY, mat=UNDAMPED_43))

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
        solved = solved_indices(assembled(EIT_DRIVES))
        want = sorted([m * 7 for m in range(6)]
                      + [(m - 1) * 6 + k - 1 for group in ((2, 3, 5), (1, 6))
                         for m in group for k in group if m != k])
        assert solved.size == 14
        assert np.array_equal(solved, want)
        assert np.array_equal(solved, block_by_drives(EIT_DRIVES))

    def test_undamped_uncoupled_coherence_solves_everything(self):
        # rho_43 has no decay and no drive: the rest is not certified
        lv0 = assembled(PROBE_ONLY, mat=UNDAMPED_43)
        assert np.array_equal(solved_indices(lv0), np.arange(36))
        # with its decay back, the block is the populations plus 25 and 52
        damped = assembled(PROBE_ONLY)
        assert np.array_equal(solved_indices(damped),
                              [0, 7, 10, 14, 21, 25, 28, 35])
        assert np.array_equal(solved_indices(damped),
                              block_by_drives(PROBE_ONLY))

    @settings(max_examples=40, deadline=None)
    @given(**DRIVE_SPACE)
    def test_matches_full_space_null_space(self, probe, coupling, aux,
                                           coupling_det, aux_det, delta):
        rabi = (probe, coupling, aux)
        lv0, rho = assert_matches_null_space(rabi, coupling_det, aux_det,
                                            delta)
        solved = solved_indices(lv0)
        assert np.array_equal(solved, block_by_drives(
            eit_drives(rabi, coupling_det, aux_det)))
        outside = np.setdiff1d(np.arange(36), solved)
        assert np.all(rho[outside] == 0.0)
        # positive semidefinite: over 3,000 draws of these drives the
        # smallest eigenvalue never went below 0.0 (exactly 0 where the
        # repump is off and level 6 stays empty), so the slack of
        # n = 6 eps * max|rho| covers only eigvalsh's own rounding
        lowest = np.linalg.eigvalsh(rho.reshape(6, 6))[0]
        assert lowest >= -6 * np.finfo(float).eps * np.abs(rho).max()

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


class TestWalkedBlock:
    """Block P is walked from L0 for each drive set, not fixed to the 14
    entries all three fields link: with a field off, that fixed set holds
    coherences with no source, and with every field off its reference
    solve is exactly singular (the pinned row -gamma_52 + sigma is 0)."""

    @pytest.mark.parametrize("on", list(itertools.product((0, 1), repeat=3)),
                             ids=lambda on: "probe{}-coupling{}-aux{}".format(
                                 *on))
    def test_every_field_combination(self, on):
        drives = DriveSet(*(rabi * o for rabi, o in
                            zip((1.5e3, 1.5e6, 1.5e6), on)))
        lv0 = assembled(drives)
        solved = solved_indices(lv0)
        assert np.array_equal(solved, block_by_drives(drives))
        rho = steady_states(lv0, np.linspace(-2e7, 2e7, 41))
        outside = np.setdiff1d(np.arange(36), solved)
        assert np.all(rho.reshape(41, 36)[:, outside] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(rabi=st.tuples(*[st.one_of(
               st.just(0.0), st.builds(complex, st.floats(-5e6, 5e6),
                                       st.floats(-5e6, 5e6)))] * 3),
           detunings=st.tuples(*[st.floats(-2e7, 2e7)] * 3))
    def test_hermitian_part_on_the_rest_is_minus_the_decay(self, rabi,
                                                           detunings):
        # what solved_indices' certificate relies on: the commutator is
        # anti-hermitian on any principal block, exactly
        probe_det, coupling_det, aux_det = detunings
        drives = eit_drives(rabi, coupling_det, aux_det)
        lv0 = assembled(drives, probe_det)
        rest = np.setdiff1d(np.arange(36), block_by_drives(drives))
        sub = lv0[np.ix_(rest, rest)]
        gamma = np.array(MAT.gamma).reshape(-1)[rest]
        assert np.array_equal(0.5 * (sub + sub.conj().T), -np.diag(gamma))


class TestExactArithmetic:
    # Against exact_steady_state at these points the worst entry of
    # steady_states is 1.004 eps * max|rho| off (steady_state on the
    # generator assembled at delta: 1.024 eps), and full_model_chi is at
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
        gen0 = assembled(drives)
        want = exact_steady_state(gen0, PROBE_DRIFT, delta)
        rho = steady_states(gen0, [delta])[0]
        eps = np.finfo(float).eps
        assert np.abs(rho - want).max() \
            <= self.ENTRY_EPS * eps * np.abs(want).max()
        # steady_state runs steady_states' algorithm, so it is held to the
        # exact oracle of the generator assembled at delta, not to the batch
        gen = assembled(drives, delta)
        want_one = exact_steady_state(gen, PROBE_DRIFT, 0.0)
        assert np.abs(steady_state(gen) - want_one).max() \
            <= self.ENTRY_EPS * eps * np.abs(want_one).max()
        chi = full_model_chi(MAT, drives, delta)
        exact_chi = bloch.rho_to_chi(want[4, 1], MAT, drives.probe_rabi)
        assert abs(chi - exact_chi) <= self.CHI_RTOL * abs(exact_chi)

    # Over ~3,700 draws of the nullspace property's drive space (2,500 of
    # them uniform) the worst entry of steady_states was 1.5e4 eps *
    # max|rho| off, the 99th percentile 2.8e3.  The largest had the
    # coupling off and |delta| above ~1e7 rad/s, some 100 times the
    # reduction's sigma, where a direct LU solve of the same pinned system
    # stays within 20 eps.  Over ~1,100 draws, 600 of them steered toward
    # the worst, the slope's worst entry was 50 eps * max|rho| / gamma32
    # off; gamma32 is the slowest decay of an entry that moves with delta.
    RHO_EPS = 2.0 ** 17
    SLOPE_EPS = 2.0 ** 9

    # Two exact solves per example take ~0.1 s, and up to 1.5 s where delta
    # is tiny (1e-124, say): every Fraction then carries its ~460-bit
    # denominator.
    @settings(max_examples=25, deadline=None)
    @given(**DRIVE_SPACE)
    def test_matches_exact_elimination_over_drives(self, probe, coupling, aux,
                                                   coupling_det, aux_det,
                                                   delta):
        drives = eit_drives((probe, coupling, aux), coupling_det, aux_det)
        gen0 = assembled(drives)
        want, want_slope = exact_steady_state_and_slope(gen0, PROBE_DRIFT,
                                                        delta)
        rho = steady_states(gen0, [delta])[0]
        slope = steady_state_slope(gen0, delta, rho)
        scale = np.finfo(float).eps * np.abs(want).max()
        assert np.abs(rho - want).max() <= self.RHO_EPS * scale
        assert np.abs(slope - want_slope).max() \
            <= self.SLOPE_EPS * scale / MAT.gamma[2][1]


def _scaled_rho52(c):
    """rho52 on 41 detunings over +-2e6 * c rad/s at the default drives,
    with every rate, Rabi frequency and detuning times c."""
    material = dict(default_document()["material"])
    for key, value in material.items():
        if key.startswith("lifetime_"):
            material[key] = value / c
        elif key.startswith("dephasing_"):
            material[key] = value * c
    mat = pryso_defaults(material=material)
    lv0 = assembled(eit_drives((1.5e3 * c, 1.5e6 * c, 1.5e6 * c)), mat=mat)
    deltas = np.linspace(-2e6, 2e6, 41) * c
    return steady_states(lv0, deltas)[:, 4, 1]


class TestRateScaleInvariance:
    # rho is dimensionless: scaling every rate by c moves no entry beyond
    # rounding.  Over 300 log-uniform draws of c in [1e-12, 1e280] the
    # largest move was 7.0e-15 of max|rho52|.  An absolute floor such as
    # sigma = max(||L0||, 1) moved it by 1.9e-12 at c = 1e-9 and by 5.1e-10
    # at c = 1e-12.
    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-6, 1e3, 1e100, 1e280])
    def test_rho52_is_invariant_under_a_common_rate_scale(self, c):
        reference = _scaled_rho52(1.0)
        moved = np.abs(_scaled_rho52(c) - reference).max()
        assert moved <= 1e-14 * np.abs(reference).max()


class TestBatchedSteadyStates:
    def test_affine_generator_matches_assembly(self):
        # L0 + delta * D against a fresh assembly at delta, over random
        # complex drives with coupling and auxiliary detunings switched on
        rng = np.random.default_rng(23)
        eps = np.finfo(float).eps
        for _ in range(25):
            rabi = ((rng.standard_normal(3) + 1j * rng.standard_normal(3))
                    * 10 ** rng.uniform(2, 7, 3))
            det_c, det_a = rng.uniform(-2e7, 2e7, 2)
            drives = eit_drives(rabi, det_c, det_a)
            lv0 = assembled(drives)
            for delta in rng.uniform(-2e7, 2e7, 4):
                want = assembled(drives, delta)
                got = lv0 + np.diag(delta * PROBE_DRIFT)
                assert np.max(np.abs(got - want)) \
                    <= 8 * eps * np.max(np.abs(want))

    def test_drift_is_the_frame_phase_difference(self):
        drift = PROBE_DRIFT.reshape(6, 6)
        # levels 5 and 3 move with the probe detuning, the rest stay put
        assert drift[4, 1] == -1j and drift[1, 4] == 1j
        assert drift[2, 1] == -1j and drift[4, 2] == 0.0
        # what the solvers rely on in place of run-time checks: it is zero
        # on all six populations, so the trace row of reduction carries no
        # delta; it is purely imaginary (the eigvalsh certificate of
        # solved_indices); and no caller can change it
        assert drift[0, 5] == 0.0 and np.all(np.diag(drift) == 0.0)
        assert np.all(PROBE_DRIFT.real == 0.0)
        with pytest.raises(ValueError, match="read-only"):
            PROBE_DRIFT[0] = 1.0

    def test_batch_agrees_with_per_point_solves(self):
        lv0 = assembled(EIT_DRIVES)
        deltas = np.linspace(-3e6, 3e6, 7)
        batch = steady_states(lv0, deltas)
        for delta, rho in zip(deltas, batch):
            one = steady_state(assembled(EIT_DRIVES, delta))
            assert np.max(np.abs(rho - one)) < DEGENERACY_TOL

    def test_no_point_depends_on_the_rest_of_the_call(self):
        # every point is its own small solve from the same factorization:
        # the other points of the call may not move a single bit (how
        # full_model_chi slices a grid is tested in test_optics)
        lv0 = assembled(EIT_DRIVES)
        deltas = np.linspace(-2e7, 2e7, 259)
        batch = steady_states(lv0, deltas)
        assert batch.shape == (259, 6, 6)
        for i in (0, 127, 128, 258):
            alone = steady_states(lv0, deltas[i:i + 1])[0]
            assert np.array_equal(alone, batch[i])

    def test_poles_are_where_the_pinned_block_is_singular(self):
        # the four dressed-state resonances at the defaults, against a
        # fresh pinned block at each pole: singular to rounding
        lv0 = assembled(EIT_DRIVES)
        poles = bloch.reduction(lv0)[-1]
        assert np.allclose(np.abs(poles.real), 7.497e5, rtol=1e-4)
        assert np.allclose(np.abs(poles.imag), 2.729e4, rtol=1e-3)
        assert np.sign(poles.real).sum() == np.sign(poles.imag).sum() == 0
        solved = solved_indices(lv0)
        for pole in poles:
            block = (lv0 + np.diag(pole * PROBE_DRIFT))[
                np.ix_(solved, solved)]
            block[0] = solved % 7 == 0
            sv = np.linalg.svd(block, compute_uv=False)
            assert sv[-1] <= 1e-12 * sv[0]

    def test_terminal_level_collects_every_population(self):
        # level 4 decays nowhere and every route leads into it, so each
        # point is exactly |4><4|, though the delta-independent part of the
        # pinned block is singular (cond 1.2e18)
        mat = _material(branching_41_per_s=0.0, branching_42_per_s=0.0,
                        branching_43_per_s=0.0, branching_21_per_s=0.0)
        lv0 = assembled(EIT_DRIVES, mat=mat)
        rho = steady_states(lv0, np.linspace(-2e7, 2e7, 201))
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
        # the undamped, undriven coherence rho_43: the nullspace is
        # two-dimensional only at delta = 0, which sits mid-grid
        lv0 = assembled(PROBE_ONLY, mat=UNDAMPED_43)
        rho = steady_states(lv0, [-2.0, 1.0, 3.0])
        assert np.array_equal(rho[:, 0, 0], np.ones(3))
        grid = np.linspace(-264.0, 264.0, 529)
        assert grid[264] == 0.0
        with pytest.raises(SteadyStateError,
                           match=r"at delta = 0\.0 rad/s: singular"):
            steady_states(lv0, grid)

    def test_singular_population_block_names_its_detuning(self):
        # TRAP: off two-photon resonance everything ends in level 4; at
        # delta = 0 the dark state of levels 2 and 3 is stationary too.
        # The coherences with level 4 decay, so the solve runs on the
        # 14-entry block.
        lv0 = assembled(TRAP_DRIVES, mat=TRAP)
        assert np.array_equal(solved_indices(lv0),
                              block_by_drives(TRAP_DRIVES))
        rho = steady_states(lv0, [-2.0, 1.0, 3.0])
        assert np.array_equal(rho[:, 3, 3], np.ones(3))
        grid = np.linspace(-264.0, 264.0, 529)
        assert grid[264] == 0.0
        with pytest.raises(SteadyStateError,
                           match=r"at delta = 0\.0 rad/s: singular"):
            steady_states(lv0, grid)

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
            bloch._check_residual(lv0, np.array([1e308]), unit, 0.0,
                                  "steady-state")

    def test_pole_beyond_the_float_range_is_refused(self):
        # a 6e246 rad/s ground decay next to a 6e298 rad/s probe leaves an
        # eigenvalue of C Z_S of 1.7e-315 whose pole -1/mu is not a float
        mat = _material(lifetime_1_s=1.6e-247)
        lv0 = assembled(eit_drives((6.45e298, 1.5e6, 1.5e6)), mat=mat)
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = 0\.0 rad/s: steady-state "
                                 r"system has a pole beyond the float range"):
            bloch.reduction(lv0)

    def test_woodbury_overflow_is_refused_by_name(self):
        # a 1e-298 s lifetime puts sigma at 3.1e298 rad/s, and (delta - i
        # sigma) * C Z_S (|C Z_S| ~ 5.6e286) leaves the float range
        mat = _material(lifetime_3_s=1e-298)
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = -20000000\.0 rad/s: "
                                 r"steady-state system overflows: \(delta "
                                 r"- i sigma\) \* C Z_S is beyond the float "
                                 r"range, with sigma = \|\|L0\|\| "
                                 r"= 3\.142e\+298$"):
            full_model_chi(mat, EIT_DRIVES, np.linspace(-2e7, 2e7, 201))

    def test_shifted_names_the_first_overflowing_detuning(self):
        # the right-hand side (delta - i sigma) * C y_S takes the same gate
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = 1e\+300 rad/s: steady-state "
                                 r"system overflows: \(delta - i sigma\) \* "
                                 r"C y_S is beyond"):
            bloch._shifted(np.array([1.0, 1e300, 2e300]), 1.0,
                           np.array([1.0, 1e10]), "C y_S", "steady-state")


class TestSteadyStateSlope:
    def test_slope_of_a_hermitian_unit_trace_state(self):
        # rho(delta) is hermitian with unit trace for every real delta, so
        # its derivative is hermitian with zero trace, to rounding: eps
        # times the condition number of the pinned system, ~1.5e6 here
        lv0 = assembled(EIT_DRIVES)
        for delta in (-8e5, 0.0, 2.5e5):
            rho = steady_states(lv0, [delta])[0]
            slope = steady_state_slope(lv0, delta, rho)
            scale = np.abs(slope).max()
            assert scale > 0
            assert abs(np.trace(slope)) <= 1e-9 * scale
            assert np.abs(slope - slope.conj().T).max() <= 1e-9 * scale

    def test_matches_a_difference_of_steady_states(self):
        # away from narrow features a plain central difference of the
        # stationary states agrees to its O(h^2) truncation
        lv0 = assembled(EIT_DRIVES)
        delta, h = 3e6, 10.0
        rho = steady_states(lv0, [delta - h, delta, delta + h])
        slope = steady_state_slope(lv0, delta, rho[1])
        diff = (rho[2] - rho[0]) / (2.0 * h)
        assert np.abs(slope - diff).max() <= 1e-6 * np.abs(slope).max()

    def test_shared_reduction_changes_no_bit(self):
        lv0 = assembled(EIT_DRIVES)
        for delta in (-8e5, 0.0, 2.5e5):
            reduced = bloch.reduction(lv0, delta)
            rho = steady_states(lv0, [delta])[0]
            assert np.array_equal(
                steady_states(lv0, [delta], reduced)[0], rho)
            assert np.array_equal(
                steady_state_slope(lv0, delta, rho, reduced),
                steady_state_slope(lv0, delta, rho))

    def test_residual_gate_names_its_detuning(self, monkeypatch):
        lv0 = assembled(EIT_DRIVES)
        rho = steady_states(lv0, [2.5e5])[0]
        # a gate below zero fails any slope, however exact
        monkeypatch.setattr(bloch, "STEADY_STATE_RTOL", -1.0)
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = 250000\.0 rad/s: slope "
                                 r"residual"):
            steady_state_slope(lv0, 2.5e5, rho)

    def test_singular_system_names_its_detuning(self):
        # the trap system of test_singular_population_block_names_its_
        # detuning: its pinned system is singular at delta = 0
        lv0 = assembled(TRAP_DRIVES, mat=TRAP)
        rho = steady_states(lv0, [1.0])[0]
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = 0\.0 rad/s: singular slope"):
            steady_state_slope(lv0, 0.0, rho)


class TestEvolve:
    def test_exponential_decay_of_level5(self):
        lv = assembled(OFF)
        t_end = 4 * 164e-6
        times, rho, _, _ = evolve(basis_state(5), lv, t_end, n_samples=5)
        pops = np.diagonal(rho, axis1=1, axis2=2).real
        want = np.exp(-times / 164e-6)
        assert np.allclose(pops[:, 4], want, rtol=1e-7, atol=1e-10)

    def test_drift_diagnostics_within_budget(self):
        lv = assembled(PUMP_DRIVES)
        times, rho, trace_dev, herm_dev = evolve(mixed_state(), lv, 10e-3)
        assert trace_dev <= 1e-9
        assert herm_dev <= 1e-9
        assert rho[-1, 1, 1].real > 0.99
        assert times.size == 201

    def test_zero_horizon_returns_initial(self):
        lv = assembled(OFF)
        times, rho, trace_dev, herm_dev = evolve(basis_state(3), lv, 0.0)
        assert len(rho) == 1
        assert times[0] == 0.0
        assert rho[-1, 2, 2].real == 1.0
        assert trace_dev == herm_dev == 0.0

    def test_accepts_raw_matrix_input(self):
        lv = assembled(OFF)
        rho = evolve(np.eye(6, dtype=complex) / 6, lv, 1e-5, n_samples=3)[1]
        assert len(rho) == 3

    def test_states_are_validated_density_matrices(self):
        rho = evolve(mixed_state(), assembled(PUMP_DRIVES), 1e-3,
                     n_samples=5)[1]
        assert rho.shape == (5, 6, 6) and rho.dtype == complex
        for state in rho:
            assert np.trace(state).real == pytest.approx(1.0, abs=1e-15)
            assert np.array_equal(state, state.conj().T)

    def test_bad_horizon_rejected(self):
        lv = assembled(OFF)
        with pytest.raises(InvalidArgumentError):
            evolve(mixed_state(), lv, -1.0)
        with pytest.raises(InvalidArgumentError):
            evolve(mixed_state(), lv, float("nan"))
        with pytest.raises(InvalidArgumentError,
                           match="need at least two samples"):
            evolve(mixed_state(), lv, 1e-3, n_samples=1)
        with pytest.raises(ConfigError, match="initial state dimension "
                                              "does not match generator"):
            evolve(np.eye(2, dtype=complex) / 2, lv, 1e-3)

    def test_propagator_breakdown_raises(self):
        # exp(L dt) at dt = 5e27 s needs 110 squarings and loses the trace;
        # at 1e305 s L dt overflows outright
        lv = assembled(PUMP_DRIVES)
        with pytest.raises(IntegrationError,
                           match=r"sample at t = 5\.000000e\+27 s"):
            evolve(mixed_state(), lv, 1e30)
        with pytest.raises(IntegrationError, match="non-finite"):
            evolve(mixed_state(), lv, 1e305)

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
        rho0 = mixed_state() if initial == 0 else basis_state(initial)
        lv = assembled(eit_drives(rabi, *detunings[1:]), detunings[0])
        _, rho, trace_dev, herm_dev = evolve(rho0, lv, t_end,
                                             n_samples=n_samples)
        assert trace_dev <= 1e-9 and herm_dev <= 1e-9
        for m in rho:
            assert np.max(np.abs(m - m.conj().T)) <= 1e-9
            assert abs(np.trace(m) - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(m).min() >= -1e-9

    def test_dimension_mismatch_rejected(self):
        lv = assembled(OFF)
        with pytest.raises(ConfigError):
            evolve(np.eye(4) / 4, lv, 1e-3)

    def test_rescaled_ground_lifetimes_reach_terminal_state(self):
        # with ground T1 shortened to 1 ms the all-off cascade is integrable:
        # the transient must land on the same state the linear solve finds
        mat = _material(lifetime_1_s=1e-3, lifetime_2_s=1e-3,
                        lifetime_3_s=1e-3)
        lv = assembled(OFF, mat=mat)
        ss = steady_state(lv)
        rho = evolve(mixed_state(), lv, 20e-3, n_samples=5)[1]
        assert ss[0, 0].real == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(rho[-1] - ss)) < 1e-6
