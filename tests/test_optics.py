import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitsim import bloch, optics, states
from eitsim.bloch import (DEGENERACY_TOL, build_hamiltonian,
                          build_liouvillian, generator_drift,
                          steady_state_slope, steady_states)
from eitsim.config import apply_overrides, resolve
from eitsim.constants import C_LIGHT, TWO_PI
from eitsim.errors import (ConfigError, ConventionError,
                           DivergentVelocityError, InvalidArgumentError,
                           SingularParametersError, StateCorruptionError,
                           SteadyStateError)
from eitsim.lambda_system import (LambdaParams, chi_analytic,
                                  dchi_prime_ddelta, lambda_from_material)
from eitsim.materials import pryso_defaults
from eitsim.optics import (CHI_IM_SIGN_TOL, CSV_HEADER, STEADY_STATE_CHUNK,
                           WEAK_PROBE_RATIO, DriveSet, GridSpec, Spectrum,
                           absorption, full_model_chi, group_velocity,
                           probe_angular_frequency, refractive_index,
                           rho_to_chi, spectrum_to_csv, sweep,
                           transparency_window, window_width_closed_form)

MAT = pryso_defaults()
EIT_DRIVES = DriveSet(probe_rabi=1.5e3, coupling_rabi=1.5e6, aux_rabi=1.5e6)
EIT = lambda_from_material(MAT, 1.5e6)


class TestGridSpec:
    def test_values_and_center(self):
        grid = GridSpec(-2e7, 2e7, 201)
        v = grid.values()
        assert v.size == 201
        assert v[0] == -2e7 and v[-1] == 2e7
        assert v[100] == 0.0  # odd symmetric grid hits resonance exactly

    def test_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(1.0, 1.0, 10)
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, 1)
        with pytest.raises(ConfigError):
            GridSpec(float("nan"), 1.0, 10)


class TestDriveSet:
    def test_field_drives_geometry(self):
        ds = DriveSet(1.0, 2.0, 3.0, coupling_detuning=5.0, aux_detuning=-7.0)
        probe, coupling, aux = ds.field_drives(11.0)
        assert (probe.upper, probe.lower, probe.rabi, probe.detuning) == \
            (5, 2, 1.0, 11.0)
        assert (coupling.upper, coupling.lower, coupling.detuning) == (5, 3, 5.0)
        assert (aux.upper, aux.lower, aux.detuning) == (6, 1, -7.0)


class TestPointwiseOptics:
    def test_rho_to_chi_identity(self):
        chi = rho_to_chi(0.5j, MAT, 1.5e3)
        want = 2.0 * MAT.coupling_strength * 0.5j / 1.5e3
        assert chi == want

    def test_rho_to_chi_zero_probe(self):
        with pytest.raises(ZeroDivisionError):
            rho_to_chi(0.1j, MAT, 0.0)

    def test_refractive_index(self):
        assert refractive_index(complex(0.0, 1.0)) == 1.0
        assert refractive_index(complex(-4e-4, 0.0)) == 1.0 - 2e-4

    def test_absorption_values(self):
        # resonant absorption without coupling, and inside the window
        ref = absorption(chi_analytic(
            LambdaParams(EIT.gamma52, EIT.gamma32, 0.0, EIT.coupling_a), 0.0),
            MAT.probe_wavelength)
        assert ref == pytest.approx(550438.1535833669, rel=1e-12)
        eit = absorption(chi_analytic(EIT, 0.0), MAT.probe_wavelength)
        assert eit == pytest.approx(291.4698675382169, rel=1e-12)
        assert ref / eit == pytest.approx(1888.4907665839403, rel=1e-10)

    def test_absorption_sign_handling(self):
        assert absorption(complex(0.0, -1e-13), 605.7e-9) == 0.0
        with pytest.raises(ConventionError):
            absorption(complex(0.0, -1e-9), 605.7e-9)
        with pytest.raises(InvalidArgumentError):
            absorption(complex(0.0, 1.0), 0.0)

    def test_absorption_on_arrays(self):
        chi = 1j * np.array([2e-3, -1e-13, 0.0])
        alpha = absorption(chi, 605.7e-9)
        assert alpha.shape == (3,)
        assert alpha[0] == absorption(complex(0.0, 2e-3), 605.7e-9)
        assert alpha[1] == 0.0 and alpha[2] == 0.0
        with pytest.raises(ConventionError, match="-1e-09"):
            absorption(1j * np.array([1.0, -1e-9]),
                       605.7e-9)

    def test_probe_angular_frequency(self):
        want = TWO_PI * C_LIGHT / 605.7e-9
        assert probe_angular_frequency(MAT) == pytest.approx(want, rel=1e-15)
        assert probe_angular_frequency(MAT) == pytest.approx(3.10987546196e15,
                                                             rel=1e-9)


def full_chi_and_slope(mat, drives, delta):
    """Full-backend chi and dchi/ddelta at one detuning, complex, from
    bloch's steady state and its exact slope."""
    lv0 = build_liouvillian(build_hamiltonian(6, drives.field_drives(0.0)),
                            mat.levels, mat.gamma)
    drift = generator_drift(6, DriveSet(0.0, 0.0, 0.0).field_drives(1.0))
    rho = steady_states(lv0, drift, [delta])[0]
    slope = steady_state_slope(lv0, drift, delta, rho)
    scale = 2.0 * mat.coupling_strength / complex(drives.probe_rabi)
    return scale * rho[4, 1], scale * slope[4, 1]


# Detunings across the window, at the Autler-Townes peak (-8e5) and far out.
SLOPE_DELTAS = (-8e5, -1e5, 0.0, 3e5, 5e6)


class TestGroupVelocity:
    def test_slow_light_value(self):
        omega0 = probe_angular_frequency(MAT)
        for delta in SLOPE_DELTAS:
            ng = (1.0 + 0.5 * chi_analytic(EIT, delta).real
                  - omega0 * 0.5 * dchi_prime_ddelta(EIT, delta))
            assert group_velocity("analytic", MAT, EIT_DRIVES, delta) \
                == pytest.approx(C_LIGHT / ng, rel=1e-15)
        vg = group_velocity("analytic", MAT, EIT_DRIVES, 0.0)
        assert vg == pytest.approx(21.57, rel=1e-3)

    def test_full_backend_uses_the_exact_slope(self):
        omega0 = probe_angular_frequency(MAT)
        for delta in SLOPE_DELTAS:
            chi, slope = full_chi_and_slope(MAT, EIT_DRIVES, delta)
            ng = 1.0 + 0.5 * chi.real - omega0 * 0.5 * slope.real
            assert group_velocity("full", MAT, EIT_DRIVES, delta) \
                == pytest.approx(C_LIGHT / ng, rel=1e-15)
        # the default probe is weak: both backends see the same slow light
        assert group_velocity("full", MAT, EIT_DRIVES, 0.0) == pytest.approx(
            group_velocity("analytic", MAT, EIT_DRIVES, 0.0), rel=1e-4)

    def test_vacuum_limit(self):
        # one dopant per m^3 moves n_g from 1 by less than half an ulp
        vacuum = dataclasses.replace(MAT, number_density=1.0)
        for backend in ("analytic", "full"):
            assert group_velocity(backend, vacuum, EIT_DRIVES, 0.0) == C_LIGHT

    def test_anomalous_slope_negative_velocity(self):
        bare = DriveSet(probe_rabi=1.5e3, coupling_rabi=0.0, aux_rabi=1.5e6)
        vg = group_velocity("analytic", MAT, bare, 0.0)
        assert vg < 0  # steep anomalous dispersion at the bare resonance
        assert abs(vg) < 1.0
        assert group_velocity("full", MAT, bare, 0.0) < 0

    def test_divergent_group_index(self):
        # at the bare resonance chi' = 0 and n_g = 1 - omega0/2 * dchi'/d
        # delta, with the slope linear in the number density: the density
        # that puts n_g at zero leaves it within rounding of zero
        bare = DriveSet(probe_rabi=1.5e3, coupling_rabi=0.0, aux_rabi=1.5e6)
        slope = dchi_prime_ddelta(lambda_from_material(MAT, 0.0), 0.0)
        density = MAT.number_density * 2.0 \
            / (probe_angular_frequency(MAT) * slope)
        mat = dataclasses.replace(MAT, number_density=density)
        with pytest.raises(DivergentVelocityError):
            group_velocity("analytic", mat, bare, 0.0)

    def test_non_finite_group_index_names_its_detuning(self):
        # far off resonance the closed form's Z * Z overflows and its slope
        # is inf - inf; the full backend still sees n_g = 1 there
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergentVelocityError,
                               match=r"^group index nan is not finite at "
                                     r"delta = 1e\+80 rad/s$"):
                group_velocity("analytic", MAT, EIT_DRIVES, 1e80)
        assert group_velocity("full", MAT, EIT_DRIVES, 1e80) \
            == pytest.approx(C_LIGHT, rel=1e-12)

    def test_full_backend_reduces_once(self, monkeypatch):
        # the state and its slope share one reference factorization
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2:])
            return reduction(*args, **kwargs)

        reduction = bloch.reduction
        monkeypatch.setattr(bloch, "reduction", counted)
        monkeypatch.setattr(optics, "reduction", counted)
        vg = group_velocity("full", MAT, EIT_DRIVES, -1e5)
        assert calls == [(-1e5,)]
        chi, slope = full_chi_and_slope(MAT, EIT_DRIVES, -1e5)
        assert len(calls) == 3
        omega0 = probe_angular_frequency(MAT)
        assert vg == pytest.approx(
            C_LIGHT / (1.0 + 0.5 * chi.real - omega0 * 0.5 * slope.real),
            rel=1e-15)

    def test_input_validation(self):
        # an infinite wavelength gives omega = 0, a subnormal one omega = inf
        for wavelength in (math.inf, 1e-310):
            mat = dataclasses.replace(MAT, probe_wavelength=wavelength)
            with pytest.raises(InvalidArgumentError,
                               match="probe angular frequency"):
                group_velocity("analytic", mat, EIT_DRIVES, 0.0)
        with pytest.raises(ConfigError):
            group_velocity("exact", MAT, EIT_DRIVES, 0.0)

    def test_full_backend_refuses_a_zero_probe(self):
        off = DriveSet(probe_rabi=0.0, coupling_rabi=1.5e6, aux_rabi=1.5e6)
        for run in (lambda: group_velocity("full", MAT, off, 0.0),
                    lambda: sweep("full", MAT, off, GridSpec(-1e6, 1e6, 3))):
            with pytest.raises(ConfigError, match="nonzero probe field"):
                run()


class TestSweep:
    def test_analytic_matches_pointwise(self):
        grid = GridSpec(-2e7, 2e7, 51)
        spec = sweep("analytic", MAT, EIT_DRIVES, grid)
        for i, delta in enumerate(grid.values()):
            chi = chi_analytic(EIT, float(delta))
            assert spec.chi_re[i] == chi.real
            assert spec.chi_im[i] == chi.imag
            assert spec.n_index[i] == 1.0 + 0.5 * chi.real
            assert spec.alpha[i] == absorption(chi, MAT.probe_wavelength)

    def test_symmetry_invariants(self):
        grid = GridSpec(-2e7, 2e7, 101)
        ana = sweep("analytic", MAT, EIT_DRIVES, grid)
        assert np.max(np.abs(ana.chi_im - ana.chi_im[::-1])) \
            <= 1e-10 * ana.chi_im.max()
        assert np.max(np.abs(ana.chi_re + ana.chi_re[::-1])) \
            <= 1e-10 * np.abs(ana.chi_re).max()
        ful = sweep("full", MAT, EIT_DRIVES, grid)
        assert np.max(np.abs(ful.chi_im - ful.chi_im[::-1])) \
            <= 0.01 * ful.chi_im.max()
        assert np.max(np.abs(ful.chi_re + ful.chi_re[::-1])) \
            <= 0.01 * np.abs(ful.chi_re).max()

    def test_full_close_to_analytic_at_default_probe(self):
        grid = GridSpec(-2e7, 2e7, 201)
        ana = sweep("analytic", MAT, EIT_DRIVES, grid)
        ful = sweep("full", MAT, EIT_DRIVES, grid)
        dev = np.abs(ful.chi_im - ana.chi_im) / np.abs(ana.chi_im)
        assert dev.max() < 0.02

    def test_alpha_nonnegative_everywhere(self):
        for backend in ("analytic", "full"):
            spec = sweep(backend, MAT, EIT_DRIVES, GridSpec(-2e7, 2e7, 41))
            assert np.all(spec.alpha >= 0)

    def test_no_coupling_peak_at_resonance(self):
        drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=0.0, aux_rabi=0.0)
        spec = sweep("analytic", MAT, drives, GridSpec(-2e7, 2e7, 101))
        assert spec.deltas[np.argmax(spec.alpha)] == 0.0

    def test_jobs_do_not_change_results(self):
        # jobs_count is a legacy key: it is echoed, and reaches no sweep
        one, four = (resolve(apply_overrides({}, [f"jobs_count={jobs}",
                                                  "backend=full"]))
                     for jobs in (1, 4))
        assert four.canonical["jobs_count"] == 4
        spectra = [sweep(run.backend, run.material, run.drives,
                         GridSpec(-2e7, 2e7, 41)) for run in (one, four)]
        assert spectrum_to_csv(spectra[0]) == spectrum_to_csv(spectra[1])

    def test_repeated_sweep_is_bit_identical(self):
        grid = GridSpec(-2e7, 2e7, 31)
        a = sweep("full", MAT, EIT_DRIVES, grid)
        b = sweep("full", MAT, EIT_DRIVES, grid)
        assert spectrum_to_csv(a) == spectrum_to_csv(b)

    def test_full_backend_weak_probe_gate(self):
        strong = DriveSet(probe_rabi=3e5, coupling_rabi=1.5e6, aux_rabi=1.5e6)
        with pytest.raises(ConfigError):
            sweep("full", MAT, strong, GridSpec(-1e6, 1e6, 3))
        off = DriveSet(probe_rabi=0.0, coupling_rabi=1.5e6, aux_rabi=1.5e6)
        with pytest.raises(ConfigError):
            sweep("full", MAT, off, GridSpec(-1e6, 1e6, 3))

    def test_backend_and_jobs_validation(self):
        with pytest.raises(ConfigError):
            sweep("exact", MAT, EIT_DRIVES, GridSpec(-1.0, 1.0, 3))
        # jobs_count is a legacy config key (range-checked in config);
        # the sweep takes no jobs
        with pytest.raises(TypeError):
            sweep("analytic", MAT, EIT_DRIVES, GridSpec(-1.0, 1.0, 3), jobs=1)

    def test_point_failures_name_the_detuning(self):
        # undamped ground coherence + no coupling: the closed form is
        # singular exactly at delta = 0 and the sweep must say where
        mat = pryso_defaults(
            lifetimes=np.array([np.inf] * 3 + [164e-6] * 3),
            dephasing_hz={(5, 2): 9e3, (5, 3): 9e3})
        drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=0.0, aux_rabi=0.0)
        with pytest.raises(SingularParametersError, match="delta"):
            sweep("analytic", mat, drives, GridSpec(-1e3, 1e3, 3))

    def test_spectrum_invariants_enforced(self):
        d = np.array([0.0, 1.0, 2.0])
        ones = np.ones(3)
        with pytest.raises(InvalidArgumentError):
            Spectrum("analytic", d, ones, ones, 1.0 + 0.5 * ones, -ones)
        with pytest.raises(InvalidArgumentError):
            Spectrum("analytic", d[::-1], ones, ones, 1.0 + 0.5 * ones, ones)
        with pytest.raises(InvalidArgumentError):
            Spectrum("analytic", d, ones, ones, ones, ones)  # n != 1+chi/2


class TestCsv:
    def test_header_and_shape(self):
        spec = sweep("analytic", MAT, EIT_DRIVES, GridSpec(-1e6, 1e6, 5))
        text = spectrum_to_csv(spec)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER == "delta_rad_s,chi_re,chi_im,n,alpha_per_m"
        assert len(lines) == 6
        assert text.endswith("\n")

    def test_values_round_trip_exactly(self):
        spec = sweep("analytic", MAT, EIT_DRIVES, GridSpec(-2e7, 2e7, 9))
        lines = spectrum_to_csv(spec).strip().split("\n")[1:]
        for i, line in enumerate(lines):
            cells = [float(c) for c in line.split(",")]
            assert cells[0] == spec.deltas[i]
            assert cells[1] == spec.chi_re[i]
            assert cells[2] == spec.chi_im[i]
            assert cells[3] == spec.n_index[i]
            assert cells[4] == spec.alpha[i]


class TestTransparencyWindow:
    def _reference(self, lam):
        bare = LambdaParams(lam.gamma52, lam.gamma32, 0.0, lam.coupling_a)
        return absorption(chi_analytic(bare, 0.0), MAT.probe_wavelength)

    def _measure(self, omega_c, points=4001):
        lam = lambda_from_material(MAT, omega_c)
        width_est = window_width_closed_form(lam.gamma52, omega_c)
        drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=omega_c,
                          aux_rabi=omega_c)
        grid = GridSpec(-2 * width_est, 2 * width_est, points)
        spec = sweep("analytic", MAT, drives, grid)
        return transparency_window(spec, self._reference(lam)), width_est

    def test_closed_form_agreement_across_coupling_strengths(self):
        for ratio in (10.0, 30.0, 100.0):
            omega_c = ratio * EIT.gamma52
            report, want = self._measure(omega_c)
            assert report.has_window and not report.truncated
            assert abs(report.width - want) / want < 0.005

    def test_default_eit_width(self):
        report, want = self._measure(1.5e6)
        # closed-form edge: sqrt(gamma52^2 + omega_c^2) - gamma52
        assert want == math.hypot(EIT.gamma52, 1.5e6) - EIT.gamma52
        assert report.width == pytest.approx(want, rel=0.005)
        assert report.width == pytest.approx(1.45e6, rel=0.01)
        assert report.width_hz == report.width / TWO_PI
        assert report.edges[0] == pytest.approx(-report.edges[1], rel=1e-6)

    def test_monotone_in_coupling(self):
        w1, _ = self._measure(1.5e6)
        w2, _ = self._measure(3.0e6)
        assert w2.width > w1.width

    def test_no_window_without_coupling(self):
        drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=0.0, aux_rabi=0.0)
        spec = sweep("analytic", MAT, drives, GridSpec(-2e7, 2e7, 201))
        report = transparency_window(spec, self._reference(EIT))
        assert not report.has_window
        assert report.width == 0.0

    def test_truncated_when_grid_too_narrow(self):
        lam = lambda_from_material(MAT, 1.5e6)
        width_est = window_width_closed_form(lam.gamma52, 1.5e6)
        grid = GridSpec(-0.3 * width_est, 0.3 * width_est, 501)
        spec = sweep("analytic", MAT, EIT_DRIVES, grid)
        report = transparency_window(spec, self._reference(lam))
        assert report.has_window and report.truncated
        assert report.width <= 0.6 * width_est * 1.0001

    def test_grid_must_cover_resonance(self):
        spec = sweep("analytic", MAT, EIT_DRIVES, GridSpec(1e5, 1e6, 11))
        with pytest.raises(ConfigError):
            transparency_window(spec, 1.0)

    def test_reference_must_be_positive(self):
        spec = sweep("analytic", MAT, EIT_DRIVES, GridSpec(-1e6, 1e6, 11))
        with pytest.raises(InvalidArgumentError):
            transparency_window(spec, 0.0)


def test_full_model_chi_resonant_point():
    chi = full_model_chi(MAT, EIT_DRIVES, 0.0)
    want = chi_analytic(EIT, 0.0)
    assert chi.imag == pytest.approx(want.imag, rel=0.02)


@settings(max_examples=50, deadline=None)
@given(coupling=st.floats(1.5e5, 5e6),
       probe_share=st.floats(1e-300, 1.0),
       aux=st.floats(1e5, 5e6),
       coupling_det=st.floats(-1e6, 1e6),
       aux_det=st.floats(-1e6, 1e6),
       deltas=st.lists(st.floats(-2e7, 2e7), min_size=1, max_size=16))
def test_chi_im_nonnegative_on_both_backends(coupling, probe_share, aux,
                                             coupling_det, aux_det, deltas):
    # the raw chi_im, before absorption() rounds values inside the
    # tolerance up to zero
    drives = DriveSet(probe_rabi=probe_share * WEAK_PROBE_RATIO * coupling,
                      coupling_rabi=coupling, aux_rabi=aux,
                      coupling_detuning=coupling_det, aux_detuning=aux_det)
    deltas = np.array(deltas)
    full = full_model_chi(MAT, drives, deltas)
    analytic = chi_analytic(lambda_from_material(MAT, coupling), deltas)
    assert np.all(full.imag >= -CHI_IM_SIGN_TOL)
    assert np.all(analytic.imag >= -CHI_IM_SIGN_TOL)


def null_space_chi(mat, drives, deltas):
    """Per-point oracle: the generator assembled afresh at every detuning,
    its nullspace from an SVD (scipy), normalised to unit trace."""
    out = []
    for delta in deltas:
        ham = build_hamiltonian(6, drives.field_drives(float(delta)))
        gen = build_liouvillian(ham, mat.levels, mat.gamma).generator
        basis = scipy.linalg.null_space(gen)
        assert basis.shape[1] == 1
        rho = basis[:, 0].reshape(6, 6)
        rho = rho / np.trace(rho)
        out.append(2.0 * mat.coupling_strength * rho[4, 1]
                   / complex(drives.probe_rabi))
    return np.array(out)


def assert_matches_oracle(mat, drives, deltas):
    # steady_states is trusted to DEGENERACY_TOL in any element of
    # vec(rho); chi = 2 A rho52 / omega_p carries that to chi
    tol = 2.0 * mat.coupling_strength * DEGENERACY_TOL \
        / abs(drives.probe_rabi)
    got = full_model_chi(mat, drives, deltas)
    want = null_space_chi(mat, drives, deltas)
    dev = np.abs(got - want)
    assert dev.max() <= tol


class TestBatchedFullBackend:
    @pytest.mark.parametrize("points", [1, STEADY_STATE_CHUNK - 1,
                                        STEADY_STATE_CHUNK,
                                        STEADY_STATE_CHUNK + 1, 4001])
    def test_matches_null_space_oracle(self, points):
        drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=1.5e6,
                          aux_rabi=1.5e6, coupling_detuning=2e5,
                          aux_detuning=-3e5)
        deltas = np.linspace(-3e6, 3e6, points) if points > 1 \
            else np.array([2.5e5])
        assert_matches_oracle(MAT, drives, deltas)

    @settings(max_examples=25, deadline=None)
    @given(coupling=st.floats(1.5e5, 5e6),
           probe_share=st.floats(1e-3, 1.0),
           aux=st.floats(1.5e5, 5e6),
           coupling_det=st.floats(-1e6, 1e6),
           aux_det=st.floats(-1e6, 1e6),
           deltas=st.lists(st.floats(-2e7, 2e7), min_size=1, max_size=8),
           dephasing=st.tuples(st.floats(0.0, 1e4), st.floats(1e3, 1e5),
                               st.floats(1e3, 1e5)))
    def test_matches_null_space_oracle_over_drives(
            self, coupling, probe_share, aux, coupling_det, aux_det, deltas,
            dephasing):
        mat = pryso_defaults(dephasing_hz={
            (3, 2): dephasing[0], (5, 2): dephasing[1], (5, 3): dephasing[2]})
        drives = DriveSet(
            probe_rabi=probe_share * WEAK_PROBE_RATIO * coupling,
            coupling_rabi=coupling, aux_rabi=aux,
            coupling_detuning=coupling_det, aux_detuning=aux_det)
        assert_matches_oracle(mat, drives, np.array(deltas))

    # Richardson's extrapolation R = (4 D(h/2) - D(h)) / 3 of the central
    # difference D(h) = (chi'(delta + h) - chi'(delta - h)) / 2h misses
    # dchi'/ddelta by h^4 |f^(5)| / 480 plus 3 e / h, e the error of one
    # chi' value.  chi(delta) is rational; its singular points (generalized
    # eigenvalues of the pinned pencil) lay at least 1.04 * gamma32 off the
    # real axis over 2,000 random drives from these ranges.  Cauchy's
    # estimate on a disc of radius gamma32 / 2, where |chi| <= ~2 M with
    # M = max|chi| on the axis, gives |f^(5)| <= 5! * 2M / (gamma32/2)^5,
    # so the truncation is <= 16 (h / gamma32)^4 M / gamma32.  The solves
    # keep e <= 1e-13 M.  At h = gamma32 / 100 the bound is
    # (1.6e-7 + 3e-11) M / gamma32; the worst seen is 7e-12 M / gamma32.
    @settings(max_examples=25, deadline=None)
    @given(coupling=st.floats(1.5e5, 5e6),
           probe_share=st.floats(1e-3, 1.0),
           aux=st.floats(1e5, 5e6),
           coupling_det=st.floats(-1e6, 1e6),
           aux_det=st.floats(-1e6, 1e6),
           delta=st.floats(-2e7, 2e7))
    @example(coupling=1.5e6, probe_share=0.02, aux=1.5e6, coupling_det=0.0,
             aux_det=0.0, delta=-8e5)  # the Autler-Townes peak
    def test_exact_slope_matches_richardson(self, coupling, probe_share, aux,
                                            coupling_det, aux_det, delta):
        drives = DriveSet(
            probe_rabi=probe_share * WEAK_PROBE_RATIO * coupling,
            coupling_rabi=coupling, aux_rabi=aux,
            coupling_detuning=coupling_det, aux_detuning=aux_det)
        gamma32 = MAT.gamma[2, 1]
        h = gamma32 / 100.0
        stencil = delta + np.array([-h, h, -h / 2, h / 2])
        chi_re = full_model_chi(MAT, drives, stencil).real
        coarse = full_model_chi(MAT, drives, np.linspace(-2e7, 2e7, 801))
        m = max(np.abs(chi_re).max(),
                np.hypot(coarse.real, coarse.imag).max())
        wide = (chi_re[1] - chi_re[0]) / (stencil[1] - stencil[0])
        narrow = (chi_re[3] - chi_re[2]) / (stencil[3] - stencil[2])
        richardson = (4.0 * narrow - wide) / 3.0
        _, slope = full_chi_and_slope(MAT, drives, delta)
        tol = (16.0 * (h / gamma32) ** 4 + 3e-13 * gamma32 / h) * m / gamma32
        assert abs(slope.real - richardson) <= tol

    def test_sweep_is_the_batched_chi(self):
        grid = GridSpec(-2e7, 2e7, 2 * STEADY_STATE_CHUNK + 5)
        spec = sweep("full", MAT, EIT_DRIVES, grid)
        chi = full_model_chi(MAT, EIT_DRIVES, grid.values())
        assert np.array_equal(spec.chi_re, chi.real)
        assert np.array_equal(spec.chi_im, chi.imag)
        one = full_model_chi(MAT, EIT_DRIVES, float(grid.values()[7]))
        assert type(one) is complex
        assert (one.real, one.imag) == (chi.real[7], chi.imag[7])

    def test_slicing_changes_no_bit(self, monkeypatch):
        # each point is its own solve from the one reduction, so where the
        # slices split the grid may not move a single bit of chi
        deltas = np.linspace(-2e7, 2e7, 259)
        chi = full_model_chi(MAT, EIT_DRIVES, deltas)
        for chunk in (7, deltas.size):
            monkeypatch.setattr(optics, "STEADY_STATE_CHUNK", chunk)
            assert np.array_equal(full_model_chi(MAT, EIT_DRIVES, deltas),
                                  chi)

    def test_refusal_past_the_first_slice_names_its_detuning(self,
                                                             monkeypatch):
        # a pole gap of 5e4 rad/s refuses the points within it of the
        # Autler-Townes pole -7.497e5 + 2.729e4i: on this 5e4-spaced grid
        # the first is -7.5e5, index 5, inside the third 2-point slice
        sigma = bloch.reduction(*optics._full_generator(MAT, EIT_DRIVES))[3]
        monkeypatch.setattr(bloch, "DEGENERACY_TOL", 5e4 / sigma)
        monkeypatch.setattr(optics, "STEADY_STATE_CHUNK", 2)
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = -750000\.0 rad/s: singular "
                                 r"steady-state system: within 5\.000e\+04"):
            full_model_chi(MAT, EIT_DRIVES, np.linspace(-1e6, 1e6, 41))

    def test_failed_gate_names_the_detuning(self):
        # infinite ground lifetimes and no coupling or auxiliary field:
        # population parked in levels 1 and 3 never moves, so every point
        # is degenerate and the first one is reported
        mat = pryso_defaults(lifetimes=np.array([np.inf] * 3 + [164e-6] * 3))
        drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=0.0, aux_rabi=0.0)
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = -1000000\.0 rad/s: "):
            sweep("full", mat, drives, GridSpec(-1e6, 1e6, 5))

    @pytest.mark.parametrize("gate, error, message", [
        ("DEGENERACY_TOL", SteadyStateError, "steady state is not unique"),
        ("STEADY_STATE_RTOL", SteadyStateError, "steady-state residual"),
        ("VALIDATION_TOL", StateCorruptionError, "hermiticity deviation"),
    ])
    def test_each_gate_failure_names_the_detuning(self, monkeypatch, gate,
                                                  error, message):
        # a gate below zero fails every point; the sweep stops at the first
        module = states if gate == "VALIDATION_TOL" else bloch
        monkeypatch.setattr(module, gate, -1.0)
        with pytest.raises(error, match=rf"^at delta = -20000000\.0 rad/s: {message}"):
            sweep("full", MAT, EIT_DRIVES, GridSpec(-2e7, 2e7, 5))
