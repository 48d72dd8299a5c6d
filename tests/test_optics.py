import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eitsim import bloch, optics, states
from eitsim.bloch import (DEGENERACY_TOL, PROBE_DRIFT, STEADY_STATE_CHUNK,
                          build_liouvillian, full_model_chi, rho_to_chi,
                          steady_state_slope, steady_states)
from eitsim.config import default_document, pryso_defaults
from eitsim.constants import C_LIGHT, TWO_PI
from eitsim.errors import (ConfigError, ConventionError,
                           DivergentVelocityError, InvalidArgumentError,
                           SingularParametersError, StateCorruptionError,
                           SteadyStateError)
from eitsim.lambda_system import (LambdaParams, chi_analytic,
                                  dchi_prime_ddelta, lambda_from_material)
from eitsim.optics import (CHI_IM_SIGN_TOL, CSV_HEADER, DriveSet, GridSpec,
                           absorption, grid_values, group_velocity,
                           interp_at, peak_index, probe_angular_frequency,
                           refractive_index, spectrum_to_csv, sweep,
                           transparency_window, window_width_closed_form)

MAT = pryso_defaults()


def _material(**keys):
    return pryso_defaults(material={**default_document()["material"], **keys})


EIT_DRIVES = DriveSet(probe_rabi=1.5e3, coupling_rabi=1.5e6, aux_rabi=1.5e6)
EIT = lambda_from_material(MAT, EIT_DRIVES)


class TestGridSpec:
    def test_values_and_center(self):
        grid = GridSpec(-2e7, 2e7, 201)
        v = grid_values(grid)
        assert len(v) == 201
        assert v[0] == -2e7 and v[-1] == 2e7
        assert v[100] == 0.0  # odd symmetric grid hits resonance exactly

    def test_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(1.0, 1.0, 10)
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, 1)
        with pytest.raises(ConfigError):
            GridSpec(float("nan"), 1.0, 10)
        with pytest.raises(ConfigError, match="span must be finite"):
            GridSpec(-1e308, 1e308, 3)
        # _replace runs the same checks
        with pytest.raises(ConfigError, match="^grid needs at least 2 points$"):
            GridSpec(-1.0, 1.0, 3)._replace(points=0)


def float_bits(values):
    """The exact bits of each float of values, signed zeros included."""
    return [float(v).hex() for v in values]


MAGNITUDES = st.floats(-300.0, 300.0).map(lambda u: 10.0 ** u)
SIGNED_MAGNITUDES = st.one_of(st.just(0.0), MAGNITUDES,
                              MAGNITUDES.map(lambda v: -v))


def probe_shares(lowest):
    """Omega_p / Omega_c drawn log-uniformly from 10^lowest up to 10^0.5
    (3.2): the full backend solves strong, saturating probes too."""
    return st.floats(lowest, 0.5).map(lambda u: 10.0 ** u)


class TestNumpyOracles:
    """The standard-library helpers give numpy's bits: np.linspace's grid,
    np.interp's alpha(0) and np.argmax's peak.  numpy is the oracle here
    only; the helpers never load it."""

    @settings(max_examples=300, deadline=None)
    @given(start=SIGNED_MAGNITUDES, span=MAGNITUDES,
           points=st.one_of(st.sampled_from([1, 2, 3]),
                            st.integers(1, 5000)))
    @example(start=0.0, span=5e-324, points=5)  # the step underflows to 0
    @example(start=-0.0, span=1.0, points=1)
    @example(start=-1e300, span=2e300, points=4001)
    def test_grid_values_are_linspace(self, start, span, points):
        stop = start + span
        assume(math.isfinite(stop) and stop > start)
        # GridSpec refuses one point; grid_values lays it out as numpy does
        grid = SimpleNamespace(delta_min=start, delta_max=stop,
                               points=points)
        want = np.linspace(start, stop, points)
        if np.all(np.diff(want) > 0):
            assert float_bits(grid_values(grid)) == float_bits(want)
        else:
            with pytest.raises(InvalidArgumentError,
                               match="strictly increasing"):
                grid_values(grid)

    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40,
                       unique=True),
           ys=st.lists(st.floats(-1e300, 1e300), min_size=40, max_size=40))
    @example(xs=[-2.0, -1.0, 0.0, 1.0], ys=[4.0] * 40)
    @example(xs=[-1.0, 1.0], ys=[1e300, -1e300] + [0.0] * 38)
    def test_alpha_at_zero_is_interp(self, xs, ys):
        # differences of values within 1e300 stay finite, so no slope is
        # NaN and np.interp takes no fallback
        xs = sorted(xs)
        ys = ys[:len(xs)]
        assert float_bits([interp_at(0.0, xs, ys)]) == \
            float_bits([np.interp(0.0, xs, ys)])

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                                     st.floats(allow_nan=False)),
                           min_size=1, max_size=50))
    def test_peak_index_is_argmax(self, values):
        assert peak_index(values) == int(np.argmax(values))


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

    def test_absorption_past_the_float_range_is_refused(self):
        # 2*pi / wavelength overflows at 1e-320 m, where a zero chi_im
        # gives inf * 0 = nan; at the default wavelength a finite chi_im
        # of 1.7e306 overflows alpha.  The first such chi_im is named.
        for chi, wavelength, named in [(1e-3j, 1e-320, "0.001"),
                                       (0j, 1e-320, "0.0"),
                                       ([0.1j, 1.7e306j, 1e307j], 605.7e-9,
                                        r"1\.7e\+306")]:
            with pytest.raises(SingularParametersError,
                               match=rf"^absorption is not finite at "
                                     rf"chi_im = {named}: .* overflows"):
                absorption(chi, wavelength)

    def test_absorption_on_arrays(self):
        chi = 1j * np.array([2e-3, -1e-13, 0.0])
        alpha = absorption(chi, 605.7e-9)
        assert type(alpha) is list and len(alpha) == 3
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
    lv0 = build_liouvillian(mat, drives, 0.0)
    drift = PROBE_DRIFT
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
        vacuum = MAT._replace(number_density=1.0)
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
        slope = dchi_prime_ddelta(lambda_from_material(MAT, bare), 0.0)
        density = MAT.number_density * 2.0 \
            / (probe_angular_frequency(MAT) * slope)
        mat = MAT._replace(number_density=density)
        with pytest.raises(DivergentVelocityError):
            group_velocity("analytic", mat, bare, 0.0)

    def test_non_finite_group_index_names_its_detuning(self):
        # far off resonance both backends see n_g = 1; a bare resonance of
        # width 1e-3 rad/s with A = 1e290 rad/s has the slope A / gamma52^2
        # = 1e296, and omega0 / 2 times that leaves the floats
        for backend in ("analytic", "full"):
            assert group_velocity(backend, MAT, EIT_DRIVES, 1e80) \
                == pytest.approx(C_LIGHT, rel=1e-12)
        gamma = [list(row) for row in MAT.gamma]
        gamma[4][1] = gamma[1][4] = 1e-3
        mat = MAT._replace(gamma=tuple(map(tuple, gamma)),
                           probe_dipole=MAT.probe_dipole
                           * math.sqrt(1e290 / MAT.coupling_strength))
        bare = DriveSet(probe_rabi=1.5e3, coupling_rabi=0.0, aux_rabi=0.0)
        with pytest.raises(DivergentVelocityError,
                           match=r"^group index -inf is not finite at "
                                 r"delta = 0\.0 rad/s$"):
            group_velocity("analytic", mat, bare, 0.0)

    def test_full_backend_reduces_once(self, monkeypatch):
        # the state and its slope share one reference factorization
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2:])
            return reduction(*args, **kwargs)

        reduction = bloch.reduction
        monkeypatch.setattr(bloch, "reduction", counted)
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
            mat = MAT._replace(probe_wavelength=wavelength)
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
        deltas, chis, alpha = sweep("analytic", MAT, EIT_DRIVES, grid)
        assert np.array_equal(deltas, grid_values(grid))
        for i, delta in enumerate(grid_values(grid)):
            chi = chi_analytic(EIT, float(delta))
            assert chis[i] == chi
            assert alpha[i] == absorption(chi, MAT.probe_wavelength)

    def test_symmetry_invariants(self):
        grid = GridSpec(-2e7, 2e7, 101)
        ana = np.asarray(sweep("analytic", MAT, EIT_DRIVES, grid)[1])
        assert np.max(np.abs(ana.imag - ana.imag[::-1])) \
            <= 1e-10 * ana.imag.max()
        assert np.max(np.abs(ana.real + ana.real[::-1])) \
            <= 1e-10 * np.abs(ana.real).max()
        ful = np.asarray(sweep("full", MAT, EIT_DRIVES, grid)[1])
        assert np.max(np.abs(ful.imag - ful.imag[::-1])) \
            <= 0.01 * ful.imag.max()
        assert np.max(np.abs(ful.real + ful.real[::-1])) \
            <= 0.01 * np.abs(ful.real).max()

    def test_full_close_to_analytic_at_default_probe(self):
        grid = GridSpec(-2e7, 2e7, 201)
        ana = np.asarray(sweep("analytic", MAT, EIT_DRIVES, grid)[1])
        ful = np.asarray(sweep("full", MAT, EIT_DRIVES, grid)[1])
        dev = np.abs(ful.imag - ana.imag) / np.abs(ana.imag)
        assert dev.max() < 0.02

    def test_alpha_nonnegative_everywhere(self):
        for backend in ("analytic", "full"):
            alpha = sweep(backend, MAT, EIT_DRIVES, GridSpec(-2e7, 2e7, 41))[2]
            assert min(alpha) >= 0

    def test_no_coupling_peak_at_resonance(self):
        drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=0.0, aux_rabi=0.0)
        deltas, _, alpha = sweep("analytic", MAT, drives,
                                 GridSpec(-2e7, 2e7, 101))
        assert deltas[np.argmax(alpha)] == 0.0

    def test_repeated_sweep_is_bit_identical(self):
        grid = GridSpec(-2e7, 2e7, 31)
        a = sweep("full", MAT, EIT_DRIVES, grid)
        b = sweep("full", MAT, EIT_DRIVES, grid)
        assert spectrum_to_csv(*a) == spectrum_to_csv(*b)

    def test_backend_and_jobs_validation(self):
        with pytest.raises(ConfigError):
            sweep("exact", MAT, EIT_DRIVES, GridSpec(-1.0, 1.0, 3))
        # the sweep takes no jobs
        with pytest.raises(TypeError):
            sweep("analytic", MAT, EIT_DRIVES, GridSpec(-1.0, 1.0, 3), jobs=1)

    def test_point_failures_name_the_detuning(self):
        # undamped ground coherence + no coupling: the closed form is
        # singular exactly at delta = 0 and the sweep must say where
        mat = _material(lifetime_1_s=np.inf, lifetime_2_s=np.inf,
                        lifetime_3_s=np.inf, dephasing_32_hz=0.0)
        drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=0.0, aux_rabi=0.0)
        with pytest.raises(SingularParametersError, match="delta"):
            sweep("analytic", mat, drives, GridSpec(-1e3, 1e3, 3))

    def test_spectrum_invariants_enforced(self, monkeypatch):
        # a span of one ulp cannot hold five increasing points: the grid is
        # refused before either backend solves a point
        def solve(*args):
            raise AssertionError("the backend ran")
        monkeypatch.setattr(bloch, "full_model_chi", solve)
        monkeypatch.setattr(optics, "chi_analytic", solve)
        grid = GridSpec(1.0, 1.0000000000000002, 5)
        for backend in ("analytic", "full"):
            with pytest.raises(InvalidArgumentError,
                               match="deltas must be strictly increasing"):
                sweep(backend, MAT, EIT_DRIVES, grid)


class TestCsv:
    def test_rows_match_one_row_at_a_time_formatting(self):
        # against one row at a time through numpy scalars
        deltas, chi, alpha = sweep("full", MAT, EIT_DRIVES,
                                   GridSpec(-2e7, 2e7, 41))
        c = np.asarray(chi)
        n = 1.0 + 0.5 * c.real
        want = CSV_HEADER + "\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n"
            for row in zip(deltas, c.real, c.imag, n, alpha))
        assert spectrum_to_csv(deltas, chi, alpha) == want

    def test_header_and_shape(self):
        text = spectrum_to_csv(*sweep("analytic", MAT, EIT_DRIVES,
                                      GridSpec(-1e6, 1e6, 5)))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER == "delta_rad_s,chi_re,chi_im,n,alpha_per_m"
        assert len(lines) == 6
        assert text.endswith("\n")

    def test_values_round_trip_exactly(self):
        deltas, chi, alpha = sweep("analytic", MAT, EIT_DRIVES,
                                   GridSpec(-2e7, 2e7, 9))
        lines = spectrum_to_csv(deltas, chi, alpha).strip().split("\n")[1:]
        for i, line in enumerate(lines):
            cells = [float(c) for c in line.split(",")]
            assert cells[0] == deltas[i]
            assert cells[1] == chi[i].real
            assert cells[2] == chi[i].imag
            assert cells[3] == 1.0 + 0.5 * chi[i].real
            assert cells[4] == alpha[i]


# Uses optics as a library in a fresh process: the analytic observables,
# then the full backend.  Prints whether numpy had loaded after each, and
# whether the full sweep's chi and group velocity are bloch's, bit for bit.
LIBRARY_PROBE = """
import sys
import eitsim.optics as optics
from eitsim.config import DriveSet, GridSpec, pryso_defaults
mat = pryso_defaults()
drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=1.5e6, aux_rabi=1.5e6)
grid = GridSpec(-2e6, 2e6, 41)
deltas, chi, alpha = optics.sweep("analytic", mat, drives, grid)
optics.group_velocity("analytic", mat, drives, -1e5)
optics.transparency_window(deltas, alpha, max(alpha))
optics.spectrum_to_csv(deltas, chi, alpha)
print("numpy" in sys.modules)
deltas, chi, alpha = optics.sweep("full", mat, drives, grid)
vg = optics.group_velocity("full", mat, drives, -1e5)
print("numpy" in sys.modules)
from eitsim import bloch
want = bloch.full_model_chi(mat, drives, deltas).tolist()
bits = lambda zs: [(z.real.hex(), z.imag.hex()) for z in zs]
print(type(chi) is list and bits(chi) == bits(want))
chi0, slope = bloch.full_model_chi_slope(mat, drives, -1e5)
omega0 = optics.probe_angular_frequency(mat)
n_g = optics.refractive_index(chi0) - omega0 * 0.5 * slope
print(vg == optics.C_LIGHT / n_g)
"""


def test_optics_is_a_standard_library_module(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", LIBRARY_PROBE],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True", "True"]


class TestTransparencyWindow:
    def _reference(self, lam):
        bare = LambdaParams(lam.gamma52, lam.gamma32, 0.0, lam.coupling_a)
        return absorption(chi_analytic(bare, 0.0), MAT.probe_wavelength)

    def _measure(self, omega_c, points=4001):
        drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=omega_c,
                          aux_rabi=omega_c)
        lam = lambda_from_material(MAT, drives)
        width_est = window_width_closed_form(lam.gamma52, omega_c)
        grid = GridSpec(-2 * width_est, 2 * width_est, points)
        deltas, _, alpha = sweep("analytic", MAT, drives, grid)
        return (transparency_window(deltas, alpha, self._reference(lam)),
                width_est)

    def test_closed_form_agreement_across_coupling_strengths(self):
        for ratio in (10.0, 30.0, 100.0):
            omega_c = ratio * EIT.gamma52
            (left, right, truncated), want = self._measure(omega_c)
            assert not truncated
            assert abs(right - left - want) / want < 0.005

    def test_default_eit_width(self):
        (left, right, _), want = self._measure(1.5e6)
        # closed-form edge: sqrt(gamma52^2 + omega_c^2) - gamma52
        assert want == math.hypot(EIT.gamma52, 1.5e6) - EIT.gamma52
        assert right - left == pytest.approx(want, rel=0.005)
        assert right - left == pytest.approx(1.45e6, rel=0.01)
        assert left == pytest.approx(-right, rel=1e-6)

    def test_monotone_in_coupling(self):
        (l1, r1, _), _ = self._measure(1.5e6)
        (l2, r2, _), _ = self._measure(3.0e6)
        assert r2 - l2 > r1 - l1

    def test_no_window_without_coupling(self):
        drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=0.0, aux_rabi=0.0)
        deltas, _, alpha = sweep("analytic", MAT, drives,
                                 GridSpec(-2e7, 2e7, 201))
        assert transparency_window(deltas, alpha,
                                   self._reference(EIT)) is None

    def test_truncated_when_grid_too_narrow(self):
        lam = lambda_from_material(MAT, EIT_DRIVES)
        width_est = window_width_closed_form(lam.gamma52, 1.5e6)
        grid = GridSpec(-0.3 * width_est, 0.3 * width_est, 501)
        deltas, _, alpha = sweep("analytic", MAT, EIT_DRIVES, grid)
        left, right, truncated = transparency_window(deltas, alpha,
                                                     self._reference(lam))
        assert truncated
        assert right - left <= 0.6 * width_est * 1.0001

    def test_grid_must_cover_resonance(self):
        deltas, _, alpha = sweep("analytic", MAT, EIT_DRIVES,
                                 GridSpec(1e5, 1e6, 11))
        with pytest.raises(ConfigError):
            transparency_window(deltas, alpha, 1.0)

    def test_reference_must_be_positive(self):
        deltas, _, alpha = sweep("analytic", MAT, EIT_DRIVES,
                                 GridSpec(-1e6, 1e6, 11))
        with pytest.raises(InvalidArgumentError):
            transparency_window(deltas, alpha, 0.0)

    def test_edges_interpolate_between_grid_points(self):
        # threshold 2: alpha crosses it a third of the way from -1 to -2
        # and two thirds of the way from 0 to 1; a grid whose every point
        # sits under it is truncated at both ends
        deltas = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        left, right, truncated = transparency_window(
            deltas, np.array([4.0, 1.0, 0.0, 3.0, 4.0]), 4.0)
        assert left == pytest.approx(-4.0 / 3.0, rel=1e-15)
        assert right == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert not truncated
        assert transparency_window(deltas, np.ones(5), 4.0) == \
            (-2.0, 2.0, True)
        assert transparency_window(deltas, np.full(5, 2.0), 4.0) is None


def test_full_model_chi_resonant_point():
    chi = full_model_chi(MAT, EIT_DRIVES, 0.0)
    want = chi_analytic(EIT, 0.0)
    assert chi.imag == pytest.approx(want.imag, rel=0.02)


@pytest.mark.parametrize("d_c", [-3e5, 1e6])
def test_full_model_converges_to_the_detuned_closed_form(d_c):
    # max |chi_full - chi_closed| over the grid, as a share of max chi_im,
    # falls with the probe squared (its own pumping) down to ~4e-6, as
    # with the coupling on resonance; the closed form that holds the
    # coupling on resonance misses the detuned full model by ~1
    deltas = np.linspace(-2e7, 2e7, 2001)

    def error(probe, full_d_c=d_c, closed_d_c=d_c):
        drives = DriveSet(probe, 1.5e6, 1.5e6, coupling_detuning=full_d_c)
        full = full_model_chi(MAT, drives, deltas)
        closed = chi_analytic(lambda_from_material(
            MAT, drives._replace(coupling_detuning=closed_d_c)), deltas)
        return np.abs(full - closed).max() / np.abs(full.imag).max()

    strong, weak = error(1.5e3), error(100.0)
    assert 150.0 < strong / weak < 300.0  # (1.5e3 / 100)^2 = 225
    assert error(10.0) < 1e-5
    assert error(10.0) < 1.1 * error(10.0, full_d_c=0.0, closed_d_c=0.0)
    assert error(10.0, closed_d_c=0.0) > 0.5


@settings(max_examples=50, deadline=None)
@given(coupling=st.floats(1.5e5, 5e6),
       probe_share=probe_shares(-300.0),
       aux=st.floats(1e5, 5e6),
       coupling_det=st.floats(-1e6, 1e6),
       aux_det=st.floats(-1e6, 1e6),
       deltas=st.lists(st.floats(-2e7, 2e7), min_size=1, max_size=16))
def test_chi_im_nonnegative_on_both_backends(coupling, probe_share, aux,
                                             coupling_det, aux_det, deltas):
    # the raw chi_im, before absorption() rounds values inside the
    # tolerance up to zero
    drives = DriveSet(probe_rabi=probe_share * coupling,
                      coupling_rabi=coupling, aux_rabi=aux,
                      coupling_detuning=coupling_det, aux_detuning=aux_det)
    deltas = np.array(deltas)
    full = full_model_chi(MAT, drives, deltas)
    analytic = np.asarray(chi_analytic(lambda_from_material(MAT, drives),
                                       deltas))
    assert np.all(full.imag >= -CHI_IM_SIGN_TOL)
    assert np.all(analytic.imag >= -CHI_IM_SIGN_TOL)


def null_space_chi(mat, drives, deltas):
    """Per-point oracle: the generator assembled afresh at every detuning,
    its nullspace from an SVD (scipy), normalised to unit trace."""
    out = []
    for delta in deltas:
        gen = build_liouvillian(mat, drives, float(delta))
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
           probe_share=probe_shares(-4.3),
           aux=st.floats(1.5e5, 5e6),
           coupling_det=st.floats(-1e6, 1e6),
           aux_det=st.floats(-1e6, 1e6),
           deltas=st.lists(st.floats(-2e7, 2e7), min_size=1, max_size=8),
           dephasing=st.tuples(st.floats(0.0, 1e4), st.floats(1e3, 1e5),
                               st.floats(1e3, 1e5)))
    def test_matches_null_space_oracle_over_drives(
            self, coupling, probe_share, aux, coupling_det, aux_det, deltas,
            dephasing):
        mat = _material(dephasing_32_hz=dephasing[0],
                        dephasing_52_hz=dephasing[1],
                        dephasing_53_hz=dephasing[2])
        drives = DriveSet(
            probe_rabi=probe_share * coupling,
            coupling_rabi=coupling, aux_rabi=aux,
            coupling_detuning=coupling_det, aux_detuning=aux_det)
        assert_matches_oracle(mat, drives, np.array(deltas))

    # Richardson's extrapolation R = (4 D(h/2) - D(h)) / 3 of the central
    # difference D(h) = (chi'(delta + h) - chi'(delta - h)) / 2h misses
    # dchi'/ddelta by h^4 |f^(5)| / 480 plus 3 e / h, e the error of one
    # chi' value.  chi(delta) is rational; its singular points (generalized
    # eigenvalues of the pinned pencil) lay at least 1.07 * gamma32 off the
    # real axis over 2,000 random drives from these ranges, and at least
    # 1.77 * gamma32 for the probes above 0.05 * coupling.  Cauchy's
    # estimate on a disc of radius gamma32 / 2, where |chi| <= ~2 M with
    # M = max|chi| on the axis, gives |f^(5)| <= 5! * 2M / (gamma32/2)^5,
    # so the truncation is <= 16 (h / gamma32)^4 M / gamma32.  The solves
    # keep e <= 1e-13 M.  At h = gamma32 / 100 the bound is
    # (1.6e-7 + 3e-11) M / gamma32; over 300 random drives the worst seen
    # is 3e-12 M / gamma32 below 0.05 * coupling and 7e-9 M / gamma32 above.
    @settings(max_examples=25, deadline=None)
    @given(coupling=st.floats(1.5e5, 5e6),
           probe_share=probe_shares(-4.3),
           aux=st.floats(1e5, 5e6),
           coupling_det=st.floats(-1e6, 1e6),
           aux_det=st.floats(-1e6, 1e6),
           delta=st.floats(-2e7, 2e7))
    @example(coupling=1.5e6, probe_share=1e-3, aux=1.5e6, coupling_det=0.0,
             aux_det=0.0, delta=-8e5)  # the Autler-Townes peak
    def test_exact_slope_matches_richardson(self, coupling, probe_share, aux,
                                            coupling_det, aux_det, delta):
        drives = DriveSet(
            probe_rabi=probe_share * coupling,
            coupling_rabi=coupling, aux_rabi=aux,
            coupling_detuning=coupling_det, aux_detuning=aux_det)
        gamma32 = MAT.gamma[2][1]
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
        swept = sweep("full", MAT, EIT_DRIVES, grid)[1]
        chi = full_model_chi(MAT, EIT_DRIVES, grid_values(grid))
        assert np.array_equal(swept, chi)
        one = full_model_chi(MAT, EIT_DRIVES, float(grid_values(grid)[7]))
        assert type(one) is complex
        assert (one.real, one.imag) == (chi.real[7], chi.imag[7])

    def test_slicing_changes_no_bit(self, monkeypatch):
        # each point is its own solve from the one reduction, so where the
        # slices split the grid may not move a single bit of chi
        deltas = np.linspace(-2e7, 2e7, 259)
        chi = full_model_chi(MAT, EIT_DRIVES, deltas)
        for chunk in (7, deltas.size):
            monkeypatch.setattr(bloch, "STEADY_STATE_CHUNK", chunk)
            assert np.array_equal(full_model_chi(MAT, EIT_DRIVES, deltas),
                                  chi)

    def test_refusal_past_the_first_slice_names_its_detuning(self,
                                                             monkeypatch):
        # a pole gap of 5e4 rad/s refuses the points within it of the
        # Autler-Townes pole -7.497e5 + 2.729e4i: on this 5e4-spaced grid
        # the first is -7.5e5, index 5, inside the third 2-point slice
        sigma = bloch.reduction(*bloch._full_generator(MAT, EIT_DRIVES))[3]
        monkeypatch.setattr(bloch, "DEGENERACY_TOL", 5e4 / sigma)
        monkeypatch.setattr(bloch, "STEADY_STATE_CHUNK", 2)
        with pytest.raises(SteadyStateError,
                           match=r"^at delta = -750000\.0 rad/s: singular "
                                 r"steady-state system: within 5\.000e\+04"):
            full_model_chi(MAT, EIT_DRIVES, np.linspace(-1e6, 1e6, 41))

    def test_failed_gate_names_the_detuning(self):
        # infinite ground lifetimes and no coupling or auxiliary field:
        # population parked in levels 1 and 3 never moves, so every point
        # is degenerate and the first one is reported
        mat = _material(lifetime_1_s=np.inf, lifetime_2_s=np.inf,
                        lifetime_3_s=np.inf)
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
