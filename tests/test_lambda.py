import re
import warnings

import numpy as np
import pytest

from eitsim.errors import InvalidArgumentError, SingularParametersError
from eitsim.lambda_system import (RATE_MAX, LambdaParams, chi_analytic,
                                  dchi_prime_ddelta, lambda_from_material)
from eitsim.materials import pryso_defaults

from lambda_oracle import lambda_steady_state

MAT = pryso_defaults()
EIT = lambda_from_material(MAT, 1.5e6)
NO_COUPLING = LambdaParams(EIT.gamma52, EIT.gamma32, 0.0, EIT.coupling_a)


def random_params(rng):
    return LambdaParams(
        gamma52=float(10 ** rng.uniform(2, 6)),
        gamma32=float(10 ** rng.uniform(1, 5)),
        omega_c=float(10 ** rng.uniform(2, 7)),
        coupling_a=float(10 ** rng.uniform(1, 5)),
    )


class TestLambdaSteadyState:
    def test_coherence_equations_satisfied(self):
        # the stationary pair must satisfy the two coupled equations
        #   (gamma52 + i d) rho52 = i omega_p/2 + (i omega_c/2) rho32
        #   (gamma32 + i d) rho32 = (i omega_c/2) rho52
        # written here independently of the closed form
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = random_params(rng)
            omega_p = float(10 ** rng.uniform(0, 4))
            delta = float(rng.standard_normal() * 10 ** rng.uniform(2, 6))
            rho52, rho32 = lambda_steady_state(p, omega_p, delta)
            lhs1 = (p.gamma52 + 1j * delta) * rho52
            rhs1 = 0.5j * omega_p + 0.5j * p.omega_c * rho32
            lhs2 = (p.gamma32 + 1j * delta) * rho32
            rhs2 = 0.5j * p.omega_c * rho52
            scale = abs(lhs1) + abs(rhs1) + p.coupling_a
            assert abs(lhs1 - rhs1) <= 1e-12 * scale
            assert abs(lhs2 - rhs2) <= 1e-12 * (abs(lhs2) + abs(rhs2)
                                                + omega_p)

    def test_zero_probe_gives_zero_coherences(self):
        rho52, rho32 = lambda_steady_state(EIT, 0.0, 3e5)
        assert rho52 == 0 and rho32 == 0

    def test_resonant_probe_coherence_is_imaginary(self):
        rho52, _ = lambda_steady_state(EIT, 1.5e3, 0.0)
        c = EIT.gamma32 * EIT.gamma52 + 0.25 * EIT.omega_c ** 2
        assert rho52.real == 0.0
        assert rho52.imag == pytest.approx(0.5 * 1.5e3 * EIT.gamma32 / c,
                                           rel=1e-14)

    def test_linear_in_probe(self):
        a52, a32 = lambda_steady_state(EIT, 1.0, 2e5)
        b52, b32 = lambda_steady_state(EIT, 128.0, 2e5)
        assert b52 == 128.0 * a52
        assert b32 == 128.0 * a32

    def test_all_singular_point_rejected(self):
        p = LambdaParams(1e4, 0.0, 0.0, 1e3)
        with pytest.raises(SingularParametersError):
            lambda_steady_state(p, 1.0, 0.0)
        with pytest.raises(SingularParametersError):
            chi_analytic(p, 0.0)
        with pytest.raises(SingularParametersError):
            dchi_prime_ddelta(p, 0.0)

    def test_gamma32_zero_fine_with_coupling_on(self):
        p = LambdaParams(1e4, 0.0, 1e5, 1e3)
        rho52, _ = lambda_steady_state(p, 1.0, 0.0)
        assert rho52 == 0.0  # perfect interference
        assert chi_analytic(p, 0.0).imag == 0.0


class TestChiAnalytic:
    def test_matches_coherence_reconstruction(self):
        # chi must equal 2 * A * rho52 / omega_p for any probe strength
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_params(rng)
            delta = float(rng.standard_normal() * 10 ** rng.uniform(2, 6))
            omega_p = float(10 ** rng.uniform(0, 3))
            rho52, _ = lambda_steady_state(p, omega_p, delta)
            want = 2.0 * p.coupling_a * rho52 / omega_p
            got = chi_analytic(p, delta)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_lorentzian_identity_without_coupling(self):
        # omega_c = 0 collapses to A*(delta + i*gamma52)/(delta^2 + gamma52^2)
        deltas = np.linspace(-2e7, 2e7, 10_000)
        g, a = NO_COUPLING.gamma52, NO_COUPLING.coupling_a
        for delta in deltas:
            got = chi_analytic(NO_COUPLING, float(delta))
            want = a * (delta + 1j * g) / (delta * delta + g * g)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_frozen_resonant_values(self):
        assert chi_analytic(NO_COUPLING, 0.0).imag == pytest.approx(
            0.10612464007530696, rel=1e-12)
        assert chi_analytic(EIT, 0.0).imag == pytest.approx(
            5.6195477337320556e-05, rel=1e-12)
        assert chi_analytic(EIT, 0.0).real == 0.0

    def test_parity(self):
        for delta in (1e3, 7.7e4, 2.3e6):
            plus = chi_analytic(EIT, delta)
            minus = chi_analytic(EIT, -delta)
            assert minus.real == -plus.real
            assert minus.imag == plus.imag

    def test_absorption_positive_everywhere(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            p = random_params(rng)
            delta = float(rng.standard_normal() * 10 ** rng.uniform(2, 7))
            assert chi_analytic(p, delta).imag >= 0.0

    def test_transparency_dip_shape(self):
        # strong coupling: chi_im has a local minimum at delta = 0
        chi0 = chi_analytic(EIT, 0.0).imag
        for delta in (1e4, 1e5, 5e5):
            assert chi_analytic(EIT, delta).imag > chi0
        # and recovers towards the bare Lorentzian scale at the sidebands
        peak = chi_analytic(EIT, 0.5 * EIT.omega_c).imag
        assert peak > 100 * chi0

    def test_power_of_two_rate_scaling_is_exact(self):
        # scaling every rate, the coupling prefactor and delta by 2 leaves
        # chi bitwise unchanged
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = random_params(rng)
            delta = float(rng.standard_normal() * 10 ** rng.uniform(2, 6))
            scaled = LambdaParams(2 * p.gamma52, 2 * p.gamma32, 2 * p.omega_c,
                                  2 * p.coupling_a)
            a = chi_analytic(p, delta)
            b = chi_analytic(scaled, 2 * delta)
            assert (a.real, a.imag) == (b.real, b.imag)

    def test_array_detunings_match_scalar_calls(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            p = random_params(rng)
            deltas = rng.standard_normal(64) * 10 ** rng.uniform(2, 7)
            chi = chi_analytic(p, deltas)
            slope = dchi_prime_ddelta(p, deltas)
            assert chi.real.shape == chi.imag.shape == slope.shape == (64,)
            for i, delta in enumerate(deltas):
                one = chi_analytic(p, float(delta))
                assert type(one) is complex
                assert (one.real, one.imag) == (chi.real[i], chi.imag[i])
                one_slope = dchi_prime_ddelta(p, float(delta))
                assert type(one_slope) is float
                assert one_slope == slope[i]

    def test_singular_point_in_array_named(self):
        p = LambdaParams(1e4, 0.0, 0.0, 1e3)
        deltas = np.array([-2.0, 5e-324, 0.0, 1.0])
        with pytest.raises(SingularParametersError, match=r"delta = 5e-324"):
            chi_analytic(p, deltas)
        with pytest.raises(SingularParametersError, match=r"delta = 0\.0"):
            dchi_prime_ddelta(p, deltas[2:])

    def test_overflow_far_off_resonance_named(self):
        # at 1e80 Z overflows alone and chi is a quiet 0; at 1e120 the
        # numerator overflows too and chi_re would be inf / inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chi_analytic(EIT, 1e80) == 0.0
            assert np.isnan(dchi_prime_ddelta(EIT, 1e80))
            for deltas in (-1e120, np.array([0.0, 1e80, -1e120, 1e120])):
                with pytest.raises(SingularParametersError,
                                   match=r"^susceptibility is not finite at "
                                         r"delta = -1e\+120 rad/s"):
                    chi_analytic(EIT, deltas)


def kramers_kronig_errors(half_width, points):
    """Largest |chi_re - H[chi_im]| and |chi_im + H[chi_re]| inside
    |delta| < 2e7 rad/s, as shares of max |chi|, with the Hilbert transform
    H taken by FFT (scipy.signal.hilbert) on a grid of +-half_width."""
    from scipy.signal import hilbert

    deltas = np.linspace(-half_width, half_width, points)
    chi = chi_analytic(EIT, deltas)
    inside = np.abs(deltas) < 2e7
    scale = np.max(np.abs(chi))
    re_err = np.abs(chi.real - np.imag(hilbert(chi.imag)))[inside]
    im_err = np.abs(chi.imag + np.imag(hilbert(chi.real)))[inside]
    return re_err.max() / scale, im_err.max() / scale


class TestKramersKronig:
    # chi is causal, so its real part is the Hilbert transform of its
    # imaginary part.  The FFT transform only sees the grid, so the error is
    # the missing tails beyond it: widening the grid at a fixed step lowers
    # it (by ~4x per doubling).
    def test_real_part_is_hilbert_transform_of_imaginary_part(self):
        re_err, im_err = kramers_kronig_errors(1e9, 2 ** 20)
        assert re_err <= 2e-6
        assert im_err <= 1e-4

    def test_wider_grid_lowers_the_error(self):
        narrow = kramers_kronig_errors(5e8, 2 ** 19)
        wide = kramers_kronig_errors(1e9, 2 ** 20)
        assert wide[0] < narrow[0] and wide[1] < narrow[1]


class TestDerivative:
    def test_matches_central_difference(self):
        g32 = EIT.gamma32
        detunings = (0.0, 0.4 * g32, -3.0 * g32, 2e5, -8e5)
        steps = (g32 / 200, g32 / 500, g32 / 1000)
        for delta in detunings:
            exact = dchi_prime_ddelta(EIT, delta)
            for h in steps:
                fd = (chi_analytic(EIT, delta + h).real
                      - chi_analytic(EIT, delta - h).real) / (2 * h)
                assert fd == pytest.approx(exact, rel=1e-6)

    def test_resonant_slope_closed_form(self):
        # at delta = 0 the quotient rule collapses to A*b/c^2
        b = EIT.gamma32 ** 2 - 0.25 * EIT.omega_c ** 2
        c = EIT.gamma32 * EIT.gamma52 + 0.25 * EIT.omega_c ** 2
        want = EIT.coupling_a * b / (c * c)
        assert dchi_prime_ddelta(EIT, 0.0) == pytest.approx(want, rel=1e-14)
        assert dchi_prime_ddelta(EIT, 0.0) < 0  # steep normal dispersion in omega

    def test_no_coupling_slope_positive_at_resonance(self):
        assert dchi_prime_ddelta(NO_COUPLING, 0.0) > 0


def suppression_ratio(p: LambdaParams) -> float:
    """chi_im(0) without coupling over chi_im(0) with coupling, exactly:
    1 + omega_c^2 / (4 gamma32 gamma52)."""
    if p.gamma32 <= 0:
        raise SingularParametersError(
            "suppression ratio requires gamma32 > 0"
        )
    return 1.0 + 0.25 * p.omega_c ** 2 / (p.gamma32 * p.gamma52)


class TestSuppressionRatio:
    def test_closed_form_value(self):
        want = 1.0 + 0.25 * 1.5e6 ** 2 / (EIT.gamma32 * EIT.gamma52)
        assert suppression_ratio(EIT) == pytest.approx(want, rel=1e-15)
        assert suppression_ratio(EIT) == pytest.approx(1888.4907665839403,
                                                       rel=1e-12)

    def test_matches_chi_ratio(self):
        ratio = (chi_analytic(NO_COUPLING, 0.0).imag
                 / chi_analytic(EIT, 0.0).imag)
        assert ratio == pytest.approx(suppression_ratio(EIT), rel=1e-12)

    def test_rejects_zero_gamma32(self):
        p = LambdaParams(1e4, 0.0, 1e5, 1e3)
        with pytest.raises(SingularParametersError):
            suppression_ratio(p)


class TestLambdaParams:
    def test_from_material(self):
        assert EIT.gamma52 == MAT.gamma[4, 1]
        assert EIT.gamma32 == MAT.gamma[2, 1]
        assert EIT.coupling_a == MAT.coupling_strength
        assert EIT.omega_c == 1.5e6

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            LambdaParams(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            LambdaParams(1.0, -1.0, 1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            LambdaParams(1.0, 1.0, -1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            LambdaParams(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            LambdaParams(float("inf"), 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["gamma52", "gamma32", "omega_c",
                                       "coupling_a"])
    def test_rates_beyond_the_overflow_bound_are_refused(self, field):
        # 1e200 ** 2 raises OverflowError in Python float arithmetic, and
        # 1e100 turns the slope's Z * Z into inf and the group index NaN
        for value in (1e200, 1e100, float(np.nextafter(RATE_MAX, np.inf))):
            fields = {"gamma52": 1.0, "gamma32": 1.0, "omega_c": 1.0,
                      "coupling_a": 1.0, field: value}
            with pytest.raises(InvalidArgumentError,
                               match=f"^{field} = {re.escape(repr(value))} "
                                     "rad/s exceeds"):
                LambdaParams(**fields)

    def test_closed_forms_are_finite_at_the_bound(self):
        # the derivation next to RATE_MAX: every rate and |delta| at R
        for omega_c in (0.0, RATE_MAX):
            for gamma32 in (0.0, RATE_MAX):
                p = LambdaParams(RATE_MAX, gamma32, omega_c, RATE_MAX)
                deltas = np.array([-RATE_MAX, 1.0, RATE_MAX])
                with np.errstate(all="raise"):
                    chi = chi_analytic(p, deltas)
                    slope = dchi_prime_ddelta(p, deltas)
                assert np.isfinite(chi.real).all()
                assert np.isfinite(chi.imag).all()
                assert np.isfinite(slope).all()

    def test_closed_forms_at_the_bound_match_a_rescaled_call(self):
        # chi and its slope are homogeneous of degree 0 and -1 in the rates,
        # A and delta, and scaling by 2**-100 is exact: an intermediate that
        # overflowed at the bound (and was silenced inside the closed forms)
        # would not reproduce the rescaled values bit for bit
        k = 2.0 ** -100
        for omega_c in (0.0, RATE_MAX):
            for gamma32 in (0.0, RATE_MAX):
                p = LambdaParams(RATE_MAX, gamma32, omega_c, RATE_MAX)
                small = LambdaParams(k * RATE_MAX, k * gamma32, k * omega_c,
                                     k * RATE_MAX)
                deltas = np.array([-RATE_MAX, 1.0, RATE_MAX])
                assert np.array_equal(chi_analytic(p, deltas),
                                      chi_analytic(small, k * deltas))
                assert np.array_equal(dchi_prime_ddelta(p, deltas),
                                      k * dchi_prime_ddelta(small, k * deltas))
