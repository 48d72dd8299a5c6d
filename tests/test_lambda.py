import operator
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eitsim.config import DriveSet, pryso_defaults
from eitsim.errors import InvalidArgumentError, SingularParametersError
from eitsim.lambda_system import (RATE_MAX, LambdaParams, chi_analytic,
                                  dchi_prime_ddelta, lambda_from_material)

from lambda_oracle import (chi_parts, chi_prime_slope, exact_response,
                           lambda_steady_state)

MAT = pryso_defaults()
EIT = lambda_from_material(MAT, DriveSet(1.5e3, 1.5e6, 1.5e6))
NO_COUPLING = LambdaParams(EIT.gamma52, EIT.gamma32, 0.0, EIT.coupling_a)
EPS = 2.0 ** -52
FLOAT_MAX = sys.float_info.max
# chi and its slope stay within EXACT_ULPS * EPS of the scales
# exact_response gives.  Over 80,000 random normal-range inputs (coupling
# detuning and two-photon resonance included) the largest ratio seen was 1.3
# for chi and 1.3 for the slope.
EXACT_ULPS = 4.0


def random_params(rng, detuned=False):
    return LambdaParams(
        gamma52=float(10 ** rng.uniform(2, 6)),
        gamma32=float(10 ** rng.uniform(1, 5)),
        omega_c=float(10 ** rng.uniform(2, 7)),
        coupling_a=float(10 ** rng.uniform(1, 5)),
        coupling_detuning=(float(rng.standard_normal()
                                 * 10 ** rng.uniform(2, 6))
                           if detuned else 0.0),
    )


def assert_matches_exact(p, delta):
    """chi_analytic and dchi_prime_ddelta at delta within EXACT_ULPS of the
    exact values, as exact_response scales them."""
    chi, slope, chi_scale, slope_scale = exact_response(p, delta)
    assert abs(chi_analytic(p, delta) - chi) <= EXACT_ULPS * EPS * chi_scale
    assert abs(dchi_prime_ddelta(p, delta) - slope) \
        <= EXACT_ULPS * EPS * slope_scale


class TestLambdaSteadyState:
    def test_coherence_equations_satisfied(self):
        # the stationary pair must satisfy the two coupled equations
        #   (gamma52 + i d) rho52 = i omega_p/2 + (i omega_c/2) rho32
        #   (gamma32 + i (d - d_c)) rho32 = (i omega_c/2) rho52
        # written here independently of the closed form
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = random_params(rng, detuned=True)
            omega_p = float(10 ** rng.uniform(0, 4))
            delta = float(rng.standard_normal() * 10 ** rng.uniform(2, 6))
            rho52, rho32 = lambda_steady_state(p, omega_p, delta)
            lhs1 = (p.gamma52 + 1j * delta) * rho52
            rhs1 = 0.5j * omega_p + 0.5j * p.omega_c * rho32
            lhs2 = (p.gamma32 + 1j * (delta - p.coupling_detuning)) * rho32
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
        # gamma32, omega_c and the two-photon detuning delta - d_c all zero
        for d_c in (0.0, 2e3):
            p = LambdaParams(1e4, 0.0, 0.0, 1e3, d_c)
            with pytest.raises(SingularParametersError):
                lambda_steady_state(p, 1.0, d_c)
            with pytest.raises(SingularParametersError):
                chi_analytic(p, d_c)
            with pytest.raises(SingularParametersError):
                dchi_prime_ddelta(p, d_c)

    def test_gamma32_zero_fine_with_coupling_on(self):
        # the dark resonance delta = d_c: chi vanishes and the slope is
        # -A / (omega_c / 2)^2, the limit of the exact form
        for d_c in (0.0, -3e4):
            p = LambdaParams(1e4, 0.0, 1e5, 1e3, d_c)
            rho52, _ = lambda_steady_state(p, 1.0, d_c)
            assert rho52 == 0.0  # perfect interference
            assert chi_analytic(p, d_c) == 0.0
            assert dchi_prime_ddelta(p, d_c) == pytest.approx(
                -1e3 / 0.25e10, rel=1e-15)


class TestChiAnalytic:
    def test_matches_coherence_reconstruction(self):
        # chi must equal 2 * A * rho52 / omega_p for any probe strength
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_params(rng, detuned=True)
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
            p = random_params(rng, detuned=True)
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
            p = random_params(rng, detuned=True)
            delta = float(rng.standard_normal() * 10 ** rng.uniform(2, 6))
            scaled = LambdaParams(*(2 * v for v in p))
            a = chi_analytic(p, delta)
            b = chi_analytic(scaled, 2 * delta)
            assert (a.real, a.imag) == (b.real, b.imag)

    def test_array_detunings_match_scalar_calls(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            p = random_params(rng, detuned=True)
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
        # a subnormal delta beside the indeterminate point is an answer, the
        # exact one; the point itself, at delta = d_c, is refused by name
        p = LambdaParams(1e4, 0.0, 0.0, 1e3)
        assert_matches_exact(p, 5e-324)
        assert chi_analytic(p, 5e-324).imag == pytest.approx(0.1, rel=1e-15)
        deltas = np.array([-2.0, 5e-324, 0.0, 1.0])
        with pytest.raises(SingularParametersError,
                           match=r"^susceptibility is indeterminate at "
                                 r"delta = 0\.0 rad/s"):
            chi_analytic(p, deltas)
        with pytest.raises(SingularParametersError,
                           match=r"^derivative is indeterminate at "
                                 r"delta = 0\.0 rad/s"):
            dchi_prime_ddelta(p, deltas[1:])
        with pytest.raises(SingularParametersError,
                           match=r"delta = -2\.0 rad/s"):
            chi_analytic(p._replace(coupling_detuning=-2.0), deltas)

    def test_overflow_far_off_resonance_named(self):
        # out to the float maximum chi and its slope stay finite, quiet and
        # exact; only a chi beyond the float range is refused, here
        # A / gamma52 = 1e590 on resonance
        for delta in (1e77, 1e80, -1e120, 1e200, FLOAT_MAX, -FLOAT_MAX):
            assert_matches_exact(EIT, delta)
            assert_matches_exact(EIT._replace(coupling_detuning=-3e5),
                                 delta)
        assert chi_analytic(EIT, 1e77).real == pytest.approx(5.0335335e-74,
                                                             rel=1e-7)
        huge = LambdaParams(1e-300, 1.0, 0.0, 1e290)
        with pytest.raises(SingularParametersError,
                           match=r"^susceptibility is not finite at "
                                 r"delta = 0\.0 rad/s"):
            chi_analytic(huge, np.array([1e10, 0.0]))


def kramers_kronig_errors(half_width, points):
    """Largest |chi_re - H[chi_im]| and |chi_im + H[chi_re]| inside
    |delta| < 2e7 rad/s, as shares of max |chi|, on a grid of +-half_width.
    chi comes from chi_analytic; the Hilbert transform H, taken by FFT
    (scipy.signal.hilbert), is of the other part from the oracle's real
    formulas."""
    from scipy.signal import hilbert

    deltas = np.linspace(-half_width, half_width, points)
    chi = chi_analytic(EIT, deltas)
    oracle_re, oracle_im = chi_parts(EIT, deltas)
    inside = np.abs(deltas) < 2e7
    scale = np.max(np.abs(chi))
    re_err = np.abs(chi.real - np.imag(hilbert(oracle_im)))[inside]
    im_err = np.abs(chi.imag + np.imag(hilbert(oracle_re)))[inside]
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
        # of chi_re from the oracle's real formula
        g32 = EIT.gamma32
        detunings = (0.0, 0.4 * g32, -3.0 * g32, 2e5, -8e5)
        steps = (g32 / 200, g32 / 500, g32 / 1000)
        for delta in detunings:
            exact = dchi_prime_ddelta(EIT, delta)
            for h in steps:
                fd = (chi_parts(EIT, delta + h)[0]
                      - chi_parts(EIT, delta - h)[0]) / (2 * h)
                assert fd == pytest.approx(exact, rel=1e-6)

    def test_matches_richardson_with_coupling_detuning(self):
        # Richardson's R = (4 D(h/2) - D(h)) / 3 of the central difference
        # D(h) of chi_re misses the slope by O(h^4); at h = gamma32 / 100
        # the worst seen over these points is 3e-10 of the slope's maximum
        p = EIT._replace(coupling_detuning=-3e5)
        deltas = np.linspace(-2e6, 2e6, 41)
        h = p.gamma32 / 100

        def central(step):
            return (chi_analytic(p, deltas + step).real
                    - chi_analytic(p, deltas - step).real) / (2 * step)

        richardson = (4.0 * central(h / 2) - central(h)) / 3.0
        slope = dchi_prime_ddelta(p, deltas)
        assert np.abs(richardson - slope).max() <= 1e-8 * np.abs(slope).max()

    def test_matches_the_quotient_rule(self):
        # on resonant coupling, the real formulas and their quotient rule
        rng = np.random.default_rng(41)
        for _ in range(200):
            p = random_params(rng)
            deltas = rng.standard_normal(64) * 10 ** rng.uniform(2, 7)
            chi_re, chi_im = chi_parts(p, deltas)
            chi = chi_analytic(p, deltas)
            assert np.all(np.abs(chi - (chi_re + 1j * chi_im))
                          <= 1e-12 * np.hypot(chi_re, chi_im))
            want = chi_prime_slope(p, deltas)
            assert np.abs(dchi_prime_ddelta(p, deltas) - want).max() \
                <= 1e-11 * np.abs(want).max()

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
        assert EIT.gamma52 == MAT.gamma[4][1]
        assert EIT.gamma32 == MAT.gamma[2][1]
        assert EIT.coupling_a == MAT.coupling_strength
        assert EIT.omega_c == 1.5e6
        assert EIT.coupling_detuning == 0.0
        lam = lambda_from_material(MAT, DriveSet(
            1.5e3, 2e6, 1.5e6, probe_detuning=1e5, coupling_detuning=-3e5,
            aux_detuning=7e5))
        assert lam == EIT._replace(omega_c=2e6, coupling_detuning=-3e5)

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
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            LambdaParams(1.0, 1.0, 1.0, 1.0, float("nan"))
        assert LambdaParams(1.0, 1.0, 1.0, 1.0, -2.0).coupling_detuning == -2.0

    def test_replace_runs_the_same_checks(self):
        # validation's gamma52 fault hook builds through _replace
        assert EIT._replace(gamma52=2.0).gamma52 == 2.0
        with pytest.raises(InvalidArgumentError, match="gamma52 must be"):
            EIT._replace(gamma52=0.0)
        with pytest.raises(InvalidArgumentError, match="exceeds"):
            EIT._replace(gamma52=1e300)

    @pytest.mark.parametrize("field", ["gamma52", "gamma32", "omega_c",
                                       "coupling_a", "coupling_detuning"])
    def test_rates_beyond_the_overflow_bound_are_refused(self, field):
        above = float(np.nextafter(RATE_MAX, np.inf))
        values = (above, 1e300, FLOAT_MAX)
        if field == "coupling_detuning":
            values += (-above,)
        for value in values:
            fields = {"gamma52": 1.0, "gamma32": 1.0, "omega_c": 1.0,
                      "coupling_a": 1.0, field: value}
            with pytest.raises(InvalidArgumentError,
                               match=f"^{field} = {re.escape(repr(value))} "
                                     "rad/s exceeds 1e\\+291 rad/s"):
                LambdaParams(**fields)

    @staticmethod
    def at_the_bound(scale=1.0):
        """LambdaParams with every field at 0 or +-RATE_MAX (gamma52 and A
        at RATE_MAX), times scale."""
        r = RATE_MAX
        for gamma32 in (0.0, r):
            for omega_c in (0.0, r):
                for d_c in (-r, 0.0, r):
                    yield LambdaParams(scale * r, scale * gamma32,
                                       scale * omega_c, scale * r,
                                       scale * d_c)

    def test_closed_forms_are_finite_at_the_bound(self):
        # the derivation next to RATE_MAX: every field at R and |delta| up
        # to the float maximum keeps chi and its slope exact
        for p in self.at_the_bound():
            for delta in (-FLOAT_MAX, -RATE_MAX, 1.0, RATE_MAX, FLOAT_MAX):
                if p.gamma32 == p.omega_c == 0.0 \
                        and delta == p.coupling_detuning:
                    continue  # the indeterminate point
                assert_matches_exact(p, delta)

    def test_closed_forms_at_the_bound_match_a_rescaled_call(self):
        # chi and its slope are homogeneous of degree 0 and -1 in the rates,
        # A and delta, and scaling by 2**-100 is exact: an intermediate that
        # overflowed at the bound (and was silenced inside the closed forms)
        # would not reproduce the rescaled values bit for bit
        k = 2.0 ** -100
        deltas = np.array([-RATE_MAX, 1.0, RATE_MAX])
        for p, small in zip(self.at_the_bound(), self.at_the_bound(k)):
            if p.gamma32 == p.omega_c == 0.0:
                continue  # delta = d_c is the indeterminate point
            assert np.array_equal(chi_analytic(p, deltas),
                                  chi_analytic(small, k * deltas))
            assert np.array_equal(dchi_prime_ddelta(p, deltas),
                                  k * dchi_prime_ddelta(small, k * deltas))


POSITIVE = st.floats(-3.0, 12.0).map(lambda u: 10.0 ** u)
NON_NEGATIVE = st.one_of(st.just(0.0), POSITIVE)
SIGNED = st.one_of(NON_NEGATIVE, POSITIVE.map(operator.neg))


@settings(max_examples=300, deadline=None)
@given(gamma52=POSITIVE, gamma32=NON_NEGATIVE, omega_c=NON_NEGATIVE,
       coupling_a=POSITIVE, d_c=SIGNED, delta=SIGNED,
       two_photon=st.booleans())
@example(gamma52=4.7e4, gamma32=0.0, omega_c=1.5e6, coupling_a=5e3,
         d_c=-3e5, delta=0.0, two_photon=True)  # the dark resonance
@example(gamma52=4.7e4, gamma32=6.3e3, omega_c=4.7e4 - 6.3e3, coupling_a=5e3,
         d_c=0.0, delta=2e4, two_photon=False)  # the exceptional point
def test_closed_forms_match_exact_arithmetic(gamma52, gamma32, omega_c,
                                             coupling_a, d_c, delta,
                                             two_photon):
    # over rates, prefactors and detunings from 1e-3 to 1e12 rad/s, where
    # no intermediate leaves the normal float range; two_photon puts delta
    # within 1e-9 * |delta| of the two-photon resonance delta = d_c
    if two_photon:
        delta = d_c + 1e-9 * delta
    assume(gamma32 > 0 or omega_c > 0 or delta != d_c)
    assert_matches_exact(
        LambdaParams(gamma52, gamma32, omega_c, coupling_a, d_c), delta)
