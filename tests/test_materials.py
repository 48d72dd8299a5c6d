import math

import numpy as np
import pytest

from eitsim.config import pryso_defaults
from eitsim.errors import ConfigError, InvalidArgumentError
from eitsim.materials import (DEFAULT_DESTINATIONS, EXCITED_LIFETIME_S,
                              GROUND_LIFETIME_S, LevelSystem, MaterialParams,
                              derive_gamma, equal_branching)


def _levels(lifetimes=None, branching=None, dephasing=None, n=6):
    if lifetimes is None:
        lifetimes = np.array([400.0] * 3 + [164e-6] * 3)
    if branching is None:
        branching = equal_branching(lifetimes)
    if dephasing is None:
        dephasing = np.zeros((n, n))
    return LevelSystem(n, lifetimes, branching, dephasing)


class TestLevelSystem:
    def test_default_branching_row_sums(self):
        lv = pryso_defaults().levels
        branching = np.array(lv.branching)
        for m in range(2, 7):
            assert branching[m - 1].sum() == pytest.approx(
                1.0 / lv.lifetimes[m - 1], rel=1e-14)
        assert branching[0].sum() == 0.0  # terminal

    def test_equal_split_values(self):
        branching = np.array(pryso_defaults().levels.branching)
        # level 5 decays to 1..4 at 1/(4*T1) each
        assert branching[4, 0] == pytest.approx(1.0 / (4 * 164e-6), rel=1e-15)
        assert branching[4, 0] == pytest.approx(1524.3902439024391, rel=1e-12)
        assert branching[4].sum() == pytest.approx(6097.560975609756,
                                                   rel=1e-12)
        # level 2 decays only to 1
        assert branching[1, 0] == pytest.approx(1.0 / 400.0, rel=1e-15)
        assert np.all(branching[1, 1:] == 0)

    def test_rejects_bad_row_sum(self):
        lifetimes = np.array([400.0] * 3 + [164e-6] * 3)
        branching = np.array(equal_branching(lifetimes))
        branching[4, 0] *= 1.5
        with pytest.raises(ConfigError):
            _levels(branching=branching)

    def test_rejects_self_decay(self):
        lifetimes = np.array([400.0] * 3 + [164e-6] * 3)
        branching = np.array(equal_branching(lifetimes))
        branching[2, 2] = 1.0
        with pytest.raises(InvalidArgumentError):
            _levels(branching=branching)

    def test_rejects_decay_with_infinite_lifetime(self):
        lifetimes = np.array([np.inf, 400.0])
        branching = np.array([[0.0, 0.1], [1 / 400.0, 0.0]])
        with pytest.raises(ConfigError):
            LevelSystem(2, lifetimes, branching, np.zeros((2, 2)))

    def test_infinite_lifetime_without_decay_is_fine(self):
        lifetimes = np.array([np.inf, 400.0])
        branching = np.array([[0.0, 0.0], [1 / 400.0, 0.0]])
        lv = LevelSystem(2, lifetimes, branching, np.zeros((2, 2)))
        assert sum(lv.branching[0]) == 0.0

    def test_rejects_asymmetric_dephasing(self):
        deph = np.zeros((6, 6))
        deph[2, 1] = 2e3  # missing mirror entry
        with pytest.raises(InvalidArgumentError):
            _levels(dephasing=deph)

    def test_rejects_negative_inputs(self):
        with pytest.raises(InvalidArgumentError):
            _levels(lifetimes=np.array([400.0] * 5 + [-1.0]))
        deph = np.full((6, 6), -1.0)
        with pytest.raises(InvalidArgumentError):
            _levels(dephasing=deph)


class TestDeriveGamma:
    def test_default_cyclic_values(self):
        mat = pryso_defaults()
        # independent arithmetic: pi*(1/T1_i + 1/T1_j + dephasing_Hz)
        want_32 = math.pi * (1 / 400.0 + 1 / 400.0 + 2e3)
        want_52 = math.pi * (1 / 164e-6 + 1 / 400.0 + 9e3)
        assert mat.gamma[2][1] == pytest.approx(want_32, rel=1e-15)
        assert mat.gamma[4][1] == pytest.approx(want_52, rel=1e-15)
        assert mat.gamma[2][1] == pytest.approx(6283.201015142855, rel=1e-13)
        assert mat.gamma[4][1] == pytest.approx(47430.39450208119, rel=1e-13)
        assert mat.gamma[4][2] == pytest.approx(want_52, rel=1e-15)  # same inputs

    def test_pair_without_dephasing(self):
        mat = pryso_defaults()
        # 5-4: two excited levels, no pure dephasing entry
        want = math.pi * (2 / 164e-6)
        assert mat.gamma[4][3] == pytest.approx(want, rel=1e-15)

    def test_angular_convention(self):
        mat = pryso_defaults(rate_convention="angular")
        want_52 = 0.5 * (1 / 164e-6 + 1 / 400.0 + 2 * math.pi * 9e3)
        assert mat.gamma[4][1] == pytest.approx(want_52, rel=1e-15)

    def test_symmetric_zero_diagonal(self):
        g = np.array(pryso_defaults().gamma)
        assert np.array_equal(g, g.T)
        assert np.all(np.diag(g) == 0)
        assert np.all(g[np.triu_indices(6, 1)] > 0)

    def test_lifetime_override_increases_gamma52(self):
        mat = pryso_defaults(
            lifetimes=np.array([400.0] * 3 + [164e-6, 82e-6, 164e-6]))
        want = math.pi * (1 / 82e-6 + 1 / 400.0 + 9e3)
        assert mat.gamma[4][1] == pytest.approx(want, rel=1e-15)
        assert mat.gamma[4][1] > 47430.39450208119

    def test_doubled_rates_double_gamma(self):
        base = pryso_defaults()
        half = np.array([400.0] * 3 + [164e-6] * 3) / 2.0
        deph = {k: 2 * v for k, v in
                {(3, 2): 2e3, (5, 2): 9e3, (5, 3): 9e3}.items()}
        doubled = pryso_defaults(lifetimes=half, dephasing_hz=deph)
        assert np.array_equal(doubled.gamma, 2.0 * np.array(base.gamma))

    def test_rejects_unknown_convention(self):
        with pytest.raises(ConfigError):
            derive_gamma(pryso_defaults().levels, "radians")


class TestMaterialParams:
    def test_coupling_strength(self):
        mat = pryso_defaults()
        # N*mu^2/(eps0*hbar) with the bundled constants
        want = 4.7e24 * (1e-33) ** 2 / (8.8541878128e-12 * 1.054571817e-34)
        assert mat.coupling_strength == pytest.approx(want, rel=1e-15)
        assert mat.coupling_strength == pytest.approx(5033.533545163184,
                                                      rel=1e-13)

    def test_rejects_asymmetric_gamma(self):
        lv = pryso_defaults().levels
        g = np.array(derive_gamma(lv))
        g[0, 1] *= 2
        with pytest.raises(InvalidArgumentError):
            MaterialParams(lv, g, 4.7e24, 1e-33, 605.7e-9)

    def test_rejects_non_positive_scalars(self):
        lv = pryso_defaults().levels
        g = derive_gamma(lv)
        for density, dipole, wavelength in [(0, 1e-33, 6e-7),
                                            (4.7e24, -1e-33, 6e-7),
                                            (4.7e24, 1e-33, 0)]:
            with pytest.raises(InvalidArgumentError):
                MaterialParams(lv, g, density, dipole, wavelength)

    def test_rejects_a_coupling_strength_past_the_float_range(self):
        # inf from the product (1.3e136 C m at the default density), and
        # OverflowError from Python's mu**2 (1.34e154 C m)
        mat = pryso_defaults()
        for density, dipole in [(4.7e24, 2.8e136), (4.7e24, 2e154),
                                (1e308, 1e-3)]:
            with pytest.raises(InvalidArgumentError,
                               match="^coupling strength overflows"):
                MaterialParams(mat.levels, mat.gamma, density, dipole,
                               605.7e-9)

    def test_rejects_a_decay_rate_past_the_float_range(self):
        mat = pryso_defaults()
        gamma = [list(row) for row in mat.gamma]
        gamma[2][1] = gamma[1][2] = math.inf
        with pytest.raises(InvalidArgumentError,
                           match="^a coherence decay rate overflows"):
            MaterialParams(mat.levels, gamma, mat.number_density,
                           mat.probe_dipole, mat.probe_wavelength)


def test_equal_branching_custom_destinations():
    table = equal_branching(np.array([1.0, 2.0, 4.0]),
                            destinations={3: (1, 2), 2: (1,)})
    assert table[2][0] == table[2][1] == 1 / 8.0
    assert table[1][0] == 0.5
    assert all(rate == 0 for rate in table[0])


def test_default_destinations_cover_all_lower_levels():
    for m, dests in DEFAULT_DESTINATIONS.items():
        assert dests == tuple(range(1, m))


def test_default_lifetime_constants():
    assert GROUND_LIFETIME_S == 400.0
    assert EXCITED_LIFETIME_S == 164e-6


@pytest.mark.parametrize("convention", ["cyclic", "angular"])
def test_derive_gamma_matches_the_array_formula_bit_for_bit(convention):
    # the rule in array form, in the order the rates were always summed:
    # 1/T1(i) + 1/T1(j), then the dephasing, then the scale
    rng = np.random.default_rng(18)
    for _ in range(20):
        lifetimes = 10.0 ** rng.uniform(-7, 3, 6)
        lifetimes[0] = np.inf  # level 1 decays nowhere
        deph = np.triu(10.0 ** rng.uniform(0, 5, (6, 6)), 1)
        deph += deph.T
        levels = LevelSystem(6, lifetimes, equal_branching(lifetimes), deph)
        inv_t1 = np.where(np.isinf(lifetimes), 0.0, 1.0 / lifetimes)
        pair_sum = inv_t1[:, None] + inv_t1[None, :]
        if convention == "cyclic":
            want = math.pi * (pair_sum + deph)
        else:
            want = 0.5 * (pair_sum + 2.0 * math.pi * deph)
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(derive_gamma(levels, convention), want)


def test_zero_lifetime_refused_before_any_division():
    lifetimes = [400.0] * 3 + [164e-6, 0.0, 164e-6]
    with pytest.raises(InvalidArgumentError, match="lifetimes must be"):
        equal_branching(lifetimes)
    with pytest.raises(InvalidArgumentError, match="lifetimes must be"):
        pryso_defaults(lifetimes=lifetimes)
