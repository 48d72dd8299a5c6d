import math
import re

import numpy as np
import pytest

from eitsim.config import default_document, pryso_defaults
from eitsim.errors import ConfigError, InvalidArgumentError
from eitsim.materials import (DEFAULT_DESTINATIONS, MaterialParams,
                              derive_gamma, equal_branching)


def _material(**keys):
    return pryso_defaults(material={**default_document()["material"], **keys})


def _params(lifetimes=None, branching=None, dephasing=None):
    """A MaterialParams of these level tables, with zero coherence decay
    and the default optical fields."""
    if lifetimes is None:
        lifetimes = np.array([400.0] * 3 + [164e-6] * 3)
    if branching is None:
        branching = equal_branching(lifetimes)
    if dephasing is None:
        dephasing = np.zeros((6, 6))
    return MaterialParams(lifetimes, branching, dephasing, np.zeros((6, 6)),
                          4.7e24, 1e-33, 605.7e-9)


def assert_replace_refuses_alike(record, error, **fields):
    """record._replace(**fields) refuses as the constructor does on the same
    fields, with the same message: _replace must not skip __new__."""
    with pytest.raises(error) as built:
        type(record)(**{**record._asdict(), **fields})
    with pytest.raises(error, match=f"^{re.escape(str(built.value))}$"):
        record._replace(**fields)


class TestLevelSystem:
    """MaterialParams' checks of its lifetimes, branching and dephasing."""

    def test_default_branching_row_sums(self):
        lv = pryso_defaults()
        branching = np.array(lv.branching)
        for m in range(2, 7):
            assert branching[m - 1].sum() == pytest.approx(
                1.0 / lv.lifetimes[m - 1], rel=1e-14)
        assert branching[0].sum() == 0.0  # terminal

    def test_equal_split_values(self):
        branching = np.array(pryso_defaults().branching)
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
            _params(branching=branching)
        # new lifetimes under the old branching: level 2 still decays at
        # 1/400 s against 1/T1 = 1
        assert_replace_refuses_alike(pryso_defaults(), ConfigError,
                                     lifetimes=(1.0,) * 6)

    def test_rejects_self_decay(self):
        lifetimes = np.array([400.0] * 3 + [164e-6] * 3)
        branching = np.array(equal_branching(lifetimes))
        branching[2, 2] = 1.0
        with pytest.raises(InvalidArgumentError):
            _params(branching=branching)

    def test_rejects_decay_with_infinite_lifetime(self):
        lifetimes = np.array([np.inf] + [400.0] * 2 + [164e-6] * 3)
        branching = np.array(equal_branching(lifetimes))
        branching[0, 1] = 0.1
        with pytest.raises(ConfigError):
            _params(lifetimes, branching)

    def test_infinite_lifetime_without_decay_is_fine(self):
        lifetimes = np.array([np.inf] + [400.0] * 2 + [164e-6] * 3)
        assert sum(_params(lifetimes).branching[0]) == 0.0

    def test_refusals_keep_their_order_and_messages(self):
        # each input fails every check from its own on, so the message
        # names the first check that sees it
        times = [400.0] * 3 + [164e-6] * 3
        decay = np.array(equal_branching(times))
        zeros = np.zeros((6, 6))
        negative = decay.copy()
        negative[1, 0] = -1.0
        negative[2, 2] = 1.0
        self_decay = decay.copy()
        self_decay[2, 2] = 1.0
        asymmetric = zeros.copy()
        asymmetric[2, 1] = 1.0
        for tables, match in [
                (([1.0], [[0.0]], [[-1.0]]), "need 6 lifetimes, got 1"),
                ((times[:5], zeros[:5, :5], zeros), "need 6 lifetimes, got 5"),
                ((times + [1.0], np.zeros((7, 7)), zeros),
                 "need 6 lifetimes, got 7"),
                (([0.0] + times[1:], zeros[:, :5], zeros),
                 r"lifetimes must be positive \(inf allowed\)"),
                ((times, negative[:, :5], -asymmetric),
                 "lifetimes/branching/dephasing shape mismatch"),
                ((times, decay, zeros[:5, :5]),
                 "lifetimes/branching/dephasing shape mismatch"),
                ((times, negative, -asymmetric),
                 "branching rates must be finite and non-negative"),
                ((times, self_decay, -asymmetric),
                 "self-decay entries must be zero"),
                ((times, decay, -asymmetric),
                 "dephasing must be finite and non-negative"),
                ((times, decay, asymmetric),
                 "dephasing table must be symmetric")]:
            with pytest.raises(InvalidArgumentError, match=f"^{match}$"):
                MaterialParams(*tables, zeros, 4.7e24, 1e-33, 605.7e-9)
        with pytest.raises(InvalidArgumentError,
                           match="^gamma table shape mismatch$"):
            MaterialParams(times, decay, zeros, np.zeros((3, 3)), 4.7e24,
                           1e-33, 605.7e-9)

    def test_rejects_asymmetric_dephasing(self):
        deph = np.zeros((6, 6))
        deph[2, 1] = 2e3  # missing mirror entry
        with pytest.raises(InvalidArgumentError):
            _params(dephasing=deph)

    def test_rejects_negative_inputs(self):
        with pytest.raises(InvalidArgumentError):
            _params(lifetimes=np.array([400.0] * 5 + [-1.0]))
        deph = np.full((6, 6), -1.0)
        with pytest.raises(InvalidArgumentError):
            _params(dephasing=deph)


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
        mat = _material(lifetime_5_s=82e-6)
        want = math.pi * (1 / 82e-6 + 1 / 400.0 + 9e3)
        assert mat.gamma[4][1] == pytest.approx(want, rel=1e-15)
        assert mat.gamma[4][1] > 47430.39450208119

    def test_doubled_rates_double_gamma(self):
        base = pryso_defaults()
        half = {f"lifetime_{i}_s": t / 2.0
                for i, t in enumerate(base.lifetimes, 1)}
        doubled = _material(**half, dephasing_32_hz=4e3,
                            dephasing_52_hz=18e3, dephasing_53_hz=18e3)
        assert np.array_equal(doubled.gamma, 2.0 * np.array(base.gamma))

    def test_rejects_unknown_convention(self):
        mat = pryso_defaults()
        with pytest.raises(ConfigError):
            derive_gamma(mat.lifetimes, mat.dephasing, "radians")


class TestMaterialParams:
    def test_coupling_strength(self):
        mat = pryso_defaults()
        # N*mu^2/(eps0*hbar) with the bundled constants
        want = 4.7e24 * (1e-33) ** 2 / (8.8541878128e-12 * 1.054571817e-34)
        assert mat.coupling_strength == pytest.approx(want, rel=1e-15)
        assert mat.coupling_strength == pytest.approx(5033.533545163184,
                                                      rel=1e-13)

    def test_rejects_asymmetric_gamma(self):
        mat = pryso_defaults()
        g = np.array(mat.gamma)
        g[0, 1] *= 2
        with pytest.raises(InvalidArgumentError):
            MaterialParams(*mat[:3], g, 4.7e24, 1e-33, 605.7e-9)

    def test_rejects_non_positive_scalars(self):
        mat = pryso_defaults()
        for density, dipole, wavelength in [(0, 1e-33, 6e-7),
                                            (4.7e24, -1e-33, 6e-7),
                                            (4.7e24, 1e-33, 0)]:
            with pytest.raises(InvalidArgumentError):
                MaterialParams(*mat[:4], density, dipole, wavelength)
        for field in ("number_density", "probe_dipole", "probe_wavelength"):
            assert_replace_refuses_alike(mat, InvalidArgumentError,
                                         **{field: -1.0})

    def test_rejects_a_coupling_strength_past_the_float_range(self):
        # inf from the product (1.3e136 C m at the default density), and
        # OverflowError from Python's mu**2 (1.34e154 C m)
        mat = pryso_defaults()
        for density, dipole in [(4.7e24, 2.8e136), (4.7e24, 2e154),
                                (1e308, 1e-3)]:
            with pytest.raises(InvalidArgumentError,
                               match="^coupling strength overflows"):
                MaterialParams(*mat[:4], density, dipole, 605.7e-9)

    def test_rejects_a_decay_rate_past_the_float_range(self):
        mat = pryso_defaults()
        gamma = [list(row) for row in mat.gamma]
        gamma[2][1] = gamma[1][2] = math.inf
        with pytest.raises(InvalidArgumentError,
                           match="^a coherence decay rate overflows"):
            MaterialParams(*mat[:3], gamma, *mat[4:])


def test_default_destinations_cover_all_lower_levels():
    for m, dests in DEFAULT_DESTINATIONS.items():
        assert dests == tuple(range(1, m))


@pytest.mark.parametrize("count", [2, 5, 7])
def test_equal_branching_needs_six_lifetimes(count):
    # the destinations are the six-level model's: with two lifetimes they
    # index past the list, and with seven level 7 would never decay
    with pytest.raises(InvalidArgumentError,
                       match=f"^need 6 lifetimes, got {count}$"):
        equal_branching([1.0] * count)


def test_default_lifetime_constants():
    section = default_document()["material"]
    assert [section[f"lifetime_{i}_s"] for i in range(1, 7)] \
        == [400.0] * 3 + [164e-6] * 3


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
        inv_t1 = np.where(np.isinf(lifetimes), 0.0, 1.0 / lifetimes)
        pair_sum = inv_t1[:, None] + inv_t1[None, :]
        if convention == "cyclic":
            want = math.pi * (pair_sum + deph)
        else:
            want = 0.5 * (pair_sum + 2.0 * math.pi * deph)
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(derive_gamma(lifetimes, deph, convention), want)


def test_zero_lifetime_refused_before_any_division():
    lifetimes = [400.0] * 3 + [164e-6, 0.0, 164e-6]
    with pytest.raises(InvalidArgumentError, match="lifetimes must be"):
        equal_branching(lifetimes)
    with pytest.raises(InvalidArgumentError, match="lifetimes must be"):
        _material(lifetime_5_s=0.0)
