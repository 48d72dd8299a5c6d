"""Full-model vs closed-form cross validation."""

import json

import numpy as np
import pytest

from eitsim.cli import main
from eitsim.config import DriveSet, apply_overrides, pryso_defaults, resolve
from eitsim.errors import ConfigError, InvalidArgumentError
from eitsim.validation import validate_reduction

MAT = pryso_defaults()
GRID = np.linspace(-2e7, 2e7, 201)
EIT_DRIVES = DriveSet(1.5e3, 1.5e6, 1.5e6)


class TestAgreement:
    def test_default_eit_run_agrees(self):
        report = validate_reduction(MAT, EIT_DRIVES, GRID)
        assert report["max_rel_dev_chi_im"] < 0.02
        assert report["max_rel_dev_chi_re"] < 0.02
        assert report["max_rel_dev_chi_im"] > 0.0  # models are not identical
        # peaks on the same grid nodes
        assert report["peak_shift_rad_s"] == 0.0
        assert 1 <= report["n_compared"] < report["n_grid"] == 201

    def test_lorentzian_mode_agrees(self):
        # drain the dark ground level quickly and repump level 1 through the
        # aux transition; the bare-resonance response then matches the
        # single-resonance closed form tightly even with no coupling field
        run = resolve(apply_overrides({}, ["material.lifetime_3_s=164e-6"]))
        report = validate_reduction(run.material,
                                    DriveSet(1.5e2, 0.0, 1.5e6), GRID)
        assert report["max_rel_dev_chi_im"] < 0.02
        assert report["peak_shift_rad_s"] == 0.0

    def test_probe_only_traps_population(self):
        # without repump fields the long-lived dark grounds swallow the
        # population, so the full model shows no absorption at all
        report = validate_reduction(MAT, DriveSet(1.5e3, 0.0, 0.0), [0.0])
        assert report["max_rel_dev_chi_im"] == 1.0
        assert report["n_compared"] == report["n_grid"] == 1

    def test_detuned_coupling_agrees(self):
        # both sides read the coupling detuning; at a weak probe the
        # detuned runs agree as closely as the resonant one
        for d_c in (0.0, -3e5, 1e6):
            drives = DriveSet(150.0, 1.5e6, 1.5e6, coupling_detuning=d_c)
            report = validate_reduction(MAT, drives, GRID)
            assert report["max_rel_dev_chi_im"] < 5e-4
            assert report["max_rel_dev_chi_re"] < 5e-4
            assert report["peak_shift_rad_s"] == 0.0

    def test_deviation_falls_as_the_probe_squared(self):
        # The closed form is the full model's first order in the probe, so
        # the deviation is O(Omega_p^2).  On this grid deviation / Omega_p^2
        # reads 1.2310e-8, 1.2633e-8 and 1.2818e-8 at 1.5e3, 500 and 150
        # rad/s (4.1% apart; a linear rate would spread them tenfold).
        # Below 150 rad/s a floor that does not depend on the probe shows
        # (50 rad/s is 8.17 times below 150, not 9): the 400 s ground
        # lifetimes leave 1 - (P2 - P5) = 3.67e-6 of the population outside
        # level 2 against the coupling and aux repumping, where the closed
        # form puts all of it.
        grid = np.linspace(-2e7, 2e7, 2001)
        scaled = [validate_reduction(MAT, DriveSet(probe, 1.5e6, 1.5e6),
                                     grid)["max_rel_dev_chi_im"] / probe ** 2
                  for probe in (1.5e3, 500.0, 150.0)]
        assert max(scaled) <= 1.06 * min(scaled)


class TestFaultInjection:
    def test_fault_factor_detected(self):
        report = validate_reduction(MAT, EIT_DRIVES, GRID,
                                    analytic_gamma52_factor=10.0)
        assert report["max_rel_dev_chi_im"] > 0.02

    def test_unit_factor_is_inert(self):
        base = validate_reduction(MAT, EIT_DRIVES, GRID)
        unit = validate_reduction(MAT, EIT_DRIVES, GRID,
                                  analytic_gamma52_factor=1.0)
        assert unit == base


class TestInputs:
    def test_probe_sign_does_not_change_the_report(self):
        # the full backend's one probe rule is a nonzero probe; a negative
        # one is the same field with its phase turned by pi
        negative = validate_reduction(MAT, EIT_DRIVES._replace(
            probe_rabi=-EIT_DRIVES.probe_rabi), GRID)
        assert negative == validate_reduction(MAT, EIT_DRIVES, GRID)
        with pytest.raises(ConfigError, match="nonzero probe field"):
            validate_reduction(MAT, EIT_DRIVES._replace(probe_rabi=0.0), GRID)

    def test_grid_must_not_be_empty(self):
        with pytest.raises(InvalidArgumentError):
            validate_reduction(MAT, EIT_DRIVES, [])

    @pytest.mark.parametrize("coupling", [1e165, 1e166])
    def test_chi_im_below_the_normal_range_is_refused(self, coupling):
        # (Omega_c/2)^2 ~ 1e330 puts the closed form's chi_im at 1.3e-322
        # (subnormal) or 0 over the whole grid: nothing a relative
        # deviation could divide by
        with pytest.raises(InvalidArgumentError,
                           match="below the smallest normal float"):
            validate_reduction(MAT, DriveSet(1.5e3, coupling, 1.5e6), GRID)

    def test_as_dict_round_trip(self, tmp_path):
        # the default validate run writes the report, field for field, into
        # its summary headline, next to the threshold and the verdict
        report = validate_reduction(MAT, EIT_DRIVES, GRID)
        assert main(["validate", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "validate_summary.json", encoding="utf-8") as fh:
            headline = json.load(fh)["headline"]
        assert headline == {**report, "threshold_rel": 0.02, "passed": True}
