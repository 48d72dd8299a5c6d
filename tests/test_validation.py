"""Full-model vs closed-form cross validation."""

import json

import numpy as np
import pytest

from eitsim.cli import main
from eitsim.config import apply_overrides, pryso_defaults, resolve
from eitsim.errors import ConfigError, InvalidArgumentError
from eitsim.validation import validate_reduction

MAT = pryso_defaults()
GRID = np.linspace(-2e7, 2e7, 201)


class TestAgreement:
    def test_default_eit_run_agrees(self):
        report = validate_reduction(MAT, 1.5e6, 1.5e3, GRID)
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
        report = validate_reduction(run.material, 0.0, 1.5e2, GRID,
                                    omega_a=1.5e6)
        assert report["max_rel_dev_chi_im"] < 0.02
        assert report["peak_shift_rad_s"] == 0.0

    def test_probe_only_traps_population(self):
        # without repump fields the long-lived dark grounds swallow the
        # population, so the full model shows no absorption at all
        report = validate_reduction(MAT, 0.0, 1.5e3, [0.0], omega_a=0.0)
        assert report["max_rel_dev_chi_im"] == 1.0
        assert report["n_compared"] == report["n_grid"] == 1

    def test_aux_defaults_to_coupling(self):
        explicit = validate_reduction(MAT, 1.5e6, 1.5e3, GRID, omega_a=1.5e6)
        implied = validate_reduction(MAT, 1.5e6, 1.5e3, GRID)
        assert implied == explicit


class TestFaultInjection:
    def test_fault_factor_detected(self):
        report = validate_reduction(MAT, 1.5e6, 1.5e3, GRID,
                                    analytic_gamma52_factor=10.0)
        assert report["max_rel_dev_chi_im"] > 0.02

    def test_unit_factor_is_inert(self):
        base = validate_reduction(MAT, 1.5e6, 1.5e3, GRID)
        unit = validate_reduction(MAT, 1.5e6, 1.5e3, GRID,
                                  analytic_gamma52_factor=1.0)
        assert unit == base


class TestInputs:
    def test_weak_probe_gate(self):
        with pytest.raises(ConfigError):
            validate_reduction(MAT, 1.5e6, 1e5, GRID)

    def test_probe_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            validate_reduction(MAT, 1.5e6, 0.0, GRID)

    def test_grid_must_not_be_empty(self):
        with pytest.raises(InvalidArgumentError):
            validate_reduction(MAT, 1.5e6, 1.5e3, [])

    def test_as_dict_round_trip(self, tmp_path):
        # the default validate run writes the report, field for field, into
        # its summary headline, next to the threshold and the verdict
        report = validate_reduction(MAT, 1.5e6, 1.5e3, GRID)
        assert main(["validate", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "validate_summary.json", encoding="utf-8") as fh:
            headline = json.load(fh)["headline"]
        assert headline == {**report, "threshold_rel": 0.02, "passed": True}
