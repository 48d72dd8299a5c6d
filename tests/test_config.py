"""Configuration document resolution: unit suffixes, conventions,
overrides, and the canonical echo."""

import dataclasses
import json
import math

import numpy as np
import pytest

from eitsim.config import (LEGACY_KEYS, ResolvedRun, apply_overrides,
                           default_document, load_document, resolve)
from eitsim.constants import TWO_PI
from eitsim.errors import ConfigError
from eitsim.materials import pryso_defaults


def resolve_with(*assignments):
    # overrides land on an empty document; defaults fill in at resolve time
    return resolve(apply_overrides({}, assignments))


class TestDefaults:
    def test_default_resolution(self):
        run = resolve(default_document())
        assert run.backend == "analytic"
        assert run.canonical["jobs_count"] == 1
        assert run.drives.probe_rabi == 1.5e3
        assert run.drives.coupling_rabi == 1.5e6
        assert run.drives.aux_rabi == 1.5e6
        assert run.drives.probe_detuning == 0.0
        assert run.grid.delta_min == -2e7
        assert run.grid.delta_max == 2e7
        assert run.grid.points == 201
        assert run.evolve_t_end == 10e-3
        assert run.evolve_samples == 201
        assert run.evolve_initial == "mixed"
        assert run.canonical["solver"] == {"tol_rel": 1e-9,
                                           "max_steps_count": 20_000_000}
        assert run.validate_max_dev == 0.02
        assert run.validate_fault_factor == 1.0

    def test_default_material_matches_builtin(self):
        run = resolve(default_document())
        ref = pryso_defaults()
        np.testing.assert_array_equal(run.material.gamma, ref.gamma)
        np.testing.assert_array_equal(run.material.levels.branching,
                                      ref.levels.branching)
        assert run.material.number_density == ref.number_density
        assert run.material.probe_dipole == ref.probe_dipole
        assert run.material.probe_wavelength == ref.probe_wavelength

    def test_empty_document_equals_defaults(self):
        bare = resolve({})
        full = resolve(default_document())
        assert json.dumps(bare.canonical, sort_keys=True) == \
            json.dumps(full.canonical, sort_keys=True)
        assert bare.user_set == frozenset()


class TestUnitSuffixes:
    def test_hz_converts_by_two_pi(self):
        run = resolve_with("drives.probe_detuning_hz=1000.0")
        assert run.drives.probe_detuning == TWO_PI * 1000.0
        assert run.canonical["drives"]["probe_detuning_rad_s"] == \
            6283.185307179586

    def test_rad_s_passes_through(self):
        run = resolve_with("drives.coupling_detuning_rad_s=-7e5")
        assert run.drives.coupling_detuning == -7e5

    def test_rabi_hz_default_convention_reads_as_rad_s(self):
        run = resolve_with("drives.coupling_rabi_hz=1.5e6")
        assert run.drives.coupling_rabi == 1.5e6

    def test_rabi_hz_cyclic_convention_multiplies_by_two_pi(self):
        run = resolve_with("conventions.rabi_convention=cyclic",
                           "drives.coupling_rabi_hz=1.5e6")
        assert run.drives.coupling_rabi == 9424777.960769379

    def test_rabi_convention_independent_of_key_order(self):
        doc = {
            "drives": {"probe_rabi_hz": 200.0},
            "conventions": {"rabi_convention": "cyclic"},
        }
        run = resolve(doc)
        assert run.drives.probe_rabi == TWO_PI * 200.0

    def test_rabi_convention_leaves_plain_angular_keys_alone(self):
        run = resolve_with("conventions.rabi_convention=cyclic",
                           "drives.probe_detuning_hz=100.0")
        assert run.drives.probe_detuning == TWO_PI * 100.0
        assert run.drives.probe_rabi == 1.5e3  # default untouched

    def test_dephasing_stays_in_hz(self):
        run = resolve_with("material.dephasing_32_hz=4e3")
        assert run.canonical["material"]["dephasing_32_hz"] == 4e3
        assert run.material.levels.dephasing[2, 1] == 4e3

    def test_alias_conflict_names_both_keys(self):
        doc = default_document()
        doc["drives"]["probe_detuning_hz"] = 1.0
        with pytest.raises(ConfigError) as err:
            resolve(doc)
        assert "drives.probe_detuning_rad_s" in str(err.value)
        assert "drives.probe_detuning_hz" in str(err.value)

    def test_missing_suffix_is_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            resolve_with("drives.probe_rabi=1.0")
        assert "drives.probe_rabi" in str(err.value)

    def test_wrong_suffix_for_kind_is_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            resolve_with("evolve.t_end_rad_s=1.0")
        assert "evolve.t_end_rad_s" in str(err.value)


class TestRejection:
    def test_unknown_section(self):
        with pytest.raises(ConfigError) as err:
            resolve_with("fields.probe_rabi_rad_s=1.0")
        assert "fields" in str(err.value)

    def test_unknown_key_in_section(self):
        with pytest.raises(ConfigError) as err:
            resolve_with("grid.step_rad_s=1.0")
        assert "grid.step_rad_s" in str(err.value)

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ConfigError) as err:
            resolve_with("drives.probe_rabi_rad_s=true")
        assert "number" in str(err.value)

    def test_string_is_not_a_number(self):
        with pytest.raises(ConfigError):
            resolve_with("grid.delta_min_rad_s=wide")

    def test_non_finite_rejected(self):
        doc = default_document()
        doc["drives"]["probe_detuning_rad_s"] = float("inf")
        with pytest.raises(ConfigError):
            resolve(doc)

    def test_count_must_be_integral(self):
        with pytest.raises(ConfigError) as err:
            resolve_with("grid.points_count=200.5")
        assert "grid.points_count" in str(err.value)

    def test_integral_float_count_accepted(self):
        run = resolve_with("grid.points_count=200.0")
        assert run.grid.points == 200
        assert isinstance(run.grid.points, int)

    def test_bad_choice_lists_options(self):
        with pytest.raises(ConfigError) as err:
            resolve_with("backend=fast")
        assert "analytic" in str(err.value)
        with pytest.raises(ConfigError) as err:
            resolve_with("evolve.initial_state=level_7")
        assert "level_6" in str(err.value)
        with pytest.raises(ConfigError):
            resolve_with("conventions.rate_convention=linear")

    def test_self_paired_dephasing_rejected(self):
        with pytest.raises(ConfigError) as err:
            resolve_with("material.dephasing_22_hz=1.0")
        assert "material.dephasing_22_hz" in str(err.value)

    def test_section_must_be_object(self):
        doc = default_document()
        doc["grid"] = [1, 2, 3]
        with pytest.raises(ConfigError):
            resolve(doc)

    def test_range_checks(self):
        with pytest.raises(ConfigError):
            resolve_with("jobs_count=0")
        with pytest.raises(ConfigError):
            resolve_with("evolve.samples_count=1")
        with pytest.raises(ConfigError):
            resolve_with("validate.max_dev_rel=0.0")
        with pytest.raises(ConfigError):
            resolve_with("vg.fd_step_rad_s=-1.0")
        with pytest.raises(ConfigError):
            resolve_with("drives.probe_rabi_rad_s=-1.0")
        with pytest.raises(ConfigError):
            resolve_with("grid.points_count=1")
        with pytest.raises(ConfigError):
            resolve_with("grid.delta_min_rad_s=1.0", "grid.delta_max_rad_s=0.0")


class TestLegacyKeys:
    def test_tol_rel_range_enforced(self):
        for bad in ("1e-13", "1e-2"):
            with pytest.raises(ConfigError, match=r"'solver\.tol_rel' must "
                                                  r"lie in \[1e-12, 0\.001\]"):
                resolve_with(f"solver.tol_rel={bad}")
        for edge in (1e-12, 1e-3):
            assert resolve_with(f"solver.tol_rel={edge!r}") \
                .canonical["solver"]["tol_rel"] == edge

    def test_parsed_and_echoed_but_not_resolved(self):
        run = resolve_with("jobs_count=3", "solver.tol_rel=1e-7",
                           "solver.max_steps_count=10",
                           "vg.fd_step_rad_s=100.0")
        assert run.canonical["jobs_count"] == 3
        assert run.canonical["solver"] == {"tol_rel": 1e-7,
                                           "max_steps_count": 10}
        assert run.canonical["vg"] == {"fd_step_rad_s": 100.0}
        assert set(LEGACY_KEYS) == {"jobs_count", "solver.tol_rel",
                                    "solver.max_steps_count",
                                    "vg.fd_step_rad_s"}
        assert set(LEGACY_KEYS) <= run.user_set
        fields = {f.name for f in dataclasses.fields(ResolvedRun)}
        assert not {f for f in fields if "jobs" in f or "tol" in f
                    or "max_steps" in f or "fd_step" in f}

    def test_fd_step_not_filled_in_by_default(self):
        run = resolve(default_document())
        assert run.canonical["vg"] == {}
        assert "vg.fd_step_rad_s" not in run.user_set

    def test_fd_step_unit_and_range_checked(self):
        run = resolve_with("vg.fd_step_hz=10.0")
        assert run.canonical["vg"] == {"fd_step_rad_s": TWO_PI * 10.0}
        assert "vg.fd_step_rad_s" in run.user_set
        for bad in ("0.0", "-1.0"):
            with pytest.raises(ConfigError,
                               match=r"'vg\.fd_step_rad_s' must lie in"):
                resolve_with(f"vg.fd_step_rad_s={bad}")
        with pytest.raises(ConfigError, match="different units"):
            resolve_with("vg.fd_step_hz=10.0", "vg.fd_step_rad_s=1.0")

    def test_types_checked_as_before(self):
        for bad in ("jobs_count=1.5", "solver.max_steps_count=2.5",
                    'solver.tol_rel="tight"', "jobs_count=true"):
            with pytest.raises(ConfigError):
                resolve_with(bad)
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_with("solver.tol_abs=1e-9")


class TestMaterialOverrides:
    def test_lifetime_override_regenerates_branching(self):
        run = resolve_with("material.lifetime_5_s=82e-6")
        per = (1.0 / 82e-6) / 4.0
        np.testing.assert_allclose(run.material.levels.branching[4, :4], per,
                                   rtol=1e-15)
        # coherence rate follows the faster decay
        expected = math.pi * (1.0 / 82e-6 + 1.0 / 400.0 + 9e3)
        assert run.material.gamma[4, 1] == pytest.approx(expected, rel=1e-15)

    def test_partial_branching_override_breaking_row_sum_rejected(self):
        with pytest.raises(ConfigError):
            resolve_with("material.branching_52_per_s=9999.0")

    def test_full_row_branching_override_accepted(self):
        per = 1524.3902439024391
        run = resolve_with(
            f"material.branching_51_per_s={2 * per!r}",
            f"material.branching_52_per_s={per!r}",
            f"material.branching_53_per_s={per / 2!r}",
            f"material.branching_54_per_s={per / 2!r}",
        )
        b = run.material.levels.branching
        assert b[4, 0] == 2 * per
        assert b[4, 1] == per
        assert b[4, 2] == per / 2
        assert b[4, 3] == per / 2
        # total decay rate is unchanged, so coherence rates are too
        assert run.material.gamma[4, 1] == pryso_defaults().gamma[4, 1]

    def test_rate_convention_changes_gamma(self):
        angular = resolve_with("conventions.rate_convention=angular")
        expected = 0.5 * (1.0 / 164e-6 + 1.0 / 400.0 + TWO_PI * 9e3)
        assert angular.material.gamma[4, 1] == pytest.approx(expected,
                                                             rel=1e-15)
        assert angular.material.rate_convention == "angular"


class TestCanonicalEcho:
    def test_round_trip_is_identical(self):
        run = resolve_with("drives.probe_detuning_hz=250.0",
                           "conventions.rabi_convention=cyclic",
                           "drives.probe_rabi_hz=200.0",
                           "material.lifetime_5_s=82e-6",
                           "backend=full",
                           "jobs_count=4")
        first = json.dumps(run.canonical, sort_keys=True)
        again = resolve(run.canonical)
        assert json.dumps(again.canonical, sort_keys=True) == first

    def test_canonical_keys_use_internal_units(self):
        run = resolve_with("drives.probe_rabi_hz=200.0")
        assert "probe_rabi_hz" not in run.canonical["drives"]
        assert run.canonical["drives"]["probe_rabi_rad_s"] == 200.0

    def test_user_set_records_canonical_paths(self):
        run = resolve_with("drives.probe_detuning_hz=250.0", "jobs_count=4",
                           "backend=full")
        assert "drives.probe_detuning_rad_s" in run.user_set
        assert "jobs_count" in run.user_set
        assert "backend" in run.user_set
        assert "grid.points_count" not in run.user_set


class TestOverrides:
    def test_last_writer_wins(self):
        doc = apply_overrides({}, ["a.b=1", "a.b=2"])
        assert doc == {"a": {"b": 2}}

    def test_json_values_and_bare_strings(self):
        doc = apply_overrides({}, ["a.x=1.5e3", "a.y=cyclic", "a.z=null",
                                   'a.w="quoted"'])
        assert doc["a"] == {"x": 1.5e3, "y": "cyclic", "z": None,
                            "w": "quoted"}

    def test_original_document_untouched(self):
        base = {"a": {"b": 1}}
        apply_overrides(base, ["a.b=2"])
        assert base == {"a": {"b": 1}}

    def test_malformed_assignments(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["novalue"])
        with pytest.raises(ConfigError):
            apply_overrides({}, ["=5"])
        with pytest.raises(ConfigError):
            apply_overrides({}, ["a=1", "a.b=2"])  # descends into a number


class TestLoadDocument:
    def test_reads_json_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"backend": "full"}', encoding="utf-8")
        assert load_document(path) == {"backend": "full"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_document(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_document(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_document(path)


class TestInitialState:
    def test_mixed(self):
        rho = resolve(default_document()).initial_state()
        np.testing.assert_array_equal(rho.matrix, np.eye(6) / 6.0)

    def test_level(self):
        rho = resolve_with("evolve.initial_state=level_3").initial_state()
        assert rho.population(3) == 1.0
        assert np.trace(rho.matrix) == 1.0
