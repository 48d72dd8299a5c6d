"""Configuration document resolution: unit suffixes, conventions,
overrides, and the canonical echo."""

import json
import math

import numpy as np
import pytest

from eitsim.cli import EXIT_CONFIG, main
from eitsim.config import (CHOICES, RETIRED, SPELLINGS, apply_overrides,
                           default_document, load_document, pryso_defaults,
                           resolve)
from eitsim.constants import TWO_PI
from eitsim.errors import ConfigError
from eitsim.states import initial_state

from test_pinned_outputs import output_digests


def resolve_with(*assignments):
    # overrides land on an empty document; defaults fill in at resolve time
    return resolve(apply_overrides({}, assignments))


class TestDefaults:
    def test_default_resolution(self):
        run = resolve(default_document())
        assert run.backend == "analytic"
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
        assert run.validate_max_dev == 0.02
        assert run.validate_fault_factor == 1.0

    def test_default_material_matches_builtin(self):
        # one builder: the library default and the CLI's default run
        # hold the same material, field by field
        built, resolved = pryso_defaults(), resolve({}).material
        assert built._fields == resolved._fields
        for field in built._fields:
            assert getattr(built, field) == getattr(resolved, field), field
        for field in built.levels._fields:
            assert getattr(built.levels, field) \
                == getattr(resolved.levels, field), field
        assert built.coupling_strength == resolved.coupling_strength

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
        assert run.material.levels.dephasing[2][1] == 4e3

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


class TestDephasingPairOrder:
    def test_lower_first_is_an_alias_of_the_canonical_pair(self):
        run = resolve_with("material.dephasing_23_hz=5.0")
        material = run.canonical["material"]
        assert material["dephasing_32_hz"] == 5.0
        assert "dephasing_23_hz" not in material
        assert "material.dephasing_32_hz" in run.user_set
        assert "material.dephasing_23_hz" not in run.user_set
        assert run.material.levels.dephasing[2][1] == 5.0
        assert run.material.levels.dephasing[1][2] == 5.0

    def test_both_orders_set_the_same_quantity(self):
        with pytest.raises(ConfigError, match="same quantity") as err:
            resolve_with("material.dephasing_32_hz=4.0",
                         "material.dephasing_23_hz=5.0")
        assert "material.dephasing_23_hz" in str(err.value)
        assert "material.dephasing_32_hz" in str(err.value)


# The accepted spellings, written out family by family: spelling ->
# (canonical key, factor under the angular and the cyclic rabi_convention).
_LEVEL_NUMBERS = range(1, 7)
_ANGULAR = ("drives.probe_detuning", "drives.coupling_detuning",
            "drives.aux_detuning", "grid.delta_min", "grid.delta_max")
_RABI = ("drives.probe_rabi", "drives.coupling_rabi", "drives.aux_rabi")
_AS_IS = (
    "grid.points_count", "evolve.samples_count", "evolve.t_end_s",
    "validate.max_dev_rel", "validate.fault_gamma52_factor",
    "material.number_density_per_m3", "material.probe_dipole_c_m",
    "material.probe_wavelength_m",
    *(f"material.lifetime_{i}_s" for i in _LEVEL_NUMBERS),
    *(f"material.dephasing_{i}{j}_hz" for i in _LEVEL_NUMBERS
      for j in range(1, i)),
    *(f"material.branching_{i}{j}_per_s" for i in _LEVEL_NUMBERS
      for j in _LEVEL_NUMBERS if i != j),
)
EXPECTED_SPELLINGS = {
    **{key: (key, 1.0, 1.0) for key in _AS_IS},
    **{f"material.dephasing_{j}{i}_hz": (f"material.dephasing_{i}{j}_hz",
                                         1.0, 1.0)
       for i in _LEVEL_NUMBERS for j in range(1, i)},
    **{f"{base}_rad_s": (f"{base}_rad_s", 1.0, 1.0)
       for base in _ANGULAR + _RABI},
    **{f"{base}_hz": (f"{base}_rad_s", TWO_PI, TWO_PI) for base in _ANGULAR},
    **{f"{base}_hz": (f"{base}_rad_s", 1.0, TWO_PI) for base in _RABI},
}


def _spelling_document(spelling, value, convention):
    """A valid document that sets `spelling` to `value`."""
    doc = {"conventions": {"rabi_convention": convention}}
    section, _, key = spelling.rpartition(".")
    if key.startswith("branching_"):
        # the rest of the row keeps its sum at the default 1/T1
        pair = key.split("_")[1]
        upper, lower = int(pair[0]), int(pair[1])
        others = [j for j in _LEVEL_NUMBERS if j not in (upper, lower)]
        total = 1.0 / (400.0 if upper <= 3 else 164e-6)
        value = total / 4.0
        doc["material"] = {f"branching_{upper}{j}_per_s": 0.75 * total / 4.0
                           for j in others}
    if section:
        doc.setdefault(section, {})[key] = value
    else:
        doc[key] = value
    return doc, value


class TestSpellingCoverage:
    def test_spelling_table_is_the_documented_one(self):
        assert set(SPELLINGS) == set(EXPECTED_SPELLINGS)

    @pytest.mark.parametrize("convention", ["angular", "cyclic"])
    def test_every_spelling_resolves_to_its_canonical_key(self, convention):
        for spelling, (canon, angular, cyclic) in EXPECTED_SPELLINGS.items():
            if spelling.endswith("_count"):
                value, expected_type = 7, int
            else:
                value, expected_type = 1000.0, float
            doc, value = _spelling_document(spelling, value, convention)
            run = resolve(doc)
            factor = cyclic if convention == "cyclic" else angular
            section, _, key = canon.rpartition(".")
            node = run.canonical[section] if section else run.canonical
            assert node[key] == factor * value, spelling
            assert type(node[key]) is expected_type, spelling
            assert canon in run.user_set, spelling
            if spelling != canon:
                assert spelling.rpartition(".")[2] not in node, spelling
                assert spelling not in run.user_set, spelling

    @pytest.mark.parametrize("convention", ["angular", "cyclic"])
    def test_every_choice_resolves(self, convention):
        assert set(CHOICES) == {"backend", "conventions.rate_convention",
                                "conventions.rabi_convention",
                                "evolve.initial_state"}
        for path, allowed in CHOICES.items():
            for value in allowed:
                doc = apply_overrides(
                    {}, [f"conventions.rabi_convention={convention}",
                         f"{path}={value}"])
                run = resolve(doc)
                section, _, key = path.rpartition(".")
                node = run.canonical[section] if section else run.canonical
                assert node[key] == value
                assert path in run.user_set


_T1_4 = 1.0 / 164e-6
RICH_DOCUMENT = {
    "backend": "full",
    "conventions": {"rabi_convention": "cyclic", "rate_convention": "angular"},
    "material": {"lifetime_5_s": 82e-6, "dephasing_25_hz": 7e3,
                 "dephasing_41_hz": 50.0,
                 "branching_41_per_s": _T1_4 / 2,
                 "branching_42_per_s": _T1_4 / 4,
                 "branching_43_per_s": _T1_4 / 4},
    "drives": {"probe_rabi_hz": 200.0, "coupling_rabi_rad_s": 2e6,
               "coupling_detuning_hz": 1e3, "aux_detuning_hz": -1e4},
    "grid": {"delta_min_hz": -1e6, "points_count": 11.0},
    "evolve": {"t_end_s": 1e-3, "samples_count": 5,
               "initial_state": "level_2"},
    "validate": {"max_dev_rel": 0.05},
}
RICH_RESOLVED = {
    "backend": "full",
    "conventions": {"rate_convention": "angular",
                    "rabi_convention": "cyclic"},
    "material": {
        "number_density_per_m3": 4.7e+24,
        "probe_dipole_c_m": 1e-33,
        "probe_wavelength_m": 6.057e-07,
        "lifetime_1_s": 400.0,
        "lifetime_2_s": 400.0,
        "lifetime_3_s": 400.0,
        "lifetime_4_s": 0.000164,
        "lifetime_5_s": 8.2e-05,
        "lifetime_6_s": 0.000164,
        "dephasing_32_hz": 2000.0,
        "dephasing_52_hz": 7000.0,
        "dephasing_53_hz": 9000.0,
        "dephasing_41_hz": 50.0,
        "branching_41_per_s": 3048.780487804878,
        "branching_42_per_s": 1524.390243902439,
        "branching_43_per_s": 1524.390243902439,
    },
    "drives": {
        "probe_rabi_rad_s": 1256.6370614359173,
        "coupling_rabi_rad_s": 2000000.0,
        "aux_rabi_rad_s": 1500000.0,
        "probe_detuning_rad_s": 0.0,
        "coupling_detuning_rad_s": 6283.185307179586,
        "aux_detuning_rad_s": -62831.853071795864,
    },
    "grid": {"delta_min_rad_s": -6283185.307179586,
             "delta_max_rad_s": 20000000.0, "points_count": 11},
    "evolve": {"t_end_s": 0.001, "samples_count": 5,
               "initial_state": "level_2"},
    "validate": {"max_dev_rel": 0.05, "fault_gamma52_factor": 1.0},
}


class TestPinnedEcho:
    def test_rich_document_resolves_to_the_pinned_literal(self):
        canonical = resolve(RICH_DOCUMENT).canonical
        assert json.dumps(canonical) == json.dumps(RICH_RESOLVED)

    def test_pinned_literal_replays_to_itself(self):
        run = resolve(RICH_RESOLVED)
        assert json.dumps(run.canonical) == json.dumps(RICH_RESOLVED)
        assert run.material.levels.dephasing[1][4] == 7000.0
        assert run.material.levels.dephasing[3][0] == 50.0


class TestRejection:
    def test_unknown_section(self):
        with pytest.raises(ConfigError) as err:
            resolve_with("fields.probe_rabi_rad_s=1.0")
        assert "fields" in str(err.value)

    def test_dotted_top_level_key_is_not_a_path(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve({"drives.probe_rabi_rad_s": 1.0})

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

    @pytest.mark.parametrize("assignment", [
        "drives.probe_rabi_rad_s=1" + "0" * 400,
        "drives.probe_rabi_rad_s=-1" + "0" * 400,
        "grid.points_count=1" + "0" * 400,
    ])
    def test_integer_past_the_float_range_rejected(self, assignment):
        # JSON integers are unbounded; one no float can hold is no finite
        # number, not an OverflowError
        path = assignment.split("=")[0]
        with pytest.raises(ConfigError, match=rf"'{path}' must be finite"):
            resolve_with(assignment)

    def test_largest_float_integer_accepted(self):
        big = int(np.finfo(float).max)
        run = resolve_with(f"drives.probe_detuning_rad_s={big}")
        assert run.drives.probe_detuning == float(big)

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
            resolve_with("evolve.samples_count=1")
        with pytest.raises(ConfigError):
            resolve_with("validate.max_dev_rel=0.0")
        with pytest.raises(ConfigError):
            resolve_with("drives.probe_rabi_rad_s=-1.0")
        with pytest.raises(ConfigError):
            resolve_with("grid.points_count=1")
        with pytest.raises(ConfigError):
            resolve_with("grid.delta_min_rad_s=1.0", "grid.delta_max_rad_s=0.0")


# Each retired key, spelling and section, and --jobs below 1: what the
# error names -> the arguments that set it.
RETIRED_ARGV = {
    "jobs_count": ["--set", "jobs_count=2"],
    "solver.tol_rel": ["--set", "solver.tol_rel=1e-7"],
    "solver.max_steps_count": ["--set", "solver.max_steps_count=10"],
    "vg.fd_step_rad_s": ["--set", "vg.fd_step_rad_s=100.0"],
    "vg.fd_step_hz": ["--set", "vg.fd_step_hz=10.0"],
    "vg": ["--set", "vg={}"],
    "--jobs": ["--jobs", "0"],
}


class TestLegacyKeys:
    def test_fd_step_not_filled_in_by_default(self):
        # nor any other retired key or section
        for doc in (default_document(), resolve({}).canonical):
            assert not set(RETIRED) & set(doc)

    @pytest.mark.parametrize("named", RETIRED_ARGV)
    def test_retired_key_exits_2_naming_it(self, named, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["params", "--out", str(out), *RETIRED_ARGV[named]]) \
            == EXIT_CONFIG
        assert f"'{named}'" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_jobs_do_not_change_results(self, tmp_path):
        plain, jobs = tmp_path / "plain", tmp_path / "jobs"
        assert main(["spectrum", "--out", str(plain)]) == 0
        assert main(["spectrum", "--out", str(jobs), "--jobs", "2"]) == 0
        assert output_digests(str(plain)) == output_digests(str(jobs))


class TestMaterialOverrides:
    def test_lifetime_override_regenerates_branching(self):
        run = resolve_with("material.lifetime_5_s=82e-6")
        per = (1.0 / 82e-6) / 4.0
        np.testing.assert_allclose(run.material.levels.branching[4][:4], per,
                                   rtol=1e-15)
        # coherence rate follows the faster decay
        expected = math.pi * (1.0 / 82e-6 + 1.0 / 400.0 + 9e3)
        assert run.material.gamma[4][1] == pytest.approx(expected, rel=1e-15)

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
        assert b[4][0] == 2 * per
        assert b[4][1] == per
        assert b[4][2] == per / 2
        assert b[4][3] == per / 2
        # total decay rate is unchanged, so coherence rates are too
        assert run.material.gamma[4][1] == pryso_defaults().gamma[4][1]

    def test_rate_convention_changes_gamma(self):
        angular = resolve_with("conventions.rate_convention=angular")
        expected = 0.5 * (1.0 / 164e-6 + 1.0 / 400.0 + TWO_PI * 9e3)
        assert angular.material.gamma[4][1] == pytest.approx(expected,
                                                             rel=1e-15)
        assert angular.material.rate_convention == "angular"


class TestCanonicalEcho:
    def test_round_trip_is_identical(self):
        run = resolve_with("drives.probe_detuning_hz=250.0",
                           "conventions.rabi_convention=cyclic",
                           "drives.probe_rabi_hz=200.0",
                           "material.lifetime_5_s=82e-6",
                           "backend=full",
                           "grid.points_count=11")
        first = json.dumps(run.canonical, sort_keys=True)
        again = resolve(run.canonical)
        assert json.dumps(again.canonical, sort_keys=True) == first

    def test_canonical_keys_use_internal_units(self):
        run = resolve_with("drives.probe_rabi_hz=200.0")
        assert "probe_rabi_hz" not in run.canonical["drives"]
        assert run.canonical["drives"]["probe_rabi_rad_s"] == 200.0

    def test_user_set_records_canonical_paths(self):
        run = resolve_with("drives.probe_detuning_hz=250.0",
                           "evolve.samples_count=5", "backend=full")
        assert "drives.probe_detuning_rad_s" in run.user_set
        assert "evolve.samples_count" in run.user_set
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
        rho = initial_state(resolve(default_document()).evolve_initial)
        np.testing.assert_array_equal(rho, np.eye(6) / 6.0)

    def test_level(self):
        rho = initial_state(
            resolve_with("evolve.initial_state=level_3").evolve_initial)
        assert rho[2, 2].real == 1.0
        assert np.trace(rho) == 1.0
