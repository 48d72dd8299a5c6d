"""Configuration document resolution: one spelling per key, conventions,
overrides, and the canonical echo."""

import json
import math

import numpy as np
import pytest

from eitsim.cli import EXIT_CONFIG, main
from eitsim.config import (CHOICES, MAX_EVOLVE_SAMPLES, MAX_GRID_POINTS,
                           NUMERIC_KEYS, apply_overrides, default_document,
                           load_document, pryso_defaults, resolve)
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
        assert built.coupling_strength == resolved.coupling_strength

    def test_empty_document_equals_defaults(self):
        bare = resolve({})
        full = resolve(default_document())
        assert json.dumps(bare.canonical, sort_keys=True) == \
            json.dumps(full.canonical, sort_keys=True)
        assert bare.user_set == frozenset()


class TestUnitSuffixes:
    def test_rad_s_passes_through(self):
        run = resolve_with("drives.coupling_detuning_rad_s=-7e5")
        assert run.drives.coupling_detuning == -7e5

    @pytest.mark.parametrize("assignment", [
        "drives.probe_rabi_hz=1e3", "drives.coupling_rabi_hz=1.5e6",
        "drives.aux_rabi_hz=1.5e6", "conventions.rabi_convention=angular",
        "conventions.rabi_convention=cyclic",
    ])
    def test_rabi_frequency_takes_rad_s_only(self, assignment, tmp_path,
                                             capsys):
        # never reinterpreted: a document that used the retired spelling or
        # switch is refused by name instead of running at another strength
        key = assignment.split("=")[0]
        out = tmp_path / "out"
        assert main(["params", "--out", str(out), "--set", assignment]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err \
            == f"config error: unknown config key '{key}'\n"
        assert list(out.iterdir()) == []

    def test_dephasing_stays_in_hz(self):
        run = resolve_with("material.dephasing_32_hz=4e3")
        assert run.canonical["material"]["dephasing_32_hz"] == 4e3
        assert run.material.dephasing[2][1] == 4e3

    def test_missing_suffix_is_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            resolve_with("drives.probe_rabi=1.0")
        assert "drives.probe_rabi" in str(err.value)

    def test_wrong_suffix_for_kind_is_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            resolve_with("evolve.t_end_rad_s=1.0")
        assert "evolve.t_end_rad_s" in str(err.value)


# The accepted numeric keys, written out family by family.  Each quantity
# has one spelling, in the unit its suffix names.
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
EXPECTED_KEYS = (*_AS_IS,
                 *(f"{base}_rad_s" for base in _ANGULAR + _RABI))
# Spellings older documents may hold: the `_hz` forms of the detunings and
# grid bounds, the dephasing pairs written lower level first, and a key of
# each retired entry (a thread count, the integrator's settings and the
# group velocity's finite-difference step).
FORMER_ALIASES = (
    *(f"{base}_hz" for base in _ANGULAR),
    *(f"material.dephasing_{j}{i}_hz" for i in _LEVEL_NUMBERS
      for j in range(1, i)),
)
RETIRED_KEYS = ("jobs_count", "solver.tol_rel", "vg.fd_step_hz")


def _spelling_document(spelling, value, convention):
    """A valid document that sets `spelling` to `value` under the rate
    convention."""
    doc = {"conventions": {"rate_convention": convention}}
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
        assert len(NUMERIC_KEYS) == len(EXPECTED_KEYS) == 67
        assert set(NUMERIC_KEYS) == set(EXPECTED_KEYS)

    # the rate convention moves no stored value
    @pytest.mark.parametrize("convention", ["angular", "cyclic"])
    def test_every_spelling_resolves_to_its_canonical_key(self, convention):
        for spelling in EXPECTED_KEYS:
            if spelling.endswith("_count"):
                value, expected_type = 7, int
            else:
                value, expected_type = 1000.0, float
            doc, value = _spelling_document(spelling, value, convention)
            run = resolve(doc)
            section, _, key = spelling.rpartition(".")
            node = run.canonical[section] if section else run.canonical
            assert node[key] == value, spelling
            assert type(node[key]) is expected_type, spelling
            assert spelling in run.user_set, spelling

    @pytest.mark.parametrize("convention", ["angular", "cyclic"])
    def test_every_choice_resolves(self, convention):
        assert set(CHOICES) == {"backend", "conventions.rate_convention",
                                "evolve.initial_state"}
        for path, allowed in CHOICES.items():
            for value in allowed:
                doc = apply_overrides(
                    {}, [f"conventions.rate_convention={convention}",
                         f"{path}={value}"])
                run = resolve(doc)
                section, _, key = path.rpartition(".")
                node = run.canonical[section] if section else run.canonical
                assert node[key] == value
                assert path in run.user_set


_T1_4 = 1.0 / 164e-6
RICH_DOCUMENT = {
    "backend": "full",
    "conventions": {"rate_convention": "angular"},
    "material": {"lifetime_5_s": 82e-6, "dephasing_52_hz": 7e3,
                 "dephasing_41_hz": 50.0,
                 "branching_41_per_s": _T1_4 / 2,
                 "branching_42_per_s": _T1_4 / 4,
                 "branching_43_per_s": _T1_4 / 4},
    "drives": {"probe_rabi_rad_s": 1256.6370614359173,
               "coupling_rabi_rad_s": 2e6,
               "coupling_detuning_rad_s": 6283.185307179586,
               "aux_detuning_rad_s": -62831.853071795864},
    "grid": {"delta_min_rad_s": -6283185.307179586, "points_count": 11.0},
    "evolve": {"t_end_s": 1e-3, "samples_count": 5,
               "initial_state": "level_2"},
    "validate": {"max_dev_rel": 0.05},
}
RICH_RESOLVED = {
    "backend": "full",
    "conventions": {"rate_convention": "angular"},
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


class TestOneSpellingPerKey:
    @pytest.mark.parametrize("key", EXPECTED_KEYS)
    def test_key_resolves_to_itself_alone(self, key):
        section, _, name = key.rpartition(".")
        if name.startswith("branching_"):
            # set alone, an entry keeps its row's sum only at its default
            upper, lower = map(int, name.split("_")[1])
            value = pryso_defaults().branching[upper - 1][lower - 1]
        else:
            value = 7 if key.endswith("_count") else 1000.0
        run = resolve({section: {name: value}})
        assert run.canonical[section][name] == value
        assert run.user_set == {key}

    @pytest.mark.parametrize("way", ["set", "config"])
    @pytest.mark.parametrize("key", FORMER_ALIASES + RETIRED_KEYS)
    def test_former_spelling_is_an_unknown_key(self, key, way, tmp_path,
                                               capsys):
        # never converted: the document exits 2 naming what it gave, a
        # key inside a retired section by that section
        if way == "set":
            source = ["--set", f"{key}=1.0"]
        else:
            config = tmp_path / "doc.json"
            config.write_text(json.dumps(apply_overrides({}, [f"{key}=1.0"])),
                              encoding="utf-8")
            source = ["--config", str(config)]
        named = key if key in FORMER_ALIASES else key.partition(".")[0]
        out = tmp_path / "out"
        assert main(["params", "--out", str(out), *source]) == EXIT_CONFIG
        assert capsys.readouterr().err \
            == f"config error: unknown config key '{named}'\n"
        assert list(out.iterdir()) == []


class TestPinnedEcho:
    def test_rich_document_resolves_to_the_pinned_literal(self):
        canonical = resolve(RICH_DOCUMENT).canonical
        assert json.dumps(canonical) == json.dumps(RICH_RESOLVED)

    def test_pinned_literal_replays_to_itself(self):
        run = resolve(RICH_RESOLVED)
        assert json.dumps(run.canonical) == json.dumps(RICH_RESOLVED)
        assert run.material.dephasing[1][4] == 7000.0
        assert run.material.dephasing[3][0] == 50.0


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

    @pytest.mark.parametrize("key, bound, message", [
        ("grid.points_count", MAX_GRID_POINTS, "grid allows at most"),
        ("evolve.samples_count", MAX_EVOLVE_SAMPLES,
         "'evolve.samples_count' must be <="),
    ])
    def test_count_bounded_above(self, key, bound, message):
        resolve_with(f"{key}={bound}")
        with pytest.raises(ConfigError, match=message):
            resolve_with(f"{key}={bound + 1}")

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


# Each retired key and section, and --jobs below 1: what was set -> the
# arguments that set it.  A key inside a section is named by its section.
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
            assert not {"jobs_count", "solver", "vg"} & set(doc)

    @pytest.mark.parametrize("named", RETIRED_ARGV)
    def test_retired_key_exits_2_naming_it(self, named, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["params", "--out", str(out), *RETIRED_ARGV[named]]) \
            == EXIT_CONFIG
        assert f"'{named.partition('.')[0]}'" in capsys.readouterr().err
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
        np.testing.assert_allclose(run.material.branching[4][:4], per,
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
        b = run.material.branching
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
        run = resolve_with("drives.probe_detuning_rad_s=1570.7963267948965",
                           "conventions.rate_convention=angular",
                           "drives.coupling_detuning_rad_s=1256.6370614359173",
                           "material.lifetime_5_s=82e-6",
                           "backend=full",
                           "grid.points_count=11")
        first = json.dumps(run.canonical, sort_keys=True)
        again = resolve(run.canonical)
        assert json.dumps(again.canonical, sort_keys=True) == first

    def test_canonical_keys_use_internal_units(self):
        run = resolve_with("drives.coupling_detuning_rad_s=1256.6370614359173")
        for section, node in run.canonical.items():
            paths = ([f"{section}.{key}" for key in node]
                     if isinstance(node, dict) else [section])
            assert set(paths) <= set(CHOICES) | set(NUMERIC_KEYS)
        assert run.canonical["drives"]["coupling_detuning_rad_s"] \
            == 1256.6370614359173

    def test_user_set_records_canonical_paths(self):
        run = resolve_with("drives.probe_detuning_rad_s=1570.7963267948965",
                           "evolve.samples_count=5", "backend=full")
        assert run.user_set == {"drives.probe_detuning_rad_s",
                                "evolve.samples_count", "backend"}


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
