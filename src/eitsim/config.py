"""Run configuration: a JSON document plus `--set path=value` overrides.

Every numeric key carries an explicit unit suffix; the recognized suffixes
per quantity kind are listed in KIND_SUFFIXES.  Values are converted to the
internal rad/s-based units exactly once, here.  Two convention switches
control the conversion arithmetic:

  conventions.rate_convention  cyclic | angular   (coherence-decay rule)
  conventions.rabi_convention  angular | cyclic   (how *_rabi_hz is read:
        angular takes the number as rad/s as-is, cyclic multiplies by 2*pi)

The resolved state is echoed as a canonical document (all rad/s keys) that
re-parses to the identical run, which is what run summaries embed.
"""

import copy
import json
import math
import re
from dataclasses import dataclass
from typing import FrozenSet

import numpy as np

from .constants import TWO_PI
from .errors import ConfigError
from .materials import (DEFAULT_DEPHASING_HZ, EXCITED_LIFETIME_S,
                        GROUND_LIFETIME_S, N_LEVELS, NUMBER_DENSITY_PER_M3,
                        PROBE_DIPOLE_C_M, PROBE_WAVELENGTH_M, LevelSystem,
                        MaterialParams, derive_gamma, equal_branching)
from .optics import DriveSet, GridSpec
from .states import DensityMatrix, basis_state, mixed_state

KIND_SUFFIXES = {
    "angular": {"_rad_s": "identity", "_hz": "two_pi"},
    "rabi": {"_rad_s": "identity", "_hz": "rabi"},
    "dephasing": {"_hz": "identity"},
    "time": {"_s": "identity"},
    "length": {"_m": "identity"},
    "density": {"_per_m3": "identity"},
    "dipole": {"_c_m": "identity"},
    "rate": {"_per_s": "identity"},
    "count": {"_count": "count"},
    "rel": {"_rel": "identity"},
    "factor": {"_factor": "identity"},
}
CANONICAL_SUFFIX = {
    "angular": "_rad_s", "rabi": "_rad_s", "dephasing": "_hz", "time": "_s",
    "length": "_m", "density": "_per_m3", "dipole": "_c_m", "rate": "_per_s",
    "count": "_count", "rel": "_rel", "factor": "_factor",
}

# base name -> kind, per section; material's indexed families are handled
# by _MATERIAL_PATTERNS.
SECTION_NUMERIC = {
    "material": {
        "number_density": "density",
        "probe_dipole": "dipole",
        "probe_wavelength": "length",
    },
    "drives": {
        "probe_rabi": "rabi",
        "coupling_rabi": "rabi",
        "aux_rabi": "rabi",
        "probe_detuning": "angular",
        "coupling_detuning": "angular",
        "aux_detuning": "angular",
    },
    "grid": {
        "delta_min": "angular",
        "delta_max": "angular",
        "points": "count",
    },
    "evolve": {
        "t_end": "time",
        "samples": "count",
    },
    "solver": {
        "tol": "rel",
        "max_steps": "count",
    },
    "vg": {
        "fd_step": "angular",
    },
    "validate": {
        "max_dev": "rel",
        "fault_gamma52": "factor",
    },
}
SECTION_CHOICES = {
    "conventions": {
        "rate_convention": ("cyclic", "angular"),
        "rabi_convention": ("angular", "cyclic"),
    },
    "evolve": {
        "initial_state": ("mixed", "level_1", "level_2", "level_3",
                          "level_4", "level_5", "level_6"),
    },
}
_MATERIAL_PATTERNS = (
    (re.compile(r"lifetime_([1-6])"), "time"),
    (re.compile(r"dephasing_([1-6])([1-6])"), "dephasing"),
    (re.compile(r"branching_([1-6])([1-6])"), "rate"),
)
TOP_LEVEL_CHOICES = {"backend": ("analytic", "full")}

# Legacy keys: parsed, range-checked (when present) and echoed into
# `canonical` so that older configurations and summaries replay byte for
# byte, but read by nothing.  path -> (minimum, maximum).
LEGACY_KEYS = {
    "jobs_count": (1, math.inf),
    "solver.tol_rel": (1e-12, 1e-3),
    "solver.max_steps_count": (-math.inf, math.inf),
    "vg.fd_step_rad_s": (math.ulp(0.0), math.inf),  # > 0
}


def default_document() -> dict:
    return {
        "backend": "analytic",
        "jobs_count": 1,
        "conventions": {
            "rate_convention": "cyclic",
            "rabi_convention": "angular",
        },
        "material": {
            "number_density_per_m3": NUMBER_DENSITY_PER_M3,
            "probe_dipole_c_m": PROBE_DIPOLE_C_M,
            "probe_wavelength_m": PROBE_WAVELENGTH_M,
            "lifetime_1_s": GROUND_LIFETIME_S,
            "lifetime_2_s": GROUND_LIFETIME_S,
            "lifetime_3_s": GROUND_LIFETIME_S,
            "lifetime_4_s": EXCITED_LIFETIME_S,
            "lifetime_5_s": EXCITED_LIFETIME_S,
            "lifetime_6_s": EXCITED_LIFETIME_S,
            "dephasing_32_hz": DEFAULT_DEPHASING_HZ[(3, 2)],
            "dephasing_52_hz": DEFAULT_DEPHASING_HZ[(5, 2)],
            "dephasing_53_hz": DEFAULT_DEPHASING_HZ[(5, 3)],
        },
        "drives": {
            "probe_rabi_rad_s": 1.5e3,
            "coupling_rabi_rad_s": 1.5e6,
            "aux_rabi_rad_s": 1.5e6,
            "probe_detuning_rad_s": 0.0,
            "coupling_detuning_rad_s": 0.0,
            "aux_detuning_rad_s": 0.0,
        },
        "grid": {
            "delta_min_rad_s": -2e7,
            "delta_max_rad_s": 2e7,
            "points_count": 201,
        },
        "evolve": {
            "t_end_s": 10e-3,
            "samples_count": 201,
            "initial_state": "mixed",
        },
        "solver": {
            "tol_rel": 1e-9,
            "max_steps_count": 20_000_000,
        },
        "vg": {},  # holds the legacy fd_step_rad_s when one is given
        "validate": {
            "max_dev_rel": 0.02,
            "fault_gamma52_factor": 1.0,
        },
    }


@dataclass(frozen=True)
class ResolvedRun:
    """Fully resolved run inputs in internal units."""

    canonical: dict
    user_set: FrozenSet[str]
    material: MaterialParams
    drives: DriveSet
    grid: GridSpec
    backend: str
    evolve_t_end: float
    evolve_samples: int
    evolve_initial: str
    validate_max_dev: float
    validate_fault_factor: float

    def initial_state(self) -> DensityMatrix:
        if self.evolve_initial == "mixed":
            return mixed_state(N_LEVELS)
        return basis_state(N_LEVELS, int(self.evolve_initial.split("_")[1]))


def load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply `path=value` strings (last writer wins); values parse as JSON,
    with bare words falling back to strings."""
    doc = copy.deepcopy(doc)
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        path = path.strip()
        if not path:
            raise ConfigError(f"override {item!r} has an empty path")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw.strip()
        node = doc
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(
                    f"override path {path!r} descends into a non-object"
                )
        node[parts[-1]] = value
    return doc


def _split_numeric_key(section: str, key: str):
    """Return (base, kind, conversion) or None if the key is not a numeric
    key of this section."""
    table = SECTION_NUMERIC.get(section, {})
    for base, kind in table.items():
        for suffix, conversion in KIND_SUFFIXES[kind].items():
            if key == base + suffix:
                return base, kind, conversion
    if section == "material":
        for pattern, kind in _MATERIAL_PATTERNS:
            for suffix, conversion in KIND_SUFFIXES[kind].items():
                if key.endswith(suffix):
                    match = pattern.fullmatch(key[: -len(suffix)])
                    if match:
                        if len(match.groups()) == 2 and \
                                match.group(1) == match.group(2):
                            raise ConfigError(
                                f"config key 'material.{key}' pairs a level "
                                "with itself"
                            )
                        return key[: -len(suffix)], kind, conversion
    return None


def _check_number(path: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key '{path}' must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"config key '{path}' must be finite")


def _resolve_section(section: str, content, collected: list):
    if not isinstance(content, dict):
        raise ConfigError(f"config section '{section}' must be an object")
    seen_bases = {}
    for key, value in content.items():
        path = f"{section}.{key}"
        choices = SECTION_CHOICES.get(section, {})
        if key in choices:
            if value not in choices[key]:
                raise ConfigError(
                    f"config key '{path}' must be one of {choices[key]}, "
                    f"got {value!r}"
                )
            collected.append((section, key, "choice", None, value, path))
            continue
        split = _split_numeric_key(section, key)
        if split is None:
            raise ConfigError(f"unknown config key '{path}'")
        base, kind, conversion = split
        if base in seen_bases:
            raise ConfigError(
                f"config keys '{section}.{seen_bases[base]}' and '{path}' "
                "set the same quantity in different units"
            )
        seen_bases[base] = key
        _check_number(path, value)
        collected.append((section, base, kind, conversion, value, path))


def _convert(kind: str, conversion: str, value, rabi_convention: str, path: str):
    if conversion == "identity":
        return float(value)
    if conversion == "two_pi":
        return TWO_PI * float(value)
    if conversion == "rabi":
        if rabi_convention == "cyclic":
            return TWO_PI * float(value)
        return float(value)
    if conversion == "count":
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"config key '{path}' must be an integer")
        return int(value)
    raise ConfigError(f"internal: unknown conversion {conversion!r}")


def resolve(doc: dict) -> ResolvedRun:
    """Validate a raw document and produce the resolved run inputs."""
    collected = []
    for key, value in doc.items():
        if key in TOP_LEVEL_CHOICES:
            if value not in TOP_LEVEL_CHOICES[key]:
                raise ConfigError(
                    f"config key '{key}' must be one of "
                    f"{TOP_LEVEL_CHOICES[key]}, got {value!r}"
                )
            collected.append((None, key, "choice", None, value, key))
        elif key == "jobs_count":
            _check_number(key, value)
            collected.append((None, "jobs", "count", "count", value, key))
        elif key in SECTION_NUMERIC or key in SECTION_CHOICES or key == "conventions":
            _resolve_section(key, value, collected)
        else:
            raise ConfigError(f"unknown config key '{key}'")

    # Conventions must be fixed before any rabi key converts.
    rate_convention = "cyclic"
    rabi_convention = "angular"
    for section, base, kind, _, value, _ in collected:
        if section == "conventions" and base == "rate_convention":
            rate_convention = value
        if section == "conventions" and base == "rabi_convention":
            rabi_convention = value

    canonical = default_document()
    user_set = set()
    for section, base, kind, conversion, value, path in collected:
        if kind == "choice":
            resolved = value
            canon_key = base
        else:
            resolved = _convert(kind, conversion, value, rabi_convention, path)
            canon_key = base + CANONICAL_SUFFIX[kind]
        if section is None:
            canonical[canon_key] = resolved
            user_set.add(canon_key)
        else:
            canonical[section][canon_key] = resolved
            user_set.add(f"{section}.{canon_key}")

    mat = _build_material(canonical["material"], rate_convention)
    d = canonical["drives"]
    for name in ("probe_rabi_rad_s", "coupling_rabi_rad_s", "aux_rabi_rad_s"):
        if d[name] < 0:
            raise ConfigError(f"config key 'drives.{name}' must be >= 0")
    drives = DriveSet(
        probe_rabi=d["probe_rabi_rad_s"],
        coupling_rabi=d["coupling_rabi_rad_s"],
        aux_rabi=d["aux_rabi_rad_s"],
        probe_detuning=d["probe_detuning_rad_s"],
        coupling_detuning=d["coupling_detuning_rad_s"],
        aux_detuning=d["aux_detuning_rad_s"],
    )
    g = canonical["grid"]
    grid = GridSpec(g["delta_min_rad_s"], g["delta_max_rad_s"],
                    g["points_count"])
    for path, (low, high) in LEGACY_KEYS.items():
        section, _, key = path.rpartition(".")
        node = canonical[section] if section else canonical
        if key in node and not low <= node[key] <= high:
            raise ConfigError(
                f"config key '{path}' must lie in [{low:g}, {high:g}]")
    if canonical["evolve"]["samples_count"] < 2:
        raise ConfigError("config key 'evolve.samples_count' must be >= 2")
    if canonical["validate"]["max_dev_rel"] <= 0:
        raise ConfigError("config key 'validate.max_dev_rel' must be > 0")

    return ResolvedRun(
        canonical=canonical,
        user_set=frozenset(user_set),
        material=mat,
        drives=drives,
        grid=grid,
        backend=canonical["backend"],
        evolve_t_end=canonical["evolve"]["t_end_s"],
        evolve_samples=canonical["evolve"]["samples_count"],
        evolve_initial=canonical["evolve"]["initial_state"],
        validate_max_dev=canonical["validate"]["max_dev_rel"],
        validate_fault_factor=canonical["validate"]["fault_gamma52_factor"],
    )


def _build_material(m: dict, rate_convention: str) -> MaterialParams:
    lifetimes = np.array([m[f"lifetime_{i}_s"] for i in range(1, N_LEVELS + 1)])
    dephasing = np.zeros((N_LEVELS, N_LEVELS))
    branching_overrides = {}
    for key, value in m.items():
        match = re.fullmatch(r"dephasing_([1-6])([1-6])_hz", key)
        if match:
            i, j = int(match.group(1)) - 1, int(match.group(2)) - 1
            dephasing[i, j] = value
            dephasing[j, i] = value
            continue
        match = re.fullmatch(r"branching_([1-6])([1-6])_per_s", key)
        if match:
            branching_overrides[(int(match.group(1)) - 1,
                                 int(match.group(2)) - 1)] = value

    branching = equal_branching(lifetimes)
    for (i, j), value in branching_overrides.items():
        branching[i, j] = value
    levels = LevelSystem(N_LEVELS, lifetimes, branching, dephasing)
    return MaterialParams(
        levels=levels,
        gamma=derive_gamma(levels, rate_convention),
        number_density=m["number_density_per_m3"],
        probe_dipole=m["probe_dipole_c_m"],
        probe_wavelength=m["probe_wavelength_m"],
        rate_convention=rate_convention,
    )
