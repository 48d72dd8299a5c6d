"""Run configuration: a JSON document plus `--set path=value` overrides.

Every key has one spelling, in the internal unit its suffix names (rad/s,
Hz for dephasing, SI otherwise), listed in CHOICES and NUMERIC_KEYS; any
other key is refused by name.  A symmetric dephasing pair is spelled upper
level first.  The one convention switch, conventions.rate_convention
(cyclic | angular), chooses the coherence-decay rule the material is built
with.

The resolved state is echoed as a canonical document that re-parses to the
identical run, which is what run summaries embed.

This module, like `materials` below it, runs on the standard library alone:
`eitsim params` and every configuration error need no numpy.
"""

import copy
import json
import math
import sys
from collections import namedtuple

from .errors import ConfigError
from .materials import (N_LEVELS, RATE_CONVENTIONS, MaterialParams,
                        derive_gamma, equal_branching)

_LEVELS = range(1, N_LEVELS + 1)

# Keys whose value is one of a fixed set of words.
CHOICES = {
    "backend": ("analytic", "full"),
    "conventions.rate_convention": RATE_CONVENTIONS,
    "evolve.initial_state": ("mixed",) + tuple(f"level_{i}" for i in _LEVELS),
}
# Every numeric key, spelled in the internal units it is stored in.  The
# symmetric dephasing pairs are spelled upper level first.
NUMERIC_KEYS = (
    "material.number_density_per_m3", "material.probe_dipole_c_m",
    "material.probe_wavelength_m",
    *(f"material.lifetime_{i}_s" for i in _LEVELS),
    *(f"material.dephasing_{i}{j}_hz" for i in _LEVELS for j in _LEVELS
      if i > j),
    *(f"material.branching_{i}{j}_per_s" for i in _LEVELS for j in _LEVELS
      if i != j),
    *(f"drives.{field}_{kind}_rad_s" for kind in ("rabi", "detuning")
      for field in ("probe", "coupling", "aux")),
    "grid.delta_min_rad_s", "grid.delta_max_rad_s", "grid.points_count",
    "evolve.t_end_s", "evolve.samples_count",
    "validate.max_dev_rel", "validate.fault_gamma52_factor",
)
SECTIONS = frozenset(key.partition(".")[0] for key in (*CHOICES, *NUMERIC_KEYS)
                     if "." in key)
# Upper bounds on the two counts: a larger count is refused before anything
# is allocated for it.
MAX_GRID_POINTS = 1_000_000
MAX_EVOLVE_SAMPLES = 100_000


def default_document() -> dict:
    return {
        "backend": "analytic",
        "conventions": {"rate_convention": "cyclic"},
        "material": {
            "number_density_per_m3": 4.7e24,
            "probe_dipole_c_m": 1e-33,
            # Not part of the rate data set: sourced from standard tables
            # for this crystal.
            "probe_wavelength_m": 605.7e-9,
            "lifetime_1_s": 400.0,
            "lifetime_2_s": 400.0,
            "lifetime_3_s": 400.0,
            "lifetime_4_s": 164e-6,
            "lifetime_5_s": 164e-6,
            "lifetime_6_s": 164e-6,
            "dephasing_32_hz": 2e3,
            "dephasing_52_hz": 9e3,
            "dephasing_53_hz": 9e3,
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
        "validate": {
            "max_dev_rel": 0.02,
            "fault_gamma52_factor": 1.0,
        },
    }


class GridSpec(namedtuple("GridSpec", "delta_min delta_max points")):
    """Uniform detuning grid in rad/s (optics.grid_values lays it out)."""

    __slots__ = ()

    def __new__(cls, delta_min, delta_max, points):
        # The span too: numpy lays the grid out in steps of it.
        if not math.isfinite(delta_max - delta_min):
            raise ConfigError("grid bounds and their span must be finite")
        if delta_max <= delta_min:
            raise ConfigError("grid needs delta_max > delta_min")
        if points < 2:
            raise ConfigError("grid needs at least 2 points")
        if points > MAX_GRID_POINTS:
            raise ConfigError(
                f"grid allows at most {MAX_GRID_POINTS} points")
        return super().__new__(cls, delta_min, delta_max, points)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would otherwise skip the
        # checks in __new__.
        return cls(*iterable)


class DriveSet(namedtuple("DriveSet",
                          "probe_rabi coupling_rabi aux_rabi probe_detuning "
                          "coupling_detuning aux_detuning",
                          defaults=(0.0, 0.0, 0.0))):
    """Rabi frequencies (rad/s) and detunings (omega_atom - omega_field,
    rad/s) of the six-level model's three fields: probe 5-2, coupling 5-3
    and auxiliary repump 6-1 (bloch.build_hamiltonian places them).

    The probe detuning stored here is the sweep's reference point; sweeps
    override it per grid point.  A zero-magnitude field still sets its
    level's rotating-frame phase.
    """

    __slots__ = ()


ResolvedRun = namedtuple("ResolvedRun", (
    "canonical", "user_set", "material", "drives", "grid", "backend",
    "evolve_t_end", "evolve_samples", "evolve_initial", "validate_max_dev",
    "validate_fault_factor"))
ResolvedRun.__doc__ = "Fully resolved run inputs in internal units."


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


def _check_number(path: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key '{path}' must be a number")
    # An integer past the float range is no finite number either.
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config key '{path}' must be finite")


def _entries(doc: dict):
    """Yield (path, value) for every key, one section deep."""
    for key, value in doc.items():
        if key in SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config section '{key}' must be an object")
            for inner, item in value.items():
                yield f"{key}.{inner}", item
        elif isinstance(key, str) and "." in key:
            raise ConfigError(f"unknown config key '{key}'")
        else:
            yield key, value


def resolve(doc: dict) -> ResolvedRun:
    """Validate a raw document and produce the resolved run inputs."""
    canonical = default_document()
    user_set = set()
    for path, value in _entries(doc):
        if path in CHOICES:
            if value not in CHOICES[path]:
                raise ConfigError(
                    f"config key '{path}' must be one of {CHOICES[path]}, "
                    f"got {value!r}"
                )
        elif path not in NUMERIC_KEYS:
            raise ConfigError(f"unknown config key '{path}'")
        else:
            _check_number(path, value)
            if path.endswith("_count"):
                if isinstance(value, float) and not value.is_integer():
                    raise ConfigError(
                        f"config key '{path}' must be an integer")
                value = int(value)
            else:
                value = float(value)
        user_set.add(path)
        section, _, key = path.rpartition(".")
        (canonical[section] if section else canonical)[key] = value

    mat = pryso_defaults(canonical["conventions"]["rate_convention"],
                         material=canonical["material"])
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
    if canonical["evolve"]["samples_count"] < 2:
        raise ConfigError("config key 'evolve.samples_count' must be >= 2")
    if canonical["evolve"]["samples_count"] > MAX_EVOLVE_SAMPLES:
        raise ConfigError("config key 'evolve.samples_count' must be <= "
                          f"{MAX_EVOLVE_SAMPLES}")
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


def pryso_defaults(rate_convention: str = "cyclic",
                   material: dict = None) -> MaterialParams:
    """The six-level Pr3+:Y2SiO5 material of a canonical `material`
    section, default_document()'s when material is None; resolve builds
    every run's material here.  Each level's 1/T1 splits equally over all
    lower levels, then the section's `branching_ij_per_s` entries apply.
    """
    m = default_document()["material"] if material is None else material
    lifetimes = [m[f"lifetime_{i}_s"] for i in _LEVELS]
    branching = [list(row) for row in equal_branching(lifetimes)]
    dephasing = [[0.0] * N_LEVELS for _ in _LEVELS]
    for i in _LEVELS:
        for j in _LEVELS:
            if f"branching_{i}{j}_per_s" in m:
                branching[i - 1][j - 1] = m[f"branching_{i}{j}_per_s"]
            if i > j:
                dephasing[i - 1][j - 1] = dephasing[j - 1][i - 1] = m.get(
                    f"dephasing_{i}{j}_hz", 0.0)
    return MaterialParams(
        lifetimes=lifetimes,
        branching=branching,
        dephasing=dephasing,
        gamma=derive_gamma(lifetimes, dephasing, rate_convention),
        number_density=m["number_density_per_m3"],
        probe_dipole=m["probe_dipole_c_m"],
        probe_wavelength=m["probe_wavelength_m"],
        rate_convention=rate_convention,
    )
