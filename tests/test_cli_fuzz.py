"""Property: every command, on either backend, ends in a documented status
for any 1-3 overridden keys, with or without `--jobs N`, with no exception
or warning escaping, and a run that writes its summary writes only finite
numbers.  `--jobs` below 1 is a configuration error.

Runs cli.main in-process; pytest's configuration turns every warning into
an error.  grid.points_count and evolve.samples_count are drawn either
from small ranges, to keep the runtime small, or past their upper bounds
(config.MAX_GRID_POINTS and config.MAX_EVOLVE_SAMPLES), where the run is
refused with exit 2.  Every other key takes any value the strategy draws.
"""

import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitsim.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION,
                        main)
from eitsim.config import MAX_EVOLVE_SAMPLES, MAX_GRID_POINTS

LEVELS = range(1, 7)
VALUE_KEYS = (
    *(f"material.branching_{i}{j}_per_s" for i, j in ((5, 2), (3, 1), (6, 1))),
    *(f"material.lifetime_{i}_s" for i in LEVELS),
    "material.dephasing_32_hz", "material.dephasing_52_hz",
    "material.dephasing_53_hz",
    "material.probe_dipole_c_m", "material.number_density_per_m3",
    "material.probe_wavelength_m",
    *(f"drives.{field}_{kind}_rad_s" for kind in ("rabi", "detuning")
      for field in ("probe", "coupling", "aux")),
    "grid.delta_min_rad_s", "grid.delta_max_rad_s",
)
POINTS_KEY = "grid.points_count"
# Nulls a successful run may write: alpha at delta = 0 when the grid does
# not cover it.
DOCUMENTED_NULLS = {("headline", "alpha_at_zero_per_m")}


def magnitudes(low, high):
    return st.floats(low, high).map(lambda u: 10.0 ** u)


VALUES = st.one_of(
    st.just(0.0),
    magnitudes(-3.0, 12.0), magnitudes(-3.0, 12.0).map(lambda v: -v),
    magnitudes(-300.0, 308.0), magnitudes(-300.0, 308.0).map(lambda v: -v),
)
OVERRIDE = st.one_of(
    st.tuples(st.sampled_from(VALUE_KEYS), VALUES),
    st.tuples(st.just(POINTS_KEY),
              st.integers(-2, 2001)
              | st.integers(MAX_GRID_POINTS + 1, 10 ** 300)),
)
EVOLVE_OVERRIDE = st.one_of(
    OVERRIDE,
    st.tuples(st.just("evolve.t_end_s"), VALUES),
    st.tuples(st.just("evolve.samples_count"),
              st.integers(-2, 201)
              | st.integers(MAX_EVOLVE_SAMPLES + 1, 10 ** 300)),
)


def non_finite_numbers(node, path=()):
    """Paths of the numbers in a parsed JSON document that are not finite,
    nulls included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from non_finite_numbers(value, path + (key,))
    elif isinstance(node, list):
        for value in node:
            yield from non_finite_numbers(value, path)
    elif node is None or (isinstance(node, float) and not math.isfinite(node)):
        yield path


def assert_outputs_finite(out_dir):
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".csv"):
            for line in text.splitlines()[1:]:
                assert all(math.isfinite(float(cell))
                           for cell in line.split(",")), (name, line)
        else:
            bad = set(non_finite_numbers(json.loads(text)))
            assert bad <= DOCUMENTED_NULLS, (name, bad)


COMMANDS = st.sampled_from(["params", "spectrum", "window", "vg"])
OVERRIDES = st.lists(OVERRIDE, min_size=1, max_size=3)
SIX_LEVEL_COMMANDS = st.sampled_from(["spectrum", "window", "vg"])
JOBS = st.one_of(st.none(), st.integers(-2, 8))


def check_run(argv, overrides, jobs,
              statuses=(EXIT_OK, EXIT_CONFIG, EXIT_SOLVER)):
    sets = [arg for key, value in overrides
            for arg in ("--set", f"{key}={value!r}")]
    if jobs is not None:
        sets += ["--jobs", str(jobs)]
    with tempfile.TemporaryDirectory() as out:
        status = main([*argv, "--out", out, *sets])
        assert status in statuses
        if jobs is not None and jobs < 1:
            assert status == EXIT_CONFIG
        if status in (EXIT_OK, EXIT_VALIDATION):
            assert_outputs_finite(out)


@settings(max_examples=150, deadline=None)
@given(command=COMMANDS, overrides=OVERRIDES, jobs=JOBS)
@example(command="spectrum",
         overrides=[("material.probe_wavelength_m", 1e-320)], jobs=None)
@example(command="window",
         overrides=[("material.probe_wavelength_m", 1e-320)], jobs=None)
def test_closed_form_commands_end_in_a_documented_status(command, overrides,
                                                         jobs):
    check_run([command], overrides, jobs)


@settings(max_examples=100, deadline=None)
@given(command=SIX_LEVEL_COMMANDS, overrides=OVERRIDES, jobs=JOBS)
@example(command="spectrum", overrides=[("material.lifetime_3_s", 1e-298)],
         jobs=None)
@example(command="spectrum",
         overrides=[("material.probe_wavelength_m", 1e-320)], jobs=None)
def test_full_backend_commands_end_in_a_documented_status(command,
                                                          overrides, jobs):
    check_run([command, "--backend", "full"], overrides, jobs)


@settings(max_examples=100, deadline=None)
@given(overrides=OVERRIDES, jobs=JOBS)
def test_validate_ends_in_a_documented_status(overrides, jobs):
    check_run(["validate"], overrides, jobs,
              (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_VALIDATION))


@settings(max_examples=100, deadline=None)
@given(overrides=st.lists(EVOLVE_OVERRIDE, min_size=1, max_size=3),
       jobs=JOBS)
def test_evolve_ends_in_a_documented_status(overrides, jobs):
    check_run(["evolve"], overrides, jobs)
