"""Output check: an invocation passes when its exit status matches and every
output lies within a tolerance of the expected value.

Each tolerance comes from a gate the program already enforces, not from
observed noise, so an exact but different algorithm passes and a wrong
answer does not:

* analytic chi: solver.tol_rel (1e-9) relative to the column's largest |chi|;
* full-backend chi: the steady-state uniqueness gate lets two pivot
  orderings disagree by DEGENERACY_TOL = 1e-8 in any element of vec(rho), so
  rho52 may move that much: |d chi| <= 2*A*1e-8/probe_rabi;
* evolve populations: VALIDATION_TOL = 1e-6, the gate below which
  eitsim.states repairs a state and above which it rejects one, so the
  program itself treats 1e-6 as the precision of a population.  DP45 at
  tol_rel 1e-9 carries a global error that grows with the step count (about
  4e-10 at the defaults, near 1e-8 on the heaviest drives), and an exact
  propagator must pass as well;
* headline scalars (window width, group index, validate deviation, rates):
  1000*tol_rel relative.  They are computed from the columns above by
  interpolation or finite differences, which amplify the columns' rounding
  by up to ~100x; a change that moves one by 1e-6 changed the physics or the
  grid.
"""

import csv
import gzip
import json
import math
import os

import numpy as np

from oracle import COUPLING_A, DEFAULTS

TOL_REL = 1e-9
DEGENERACY_TOL = 1e-8
POPULATION_ATOL = 1e-6
HEADLINE_RTOL = 1000 * TOL_REL


def _chi_atol(inv, expected_chi: np.ndarray) -> float:
    if inv.backend == "full":
        probe = inv.sets.get("drives.probe_rabi_rad_s",
                             DEFAULTS["drives.probe_rabi_rad_s"])
        return 2.0 * COUPLING_A * DEGENERACY_TOL / probe
    return TOL_REL * float(np.max(np.abs(expected_chi)))


def observe(out_dir: str, command: str, exit_status: int) -> dict:
    """Read what one invocation wrote into its output directory."""
    seen = {"exit": exit_status}
    summary = os.path.join(out_dir, f"{command}_summary.json")
    if os.path.exists(summary):
        with open(summary, encoding="utf-8") as fh:
            seen["headline"] = json.load(fh)["headline"]
    if command == "spectrum" and exit_status == 0:
        cols = _read_csv(os.path.join(out_dir, "spectrum.csv"))
        seen["chi"] = np.asarray(cols["chi_re"]) + 1j * np.asarray(
            cols["chi_im"])
    if command == "evolve" and exit_status == 0:
        cols = _read_csv(os.path.join(out_dir, "evolve.csv"))
        seen["populations"] = np.column_stack(
            [cols[f"rho{i}{i}"] for i in range(1, 7)])
    return seen


def _read_csv(path: str) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(r[i]) for r in rows[1:]]
            for i, name in enumerate(rows[0])}


def compare(inv, expected: dict, seen: dict) -> tuple:
    """(passed, worst, reason).

    worst is the largest deviation as a share of its tolerance (1.0 is the
    edge); reason names the first failing output, or is empty.
    """
    worst = 0.0
    threshold = expected.get("threshold")
    if seen["exit"] != expected["exit"]:
        dev = seen.get("headline", {}).get("max_rel_dev_chi_im")
        near_gate = (threshold is not None and dev is not None
                     and abs(dev - threshold) <= HEADLINE_RTOL * threshold
                     and seen["exit"] in (0, 4))
        if not near_gate:
            return False, math.inf, (f"exit {seen['exit']}, "
                                     f"expected {expected['exit']}")
    for name in ("chi", "populations"):
        if name not in expected:
            continue
        if name not in seen or np.shape(seen[name]) != np.shape(
                expected[name]):
            return False, math.inf, f"{name}: missing or wrong shape"
        want = np.asarray(expected[name])
        atol = (POPULATION_ATOL if name == "populations"
                else _chi_atol(inv, want))
        ratio = float(np.max(np.abs(np.asarray(seen[name]) - want))) / atol
        worst = max(worst, ratio)
        if not ratio <= 1.0:
            return False, worst, f"{name}: {ratio:.3g}x its tolerance"
    for key, want in expected.get("headline", {}).items():
        got = seen.get("headline", {}).get(key)
        if got is None:
            return False, math.inf, f"headline {key}: missing"
        scale = max(abs(want), abs(got))
        ratio = abs(got - want) / (HEADLINE_RTOL * scale) if scale else 0.0
        worst = max(worst, ratio)
        if not ratio <= 1.0:
            return False, worst, (f"headline {key}: {got!r} vs {want!r} "
                                  f"({ratio:.3g}x its tolerance)")
    return True, worst, ""


# Headline numbers stored per command.  Rounding-level diagnostics (trace
# drift, step counts) and grid-quantized positions are left out: an exact
# but different algorithm changes them without being wrong.
HEADLINE_KEYS = {
    "spectrum": ("peak_alpha_per_m",),
    "window": ("width_rad_s", "threshold_alpha_per_m"),
    "vg": ("vg_m_s", "group_index"),
    "validate": ("max_rel_dev_chi_im", "max_rel_dev_chi_re"),
    "evolve": ("rho22_final",),
    "params": ("gamma_32_rad_s", "gamma_52_rad_s", "gamma_53_rad_s",
               "coupling_strength_rad_s"),
}


def dump_reference(inv, seen: dict) -> dict:
    """JSON form of what one invocation produced (complex as [re, im])."""
    out = {"exit": seen["exit"]}
    if "chi" in seen:
        out["chi"] = [np.real(seen["chi"]).tolist(),
                      np.imag(seen["chi"]).tolist()]
    if "populations" in seen:
        out["populations"] = np.asarray(seen["populations"]).tolist()
    headline = seen.get("headline", {})
    out["headline"] = {k: headline[k] for k in HEADLINE_KEYS[inv.command]
                       if headline.get(k) is not None}
    if inv.command == "validate":
        out["threshold"] = headline["threshold_rel"]
    return out


def load_expected(record: dict) -> dict:
    out = dict(record)
    if "chi" in out:
        out["chi"] = np.asarray(out["chi"][0]) + 1j * np.asarray(out["chi"][1])
    if "populations" in out:
        out["populations"] = np.asarray(out["populations"])
    return out


def reference_path(root: str, seed: int) -> str:
    return os.path.join(root, "perfbench", "references",
                        f"seed-{seed}.json.gz")


def load_references(root: str, seed: int) -> dict:
    """Stored outputs of this commit for a seed, keyed by command line, or
    an empty dict when the seed has none."""
    path = reference_path(root, seed)
    if not os.path.exists(path):
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        stored = json.load(fh)
    return {key: load_expected(rec) for key, rec in stored.items()}
