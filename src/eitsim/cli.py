"""Command-line front end.

Commands: spectrum, window, vg, validate, evolve, params.
Exit statuses: 0 success, 2 configuration error, 3 solver error,
4 validation failure.  Output files are written atomically (temp + rename)
into --out; every command also writes a `<command>_summary.json` whose
`resolved_config` object is the fully resolved configuration: passed alone
to --config, that object reproduces the run (the summary file itself is no
configuration document).

Parsing the arguments, resolving the configuration, the closed form and
the observables (optics, lambda_system) need the standard library alone,
and import with this module.  numpy and the six-level model (the numeric
layer: bloch, states, validation) load through load_numeric, the one lazy
import, only for `evolve`, `validate` and the full backend.  So `params`,
`--help`, every configuration error and the analytic `spectrum`, `window`
and `vg` run without numpy.

`--jobs N` is accepted (N >= 1) and does nothing: every sweep is one
batched call in one thread.  It names no configuration key and stays only
while perfbench's sweep-full workload passes it.
"""

import argparse
import json
import math
import os
import sys
import time

from . import optics
from .config import (CHOICES, GridSpec, ResolvedRun, apply_overrides,
                     load_document, resolve)
from .constants import C_LIGHT, TWO_PI
from .errors import (ConfigError, EitsimError, InvalidArgumentError,
                     StateCorruptionError)
from .lambda_system import chi_analytic, lambda_from_material
from .materials import N_LEVELS

# The matrices here are at most 36x36, too small for OpenBLAS threads, whose
# idle pool would busy-wait on a second core; a value the user set wins.
# Nothing above loads numpy, and everything below loads it after this.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def load_numeric() -> None:
    """Import numpy and the numeric layer into this module's namespace."""
    global np, bloch, states, validation
    import numpy as np
    from . import bloch, states, validation


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4

# cmd_window refines the grid automatically (the default spectrum grid is far
# too coarse to interpolate a ~1e6 rad/s window); the span covers twice the
# expected width on each side so the half-absorption crossings are interior.
WINDOW_GRID_POINTS = 4001
WINDOW_GRID_SPAN_WIDTHS = 2.0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON configuration file")
    common.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="PATH=VALUE",
                        help="override one config key (repeatable, "
                             "last writer wins)")
    common.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current)")
    common.add_argument("--backend", choices=CHOICES["backend"],
                        help="shortcut for --set backend=...")
    common.add_argument("--jobs", type=int, metavar="N",
                        help="accepted (N >= 1) but has no effect; kept "
                             "only while the benchmark passes it")

    parser = argparse.ArgumentParser(
        prog="eitsim",
        description="Probe-susceptibility simulator for a six-level "
                    "rare-earth-doped crystal with probe, coupling and "
                    "auxiliary drives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common],
                   help="sweep probe detuning, write chi/n/alpha CSV")
    sub.add_parser("window", parents=[common],
                   help="measure the half-absorption transparency window")
    sub.add_parser("vg", parents=[common],
                   help="group velocity at the configured probe detuning")
    sub.add_parser("validate", parents=[common],
                   help="compare the full model against the three-level "
                        "closed form")
    sub.add_parser("evolve", parents=[common],
                   help="integrate the master equation in time, write "
                        "population CSV")
    sub.add_parser("params", parents=[common],
                   help="print the resolved material and decay rates")
    return parser


def _resolved_run(args) -> ResolvedRun:
    doc = load_document(args.config) if args.config else {}
    sets = list(args.sets)
    if args.backend is not None:
        sets.append(f"backend={args.backend}")
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"option '--jobs' must be >= 1, got {args.jobs}")
    return resolve(apply_overrides(doc, sets))


def _jsonable(value):
    """value with tuples as lists and non-finite floats as None."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temp file and a rename; on any failure
    the temp file is removed and the error re-raised."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _closed_form_only(command: str, run: ResolvedRun) -> bool:
    """Whether the command runs on the three-level closed form alone: the
    analytic spectrum, window and vg."""
    return command in ("spectrum", "window", "vg") \
        and run.backend == "analytic"


def _refuse_aux_detuning(command: str, run: ResolvedRun) -> None:
    """Refuse an auxiliary detuning where the three-level closed form would
    silently drop it: in validate and the analytic spectrum, window and vg."""
    value = run.drives.aux_detuning
    if value != 0.0 and (command == "validate"
                         or _closed_form_only(command, run)):
        raise ConfigError(
            f"config key 'drives.aux_detuning_rad_s' = {value!r} would be "
            "ignored: the three-level closed form has no auxiliary field "
            "(only the full backend and evolve read it)")


def cmd_spectrum(args, run: ResolvedRun):
    deltas, chi, alpha = optics.sweep(run.backend, run.material, run.drives,
                                      run.grid)
    _write_atomic(os.path.join(args.out, "spectrum.csv"),
                  optics.spectrum_to_csv(deltas, chi, alpha))

    peak = optics.peak_index(alpha)
    covers_zero = deltas[0] <= 0.0 <= deltas[-1]
    alpha_zero = (optics.interp_at(0.0, deltas, alpha)
                  if covers_zero else None)
    headline = {
        "points": len(deltas),
        "peak_alpha_per_m": alpha[peak],
        "peak_delta_rad_s": deltas[peak],
        "alpha_at_zero_per_m": alpha_zero,
        "backend": run.backend,
    }
    print(f"spectrum: {run.backend} backend, {len(deltas)} points in "
          f"[{deltas[0]:g}, {deltas[-1]:g}] rad/s")
    print(f"  peak alpha = {alpha[peak]:.6g} 1/m at "
          f"delta = {deltas[peak]:.6g} rad/s")
    if alpha_zero is not None:
        print(f"  alpha(0) = {alpha_zero:.6g} 1/m")
    return EXIT_OK, headline, ["spectrum.csv"]


def cmd_window(args, run: ResolvedRun):
    mat = run.material
    # Reference: resonant absorption with the coupling switched off, so
    # the full backend's window never meets the closed form's rate bound.
    lam = lambda_from_material(mat, run.drives._replace(
        coupling_rabi=0.0, coupling_detuning=0.0))
    reference = optics.absorption(chi_analytic(lam, 0.0),
                                  mat.probe_wavelength)

    width_estimate = optics.window_width_closed_form(
        lam.gamma52, run.drives.coupling_rabi)
    grid = run.grid
    if not any(p.startswith("grid.") for p in run.user_set) \
            and width_estimate > 0.0:
        span = WINDOW_GRID_SPAN_WIDTHS * width_estimate
        grid = GridSpec(-span, span, WINDOW_GRID_POINTS)

    deltas, _, alpha = optics.sweep(run.backend, mat, run.drives, grid)
    window = optics.transparency_window(deltas, alpha, reference)
    left, right, truncated = window or (0.0, 0.0, False)
    width = right - left
    width_hz = width / TWO_PI
    threshold = 0.5 * reference

    # The summary echoes the grid the sweep ran on.
    run.canonical["grid"] = {
        "delta_min_rad_s": float(grid.delta_min),
        "delta_max_rad_s": float(grid.delta_max),
        "points_count": int(grid.points),
    }
    headline = {
        "has_window": window is not None,
        "truncated": truncated,
        "width_rad_s": width,
        "width_hz": width_hz,
        "edges_rad_s": [left, right],
        "reference_alpha_per_m": reference,
        "threshold_alpha_per_m": threshold,
        "closed_form_width_rad_s": width_estimate,
        "backend": run.backend,
    }
    if window is not None:
        print(f"window: width = {width:.6g} rad/s "
              f"({width_hz:.6g} Hz)")
        print(f"  edges = [{left:.6g}, {right:.6g}] "
              f"rad/s, threshold alpha = {threshold:.6g} 1/m")
        if truncated:
            print("  warning: the half-absorption interval reaches the end "
                  "of the grid and may be open-ended; the width is measured "
                  "to the grid's end")
    else:
        print("window: no transparency window (resonant absorption is above "
              "half the reference)")
    return EXIT_OK, headline, []


def cmd_vg(args, run: ResolvedRun):
    delta0 = run.drives.probe_detuning
    vg = optics.group_velocity(run.backend, run.material, run.drives, delta0)
    group_index = C_LIGHT / vg
    anomalous = group_index < 1.0

    headline = {
        "vg_m_s": vg,
        "group_index": group_index,
        "omega_rad_s": optics.probe_angular_frequency(run.material),
        "delta_rad_s": delta0,
        "anomalous_dispersion": anomalous,
        "backend": run.backend,
    }
    print(f"vg: {vg:.6g} m/s (group index {group_index:.6g}) at "
          f"delta = {delta0:g} rad/s [{run.backend} backend]")
    if anomalous:
        print("  warning: anomalous dispersion (group index < 1); the "
              "envelope velocity is not a propagation speed here")
    return EXIT_OK, headline, []


def cmd_validate(args, run: ResolvedRun):
    report = validation.validate_reduction(
        run.material, run.drives, optics.grid_values(run.grid),
        analytic_gamma52_factor=run.validate_fault_factor)
    passed = report["max_rel_dev_chi_im"] < run.validate_max_dev
    headline = {**report, "threshold_rel": run.validate_max_dev,
                "passed": passed}
    print(f"validate: max chi_im deviation = "
          f"{report['max_rel_dev_chi_im']:.4%} over "
          f"{report['n_compared']}/{report['n_grid']} points "
          f"(threshold {run.validate_max_dev:.4%})")
    print(f"  worst at delta = {report['worst_delta_rad_s']:.6g} rad/s; "
          f"chi_re deviation = {report['max_rel_dev_chi_re']:.4%}")
    return (EXIT_OK if passed else EXIT_VALIDATION), headline, []


def cmd_evolve(args, run: ResolvedRun):
    gen = bloch.build_liouvillian(run.material, run.drives,
                                  run.drives.probe_detuning)
    times, rho, max_trace_dev, max_herm_dev = bloch.evolve(
        states.initial_state(run.evolve_initial), gen, run.evolve_t_end,
        n_samples=run.evolve_samples)

    header = "t_s," + ",".join(f"rho{i}{i}" for i in range(1, N_LEVELS + 1)) \
        + ",abs_rho52"
    pops = np.diagonal(rho, axis1=1, axis2=2).real
    _write_atomic(os.path.join(args.out, "evolve.csv"), optics.csv_text(
        header, (times.tolist(), *pops.T.tolist(),
                 np.abs(rho[:, 4, 1]).tolist())))

    samples = len(times)
    headline = {
        "t_end_s": run.evolve_t_end,
        "samples": samples,
        "populations_final": pops[-1].tolist(),
        "rho22_final": pops[-1, 1],
        "max_trace_dev": max_trace_dev,
        "max_herm_dev": max_herm_dev,
    }
    final = ", ".join(f"{p:.6g}" for p in pops[-1])
    print(f"evolve: {samples} samples to "
          f"t = {run.evolve_t_end:g} s")
    print(f"  final populations = [{final}]")
    print(f"  max trace drift = {max_trace_dev:.3e}, "
          f"max hermiticity drift = {max_herm_dev:.3e}")
    return EXIT_OK, headline, ["evolve.csv"]


def _gamma_note(mat, upper: int, lower: int) -> str:
    inv_u = 1.0 / mat.lifetimes[upper - 1]
    inv_l = 1.0 / mat.lifetimes[lower - 1]
    deph = mat.dephasing[upper - 1][lower - 1]
    if mat.rate_convention == "cyclic":
        return (f"pi * (1/T1({upper}) + 1/T1({lower}) + dephasing) "
                f"= pi * ({inv_u:g} + {inv_l:g} + {deph:g} Hz), "
                "lifetime inverses read as cyclic rates")
    return (f"0.5 * (1/T1({upper}) + 1/T1({lower}) + 2*pi*dephasing) "
            f"= 0.5 * ({inv_u:g} + {inv_l:g} + 2*pi*{deph:g} Hz), "
            "lifetime inverses read as angular rates")


def cmd_params(args, run: ResolvedRun):
    mat = run.material
    dump = {
        "rate_convention": mat.rate_convention,
        "n_levels": N_LEVELS,
        "lifetimes_s": mat.lifetimes,
        "branching_per_s": mat.branching,
        "dephasing_hz": mat.dephasing,
        "gamma_rad_s": mat.gamma,
        "number_density_per_m3": mat.number_density,
        "probe_dipole_c_m": mat.probe_dipole,
        "probe_wavelength_m": mat.probe_wavelength,
        "coupling_strength_rad_s": mat.coupling_strength,
        "notes": {
            "gamma_32": _gamma_note(mat, 3, 2),
            "gamma_52": _gamma_note(mat, 5, 2),
            "gamma_53": _gamma_note(mat, 5, 3),
            "branching": "each level's total decay 1/T1 splits equally over "
                         "all lower levels unless overridden per pair",
            "coupling_strength": "number_density * probe_dipole^2 / "
                                 "(epsilon_0 * hbar)",
        },
    }
    _write_atomic(os.path.join(args.out, "params.json"),
                  json.dumps(_jsonable(dump), indent=2, sort_keys=True) + "\n")
    headline = {
        "gamma_32_rad_s": float(mat.gamma[2][1]),
        "gamma_52_rad_s": float(mat.gamma[4][1]),
        "gamma_53_rad_s": float(mat.gamma[4][2]),
        "coupling_strength_rad_s": float(mat.coupling_strength),
        "rate_convention": mat.rate_convention,
    }
    print(f"params: rate_convention = {mat.rate_convention}")
    print(f"  gamma_32 = {mat.gamma[2][1]:.6g} rad/s   "
          f"[{dump['notes']['gamma_32']}]")
    print(f"  gamma_52 = {mat.gamma[4][1]:.6g} rad/s   "
          f"[{dump['notes']['gamma_52']}]")
    print(f"  gamma_53 = {mat.gamma[4][2]:.6g} rad/s")
    print(f"  coupling strength = {mat.coupling_strength:.6g} rad/s, "
          f"wavelength = {mat.probe_wavelength:g} m")
    return EXIT_OK, headline, ["params.json"]


# Each handler computes, writes its data files into args.out, prints its
# report and returns (exit status, headline, names of the files it wrote);
# main writes the summary and the "wrote" line.
_HANDLERS = {
    "spectrum": cmd_spectrum,
    "window": cmd_window,
    "vg": cmd_vg,
    "validate": cmd_validate,
    "evolve": cmd_evolve,
    "params": cmd_params,
}


def main(argv=None, load_numeric=load_numeric) -> int:
    """Run one command in this process and return its exit status.

    evolve, validate and the full backend call load_numeric once the
    configuration has resolved; eitsim.__main__.run passes one that also
    freezes the import.  Every command then runs its handler and writes
    `<command>_summary.json`: the resolved configuration, the handler's
    headline and files, and the handler's duration.
    """
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        os.makedirs(args.out, exist_ok=True)
        run = _resolved_run(args)
        _refuse_aux_detuning(command, run)
        if command != "params" and not _closed_form_only(command, run):
            load_numeric()
        started = time.perf_counter()
        status, headline, files = _HANDLERS[command](args, run)
        summary = {
            "command": command,
            "resolved_config": _jsonable(run.canonical),
            "headline": _jsonable(headline),
            "output_files": files,
            "duration_s": time.perf_counter() - started,
        }
        paths = [os.path.join(args.out, name)
                 for name in (*files, f"{command}_summary.json")]
        _write_atomic(paths[-1],
                      json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"  wrote {' and '.join(paths)}")
        if status == EXIT_VALIDATION:
            print("validation failure: full model deviates from the "
                  "three-level closed form beyond the threshold",
                  file=sys.stderr)
        return status
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StateCorruptionError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EitsimError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
