"""End-to-end command-line runs, in subprocesses and through cli.main."""

import gc
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from eitsim.cli import main
from eitsim.config import default_document, resolve
from eitsim.constants import C_LIGHT
from eitsim.lambda_system import (chi_analytic, dchi_prime_ddelta,
                                  lambda_from_material)
from eitsim.optics import probe_angular_frequency

CSV_HEADER = "delta_rad_s,chi_re,chi_im,n,alpha_per_m"


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_python(*argv, **env_vars):
    """Run `python ...` against this checkout's sources; keyword arguments
    set (a string) or unset (None) environment variables."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    for key, value in env_vars.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env)


def run_cli(*argv):
    """Run `python -m eitsim ...` against this checkout's sources."""
    return run_python("-m", "eitsim", *argv)


def read_summary(out_dir, command):
    with open(os.path.join(out_dir, f"{command}_summary.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def read_csv_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


class TestSpectrum:
    def test_default_run(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("spectrum", "--out", out)
        assert proc.returncode == 0, proc.stderr
        lines = read_csv_lines(os.path.join(out, "spectrum.csv"))
        assert lines[0] == CSV_HEADER
        assert len(lines) == 202
        summary = read_summary(out, "spectrum")
        assert summary["command"] == "spectrum"
        assert summary["output_files"] == ["spectrum.csv"]
        assert summary["headline"]["points"] == 201
        assert summary["headline"]["backend"] == "analytic"
        assert summary["duration_s"] >= 0.0
        assert "peak alpha" in proc.stdout

    def test_summary_config_round_trips(self, tmp_path):
        out = str(tmp_path)
        run_cli("spectrum", "--out", out,
                "--set", "drives.probe_detuning_hz=250.0",
                "--set", "jobs_count=2")
        echoed = read_summary(out, "spectrum")["resolved_config"]
        again = resolve(echoed).canonical
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(echoed, sort_keys=True)

    def test_summary_alone_reproduces_the_run(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        run_cli("spectrum", "--out", str(first),
                "--set", "grid.points_count=41",
                "--set", "drives.coupling_rabi_hz=2e6")
        config = tmp_path / "replay.json"
        config.write_text(json.dumps(
            read_summary(str(first), "spectrum")["resolved_config"]),
            encoding="utf-8")
        run_cli("spectrum", "--out", str(second), "--config", str(config))
        assert (first / "spectrum.csv").read_bytes() == \
            (second / "spectrum.csv").read_bytes()

    def test_full_backend_bitwise_stable_across_jobs(self, tmp_path):
        serial = tmp_path / "serial"
        threaded = tmp_path / "threaded"
        for out, jobs in ((serial, "1"), (threaded, "8")):
            proc = run_cli("spectrum", "--out", str(out), "--backend", "full",
                           "--jobs", jobs)
            assert proc.returncode == 0, proc.stderr
        assert (serial / "spectrum.csv").read_bytes() == \
            (threaded / "spectrum.csv").read_bytes()

    def test_terminal_level_runs_to_zero_susceptibility(self, tmp_path):
        # level 4 decays nowhere and every route leads into it, so rho44 = 1
        # and chi = 0 at every detuning.  The delta-independent part of the
        # pinned system is singular here (cond 1.2e18), so eliminating it
        # first, by a Schur complement, would refuse this run.
        out = str(tmp_path)
        sets = [f"material.branching_{pair}_per_s=0"
                for pair in ("41", "42", "43", "21")]
        proc = run_cli("spectrum", "--backend", "full", "--out", out,
                       *[arg for s in sets for arg in ("--set", s)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[:3] == [
            "spectrum: full backend, 201 points in [-2e+07, 2e+07] rad/s",
            "  peak alpha = 0 1/m at delta = -2e+07 rad/s",
            "  alpha(0) = 0 1/m"]
        lines = read_csv_lines(os.path.join(out, "spectrum.csv"))
        assert lines[0] == CSV_HEADER
        assert [float(line.split(",")[0]) for line in lines[1:]] \
            == list(np.linspace(-2e7, 2e7, 201))
        assert {line.split(",", 1)[1] for line in lines[1:]} \
            == {"0.0,0.0,1.0,0.0"}
        headline = read_summary(out, "spectrum")["headline"]
        assert headline == {"alpha_at_zero_per_m": 0.0, "backend": "full",
                            "peak_alpha_per_m": 0.0,
                            "peak_delta_rad_s": -2e7, "points": 201}

    def test_no_coupling_peak_sits_at_resonance(self, tmp_path):
        out = str(tmp_path)
        run_cli("spectrum", "--out", out,
                "--set", "drives.coupling_rabi_rad_s=0.0",
                "--set", "drives.aux_rabi_rad_s=0.0")
        headline = read_summary(out, "spectrum")["headline"]
        assert headline["peak_delta_rad_s"] == 0.0
        assert headline["alpha_at_zero_per_m"] == headline["peak_alpha_per_m"]

    def test_coupling_suppresses_resonant_absorption(self, tmp_path):
        eit = tmp_path / "eit"
        bare = tmp_path / "bare"
        run_cli("spectrum", "--out", str(eit))
        run_cli("spectrum", "--out", str(bare),
                "--set", "drives.coupling_rabi_rad_s=0.0")
        alpha_eit = read_summary(str(eit), "spectrum")["headline"][
            "alpha_at_zero_per_m"]
        alpha_bare = read_summary(str(bare), "spectrum")["headline"][
            "alpha_at_zero_per_m"]
        assert alpha_eit < 0.01 * alpha_bare

    def test_backend_flag_beats_config_file(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"backend": "full"}', encoding="utf-8")
        out = str(tmp_path / "out")
        run_cli("spectrum", "--out", out, "--config", str(config),
                "--backend", "analytic", "--set", "grid.points_count=11")
        assert read_summary(out, "spectrum")["headline"]["backend"] == \
            "analytic"

    def test_last_set_wins(self, tmp_path):
        out = str(tmp_path)
        run_cli("spectrum", "--out", out,
                "--set", "drives.probe_detuning_rad_s=1.0",
                "--set", "drives.probe_detuning_rad_s=2e5")
        echoed = read_summary(out, "spectrum")["resolved_config"]
        assert echoed["drives"]["probe_detuning_rad_s"] == 2e5


class TestWindow:
    def test_default_width_matches_closed_form(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("window", "--out", out)
        assert proc.returncode == 0, proc.stderr
        headline = read_summary(out, "window")["headline"]
        assert headline["has_window"] is True
        assert not headline["truncated"]
        closed = headline["closed_form_width_rad_s"]
        assert abs(headline["width_rad_s"] - closed) / closed < 0.005
        assert headline["width_hz"] == pytest.approx(
            headline["width_rad_s"] / (2.0 * math.pi))
        # the automatic grid refinement is echoed so the run reproduces
        echoed = read_summary(out, "window")["resolved_config"]
        assert echoed["grid"]["points_count"] == 4001

    def test_user_grid_is_respected(self, tmp_path):
        out = str(tmp_path)
        run_cli("window", "--out", out,
                "--set", "grid.delta_min_rad_s=-4e6",
                "--set", "grid.delta_max_rad_s=4e6",
                "--set", "grid.points_count=2001")
        echoed = read_summary(out, "window")["resolved_config"]
        assert echoed["grid"]["points_count"] == 2001
        assert echoed["grid"]["delta_max_rad_s"] == 4e6

    def test_no_window_without_coupling(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("window", "--out", out,
                       "--set", "drives.coupling_rabi_rad_s=0.0")
        assert proc.returncode == 0
        assert read_summary(out, "window")["headline"]["has_window"] is False
        assert "no transparency window" in proc.stdout


# vg_m_s at the defaults: c / (1 + chi'/2 - omega0 * 0.5 * dchi'/ddelta)
# from the closed form, which summaries carried as vg_closed_form_m_s next
# to a finite-difference vg_m_s while the step was read.
VG_AT_DEFAULTS = 21.569882082393843


class TestVg:
    def test_analytic_slow_light(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("vg", "--out", out)
        assert proc.returncode == 0, proc.stderr
        headline = read_summary(out, "vg")["headline"]
        assert set(headline) == {"vg_m_s", "group_index", "omega_rad_s",
                                 "delta_rad_s", "anomalous_dispersion",
                                 "backend"}
        assert headline["anomalous_dispersion"] is False
        mat = resolve({}).material
        lam = lambda_from_material(mat, 1.5e6)
        group_index = (1.0 + 0.5 * chi_analytic(lam, 0.0).real
                       - probe_angular_frequency(mat) * 0.5
                       * dchi_prime_ddelta(lam, 0.0))
        assert headline["vg_m_s"] == pytest.approx(C_LIGHT / group_index,
                                                   rel=1e-15)
        assert headline["vg_m_s"] == pytest.approx(VG_AT_DEFAULTS, rel=1e-15)
        assert headline["vg_m_s"] < 50.0

    @pytest.mark.parametrize("fd_step", [62.83201015142855, 100.0])
    def test_summary_with_legacy_step_replays(self, tmp_path, fd_step):
        # the resolved_config of a vg summary written while the step was
        # read: the defaults plus the step, autofilled as gamma32 / 100 or
        # set by the user
        written = default_document()
        written["vg"]["fd_step_rad_s"] = fd_step
        config = tmp_path / "written.json"
        config.write_text(json.dumps(written), encoding="utf-8")
        out = str(tmp_path / "replay")
        proc = run_cli("vg", "--out", out, "--config", str(config))
        assert proc.returncode == 0, proc.stderr
        summary = read_summary(out, "vg")
        assert summary["resolved_config"] == written
        assert summary["headline"]["vg_m_s"] == VG_AT_DEFAULTS

    def test_full_backend_zero_probe_is_a_config_error(self, tmp_path):
        proc = run_cli("vg", "--out", str(tmp_path), "--backend", "full",
                       "--set", "drives.probe_rabi_rad_s=0")
        assert proc.returncode == 2
        assert "config error: full backend needs a nonzero probe field" \
            in proc.stderr

    def test_full_backend_agrees_with_analytic(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("vg", "--out", out, "--backend", "full")
        assert proc.returncode == 0, proc.stderr
        headline = read_summary(out, "vg")["headline"]
        assert headline["backend"] == "full"
        assert headline["vg_m_s"] == pytest.approx(21.57, rel=0.05)

    def test_vanishing_density_gives_vacuum_speed(self, tmp_path):
        out = str(tmp_path)
        run_cli("vg", "--out", out,
                "--set", "material.number_density_per_m3=1e-20")
        headline = read_summary(out, "vg")["headline"]
        assert headline["vg_m_s"] == pytest.approx(299792458.0, rel=1e-6)

    def test_anomalous_dispersion_warning(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("vg", "--out", out,
                       "--set", "drives.coupling_rabi_rad_s=0.0")
        assert proc.returncode == 0
        headline = read_summary(out, "vg")["headline"]
        assert headline["anomalous_dispersion"] is True
        assert headline["vg_m_s"] < 0.0
        assert "anomalous" in proc.stdout


    def test_non_finite_group_index_is_a_solver_error(self, tmp_path):
        # the closed form overflows at 1e80 rad/s and would report NaN
        out = str(tmp_path)
        proc = run_cli("vg", "--out", out,
                       "--set", "drives.probe_detuning_rad_s=1e80")
        assert proc.returncode == 3
        assert "solver error: group index nan is not finite at " \
            "delta = 1e+80 rad/s" in proc.stderr
        assert proc.stdout == ""
        assert not os.path.exists(os.path.join(out, "vg_summary.json"))

    def test_full_backend_far_off_resonance_is_vacuum_speed(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("vg", "--out", out, "--backend", "full",
                       "--set", "drives.probe_detuning_rad_s=1e80")
        assert proc.returncode == 0, proc.stderr
        headline = read_summary(out, "vg")["headline"]
        assert headline["vg_m_s"] == pytest.approx(C_LIGHT, rel=1e-12)
        assert "nan" not in proc.stdout


class TestFarOffResonance:
    @pytest.mark.parametrize("command", ["spectrum", "window", "validate"])
    def test_overflowing_closed_form_is_a_solver_error(self, tmp_path,
                                                       command):
        # at 1e120 rad/s the closed form's numerator and Z both overflow
        # and chi_re would be inf / inf
        out = str(tmp_path)
        proc = run_cli(command, "--out", out,
                       "--set", "grid.delta_min_rad_s=-1e120",
                       "--set", "grid.delta_max_rad_s=1e120",
                       "--set", "grid.points_count=3")
        assert proc.returncode == 3
        assert proc.stderr == (
            "solver error: susceptibility is not finite at delta = -1e+120 "
            "rad/s: the closed form overflows this far off resonance\n")
        assert proc.stdout == ""
        assert os.listdir(out) == []

    def test_far_off_resonance_spectrum_is_quiet(self, tmp_path):
        # at 1e80 rad/s Z overflows alone, and chi is a finite 0
        out = str(tmp_path)
        proc = run_cli("spectrum", "--out", out,
                       "--set", "grid.delta_min_rad_s=-1e80",
                       "--set", "grid.delta_max_rad_s=1e80",
                       "--set", "grid.points_count=3")
        assert proc.returncode == 0
        assert proc.stderr == ""
        lines = read_csv_lines(os.path.join(out, "spectrum.csv"))
        assert [line.split(",")[:3] for line in lines[1::2]] == \
            [["-1e+80", "-0.0", "0.0"], ["1e+80", "0.0", "0.0"]]


class TestValidate:
    def test_default_comparison_passes(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("validate", "--out", out)
        assert proc.returncode == 0, proc.stderr
        headline = read_summary(out, "validate")["headline"]
        assert headline["passed"] is True
        assert headline["max_rel_dev_chi_im"] < 0.02
        assert "deviation" in proc.stdout

    def test_fault_injection_fails_with_status_4(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("validate", "--out", out,
                       "--set", "validate.fault_gamma52_factor=10.0")
        assert proc.returncode == 4
        assert "validation failure" in proc.stderr
        assert read_summary(out, "validate")["headline"]["passed"] is False

    def test_strong_probe_rejected(self, tmp_path):
        proc = run_cli("validate", "--out", str(tmp_path),
                       "--set", "drives.probe_rabi_rad_s=1e5")
        assert proc.returncode == 2
        assert "config error" in proc.stderr


class TestEvolve:
    def test_default_run_pumps_into_level_2(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("evolve", "--out", out)
        assert proc.returncode == 0, proc.stderr
        lines = read_csv_lines(os.path.join(out, "evolve.csv"))
        assert lines[0] == ("t_s,rho11,rho22,rho33,rho44,rho55,rho66,"
                            "abs_rho52")
        assert len(lines) == 202
        headline = read_summary(out, "evolve")["headline"]
        assert headline["rho22_final"] > 0.99
        assert headline["max_trace_dev"] < 1e-9
        assert headline["samples"] == 201
        assert "n_steps" not in headline and "kernels" not in headline
        assert proc.stdout.startswith("evolve: 201 samples to t = 0.01 s\n")

    def test_zero_horizon_writes_single_row(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("evolve", "--out", out, "--set", "evolve.t_end_s=0.0")
        assert proc.returncode == 0, proc.stderr
        lines = read_csv_lines(os.path.join(out, "evolve.csv"))
        assert len(lines) == 2
        first_row = lines[1].split(",")
        assert float(first_row[0]) == 0.0
        assert float(first_row[2]) == pytest.approx(1.0 / 6.0)

    def test_free_decay_halves_population(self, tmp_path):
        out = str(tmp_path)
        t_half = 164e-6 * math.log(2.0)
        proc = run_cli(
            "evolve", "--out", out,
            "--set", "drives.probe_rabi_rad_s=0.0",
            "--set", "drives.coupling_rabi_rad_s=0.0",
            "--set", "drives.aux_rabi_rad_s=0.0",
            "--set", "evolve.initial_state=level_5",
            "--set", f"evolve.t_end_s={t_half!r}",
        )
        assert proc.returncode == 0, proc.stderr
        last = read_csv_lines(os.path.join(out, "evolve.csv"))[-1].split(",")
        assert float(last[5]) == pytest.approx(0.5, rel=1e-6)  # rho55
        assert float(last[7]) == 0.0  # no probe, no coherence

    def test_propagator_breakdown_is_a_solver_error(self, tmp_path):
        proc = run_cli("evolve", "--out", str(tmp_path),
                       "--set", "evolve.t_end_s=1e30")
        assert proc.returncode == 3
        assert "solver error" in proc.stderr
        assert "sample at t = 5.000000e+27 s" in proc.stderr
        assert not os.path.exists(os.path.join(str(tmp_path), "evolve.csv"))


class TestParams:
    def test_derived_rates(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("params", "--out", out)
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(out, "params.json"), encoding="utf-8") as fh:
            dump = json.load(fh)
        assert dump["gamma_rad_s"][2][1] == 6283.201015142855
        assert dump["gamma_rad_s"][4][1] == 47430.39450208119
        assert dump["gamma_rad_s"][4][2] == 47430.39450208119
        assert dump["coupling_strength_rad_s"] == 5033.533545163184
        assert dump["rate_convention"] == "cyclic"
        assert "pi * (1/T1(3)" in dump["notes"]["gamma_32"]
        headline = read_summary(out, "params")["headline"]
        assert headline["gamma_32_rad_s"] == 6283.201015142855

    def test_angular_convention_note(self, tmp_path):
        out = str(tmp_path)
        run_cli("params", "--out", out,
                "--set", "conventions.rate_convention=angular")
        with open(os.path.join(out, "params.json"), encoding="utf-8") as fh:
            dump = json.load(fh)
        assert dump["notes"]["gamma_32"].startswith("0.5 *")


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy is a test-only oracle: importing it would add ~0.3 s to
        # every command
        proc = run_python("-c", "import sys, eitsim.cli; "
                                "print(sorted(m for m in sys.modules "
                                "if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_import_is_lazy(self):
        # `import eitsim` must load no numpy, so that eitsim.cli can still
        # choose numpy's BLAS threads, and must change no environment
        proc = run_python("-c", "import os, sys, eitsim; "
                                "print(sorted(m for m in sys.modules "
                                "if m == 'numpy' or m.startswith('eitsim.'))"
                                "); print(os.environ.get("
                                "'OPENBLAS_NUM_THREADS'))",
                          OPENBLAS_NUM_THREADS=None)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "None"]

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_cli_import_defaults_to_one_blas_thread(self, preset, expected):
        proc = run_python("-c", "import os, eitsim.cli; "
                                "print(os.environ['OPENBLAS_NUM_THREADS'])",
                          OPENBLAS_NUM_THREADS=preset)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs /proc/self/status")
    def test_cli_import_starts_no_blas_thread_pool(self):
        proc = run_python("-c", "import eitsim.cli; "
                                "print(*(line for line in "
                                "open('/proc/self/status') "
                                "if line.startswith('Threads:')))",
                          OPENBLAS_NUM_THREADS=None)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["Threads:", "1"]


class TestErrorStatuses:
    def test_unknown_key(self, tmp_path):
        proc = run_cli("spectrum", "--out", str(tmp_path),
                       "--set", "nope.key_rad_s=1.0")
        assert proc.returncode == 2
        assert "nope" in proc.stderr

    def test_invalid_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        proc = run_cli("spectrum", "--out", str(tmp_path), "--config",
                       str(bad))
        assert proc.returncode == 2

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("spectrum", "--out", str(tmp_path), "--config",
                       str(tmp_path / "absent.json"))
        assert proc.returncode == 2

    def test_both_dephasing_pair_orders_rejected(self, tmp_path):
        proc = run_cli("params", "--out", str(tmp_path),
                       "--set", "material.dephasing_32_hz=4.0",
                       "--set", "material.dephasing_23_hz=5.0")
        assert proc.returncode == 2
        assert "same quantity" in proc.stderr

    def test_single_point_grid_rejected(self, tmp_path):
        proc = run_cli("spectrum", "--out", str(tmp_path),
                       "--set", "grid.points_count=1")
        assert proc.returncode == 2

    def test_out_blocked_by_file(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("", encoding="utf-8")
        proc = run_cli("params", "--out", str(blocked))
        assert proc.returncode == 2
        assert "io error" in proc.stderr

    def test_bad_backend_choice(self, tmp_path):
        proc = run_cli("spectrum", "--out", str(tmp_path), "--backend",
                       "turbo")
        assert proc.returncode == 2

    @pytest.mark.parametrize("command, coupling", [
        ("spectrum", "1e200"), ("window", "1e200"), ("validate", "1e200"),
        ("vg", "1e100"),
    ])
    def test_closed_form_overflow_is_a_config_error(self, tmp_path, command,
                                                    coupling):
        proc = run_cli(command, "--out", str(tmp_path),
                       "--set", f"drives.coupling_rabi_rad_s={coupling}")
        assert proc.returncode == 2
        assert f"config error: omega_c = {float(coupling)!r} rad/s exceeds " \
            "1e+38 rad/s" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert os.listdir(str(tmp_path)) == []

    def test_full_backend_window_ignores_the_closed_form_bound(self,
                                                              tmp_path):
        # the full window reads only the coupling-free closed form; its own
        # solve refuses this drive at a pole, as before the bound existed
        proc = run_cli("window", "--backend", "full", "--out", str(tmp_path),
                       "--set", "drives.coupling_rabi_rad_s=1e200")
        assert proc.returncode == 3
        assert "solver error: at delta = -5e+199 rad/s: singular " \
            "steady-state system" in proc.stderr

    @pytest.mark.parametrize("command", ["spectrum", "window", "vg",
                                         "validate"])
    def test_aux_detuning_the_closed_form_would_ignore(self, tmp_path,
                                                       command):
        # the three-level closed form has no auxiliary field
        proc = run_cli(command, "--out", str(tmp_path),
                       "--set", "drives.aux_detuning_hz=1e3")
        assert proc.returncode == 2
        assert "config error: config key 'drives.aux_detuning_rad_s' = " \
            f"{2e3 * math.pi!r} would be ignored" in proc.stderr
        assert os.listdir(str(tmp_path)) == []

    def test_full_backend_reads_the_aux_detuning(self, tmp_path, capsys):
        out = str(tmp_path)
        full = ["vg", "--backend", "full", "--out", out]
        assert main(full) == 0
        resonant = read_summary(out, "vg")["headline"]["vg_m_s"]
        assert main(full + ["--set", "drives.aux_detuning_rad_s=1e6"]) == 0
        assert read_summary(out, "vg")["headline"]["vg_m_s"] != resonant
        # a zero aux detuning is what the closed form assumes
        assert main(["vg", "--out", out,
                     "--set", "drives.aux_detuning_rad_s=0"]) == 0

    def test_missing_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_subcommand(self):
        proc = run_cli("fourier")
        assert proc.returncode == 2


# One short run of each command; every one exits 0.
SIX_COMMANDS = [
    ("params",),
    ("spectrum", "--backend", "full", "--set", "grid.points_count=101"),
    ("window",),
    ("vg", "--backend", "full"),
    ("validate",),
    ("evolve", "--set", "evolve.t_end_s=1e-4",
     "--set", "evolve.samples_count=11"),
]

# Runs eitsim.__main__.run on its arguments and prints, as its last line,
# the collector's state on entry to eitsim.cli.main and the objects left
# for the collections at interpreter exit.
PROBE_RUN = """
import gc, json, sys
seen = {}
def probe(frame, event, arg):
    if (event == "call" and frame.f_code.co_name == "main"
            and frame.f_globals.get("__name__") == "eitsim.cli"):
        seen.update(enabled=gc.isenabled(), frozen=gc.get_freeze_count())
        sys.setprofile(None)
sys.setprofile(probe)
from eitsim.__main__ import run
status = run(sys.argv[1:])
print(json.dumps({"status": status, "objects": len(gc.get_objects()), **seen}))
"""


def without_duration(summary: bytes) -> bytes:
    return b"".join(line for line in summary.splitlines(keepends=True)
                    if not line.startswith(b'  "duration_s": '))


class TestEntryPoint:
    """`python -m eitsim` and the `eitsim` script run eitsim.__main__.run,
    which imports the CLI with the collector off and freezes the import
    heap.  It runs only in subprocesses here, so the test process's own
    heap is never frozen."""

    def test_run_freezes_the_import_heap(self, tmp_path):
        proc = run_python("-c", PROBE_RUN, "window", "--backend", "full",
                          "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen["status"] == 0
        assert seen["enabled"] is True
        assert seen["frozen"] > 0
        # a deterministic stand-in for the teardown time: ~400 objects
        # here, ~22,000 when the import heap is left in the generations
        assert seen["objects"] < 5000

    @pytest.mark.parametrize("argv", SIX_COMMANDS, ids=lambda a: a[0])
    def test_in_process_main_leaves_gc_alone(self, tmp_path, argv):
        before = (gc.isenabled(), gc.get_freeze_count())
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("argv, status", [
        *((argv, 0) for argv in SIX_COMMANDS),
        (("spectrum", "--set", "grid.points_count=1"), 2),
        (("evolve", "--set", "evolve.t_end_s=1e30"), 3),
        (("validate", "--set", "validate.fault_gamma52_factor=10.0"), 4),
    ], ids=lambda v: v[0] if isinstance(v, tuple) else str(v))
    def test_module_run_matches_in_process_main(self, tmp_path, capsys,
                                                argv, status):
        here, there = tmp_path / "main", tmp_path / "module"
        assert main([*argv, "--out", str(here)]) == status
        printed = capsys.readouterr().out
        proc = run_cli(*argv, "--out", str(there))
        assert proc.returncode == status, proc.stderr
        assert proc.stdout == printed.replace(str(here), str(there))
        names = sorted(os.listdir(here))
        assert sorted(os.listdir(there)) == names
        for name in names:
            mine = (here / name).read_bytes()
            theirs = (there / name).read_bytes()
            if name.endswith("_summary.json"):
                mine, theirs = without_duration(mine), without_duration(theirs)
            assert mine == theirs, name

    def test_script_runs_the_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"),
                  "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"eitsim": "eitsim.__main__:run"}


LAUNCHER = os.path.join(os.path.dirname(SRC), "perfbench", "launcher.py")


class TestTracedEntryPoint:
    """The benchmark's traced pass patches eitsim names by attribute; a
    refactor that drops one must fail here, not only under tracing."""

    @pytest.mark.parametrize("argv", [
        ("params",),
        ("evolve", "--set", "evolve.t_end_s=1e-4",
         "--set", "evolve.samples_count=11"),
        ("spectrum", "--backend", "full"),
        ("vg", "--backend", "full"),
        ("validate",),
        ("window",),
    ], ids=lambda argv: argv[0])
    def test_command_writes_spans(self, tmp_path, argv):
        spans_path = tmp_path / "spans.json"
        proc = run_python(LAUNCHER, str(spans_path), "--", *argv,
                          "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        names = {span[0] for span in json.loads(spans_path.read_text())}
        assert {"config.resolve", "materials.derive_gamma",
                f"cli.{argv[0]}"} <= names
