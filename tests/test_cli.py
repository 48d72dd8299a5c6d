"""End-to-end command-line runs, in subprocesses and through cli.main."""

import gc
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from eitsim import bloch, optics, states, validation
from eitsim.cli import main
from eitsim.config import apply_overrides, default_document, resolve
from eitsim.constants import C_LIGHT
from eitsim.lambda_system import (chi_analytic, dchi_prime_ddelta,
                                  lambda_from_material)
from eitsim.optics import probe_angular_frequency

from lambda_oracle import exact_response

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


EPS = 2.0 ** -52
# A bare resonance (no coupling) of width gamma52 = 2 pi * 1e-10 rad/s.
BARE_NARROW_RESONANCE = (
    "--set", "drives.coupling_rabi_rad_s=0",
    "--set", "material.lifetime_2_s=1e10",
    "--set", "material.lifetime_5_s=1e10",
    "--set", "material.dephasing_52_hz=0")


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
                "--set", "drives.probe_detuning_rad_s=1570.7963267948965")
        echoed = read_summary(out, "spectrum")["resolved_config"]
        again = resolve(echoed).canonical
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(echoed, sort_keys=True)

    def test_summary_alone_reproduces_the_run(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        run_cli("spectrum", "--out", str(first),
                "--set", "grid.points_count=41",
                "--set", "drives.coupling_rabi_rad_s=2e6",
                "--set", "drives.coupling_detuning_rad_s=31415.926535897932")
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

    def test_interval_open_at_the_grid_end_is_reported(self, tmp_path,
                                                       capsys):
        # a coupling detuning of 2e6 rad/s leaves the half-absorption
        # interval around delta = 0 without a right edge: widening the grid
        # only moves that edge to the grid's end
        out = str(tmp_path)
        assert main(["window", "--out", out,
                     "--set", "drives.coupling_detuning_rad_s=2e6"]) == 0
        headline = read_summary(out, "window")["headline"]
        assert headline["truncated"] is True
        assert headline["edges_rad_s"][1] == \
            read_summary(out, "window")["resolved_config"]["grid"][
                "delta_max_rad_s"]
        printed = capsys.readouterr().out
        assert "reaches the end of the grid and may be open-ended" in printed
        assert "widen the grid" not in printed


# vg_m_s at the defaults: c / (1 + chi'/2 - omega0 * 0.5 * dchi'/ddelta)
# from the closed form, which summaries carried as vg_closed_form_m_s next
# to a finite-difference vg_m_s while the step was read.  The exact value
# rounds to ...840, one float above.
VG_AT_DEFAULTS = 21.569882082393836


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
        lam = lambda_from_material(mat, resolve({}).drives)
        group_index = (1.0 + 0.5 * chi_analytic(lam, 0.0).real
                       - probe_angular_frequency(mat) * 0.5
                       * dchi_prime_ddelta(lam, 0.0))
        assert headline["vg_m_s"] == pytest.approx(C_LIGHT / group_index,
                                                   rel=1e-15)
        assert headline["vg_m_s"] == pytest.approx(VG_AT_DEFAULTS, rel=1e-15)
        assert headline["vg_m_s"] < 50.0

    @pytest.mark.parametrize("fd_step", [None, 62.83201015142855, 100.0])
    def test_summary_with_legacy_step_replays(self, tmp_path, fd_step,
                                              capsys):
        # the resolved_config of a vg summary written while the retired
        # keys were accepted: the defaults of then, the Rabi convention
        # among them, plus the step when it was read (autofilled as
        # gamma32 / 100 or set by the user)
        current = default_document()
        since = {**current, "conventions": {**current["conventions"],
                                            "rabi_convention": "angular"}}
        written = {**since, "jobs_count": 1,
                   "solver": {"tol_rel": 1e-9, "max_steps_count": 20_000_000},
                   "vg": {} if fd_step is None
                   else {"fd_step_rad_s": fd_step}}
        config = tmp_path / "written.json"
        out = tmp_path / "replay"
        # each fault is named in document order, and nothing is written; a
        # summary written since the retired keys went holds the Rabi
        # convention alone
        for doc, named in (
                (written, "unknown config key 'conventions.rabi_convention'"),
                ({**written, "conventions": current["conventions"]},
                 "unknown config key 'jobs_count'"),
                (since, "unknown config key 'conventions.rabi_convention'")):
            config.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["vg", "--out", str(out), "--config", str(config)]) \
                == 2
            assert named in capsys.readouterr().err
            assert list(out.iterdir()) == []
        # it replays once those entries are deleted
        config.write_text(json.dumps(current), encoding="utf-8")
        assert main(["vg", "--out", str(out), "--config", str(config)]) == 0
        summary = read_summary(str(out), "vg")
        assert summary["resolved_config"] == current
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
        # a bare resonance of width 6e-10 rad/s and A = 1e275 rad/s: the
        # slope A / gamma52^2 = 2.5e293 times omega0 / 2 leaves the floats
        out = str(tmp_path)
        proc = run_cli("vg", "--out", out, *BARE_NARROW_RESONANCE,
                       "--set", "material.number_density_per_m3=1e296")
        assert proc.returncode == 3
        assert "solver error: group index -inf is not finite at " \
            "delta = 0.0 rad/s" in proc.stderr
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

    def test_analytic_far_off_resonance_is_vacuum_speed(self, tmp_path):
        # as on the full backend: the closed form's slope stays finite
        out = str(tmp_path)
        assert main(["vg", "--out", out,
                     "--set", "drives.probe_detuning_rad_s=1e80"]) == 0
        headline = read_summary(out, "vg")["headline"]
        assert headline["vg_m_s"] == pytest.approx(C_LIGHT, rel=1e-12)


class TestFarOffResonance:
    @pytest.mark.parametrize("command", ["spectrum", "window", "validate"])
    def test_overflowing_closed_form_is_a_solver_error(self, tmp_path,
                                                       command):
        # chi stays finite at every detuning while A / gamma52 does; here
        # A = 1e290 rad/s over gamma52 = 6e-20 rad/s overflows on resonance,
        # the first point of the grid that does
        out = str(tmp_path)
        proc = run_cli(command, "--out", out, *BARE_NARROW_RESONANCE,
                       "--set", "material.lifetime_2_s=1e20",
                       "--set", "material.lifetime_5_s=1e20",
                       "--set", "material.probe_dipole_c_m=1e-30",
                       "--set", "material.number_density_per_m3=1e305",
                       "--set", "grid.delta_min_rad_s=-1e120",
                       "--set", "grid.delta_max_rad_s=1e120",
                       "--set", "grid.points_count=3")
        assert proc.returncode == 3
        assert proc.stderr == (
            "solver error: susceptibility is not finite at delta = 0.0 "
            "rad/s: the closed form overflows the float range\n")
        assert proc.stdout == ""
        assert os.listdir(out) == []

    def test_far_off_resonance_spectrum_is_quiet(self, tmp_path):
        # chi stays exact out to the float maximum
        out = str(tmp_path)
        proc = run_cli("spectrum", "--out", out,
                       "--set", "grid.delta_min_rad_s=-8e307",
                       "--set", "grid.delta_max_rad_s=8e307",
                       "--set", "grid.points_count=5")
        assert proc.returncode == 0
        assert proc.stderr == ""
        run = resolve({})
        lam = lambda_from_material(run.material, run.drives)
        lines = read_csv_lines(os.path.join(out, "spectrum.csv"))[1:]
        for line in lines:
            delta, chi_re, chi_im = map(float, line.split(",")[:3])
            chi, _, scale, _ = exact_response(lam, delta)
            assert abs(complex(chi_re, chi_im) - chi) <= 4 * EPS * scale
        assert lines[-1].startswith("8e+307,6.29191693145")


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


class TestProbeRule:
    @pytest.mark.parametrize("probe", ["7.5e5", "0"])
    @pytest.mark.parametrize("command", ["spectrum", "window", "vg",
                                         "validate"])
    def test_full_backend_needs_only_a_nonzero_probe(self, tmp_path, capsys,
                                                     command, probe):
        # the six-level steady state holds at any probe: at half the
        # coupling it saturates, the window fills the whole automatic grid
        # and the closed form that validate compares with no longer holds
        out = str(tmp_path)
        argv = [command, "--out", out,
                "--set", f"drives.probe_rabi_rad_s={probe}"]
        if command != "validate":
            argv += ["--backend", "full"]
        status = main(argv)
        err = capsys.readouterr().err
        if probe == "0":
            assert status == 2
            assert err == \
                "config error: full backend needs a nonzero probe field\n"
            assert os.listdir(out) == []
            return
        headline = read_summary(out, command)["headline"]
        if command == "validate":
            assert status == 4
            assert headline["passed"] is False
            assert "validation failure" in err
        else:
            assert status == 0, err
        if command == "window":
            assert headline["truncated"] is True


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

    def test_csv_holds_the_trajectory_exactly(self, tmp_path, capsys):
        # every cell reads back as the float bloch.evolve produced
        out = str(tmp_path)
        argv = ["--set", "evolve.t_end_s=1e-4", "--set",
                "evolve.samples_count=11"]
        assert main(["evolve", "--out", out, *argv]) == 0
        run = resolve(apply_overrides({}, argv[1::2]))
        gen = bloch.build_liouvillian(run.material, run.drives,
                                      run.drives.probe_detuning)
        times, rho, _, _ = bloch.evolve(
            states.initial_state(run.evolve_initial), gen, 1e-4, n_samples=11)
        cells = [[float(c) for c in line.split(",")] for line in
                 read_csv_lines(os.path.join(out, "evolve.csv"))[1:]]
        want = np.column_stack([times, np.diagonal(rho, axis1=1, axis2=2).real,
                                np.abs(rho[:, 4, 1])])
        assert np.array_equal(np.array(cells), want)

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


# What each run prints, with "{out}" for its --out directory: the exit
# status, stdout and stderr, compared as literal text.
PRINTED = {
    ("params",): (0, """\
params: rate_convention = cyclic
  gamma_32 = 6283.2 rad/s   [pi * (1/T1(3) + 1/T1(2) + dephasing) = pi * \
(0.0025 + 0.0025 + 2000 Hz), lifetime inverses read as cyclic rates]
  gamma_52 = 47430.4 rad/s   [pi * (1/T1(5) + 1/T1(2) + dephasing) = pi * \
(6097.56 + 0.0025 + 9000 Hz), lifetime inverses read as cyclic rates]
  gamma_53 = 47430.4 rad/s
  coupling strength = 5033.53 rad/s, wavelength = 6.057e-07 m
  wrote {out}/params.json and {out}/params_summary.json
""", ""),
    ("spectrum",): (0, """\
spectrum: analytic backend, 201 points in [-2e+07, 2e+07] rad/s
  peak alpha = 113343 1/m at delta = -800000 rad/s
  alpha(0) = 291.47 1/m
  wrote {out}/spectrum.csv and {out}/spectrum_summary.json
""", ""),
    ("window",): (0, """\
window: width = 1.45371e+06 rad/s (231366 Hz)
  edges = [-726857, 726857] rad/s, threshold alpha = 275219 1/m
  wrote {out}/window_summary.json
""", ""),
    ("vg",): (0, """\
vg: 21.5699 m/s (group index 1.38987e+07) at delta = 0 rad/s \
[analytic backend]
  wrote {out}/vg_summary.json
""", ""),
    ("validate",): (0, """\
validate: max chi_im deviation = 0.7472% over 12/201 points \
(threshold 2.0000%)
  worst at delta = -800000 rad/s; chi_re deviation = 0.6563%
  wrote {out}/validate_summary.json
""", ""),
    ("evolve",): (0, """\
evolve: 201 samples to t = 0.01 s
  final populations = [3.46972e-05, 0.999817, 4.67569e-05, 2.10592e-05, \
4.57498e-05, 3.46942e-05]
  max trace drift = 3.841e-14, max hermiticity drift = 2.058e-16
  wrote {out}/evolve.csv and {out}/evolve_summary.json
""", ""),
    ("validate", "--set", "drives.probe_rabi_rad_s=1.5e4"): (4, """\
validate: max chi_im deviation = 42.9386% over 12/201 points \
(threshold 2.0000%)
  worst at delta = -800000 rad/s; chi_re deviation = 37.7133%
  wrote {out}/validate_summary.json
""", "validation failure: full model deviates from the three-level closed "
        "form beyond the threshold\n"),
    ("window", "--set", "drives.coupling_rabi_rad_s=0"): (0, """\
window: no transparency window (resonant absorption is above half the \
reference)
  wrote {out}/window_summary.json
""", ""),
}


class TestPrintedReport:
    @pytest.mark.parametrize("argv", list(PRINTED),
                             ids=lambda argv: " ".join(argv))
    def test_report_text(self, tmp_path, capsys, argv):
        status, stdout, stderr = PRINTED[argv]
        out = str(tmp_path / "out")
        assert main([*argv, "--out", out]) == status
        printed = capsys.readouterr()
        assert printed.out.replace(out, "{out}") == stdout
        assert printed.err == stderr


# Runs eitsim.__main__.run on its arguments (argparse's exit counts as the
# status) and prints, as its last line, the status, whether numpy is
# loaded, OPENBLAS_NUM_THREADS and the process's thread count.
NUMPY_PROBE = """
import os, sys
from eitsim.__main__ import run
try:
    status = run(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
threads = ([line.strip() for line in open("/proc/self/status")
            if line.startswith("Threads:")]
           if os.path.exists("/proc/self/status") else [])
print(status, "numpy" in sys.modules, os.environ["OPENBLAS_NUM_THREADS"],
      *threads)
"""


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

    @pytest.mark.parametrize("argv, status", [
        (("params", "--out", "{out}"), 0),
        (("--help",), 0),
        (("params", "--bogus"), 2),
        (("spectrum", "--out", "{out}", "--set", "nope.key_rad_s=1"), 2),
        (("evolve", "--out", "{out}", "--set", "material.lifetime_5_s=0"),
         2),
        (("spectrum", "--out", "{out}"), 0),
        (("window", "--out", "{out}"), 0),
        (("vg", "--out", "{out}", "--backend", "analytic"), 0),
    ], ids=["params", "help", "usage-error", "config-error",
            "material-error", "spectrum", "window", "vg"])
    def test_commands_that_do_not_compute_load_no_numpy(self, tmp_path,
                                                        argv, status):
        # numpy and the six-level model load only for evolve, validate and
        # the full backend, once the configuration has resolved: the
        # closed-form spectrum, window and vg run on the standard library
        argv = [arg.format(out=tmp_path) for arg in argv]
        proc = run_python("-c", NUMPY_PROBE, *argv)
        assert proc.stdout.splitlines()[-1].split()[:2] == [str(status),
                                                             "False"]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs /proc/self/status")
    def test_a_command_that_computes_loads_numpy_on_one_blas_thread(
            self, tmp_path):
        for argv in (("window", "--backend", "full"),
                     ("spectrum", "--backend", "full"),
                     ("validate",),
                     ("evolve", "--set", "evolve.t_end_s=1e-4",
                      "--set", "evolve.samples_count=11")):
            proc = run_python("-c", NUMPY_PROBE, *argv, "--out",
                              str(tmp_path), OPENBLAS_NUM_THREADS=None)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1].split() == [
                "0", "True", "1", "Threads:", "1"], argv


    def test_a_full_run_loads_no_dataclasses(self, tmp_path):
        # every record is a namedtuple: the package imports no dataclasses
        proc = run_python("-c", "import sys\n"
                                "from eitsim.__main__ import run\n"
                                "status = run(sys.argv[1:])\n"
                                "print(status, 'dataclasses' in sys.modules)",
                          "vg", "--backend", "full", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"


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

    def test_single_point_grid_rejected(self, tmp_path):
        proc = run_cli("spectrum", "--out", str(tmp_path),
                       "--set", "grid.points_count=1")
        assert proc.returncode == 2

    @pytest.mark.parametrize("command", [
        ("spectrum", "--backend", "analytic"),
        ("spectrum", "--backend", "full"),
        ("validate",),
    ], ids=["analytic", "full", "validate"])
    def test_non_increasing_grid_refused_before_the_solve(
            self, tmp_path, capsys, monkeypatch, command):
        # one ulp cannot hold five increasing points; neither backend may
        # solve a point of such a grid, and validate refuses it alike
        def solve(*args):
            raise AssertionError("the backend ran")
        for module in (bloch, validation):
            monkeypatch.setattr(module, "full_model_chi", solve)
        for module in (optics, validation):
            monkeypatch.setattr(module, "chi_analytic", solve)
        status = main([*command, "--out", str(tmp_path),
                       "--set", "grid.delta_min_rad_s=1",
                       "--set", "grid.delta_max_rad_s=1.0000000000000002",
                       "--set", "grid.points_count=5"])
        assert status == 2
        assert capsys.readouterr().err == \
            "config error: deltas must be strictly increasing\n"
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("level", [1, 2, 5])
    def test_zero_lifetime_is_one_config_error(self, tmp_path, level):
        # refused before any rate divides by it: no warning, no exit 3
        proc = run_cli("params", "--out", str(tmp_path),
                       "--set", f"material.lifetime_{level}_s=0")
        assert proc.returncode == 2
        assert proc.stderr == \
            "config error: lifetimes must be positive (inf allowed)\n"

    def test_out_blocked_by_file(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("", encoding="utf-8")
        proc = run_cli("params", "--out", str(blocked))
        assert proc.returncode == 2
        assert "io error" in proc.stderr

    @pytest.mark.parametrize("command, blocked", [
        ("spectrum", "spectrum.csv"), ("vg", "vg_summary.json")])
    def test_failed_rename_leaves_no_temp_file(self, tmp_path, capsys,
                                               command, blocked):
        # a directory in the way of the rename: exit 2, and the temp file
        # is gone with the error
        (tmp_path / blocked).mkdir()
        assert main([command, "--out", str(tmp_path)]) == 2
        printed = capsys.readouterr()
        assert printed.err.startswith("io error: ")
        assert "wrote" not in printed.out
        assert os.listdir(str(tmp_path)) == [blocked]

    def test_bad_backend_choice(self, tmp_path):
        proc = run_cli("spectrum", "--out", str(tmp_path), "--backend",
                       "turbo")
        assert proc.returncode == 2

    @pytest.mark.parametrize("command, key", [
        ("spectrum", "coupling_rabi"), ("window", "coupling_rabi"),
        ("validate", "coupling_rabi"), ("vg", "coupling_rabi"),
        ("spectrum", "coupling_detuning"), ("vg", "coupling_detuning"),
    ])
    def test_closed_form_bound_is_a_config_error(self, tmp_path, command,
                                                 key):
        proc = run_cli(command, "--out", str(tmp_path),
                       "--set", f"drives.{key}_rad_s=1e300")
        name = "omega_c" if key == "coupling_rabi" else key
        assert proc.returncode == 2
        assert f"config error: {name} = 1e+300 rad/s exceeds 1e+291 rad/s" \
            in proc.stderr
        assert "Traceback" not in proc.stderr
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("command", ["spectrum", "window", "vg"])
    def test_closed_form_at_a_coupling_of_1e200(self, tmp_path, command):
        # within the bound: chi stays finite however far the coupling
        # pushes the Autler-Townes peaks
        proc = run_cli(command, "--out", str(tmp_path),
                       "--set", "drives.coupling_rabi_rad_s=1e200")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_full_backend_window_ignores_the_closed_form_bound(self,
                                                              tmp_path):
        # the full window reads only the coupling-free closed form; its own
        # solve refuses this drive at a pole, as before the bound existed
        proc = run_cli("window", "--backend", "full", "--out", str(tmp_path),
                       "--set", "drives.coupling_rabi_rad_s=1e300")
        assert proc.returncode == 3
        assert "solver error: at delta = -5e+299 rad/s: singular " \
            "steady-state system" in proc.stderr

    @pytest.mark.parametrize("command", ["spectrum", "window", "vg",
                                         "validate"])
    def test_aux_detuning_the_closed_form_would_ignore(self, tmp_path,
                                                       command):
        # the three-level closed form has no auxiliary field
        proc = run_cli(command, "--out", str(tmp_path),
                       "--set", "drives.aux_detuning_rad_s=6283.185307179586")
        assert proc.returncode == 2
        assert "config error: config key 'drives.aux_detuning_rad_s' = " \
            f"{2e3 * math.pi!r} would be ignored" in proc.stderr
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("command", ["spectrum", "window", "vg",
                                         "validate"])
    @pytest.mark.parametrize("setting, value", [
        ("drives.coupling_detuning_rad_s=1e6", 1e6),
    ], ids=["rad_s"])
    def test_coupling_detuning_the_closed_form_would_ignore(
            self, tmp_path, command, setting, value):
        # the closed form reads the coupling detuning: every headline moves
        # with it (validate at a weak probe, where the detuned runs pass as
        # the resonant one does)
        weak = ["--set", "drives.probe_rabi_rad_s=150"]
        out = str(tmp_path)
        assert main([command, "--out", out, *weak]) == 0
        resonant = read_summary(out, command)["headline"]
        assert main([command, "--out", out, *weak, "--set", setting]) == 0
        summary = read_summary(out, command)
        assert summary["resolved_config"]["drives"][
            "coupling_detuning_rad_s"] == value
        assert summary["headline"] != resonant

    @pytest.mark.parametrize("command", ["params", "spectrum"])
    @pytest.mark.parametrize("dipole", ["2.8e136", "2e154"])
    def test_overflowing_coupling_strength_is_a_config_error(
            self, tmp_path, capsys, command, dipole):
        # N mu^2 / (eps0 hbar) is inf from mu ~ 1.3e136 C m, and Python's
        # mu**2 raises OverflowError from 1.34e154
        out = str(tmp_path)
        assert main([command, "--out", out,
                     "--set", f"material.probe_dipole_c_m={dipole}"]) == 2
        assert capsys.readouterr().err == (
            "config error: coupling strength overflows: lower config key "
            "'material.probe_dipole_c_m' or "
            "'material.number_density_per_m3'\n")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["params", "spectrum"])
    def test_overflowing_decay_rate_is_a_config_error(self, tmp_path, capsys,
                                                      command):
        # pi * 1e308 Hz of dephasing is past the float range
        out = str(tmp_path)
        assert main([command, "--out", out,
                     "--set", "material.dephasing_32_hz=1e308"]) == 2
        assert capsys.readouterr().err == (
            "config error: a coherence decay rate overflows: lower config key "
            "'material.dephasing_<ij>_hz' or raise "
            "'material.lifetime_<i>_s'\n")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("key", ["material.dephasing_32_hz=1e300",
                                     "material.lifetime_4_s=1e-300"])
    def test_full_backend_gate_wider_than_the_grid_names_sigma(
            self, tmp_path, capsys, key):
        # sigma = ||L0|| = 3.1e300, so the gate DEGENERACY_TOL *
        # sigma covers every detuning of the grid, and i sigma - 1/mu
        # cancels to a pole at 0
        assert main(["spectrum", "--backend", "full", "--out", str(tmp_path),
                     "--set", key]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "solver error: at delta = -20000000.0 rad/s: singular "
            "steady-state system: within 3.142e+292 of the pole ")
        assert err.endswith(
            "; the gate DEGENERACY_TOL * sigma = 3.142e+292 rad/s, with "
            "sigma = ||L0|| = 3.142e+300, covers this detuning\n")
        assert os.listdir(str(tmp_path)) == []

    def test_full_backend_far_detuning_keeps_its_gate(self, tmp_path):
        # ||L(delta)|| is past the float range here, and the residual gate
        # must still hold without a warning (in-process, an error)
        out = str(tmp_path)
        assert main(["vg", "--backend", "full", "--out", out,
                     "--set", "drives.probe_detuning_rad_s=1e308",
                     "--set", "drives.coupling_detuning_rad_s=-1e308"]) == 0
        assert read_summary(out, "vg")["headline"]["group_index"] == 1.0

    def test_full_backend_pole_beyond_the_float_range(self, tmp_path,
                                                      capsys):
        # 1 / mu is past the float range: no pole to keep delta off
        assert main(["vg", "--backend", "full", "--out", str(tmp_path),
                     "--set", "drives.probe_rabi_rad_s=6.45e298",
                     "--set", "material.lifetime_1_s=1.6e-247"]) == 3
        assert capsys.readouterr().err.startswith(
            "solver error: at delta = 0.0 rad/s: steady-state system has a "
            "pole beyond the float range")
        assert os.listdir(str(tmp_path)) == []

    def test_full_backend_reads_the_coupling_detuning(self, tmp_path,
                                                      capsys):
        out = str(tmp_path)
        full = ["vg", "--backend", "full", "--out", out]
        assert main(full) == 0
        resonant = read_summary(out, "vg")["headline"]["vg_m_s"]
        assert main(full + ["--set", "drives.coupling_detuning_rad_s=1e5"]) \
            == 0
        assert read_summary(out, "vg")["headline"]["vg_m_s"] != resonant

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
