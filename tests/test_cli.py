"""End-to-end command-line runs in subprocesses."""

import json
import math
import os
import subprocess
import sys

import pytest

from eitsim.config import resolve

CSV_HEADER = "delta_rad_s,chi_re,chi_im,n,alpha_per_m"


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_cli(*argv):
    """Run `python -m eitsim ...` against this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "eitsim", *argv],
                          capture_output=True, text=True, env=env)


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


class TestVg:
    def test_analytic_slow_light(self, tmp_path):
        out = str(tmp_path)
        proc = run_cli("vg", "--out", out)
        assert proc.returncode == 0, proc.stderr
        headline = read_summary(out, "vg")["headline"]
        assert headline["vg_m_s"] < 50.0
        assert headline["anomalous_dispersion"] is False
        assert headline["fd_vs_closed_form_rel"] < 1e-4
        assert headline["vg_m_s"] == pytest.approx(
            headline["vg_closed_form_m_s"], rel=1e-4)

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

    def test_missing_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_subcommand(self):
        proc = run_cli("fourier")
        assert proc.returncode == 2
