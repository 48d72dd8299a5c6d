"""The output check accepts exact answers and rejects wrong ones."""

import os

import numpy as np
import pytest

import check
import oracle
import run
from workloads import Invocation


@pytest.fixture(scope="module")
def env():
    return run.build("tests")


def _run(inv, env, tmp_path):
    rec = run.spawn(inv, env, str(tmp_path / inv.command))
    return check.observe(rec.out_dir, inv.command, rec.exit)


def test_fault_injected_validate_counts_as_failed(env, tmp_path):
    expected = oracle.expected(Invocation("validate"))
    assert expected["exit"] == 0
    faulty = Invocation("validate", {"validate.fault_gamma52_factor": 10})
    seen = _run(faulty, env, tmp_path)
    passed, _, reason = check.compare(faulty, expected, seen)
    assert not passed
    assert "exit 4" in reason


def test_default_validate_passes_its_oracle(env, tmp_path):
    inv = Invocation("validate")
    passed, worst, _ = check.compare(inv, oracle.expected(inv),
                                     _run(inv, env, tmp_path))
    assert passed and worst < 1.0


def test_evolve_dp45_passes_the_exact_propagator_and_a_wrong_drive_fails(
        env, tmp_path):
    inv = Invocation("evolve", {"evolve.t_end_s": 1e-4})
    seen = _run(inv, env, tmp_path)
    passed, worst, _ = check.compare(inv, oracle.expected(inv), seen)
    assert passed and worst < 1.0
    wrong = Invocation("evolve", {"evolve.t_end_s": 1e-4,
                                  "drives.aux_rabi_rad_s": 1.5015e6})
    passed, _, reason = check.compare(inv, oracle.expected(wrong), seen)
    assert not passed and reason.startswith("populations")


def test_full_chi_passes_a_different_solver_and_a_wrong_coupling_fails(
        env, tmp_path):
    inv = Invocation("spectrum", {"grid.points_count": 21}, backend="full")
    seen = _run(inv, env, tmp_path)
    passed, worst, _ = check.compare(inv, oracle.expected(inv), seen)
    assert passed and worst < 1.0
    wrong = Invocation("spectrum", {"grid.points_count": 21,
                                    "drives.coupling_rabi_rad_s": 1.5015e6},
                       backend="full")
    passed, _, reason = check.compare(inv, oracle.expected(wrong), seen)
    assert not passed and reason.startswith("chi")


def test_headline_tolerance_is_relative():
    inv = Invocation("window")
    want = {"exit": 0, "headline": {"width_rad_s": 1.0e6}}
    near = {"exit": 0, "headline": {"width_rad_s": 1.0e6 * (1 + 1e-7)}}
    far = {"exit": 0, "headline": {"width_rad_s": 1.0e6 * (1 + 1e-5)}}
    assert check.compare(inv, want, near)[0]
    assert not check.compare(inv, want, far)[0]


def test_stored_references_round_trip():
    seen = {"exit": 0, "chi": np.array([1 + 2j, 3 - 4j]),
            "headline": {"peak_alpha_per_m": 5.0, "backend": "analytic"}}
    stored = check.load_expected(
        check.dump_reference(Invocation("spectrum"), seen))
    assert check.compare(Invocation("spectrum"), stored, seen)[0]


def test_every_stored_seed_has_a_reference_file():
    for seed in (1, 2):
        assert os.path.exists(check.reference_path(run.ROOT, seed))
