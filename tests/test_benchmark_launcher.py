"""The benchmark's traced pass still runs: perfbench/launcher.py patches
names in eitsim.cli, eitsim.config, eitsim.optics, eitsim.validation,
eitsim.bloch and eitsim.kernels by attribute, so renaming or removing one of
them breaks the benchmark without breaking any other test.

This goes when the launcher is retired (ROADMAP item 1, stage C).
"""

import json
import os
import subprocess
import sys

import pytest

from eitsim import bloch, optics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCHER = os.path.join(ROOT, "perfbench", "launcher.py")


@pytest.mark.parametrize("argv", [
    ["params"],
    ["evolve"],
    ["vg", "--backend", "full"],
    ["spectrum", "--backend", "full", "--jobs", "2"],
    ["window", "--backend", "full"],
    ["validate"],
], ids=" ".join)
def test_launcher_traces_the_benchmark_commands(argv, tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, LAUNCHER, str(spans), "--", *argv,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans.read_text())}
    assert {"import.eitsim", "config.resolve", f"cli.{argv[0]}"} <= names


def test_optics_forwards_only_the_patched_names():
    # the launcher reads and rebinds these four on eitsim.optics; the
    # backend's other names live in bloch and states alone
    for name in ("full_model_chi", "build_hamiltonian", "build_liouvillian",
                 "steady_state"):
        assert getattr(optics, name) is getattr(bloch, name)
    for name in ("rho_to_chi", "generator", "initial_state",
                 "STEADY_STATE_CHUNK", "_full_generator", "np", "reduction"):
        assert not hasattr(optics, name)
