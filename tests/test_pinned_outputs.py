"""Byte-level pins of every file the CLI writes for its default runs.

Each case runs cli.main in-process into its own directory and compares the
SHA-256 of every CSV and params.json, and of each summary as
json.dumps(summary, sort_keys=True) without its duration_s, with the digest
recorded before.  A refactor that claims unchanged outputs must leave every
digest as it is.

The digests were recorded with numpy 2.4.6 on scipy-openblas 0.3.31 (one
BLAS thread); another numpy or BLAS may move a last digit.  A change that
deliberately moves digits re-records them here and says so in CHANGES.md.
"""

import hashlib
import json
import os

import pytest

from eitsim.cli import main

PINNED = {
    ("spectrum",): {
        "spectrum.csv":
            "5e60e1404eac81b8dcbf87d0e81733ec011ee8669158ec64b69f856a6e45ffa5",
        "spectrum_summary.json":
            "aa00d2d8d96a2fda9d62a874881a1bb2b9f2db9e447146dbbd4af588d170ab71",
    },
    ("window",): {
        "window_summary.json":
            "c8a39b7a00b6a99851b2050d923eabb47532009639d2de33fded9a49ffef40a0",
    },
    ("vg",): {
        "vg_summary.json":
            "a9f7e83cf00e7eee7313b281cadaac353a0a08150ac0597a924a8024bf298dc0",
    },
    ("validate",): {
        "validate_summary.json":
            "af3fdfd3448ed6521b74089d5df033b44b106856aa7837e2e5ea44e5d762d52f",
    },
    ("evolve",): {
        "evolve.csv":
            "a4ea54c7b73da5c3b938a1cdf779088c583aae72abc3c804d0dd94bbdf734688",
        "evolve_summary.json":
            "833e58a672f2e7ec8b6c840b555e58378056f27dbae8491dcfa0c2d234e145e0",
    },
    ("params",): {
        "params.json":
            "3ff36adfad5e548740ed50f2698c336f904f713876918c6e66131a4e1d374032",
        "params_summary.json":
            "6967992f9473261f3147ddd39abd0ce4b2da8ebfea37786dda5b158891668bd8",
    },
    ("spectrum", "--backend", "full"): {
        "spectrum.csv":
            "90a232f185fcce2ac11aa8ce6690a5863306d46b234bad79791497faa8765a08",
        "spectrum_summary.json":
            "4010f832c01a1a5f45608add3dfb0cdb579743b52ae3d70b7385f52e6b642701",
    },
    ("window", "--backend", "full"): {
        "window_summary.json":
            "700680bcf0433c9408150cd7940f6323ba41e0bc3042e78e462a42d5c2e6297e",
    },
    ("vg", "--backend", "full"): {
        "vg_summary.json":
            "cdf8e5374af5520ea5701a5e4c78ea10c1f0d55416a9aa607660572f973853c5",
    },
    ("evolve", "--set", "evolve.initial_state=level_5"): {
        "evolve.csv":
            "d3b3f829d34d18264626646c46a4e5e65bce6103d732f18a0c5351c00be51cfa",
        "evolve_summary.json":
            "7837a95e5ba52f8e8dc3ffd110d29924d3c5507b940e10a84697414d5e9e998b",
    },
    # Detuned fields: every level's rotating-frame phase is nonzero.
    ("evolve", "--set", "drives.probe_detuning_rad_s=2e5",
     "--set", "drives.coupling_detuning_rad_s=-3e5",
     "--set", "drives.aux_detuning_rad_s=1e6"): {
        "evolve.csv":
            "6da0c18e965ac341e1d049559a3b3d14dbfdc2290dfdc1c7e63c70ccf459f83c",
        "evolve_summary.json":
            "272cbc99becc2288652c915ffa426ad0299288de2d72f1eb606a0b257ffa81a6",
    },
    ("spectrum", "--backend", "full",
     "--set", "drives.coupling_detuning_rad_s=-3e5",
     "--set", "drives.aux_detuning_rad_s=1e6"): {
        "spectrum.csv":
            "e135ea9b42893ffb9e43fa097d13f2a2b34042eea50176b330e48ff7d10d6748",
        "spectrum_summary.json":
            "814d4b09c9c7b95cd843fa81a51fcc5514f1f074c0d116b5772018146cbc77ad",
    },
    ("vg", "--backend", "full",
     "--set", "drives.probe_detuning_rad_s=2e5",
     "--set", "drives.coupling_detuning_rad_s=-3e5"): {
        "vg_summary.json":
            "c7fe39f4593adb788fc758d88588249bf9974f7ba955a0eeb8f6375f46417dad",
    },
    # The closed form's coupling detuning; validate at a weak probe, where
    # the detuned comparison passes.
    ("spectrum", "--set", "drives.coupling_detuning_rad_s=-3e5"): {
        "spectrum.csv":
            "08628e3896452f3a3a84997822e8129dda9395f2e9c89f9c0553fbf1727063cb",
        "spectrum_summary.json":
            "6ee3dad6fcfba5219ca7052a0efd86cee9c1975cce593861648684abb44985f9",
    },
    ("window", "--set", "drives.coupling_detuning_rad_s=-3e5"): {
        "window_summary.json":
            "5cca6fdf52b111b454148be3923565b72dce0e24046942e0080dc1bc03645995",
    },
    ("vg", "--set", "drives.probe_detuning_rad_s=2e5",
     "--set", "drives.coupling_detuning_rad_s=-3e5"): {
        "vg_summary.json":
            "09f951e01b175c1bbe198b72fb2639a703ba1bc981858a4039c01ef0c96dc61c",
    },
    ("validate", "--set", "drives.coupling_detuning_rad_s=-3e5",
     "--set", "drives.probe_rabi_rad_s=150"): {
        "validate_summary.json":
            "4ef92bd33d4b73e29b7fdd536acff2f8e52369f1933f15e437fc683003608862",
    },
}


def output_digests(out_dir):
    """{file name: SHA-256 hex digest} of everything written to out_dir."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name.endswith("_summary.json"):
            summary = json.loads(data)
            del summary["duration_s"]
            data = json.dumps(summary, sort_keys=True).encode("utf-8")
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
def test_outputs_match_recorded_digests(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert output_digests(str(tmp_path)) == PINNED[argv]
