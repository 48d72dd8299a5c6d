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
            "5e71ba438076e22226ade8f928b3e00472bd707d7dd007e71db66a19ee14f1d8",
    },
    ("window",): {
        "window_summary.json":
            "593f476bcf3bacc5777f2316d00dd3ebf4e4ab9468995ed0e566ceba1abce02a",
    },
    ("vg",): {
        "vg_summary.json":
            "938e5368a889400823767225702cacc480c7d6f79495f651556ba68d066e3782",
    },
    ("validate",): {
        "validate_summary.json":
            "a2c34400762481a3cc938ed2fe3ade06852a42131f696b43ce41878b0291b6ba",
    },
    ("evolve",): {
        "evolve.csv":
            "a4ea54c7b73da5c3b938a1cdf779088c583aae72abc3c804d0dd94bbdf734688",
        "evolve_summary.json":
            "dcc091fe2a404493a233d4cd591bd1356959705b93000d0af1313f08367a7517",
    },
    ("params",): {
        "params.json":
            "3ff36adfad5e548740ed50f2698c336f904f713876918c6e66131a4e1d374032",
        "params_summary.json":
            "60aa85673c8ede13919d7089b8cb127a31f76d354bef6218c437a65c01d4abe6",
    },
    ("spectrum", "--backend", "full"): {
        "spectrum.csv":
            "90a232f185fcce2ac11aa8ce6690a5863306d46b234bad79791497faa8765a08",
        "spectrum_summary.json":
            "ea2e12a8893608383a1e04fa6c25577969e318fc13e263ebb67e7e1d99bc4626",
    },
    ("window", "--backend", "full"): {
        "window_summary.json":
            "a92d6dac6f7d891f12302aafa2747d3e1d91c190134b26b7e5f78ac2c0dc4827",
    },
    ("vg", "--backend", "full"): {
        "vg_summary.json":
            "8a2d9d646814bf78c619a240cab92b924d8a73796594c7fb16253ba78bff8802",
    },
    ("evolve", "--set", "evolve.initial_state=level_5"): {
        "evolve.csv":
            "d3b3f829d34d18264626646c46a4e5e65bce6103d732f18a0c5351c00be51cfa",
        "evolve_summary.json":
            "5aed00f93e81cb6b63f6f6d3c766b04b03dbaa1d307c9731b6e46f8d40be0aa4",
    },
    # Detuned fields: every level's rotating-frame phase is nonzero.
    ("evolve", "--set", "drives.probe_detuning_rad_s=2e5",
     "--set", "drives.coupling_detuning_rad_s=-3e5",
     "--set", "drives.aux_detuning_rad_s=1e6"): {
        "evolve.csv":
            "6da0c18e965ac341e1d049559a3b3d14dbfdc2290dfdc1c7e63c70ccf459f83c",
        "evolve_summary.json":
            "adfe85171e29554e8950b84765f6aa1d052f1ce17a784456aad0f6bc3f59c9eb",
    },
    ("spectrum", "--backend", "full",
     "--set", "drives.coupling_detuning_rad_s=-3e5",
     "--set", "drives.aux_detuning_rad_s=1e6"): {
        "spectrum.csv":
            "e135ea9b42893ffb9e43fa097d13f2a2b34042eea50176b330e48ff7d10d6748",
        "spectrum_summary.json":
            "3d863d5e152604a8b4f179dae9e6c0beb52c7e4f39905414e04e3c634d15e1f2",
    },
    ("vg", "--backend", "full",
     "--set", "drives.probe_detuning_rad_s=2e5",
     "--set", "drives.coupling_detuning_rad_s=-3e5"): {
        "vg_summary.json":
            "000bc8295e30e639cdb80e67268325f806fe537efe7a5b7996492ac249546af0",
    },
    # The closed form's coupling detuning; validate at a weak probe, where
    # the detuned comparison passes.
    ("spectrum", "--set", "drives.coupling_detuning_rad_s=-3e5"): {
        "spectrum.csv":
            "08628e3896452f3a3a84997822e8129dda9395f2e9c89f9c0553fbf1727063cb",
        "spectrum_summary.json":
            "e5b79cb80806ef3a20d57f39a07016c9c1b0f89936e5199a3d8bbec9c5086d91",
    },
    ("window", "--set", "drives.coupling_detuning_rad_s=-3e5"): {
        "window_summary.json":
            "9e52921b59c3400db64afefcea2ce3818580ba59925a2e6818cf961045d062c3",
    },
    ("vg", "--set", "drives.probe_detuning_rad_s=2e5",
     "--set", "drives.coupling_detuning_rad_s=-3e5"): {
        "vg_summary.json":
            "59a04f42a46f57ed8846c4ee2d2d78ed1e6f6ee04353a952a57f2fa19e18867b",
    },
    ("validate", "--set", "drives.coupling_detuning_rad_s=-3e5",
     "--set", "drives.probe_rabi_rad_s=150"): {
        "validate_summary.json":
            "c0e29e8cad086ffd9493079e84463512fc0c1a879b90838569379bc6757a9cb2",
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
