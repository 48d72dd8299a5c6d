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
            "8d96c6c87b3bbde352d1da8e99d37670dd7c7df0b1e6fb8ed4412c28841259e6",
    },
    ("window",): {
        "window_summary.json":
            "5cecbcc03ea4a25dd3eb30663ca7d401ecf4f963bbc8ac8327dd26f57c7bb098",
    },
    ("vg",): {
        "vg_summary.json":
            "93408dc619699644d35808782828374f27f1d8147d1f64477df00821187bf7c0",
    },
    ("validate",): {
        "validate_summary.json":
            "03332055c669ecdc9bd4d49567d4c85da149d90803041e0a07806d4b62afcf22",
    },
    ("evolve",): {
        "evolve.csv":
            "a4ea54c7b73da5c3b938a1cdf779088c583aae72abc3c804d0dd94bbdf734688",
        "evolve_summary.json":
            "ecfb44cb00c1172989581303be7f946f3f5816bfad285518dfcc3cb3fa421069",
    },
    ("params",): {
        "params.json":
            "3ff36adfad5e548740ed50f2698c336f904f713876918c6e66131a4e1d374032",
        "params_summary.json":
            "99d3eace5e5ea8f93dafea4a55787edc2ca7bfed3ec430c948d6e473cbd1b875",
    },
    ("spectrum", "--backend", "full"): {
        "spectrum.csv":
            "90a232f185fcce2ac11aa8ce6690a5863306d46b234bad79791497faa8765a08",
        "spectrum_summary.json":
            "471e1c06eef7985cbcd0d6f77fd1e9c6dfa9061b31200249d6de582e3b03c927",
    },
    ("window", "--backend", "full"): {
        "window_summary.json":
            "ae8307df5028e208e50e6e6562271eae055e80c5e6464b5df8eee119c872169c",
    },
    ("vg", "--backend", "full"): {
        "vg_summary.json":
            "215cf4cbbd0f044797f25a93ca83d6ab5c2192b5777aa69d63ddae3be7a60956",
    },
    ("evolve", "--set", "evolve.initial_state=level_5"): {
        "evolve.csv":
            "d3b3f829d34d18264626646c46a4e5e65bce6103d732f18a0c5351c00be51cfa",
        "evolve_summary.json":
            "26b121bbde1fb7c32db8d51e6b936a61a22621653eb7890c9a2edced1b9ec065",
    },
    # Detuned fields: every level's rotating-frame phase is nonzero.
    ("evolve", "--set", "drives.probe_detuning_rad_s=2e5",
     "--set", "drives.coupling_detuning_rad_s=-3e5",
     "--set", "drives.aux_detuning_rad_s=1e6"): {
        "evolve.csv":
            "6da0c18e965ac341e1d049559a3b3d14dbfdc2290dfdc1c7e63c70ccf459f83c",
        "evolve_summary.json":
            "5841cc3e51bf12a59db822e643782bb6887410443004aa330fe91b62f76081e4",
    },
    ("spectrum", "--backend", "full",
     "--set", "drives.coupling_detuning_rad_s=-3e5",
     "--set", "drives.aux_detuning_rad_s=1e6"): {
        "spectrum.csv":
            "e135ea9b42893ffb9e43fa097d13f2a2b34042eea50176b330e48ff7d10d6748",
        "spectrum_summary.json":
            "6fbee7b8100dc7fbe16af585f2901d1b099383702c79a5c2bd73d5b78b3f2cb2",
    },
    ("vg", "--backend", "full",
     "--set", "drives.probe_detuning_rad_s=2e5",
     "--set", "drives.coupling_detuning_rad_s=-3e5"): {
        "vg_summary.json":
            "45b54ceb4b26d080b7d90adffff4cd48d9c7fba7e7bac45c30971f572c617c13",
    },
    # The closed form's coupling detuning; validate at a weak probe, where
    # the detuned comparison passes.
    ("spectrum", "--set", "drives.coupling_detuning_rad_s=-3e5"): {
        "spectrum.csv":
            "08628e3896452f3a3a84997822e8129dda9395f2e9c89f9c0553fbf1727063cb",
        "spectrum_summary.json":
            "43ea43921569e77dea33002d331fb629c8944db0c43a61f2c3924d6cd717ef7d",
    },
    ("window", "--set", "drives.coupling_detuning_rad_s=-3e5"): {
        "window_summary.json":
            "44d02b964c167386a7507a64d521d7017743ef9b35c7044eac5f34a45f2f7560",
    },
    ("vg", "--set", "drives.probe_detuning_rad_s=2e5",
     "--set", "drives.coupling_detuning_rad_s=-3e5"): {
        "vg_summary.json":
            "be068f7e0c226553c73ede20d62fd8d63819135b050a04735cc7f033f0552663",
    },
    ("validate", "--set", "drives.coupling_detuning_rad_s=-3e5",
     "--set", "drives.probe_rabi_rad_s=150"): {
        "validate_summary.json":
            "c613e3d07c9a443cad73a4272b9f51b0de64b33ac4cafda46952c2b71f0e1333",
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
