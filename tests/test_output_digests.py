"""The byte contract as a digest table.

Every command runs through `cli.main`, in process, on the synthetic splits of
conftest: a one-step `train`, then on that model a `ber-sweep` whose BERs take
both scoring paths, an `acc-energy`, and an `energy-curve` in each mode. The
sha256 of every CSV, the model and the log, and of each manifest's key
sequence (its values hold paths and wall times), must equal DIGESTS.

The floats summed on the way are exact or BLAS-order independent, so the
bytes do not depend on the BLAS; numpy's Generator streams, however, are not
promised across numpy versions. So the table records the numpy major.minor it
was made with, and on another one the digest comparison skips, naming both
versions. Every command still runs twice, in separate directories, and the
two runs must give the same bytes.

A change that means to change output bytes rewrites the table and says why.
"""

import hashlib

import numpy as np
import pytest

from bitflip_bnn.cli import main

# both scoring paths of the sweep: the incremental one up to
# faultsim.INCREMENTAL_MAX_BER, the dense one above it
SWEEP_BERS = "0.0,1e-06,0.0001,0.001,0.01,0.2"
ENERGY_BERS = "0.1,0.001,1e-05"
SAMPLES = "2000"

TABLE_NUMPY = "2.4"
DIGESTS = {
    "acc.csv": "7550ba9f59d48ea83116e3474d076881bafbbc3cb25b7de8d937aca9d1ead85c",
    "acc.csv.manifest": "4a53c1f3a66fcb24544d73a42eb5b47565433603ac54770b68db62a877051070",
    "energy_intrinsic.csv": "aa3d842c60d94891afa2f42783ed9110390e22e56ee91c0783ab413059f79894",
    "energy_intrinsic.csv.manifest": "06539daa76cd0ffe6a74b095f3fd2501c8d153c088ae217fab230a5992b34582",
    "energy_variations.csv": "2ab3e964b3d6c9905955db4d119be8460a7433fd53b1918f4ba2fb58b974d00c",
    "energy_variations.csv.manifest": "06539daa76cd0ffe6a74b095f3fd2501c8d153c088ae217fab230a5992b34582",
    "model.bnn": "dc5f2b821847e8ae672ee1a0dff5ff1d3dc0b2656141e884d3688cb36b2586aa",
    "model.bnn.log.csv": "c746ea3c3f08e37fb3363b795d400bd1f8bdf65d9ac7188e8b36a6b963d00edd",
    "model.bnn.log.csv.manifest": "85fb8a97160dd408ff0c0ad2bce046cb9530aa0099901d52614d4cc8f6bd3064",
    "sweep.csv": "13fa8189db114e7e2d9cc3b5eb32c10087d849094d7471a46e5c0de499c1ac81",
    "sweep.csv.manifest": "fd4fee6ad2da9addfab0aee8a3cf779f5b633d6028f8c695d8872b03c837dd48",
    "sweep_trials.csv": "94df9c2b43441ff2687c27fae92a384fbdd68bc4430903f367ce6319ef3dbaca",
}


def _commands(data_dir, out) -> list[list[str]]:
    data, model = str(data_dir), str(out / "model.bnn")
    energy = ["--bers", ENERGY_BERS, "--samples", SAMPLES, "--seed", "5"]
    return [
        # the arguments of tests/test_cli.py's `weak` model
        ["train", "--data-dir", data, "--out", model,
         "--epochs", "1", "--batch", "20", "--seed", "3", "--limit", "20"],
        ["ber-sweep", "--model", model, "--data-dir", data, "--bers", SWEEP_BERS,
         "--trials", "2", "--seed", "6", "--out", str(out / "sweep.csv")],
        ["acc-energy", "--model", model, "--data-dir", data, *energy, "--trials", "2",
         "--mode", "variations", "--out", str(out / "acc.csv")],
        ["energy-curve", *energy, "--mode", "intrinsic",
         "--out", str(out / "energy_intrinsic.csv")],
        ["energy-curve", *energy, "--mode", "variations",
         "--out", str(out / "energy_variations.csv")],
    ]


def _digests(out) -> dict[str, str]:
    """sha256 of each output file of `out`; of its key sequence for a manifest."""
    table = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".manifest":
            keys = [line.split("=", 1)[0] for line in path.read_text().splitlines()]
            data = "\n".join(keys).encode()
        table[path.name] = hashlib.sha256(data).hexdigest()
    return table


@pytest.fixture(scope="module")
def runs(tmp_path_factory, synth_data_dir) -> list[dict[str, str]]:
    """The output digests of two runs of every command, each in its own directory."""
    found = []
    for run in range(2):
        out = tmp_path_factory.mktemp(f"digests{run}")
        for argv in _commands(synth_data_dir, out):
            assert main(argv) == 0, argv
        manifest = (out / "sweep.csv.manifest").read_text().splitlines()
        stats = dict(line.split("=", 1) for line in manifest)
        assert int(stats["sweep.incremental_trials"]) > 0 and int(stats["sweep.dense_trials"]) > 0
        found.append(_digests(out))
    return found


def test_every_command_repeats_its_bytes(runs):
    first, second = runs
    assert sorted(first) == sorted(DIGESTS)
    assert [name for name in first if first[name] != second[name]] == []


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_the_digest_table(runs, name):
    numpy = ".".join(np.__version__.split(".")[:2])
    if numpy != TABLE_NUMPY:
        pytest.skip(f"digest table made with numpy {TABLE_NUMPY}, running numpy {numpy}")
    assert runs[0][name] == DIGESTS[name], f"{name} changed its bytes"
