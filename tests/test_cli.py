import errno
import importlib.util
import os
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import bitflip_bnn
from bitflip_bnn.bitcore import BitTensor, load_model, model_predict_batch
from bitflip_bnn.cli import main
from bitflip_bnn.faultsim import INCREMENTAL_MAX_BER, flip_bits, trial_seed
from bitflip_bnn import mtj
from bitflip_bnn.mnist_io import (
    TEST_IMAGES,
    TEST_LABELS,
    binarize_input,
    load_dataset,
    load_idx_images,
    load_idx_labels,
)
from bitflip_bnn.mtj import WITH_DEVICE_VARIATIONS, parse_device_config
from tests.conftest import same_bits, synthetic_dataset, write_idx_images, write_idx_labels
from tests.test_bitcore import fan_in_bound_model_bytes
from tests.test_mtj import OUT_OF_RANGE_DEVICES
from tests.test_mtj_reference import reference_energy_ber_curve


# where /proc is missing the manifest falls back to ru_maxrss
PEAK_RSS_SOURCE = "vmhwm" if Path("/proc/self/status").exists() else "ru_maxrss"


def test_every_public_name_resolves():
    for name in bitflip_bnn.__all__:
        assert getattr(bitflip_bnn, name, None) is not None, name


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_data_dir):
    """A small model trained through the CLI, shared by the query commands."""
    out = tmp_path_factory.mktemp("cli") / "model.bnn"
    code = main(
        [
            "train",
            "--data-dir", str(synth_data_dir),
            "--out", str(out),
            "--epochs", "2",
            "--batch", "50",
            "--seed", "3",
            "--limit", "1200",
        ]
    )
    assert code == 0
    return out


def test_train_writes_model_log_and_manifest(trained):
    model = load_model(trained)
    assert model.layers[0].in_features == 784
    assert model.layers[-1].out_features == 10
    log = trained.parent / (trained.name + ".log.csv")
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,test_accuracy"
    assert len(lines) == 3
    manifest = (log.parent / (log.name + ".manifest")).read_text()
    assert "command=train" in manifest
    assert "param.seed=3" in manifest
    assert "duration_s=" in manifest


def test_train_same_seed_reproduces_model_bytes(tmp_path, synth_data_dir, trained):
    out = tmp_path / "again.bnn"
    code = main(
        [
            "train",
            "--data-dir", str(synth_data_dir),
            "--out", str(out),
            "--epochs", "2",
            "--batch", "50",
            "--seed", "3",
            "--limit", "1200",
        ]
    )
    assert code == 0
    assert out.read_bytes() == trained.read_bytes()


def test_train_bytes_same_for_any_blas_thread_count(synth_data_dir, tmp_path):
    # training's matmuls are rounded float sums; OpenBLAS splits a product among
    # its threads by output blocks, so each sum is added in one order whatever
    # the thread count, and model and log keep their bytes
    src = Path(bitflip_bnn.__file__).resolve().parent.parent
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}" / "model.bnn"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run(
            [
                sys.executable, "-m", "bitflip_bnn.cli", "train",
                "--data-dir", str(synth_data_dir),
                "--out", str(out),
                "--epochs", "2",
                "--batch", "64",
                "--seed", "4",
                "--limit", "600",
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append((out.read_bytes(), (out.parent / "model.bnn.log.csv").read_bytes()))
    assert outputs[0] == outputs[1]


ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
ORACLE_SWEEP_BERS = [0.0, 1e-6, 1e-4, 1e-3, 1e-2, 0.2]  # both scoring paths of the sweep
# a device unlike the built-in nominal one in every key, so none of them is ignored
ORACLE_DEVICE = """\
diameter_nm=40
ra_ohm_um2=5
tmr=1.2
vc_mv=200
v_over_vc=1.8
tau0_ns=1.5
gamma_k=12
sigma_tmr_rel=0.04
sigma_rp_rel=0.06
"""


@pytest.fixture(scope="module")
def oracle():
    """perfbench's output oracles, which share no code with the package."""
    if not ORACLE.exists():
        pytest.skip("perfbench/oracle.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _test_split(data_dir):
    return load_idx_images(data_dir / TEST_IMAGES), load_idx_labels(data_dir / TEST_LABELS)


def _sweep_agrees_with_the_oracle(oracle, model, data_dir, out_dir) -> list[list[str]]:
    """Run ber-sweep over ORACLE_SWEEP_BERS, check it by the oracle; return the trial rows."""
    bers = ",".join(map(repr, ORACLE_SWEEP_BERS))
    args = [
        "ber-sweep", "--model", str(model), "--data-dir", str(data_dir),
        "--bers", bers, "--trials", "2", "--seed", "6", "--out", str(out_dir / "sweep.csv"),
    ]
    assert main(args) == 0
    manifest = (out_dir / "sweep.csv.manifest").read_text().splitlines()
    stats = dict(line.split("=", 1) for line in manifest)
    assert int(stats["sweep.incremental_trials"]) > 0 and int(stats["sweep.dense_trials"]) > 0
    pixels, labels = _test_split(data_dir)
    assert oracle.check_sweep(out_dir, model, pixels, labels, ORACLE_SWEEP_BERS, 2, 6) == []
    return [line.split(",") for line in (out_dir / "sweep_trials.csv").read_text().splitlines()[1:]]


def test_ber_sweep_agrees_with_the_oracle(oracle, trained, synth_data_dir, tmp_path):
    _sweep_agrees_with_the_oracle(oracle, trained, synth_data_dir, tmp_path)


@pytest.fixture(scope="module")
def weak(tmp_path_factory, synth_data_dir):
    """A model of one training step on 20 images, trained through the CLI.

    `trained` scores every test image right at every BER up to 1e-2, so its
    sweep can differ from the oracle's only in the dense rows. This one is
    right on about 3 test images in 4, and weight flips at the lowest BERs
    already move some of its predictions.
    """
    out = tmp_path_factory.mktemp("weak") / "model.bnn"
    args = [
        "train", "--data-dir", str(synth_data_dir), "--out", str(out),
        "--epochs", "1", "--batch", "20", "--seed", "3", "--limit", "20",
    ]
    assert main(args) == 0
    return out


def test_ber_sweep_agrees_with_the_oracle_where_low_bers_move_predictions(
    oracle, weak, synth_data_dir, tmp_path
):
    rows = _sweep_agrees_with_the_oracle(oracle, weak, synth_data_dir, tmp_path)
    clean = {accuracy for ber, _, accuracy in rows if float(ber) == 0.0}
    low = [accuracy for ber, _, accuracy in rows if 0.0 < float(ber) <= INCREMENTAL_MAX_BER]
    # else the incremental trials could not disagree with the oracle at all
    assert low and any(accuracy not in clean for accuracy in low)


def test_energy_curve_agrees_with_the_oracle(oracle, tmp_path):
    device = tmp_path / "device.cfg"
    device.write_text(ORACLE_DEVICE)
    bers = [1e-1, 1e-2, 1e-3, 1e-4]
    args = [
        "energy-curve", "--device", str(device), "--bers", ",".join(map(repr, bers)),
        "--samples", "20000", "--mode", "variations", "--seed", "9",
        "--out", str(tmp_path / "energy.csv"),
    ]
    assert main(args) == 0
    assert oracle.check_energy(tmp_path, ORACLE_DEVICE, bers, 20000, 9) == []


def test_train_model_and_log_agree_with_the_oracle(oracle, trained, synth_data_dir):
    pixels, labels = _test_split(synth_data_dir)
    assert oracle.check_train(trained.parent, pixels, labels, (784, 1024, 1024, 10)) == []


def test_train_missing_data_dir(tmp_path):
    code = main(
        ["train", "--data-dir", str(tmp_path / "nope"), "--out", str(tmp_path / "m.bnn")]
    )
    assert code == 3


def test_eval_prints_accuracy(trained, synth_data_dir, capsys):
    assert main(["eval", "--model", str(trained), "--data-dir", str(synth_data_dir)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("accuracy=")
    assert 0.9 <= float(out.split("=")[1]) <= 1.0


def test_eval_rejects_bad_model(tmp_path, synth_data_dir):
    bad = tmp_path / "bad.bnn"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    assert main(["eval", "--model", str(bad), "--data-dir", str(synth_data_dir)]) == 3


@pytest.mark.parametrize(
    "n,rows,cols,what,offset",
    [(0, 28, 28, "images", 4), (3, 0, 28, "rows", 8), (3, 28, 0, "columns", 12)],
)
def test_eval_zero_image_dimension_is_format_error(
    n, rows, cols, what, offset, trained, tmp_path, capsys
):
    data = tmp_path / "data"
    data.mkdir()
    write_idx_images(data / TEST_IMAGES, np.zeros((n, rows, cols), dtype=np.uint8))
    write_idx_labels(data / TEST_LABELS, np.zeros(n, dtype=np.uint8))
    assert main(["eval", "--model", str(trained), "--data-dir", str(data)]) == 3
    err = capsys.readouterr().err
    assert f"image header declares 0 {what} (at byte offset {offset})" in err


def test_ber_sweep_outputs(trained, synth_data_dir, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    args = [
        "ber-sweep",
        "--model", str(trained),
        "--data-dir", str(synth_data_dir),
        "--bers", "0,1e-2,2e-1",
        "--trials", "2",
        "--seed", "5",
        "--out", str(out),
    ]
    assert main(args) == 0
    summary = out.read_text().splitlines()
    assert summary[0] == "ber,mean_accuracy,std_accuracy"
    assert len(summary) == 4
    trials = (tmp_path / "sweep_trials.csv").read_text().splitlines()
    assert trials[0] == "ber,trial,accuracy"
    assert len(trials) == 7

    # ber=0 rows all equal the clean accuracy
    zero_rows = [r for r in trials[1:] if r.startswith("0.0,")]
    assert len(zero_rows) == 2
    assert len({r.split(",")[2] for r in zero_rows}) == 1

    # byte-identical rerun
    first = out.read_bytes()
    capsys.readouterr()
    assert main(args) == 0
    assert out.read_bytes() == first
    assert (out.parent / (out.name + ".manifest")).exists()


def test_ber_sweep_trials_match_dense_reference(trained, synth_data_dir, tmp_path):
    # 0 and 1e-4 take the incremental path, 1e-3 and 5e-2 the dense one
    bers = [0.0, 1e-4, 1e-3, 5e-2]
    out = tmp_path / "sweep.csv"
    args = [
        "ber-sweep",
        "--model", str(trained),
        "--data-dir", str(synth_data_dir),
        "--bers", ",".join(map(str, bers)),
        "--trials", "2",
        "--seed", "8",
        "--out", str(out),
    ]
    assert main(args) == 0
    model = load_model(trained)
    test_set = load_dataset(synth_data_dir, "test")
    inputs = binarize_input(test_set.images)
    rows = (tmp_path / "sweep_trials.csv").read_text().splitlines()[1:]
    assert len(rows) == 8
    for row in rows:
        ber, trial, acc = row.split(",")
        bi, ti = bers.index(float(ber)), int(trial)
        faulty = flip_bits(model, float(ber), trial_seed(8, bi, ti))
        expected = float(np.mean(model_predict_batch(faulty, inputs) == test_set.labels))
        assert acc == repr(expected)

    manifest = (tmp_path / "sweep.csv.manifest").read_text().splitlines()
    assert "sweep.incremental_trials=4" in manifest
    assert "sweep.dense_trials=4" in manifest
    assert "sweep.fallback_blocks=0" in manifest
    assert any(line.startswith("stage.clean_pass_s=") for line in manifest)
    assert any(line.startswith("stage.incremental_s=") for line in manifest)


def test_manifest_lines_in_golden_order(trained, synth_data_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["ber-sweep", "--model", str(trained), "--data-dir", str(synth_data_dir),
            "--bers", "1e-05,0.01", "--trials", "1", "--seed", "6", "--out", str(out)]
    assert main(args) == 0
    lines = (tmp_path / "sweep.csv.manifest").read_text().splitlines()
    timed = ("stage.clean_pass_s=", "stage.incremental_s=", "peak_rss_mib=", "duration_s=")
    for line in lines:
        if line.startswith(timed):
            assert float(line.split("=", 1)[1]) >= 0.0
    peak = next(line for line in lines if line.startswith("peak_rss_mib="))
    assert float(peak.split("=", 1)[1]) > 1.0  # the interpreter alone holds more
    # timing and memory values blanked; every other byte is fixed by the flags and versions
    assert [line.split("=", 1)[0] + "=" if line.startswith(timed) else line for line in lines] == [
        "command=ber-sweep",
        "param.bers=1e-05,0.01",
        f"param.data_dir={synth_data_dir}",
        f"param.model={trained}",
        "param.seed=6",
        "param.trials=1",
        "seed=6",
        f"output.0={out}",
        f"output.1={tmp_path / 'sweep_trials.csv'}",
        f"version.bitflip_bnn={bitflip_bnn.__version__}",
        f"version.numpy={np.__version__}",
        "stage.clean_pass_s=",
        "stage.incremental_s=",
        "sweep.dense_trials=1",
        "sweep.fallback_blocks=0",
        "sweep.incremental_trials=1",
        f"peak_rss_source={PEAK_RSS_SOURCE}",
        "peak_rss_mib=",
        "duration_s=",
    ]


def test_train_manifest_lines_in_golden_order(trained, synth_data_dir):
    log = trained.parent / (trained.name + ".log.csv")
    lines = (log.parent / (log.name + ".manifest")).read_text().splitlines()
    timed = ("stage.epoch.1_s=", "stage.epoch.2_s=", "peak_rss_mib=", "duration_s=")
    values = {}
    for line in lines:
        if line.startswith(timed):
            key, value = line.split("=", 1)
            values[key] = float(value)
            assert values[key] >= 0.0
    # the epochs are timed inside the command's wall time
    assert values["stage.epoch.1_s"] + values["stage.epoch.2_s"] <= values["duration_s"]
    # timing and memory values blanked; every other byte is fixed by the flags and versions
    assert [line.split("=", 1)[0] + "=" if line.startswith(timed) else line for line in lines] == [
        "command=train",
        "param.batch=50",
        f"param.data_dir={synth_data_dir}",
        "param.epochs=2",
        "param.limit=1200",
        "param.lr=0.001",
        f"param.out={trained}",
        "param.seed=3",
        "seed=3",
        f"output.0={trained}",
        f"output.1={log}",
        f"version.bitflip_bnn={bitflip_bnn.__version__}",
        f"version.numpy={np.__version__}",
        "stage.epoch.1_s=",
        "stage.epoch.2_s=",
        f"peak_rss_source={PEAK_RSS_SOURCE}",
        "peak_rss_mib=",
        "duration_s=",
    ]


def _manifest_keys(manifest: Path) -> list[str]:
    return [line.split("=", 1)[0] for line in manifest.read_text().splitlines()]


def test_energy_curve_manifest_numbers_its_points_in_numeric_order(tmp_path):
    out = tmp_path / "energy.csv"
    bers = ",".join(f"1e-{e}" for e in range(1, 12))
    args = ["energy-curve", "--bers", bers, "--samples", "10", "--seed", "1", "--out", str(out)]
    assert main(args) == 0
    points = [
        f"energy.point.{i}.{key}"
        for i in range(11)  # point 10 after point 9, not between 1 and 2
        for key in (
            "ber_observed.ap_to_p", "ber_observed.p_to_ap",
            "ber_observed_z.ap_to_p", "ber_observed_z.p_to_ap", "target_ber",
        )
    ]
    assert _manifest_keys(tmp_path / "energy.csv.manifest") == [
        "command", "param.bers", "param.device", "param.mode", "param.samples", "param.seed",
        "seed", "output.0", "version.bitflip_bnn", "version.numpy",
        *points, "energy.workers", "peak_rss_source", "peak_rss_mib", "duration_s",
    ]


def test_train_manifest_numbers_its_epochs_in_numeric_order(tmp_path):
    data = tmp_path / "tiny"
    data.mkdir()
    for prefix, n, seed in (("train", 20, 41), ("t10k", 10, 42)):
        ds = synthetic_dataset(n, seed=seed)
        write_idx_images(data / f"{prefix}-images-idx3-ubyte", (ds.images * 255).astype(np.uint8))
        write_idx_labels(data / f"{prefix}-labels-idx1-ubyte", ds.labels.astype(np.uint8))
    out = tmp_path / "model.bnn"
    args = ["train", "--data-dir", str(data), "--out", str(out), "--epochs", "11",
            "--batch", "10", "--seed", "1"]
    assert main(args) == 0
    assert _manifest_keys(tmp_path / "model.bnn.log.csv.manifest") == [
        "command", "param.batch", "param.data_dir", "param.epochs", "param.limit", "param.lr",
        "param.out", "param.seed", "seed", "output.0", "output.1",
        "version.bitflip_bnn", "version.numpy",
        *(f"stage.epoch.{e}_s" for e in range(1, 12)),  # 10 and 11 after 9, not after 1
        "peak_rss_source", "peak_rss_mib", "duration_s",
    ]


@pytest.mark.skipif(
    PEAK_RSS_SOURCE != "vmhwm", reason="the ru_maxrss fallback may carry the launcher's peak"
)
def test_manifest_peak_is_the_commands_own(tmp_path):
    # Linux carries ru_maxrss across fork and exec, so a command launched by a
    # process holding this array would report at least the array's size
    held = np.ones(208 * 2**20, dtype=np.uint8)  # written, so resident
    src = Path(bitflip_bnn.__file__).resolve().parent.parent
    out = tmp_path / "energy.csv"
    done = subprocess.run(
        [
            sys.executable, "-m", "bitflip_bnn.cli", "energy-curve",
            "--bers", "1e-2", "--samples", "1000", "--out", str(out),
        ],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    manifest = (tmp_path / "energy.csv.manifest").read_text().splitlines()
    keys = dict(line.split("=", 1) for line in manifest)
    assert keys["peak_rss_source"] == "vmhwm"
    assert 1.0 < float(keys["peak_rss_mib"]) < held.nbytes / 2**20


def test_ber_sweep_bytes_same_for_any_blas_thread_count(trained, synth_data_dir, tmp_path):
    # the cores share the work inside BLAS; its float32 sums are exact integers
    src = Path(bitflip_bnn.__file__).resolve().parent.parent
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}" / "sweep.csv"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run(
            [
                sys.executable, "-m", "bitflip_bnn.cli", "ber-sweep",
                "--model", str(trained),
                "--data-dir", str(synth_data_dir),
                "--bers", "0,1e-3,5e-2,2e-1",
                "--trials", "2",
                "--seed", "9",
                "--out", str(out),
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append((out.read_bytes(), (out.parent / "sweep_trials.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def conv_model_bytes() -> bytes:
    """BNN1 bytes of a conv layer of kind 1, as the format once stored it, and an output layer.

    The conv layer has 2 filters of 1x3x3 (stride 1, no padding) for a
    [1, 28, 28] input, which BNN1 does not record.
    """
    rng = np.random.default_rng(4)
    # kind, filters, in_ch, k_h, k_w, stride, padding, is_output
    conv = struct.pack("<BIIIIIIB", 1, 2, 1, 3, 3, 1, 0, 0)
    conv += struct.pack("<2i", 4, 5) + rng.integers(0, 2**3, 2 * 3, dtype="<u8").tobytes()
    n_in = 2 * 26 * 26
    out = struct.pack("<BIIB", 0, 10, n_in, 1) + bytes(4 * 10)
    out += BitTensor.from_bool(rng.random((10, n_in)) < 0.5).words.astype("<u8").tobytes()
    return b"BNN1" + struct.pack("<I", 2) + conv + out


@pytest.fixture(scope="module")
def conv_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("conv") / "conv.bnn"
    path.write_bytes(conv_model_bytes())
    return path


@pytest.mark.parametrize("command", ["eval", "ber-sweep"])
def test_conv_model_refused_as_format_error(command, conv_model, synth_data_dir, tmp_path, capsys):
    args = [command, "--model", str(conv_model), "--data-dir", str(synth_data_dir)]
    if command == "ber-sweep":
        args += ["--bers", "0,1e-2", "--out", str(tmp_path / "s.csv")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "conv models are not supported" in err
    assert "stores no input shape" in err and "flat" in err
    assert not (tmp_path / "s.csv").exists()


# model files that do not load, and the words of the error after the file name
BAD_MODELS = {
    "bad-magic": (
        lambda: b"NOPE" + bytes(32), "bad magic b'NOPE', expected b'BNN1' (at byte offset 0)"
    ),
    "truncated": (
        lambda: fan_in_bound_model_bytes(784)[:-5], "truncated model file while reading layer 0"
    ),
    "conv": (conv_model_bytes, "layer 0: conv models are not supported"),
    "no-layers": (lambda: b"BNN1" + struct.pack("<I", 0), "model needs at least one layer"),
    # an output layer of 10 neurons over 0 inputs: 10 thresholds and no weight words
    "zero-width": (
        lambda: b"BNN1" + struct.pack("<IBIIB", 1, 0, 10, 0, 1) + bytes(4 * 10),
        "layer 0: invalid BitTensor shape (10, 0)",
    ),
}


@pytest.mark.parametrize("command", ["eval", "ber-sweep", "acc-energy"])
@pytest.mark.parametrize("kind", list(BAD_MODELS))
def test_model_format_errors_name_the_file(kind, command, synth_data_dir, tmp_path, capsys):
    make, words = BAD_MODELS[kind]
    path = tmp_path / f"{kind}.bnn"
    path.write_bytes(make())
    args = [command, "--model", str(path), "--data-dir", str(synth_data_dir)]
    if command != "eval":
        args += ["--bers", "1e-2", "--out", str(tmp_path / "out.csv")]
    assert main(args) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: {words}")
    assert list(tmp_path.iterdir()) == [path]


def test_fan_in_at_kernel_bound_is_format_error(synth_data_dir, tmp_path, capsys):
    path = tmp_path / "wide.bnn"
    path.write_bytes(fan_in_bound_model_bytes())
    assert main(["eval", "--model", str(path), "--data-dir", str(synth_data_dir)]) == 3
    assert "fan-in 16777216 is not below 2^24" in capsys.readouterr().err


def test_ber_sweep_requires_sorted_bers(trained, synth_data_dir, tmp_path):
    code = main(
        [
            "ber-sweep",
            "--model", str(trained),
            "--data-dir", str(synth_data_dir),
            "--bers", "1e-2,1e-4",
            "--out", str(tmp_path / "s.csv"),
        ]
    )
    assert code == 2


def test_ber_sweep_rejects_out_of_range(trained, synth_data_dir, tmp_path):
    code = main(
        [
            "ber-sweep",
            "--model", str(trained),
            "--data-dir", str(synth_data_dir),
            "--bers", "0.5,2.0",
            "--out", str(tmp_path / "s.csv"),
        ]
    )
    assert code == 2


def test_energy_curve_csv(tmp_path):
    out = tmp_path / "energy.csv"
    args = [
        "energy-curve",
        "--bers", "1e-2,1e-4,1e-6",
        "--samples", "4000",
        "--seed", "4",
        "--out", str(out),
    ]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ber,t_pulse_ns,energy_mean_fj,energy_std_fj,mode"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [1e-2, 1e-4, 1e-6]
    energies = [float(r[2]) for r in rows]
    assert energies == sorted(energies)
    assert all(r[4] == "intrinsic_only" for r in rows)

    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_energy_curve_single_sample_zero_std(tmp_path):
    out = tmp_path / "one.csv"
    code = main(
        ["energy-curve", "--bers", "1e-3", "--samples", "1", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[3]) >= 0.0  # mixture of two single-sample directions


def test_energy_curve_device_file_and_mode(tmp_path):
    cfg = tmp_path / "dev.cfg"
    cfg.write_text("tau0_ns=2.0\nvc_mv=200\n")
    out = tmp_path / "var.csv"
    code = main(
        [
            "energy-curve",
            "--device", str(cfg),
            "--bers", "1e-3",
            "--samples", "2000",
            "--mode", "variations",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_text().splitlines()[1].endswith("with_device_variations")


def _refused_before_any_work(monkeypatch, capsys, args, code=3):
    """Run the command with its data loaders and compute stubbed out; return stderr.

    The command must exit with `code` (3 unless given) without calling any of
    them: returned by main, or raised as SystemExit where argparse refuses a flag.
    """
    from bitflip_bnn import cli

    ran = []
    for name in (
        "load_dataset", "load_model", "load_device_config", "train", "ber_sweep",
        "energy_ber_curve",
    ):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: ran.append(_name))
    try:
        exit_code = main(args)
    except SystemExit as exc:
        exit_code = exc.code
    assert exit_code == code
    assert ran == []
    return capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_train_refuses_limit_below_one_before_reading_data(monkeypatch, capsys, tmp_path, limit):
    # the data dir does not exist: reading it would exit 3
    args = ["train", "--data-dir", str(tmp_path / "missing"), "--out", str(tmp_path / "m.bnn"),
            "--limit", limit]
    err = _refused_before_any_work(monkeypatch, capsys, args, code=2)
    assert "error: --limit must be >= 1" in err
    assert not (tmp_path / "m.bnn.log.csv").exists()


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--epochs", "0", "epochs and batch_size must be >= 1"),
        ("--batch", "0", "epochs and batch_size must be >= 1"),
        ("--lr", "0", "learning_rate must be positive and finite, got 0.0"),
    ],
)
def test_train_refuses_bad_flags_before_reading_data(
    flag, value, message, monkeypatch, capsys, tmp_path
):
    # the data dir does not exist: reading it would exit 3
    args = ["train", "--data-dir", str(tmp_path / "missing"), "--out", str(tmp_path / "m.bnn"),
            flag, value]
    err = _refused_before_any_work(monkeypatch, capsys, args, code=2)
    assert f"error: {message}" in err
    assert list(tmp_path.iterdir()) == []


def _missing_inputs(command: str, tmp_path: Path) -> list[str]:
    """The command's input flags, naming a model, a data dir and a device file
    that do not exist: reading any of them would exit 3."""
    flags = {
        "train": ["--data-dir"],
        "ber-sweep": ["--model", "--data-dir"],
        "energy-curve": ["--device"],
        "acc-energy": ["--model", "--data-dir", "--device"],
    }[command]
    missing = {"--model": "m.bnn", "--data-dir": "data", "--device": "dev.cfg"}
    return [item for flag in flags for item in (flag, str(tmp_path / missing[flag]))]


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("ber-sweep", ["--bers", "1e-2,1e-3"], "BERs must be sorted ascending"),
        ("ber-sweep", ["--bers", "1e-3,1.5"], "ber must lie in [0,1], got 1.5"),
        ("ber-sweep", ["--bers=-0.1,1e-3"], "ber must lie in [0,1], got -0.1"),
        ("ber-sweep", ["--bers", "1e-3,0.001"], "--bers lists 0.001 more than once"),
        ("ber-sweep", ["--bers", ","], "need at least one BER"),
        ("ber-sweep", ["--bers", "1e-3", "--trials", "0"], "trials must be >= 1"),
        ("energy-curve", ["--bers", "0"], "target BERs must lie in (0, 1), got 0.0"),
        ("energy-curve", ["--bers", "1e-3,1e-3"], "--bers lists 0.001 more than once"),
        ("energy-curve", ["--bers", "1e-3", "--samples", "0"], "samples must be >= 1"),
        ("acc-energy", ["--bers", "0"], "target BERs must lie in (0, 1), got 0.0"),
        ("acc-energy", ["--bers", "0", "--trials", "0"], "target BERs must lie in (0, 1), got 0.0"),
        ("acc-energy", ["--bers", "1e-3", "--trials", "0"], "trials must be >= 1"),
        ("acc-energy", ["--bers", "1e-3", "--samples", "0"], "samples must be >= 1"),
    ],
)
def test_bad_flags_are_refused_before_any_file_is_read(
    command, flags, message, monkeypatch, capsys, tmp_path
):
    args = [command, *_missing_inputs(command, tmp_path), *flags, "--out", str(tmp_path / "x.csv")]
    err = _refused_before_any_work(monkeypatch, capsys, args, code=2)
    assert f"error: {message}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "ber-sweep", "energy-curve", "acc-energy"])
def test_negative_seed_is_refused_before_any_file_is_read(command, monkeypatch, capsys, tmp_path):
    args = [command, *_missing_inputs(command, tmp_path), "--seed", "-1",
            "--out", str(tmp_path / "x.out")]
    if command != "train":
        args += ["--bers", "1e-3"]
    err = _refused_before_any_work(monkeypatch, capsys, args, code=2)
    assert "argument --seed: must be >= 0, got -1" in err
    assert list(tmp_path.iterdir()) == []


def test_train_refuses_a_directory_out_before_any_epoch(monkeypatch, capsys, tmp_path):
    out = tmp_path / "model.bnn"
    out.mkdir()
    args = ["train", "--data-dir", str(tmp_path), "--out", str(out), "--epochs", "1"]
    err = _refused_before_any_work(monkeypatch, capsys, args)
    assert f"--out {out}: {out} is a directory" in err
    assert "epoch" not in err
    assert not (tmp_path / "model.bnn.log.csv").exists()


def test_ber_sweep_refuses_a_directory_out_before_any_trial(monkeypatch, capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    (tmp_path / "sweep_trials.csv").mkdir()  # a sibling counts as much as --out itself
    args = ["ber-sweep", "--model", "m.bnn", "--data-dir", str(tmp_path), "--bers", "1e-3",
            "--out", str(out)]
    err = _refused_before_any_work(monkeypatch, capsys, args)
    assert f"--out {out}: {tmp_path / 'sweep_trials.csv'} is a directory" in err
    assert not out.exists()


def test_energy_curve_refuses_a_directory_out_before_any_sample(monkeypatch, capsys, tmp_path):
    out = tmp_path / "energy.csv"
    out.mkdir()
    err = _refused_before_any_work(
        monkeypatch, capsys, ["energy-curve", "--bers", "1e-3", "--out", str(out)]
    )
    assert f"--out {out}: {out} is a directory" in err


def test_acc_energy_refuses_an_out_it_cannot_create(monkeypatch, capsys, tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    out = blocker / "joint.csv"
    args = ["acc-energy", "--model", "m.bnn", "--data-dir", str(tmp_path), "--bers", "1e-3",
            "--out", str(out)]
    err = _refused_before_any_work(monkeypatch, capsys, args)
    assert f"--out {out}: cannot create {out}" in err


# every file each command reads, named as in its working directory, and the
# flags that make it read them there
READ_FILES = {
    "train": ["train-images-idx3-ubyte", "train-labels-idx1-ubyte", TEST_IMAGES, TEST_LABELS],
    "ber-sweep": ["m.bnn", TEST_IMAGES, TEST_LABELS],
    "energy-curve": ["dev.cfg"],
    "acc-energy": ["m.bnn", "dev.cfg", TEST_IMAGES, TEST_LABELS],
}
INPUT_FLAGS = {
    "train": ["--data-dir", "."],
    "ber-sweep": ["--model", "m.bnn", "--data-dir", ".", "--bers", "1e-3"],
    "energy-curve": ["--device", "dev.cfg", "--bers", "1e-3"],
    "acc-energy": ["--model", "m.bnn", "--data-dir", ".", "--device", "dev.cfg", "--bers", "1e-3"],
}


def _input_bytes(root: Path) -> dict[str, bytes]:
    """Write every file of READ_FILES under root, each with its own bytes; return them."""
    written = {name: f"input {name}".encode() for names in READ_FILES.values() for name in names}
    for name, data in written.items():
        (root / name).write_bytes(data)
    return written


@pytest.mark.parametrize("spelling", ["same", "dot-slash", "symlink", "hardlink"])
@pytest.mark.parametrize(
    "command,name", [(command, name) for command, names in READ_FILES.items() for name in names]
)
def test_an_out_that_names_an_input_is_refused_before_any_read(
    monkeypatch, capsys, tmp_path, command, name, spelling
):
    monkeypatch.chdir(tmp_path)
    written = _input_bytes(tmp_path)
    out = {"same": name, "dot-slash": f"./{name}"}.get(spelling, "link.csv")
    if spelling == "symlink":
        Path(out).symlink_to(tmp_path / name)
    elif spelling == "hardlink":
        os.link(name, out)
    args = [command, *INPUT_FLAGS[command], "--out", out]
    err = _refused_before_any_work(monkeypatch, capsys, args)
    assert f"error: --out {Path(out)}: {Path(out)} would replace the input " in err
    assert {n: (tmp_path / n).read_bytes() for n in written} == written


@pytest.mark.parametrize(
    "command,flags,out,sibling",
    [
        ("ber-sweep", ["--model", "s_trials.csv", "--data-dir", ".", "--bers", "1e-3"],
         "s.csv", "s_trials.csv"),
        ("energy-curve", ["--device", "e.csv.manifest", "--bers", "1e-3"],
         "e.csv", "e.csv.manifest"),
    ],
    ids=["trials", "manifest"],
)
def test_an_output_sibling_that_names_an_input_is_refused(
    monkeypatch, capsys, tmp_path, command, flags, out, sibling
):
    monkeypatch.chdir(tmp_path)
    _input_bytes(tmp_path)
    Path(sibling).write_bytes(b"input")
    err = _refused_before_any_work(monkeypatch, capsys, [command, *flags, "--out", out])
    assert f"error: --out {out}: {sibling} would replace the input {sibling}" in err
    assert Path(sibling).read_bytes() == b"input" and not Path(out).exists()


def test_energy_curve_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "dev.cfg"
    cfg.write_text("resistance=5\n")
    code = main(
        ["energy-curve", "--device", str(cfg), "--bers", "1e-3", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3
    assert f"error: {cfg}: device config line 1: unknown key 'resistance'" in capsys.readouterr().err


def test_energy_curve_device_config_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "dev.cfg"
    cfg.write_bytes(b"tmr=1.5\n\xff\n")
    code = main(
        ["energy-curve", "--device", str(cfg), "--bers", "1e-3", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert f"error: {cfg}: device config is not UTF-8 text (at byte offset 8)" in err


def test_energy_curve_rejects_boundary_bers(tmp_path):
    for bad in ("0", "1", "0.5,1.0"):
        code = main(["energy-curve", "--bers", bad, "--out", str(tmp_path / "x.csv")])
        assert code == 2


def _energy_manifest_keys(manifest: list[str], bers: list[float], samples: int) -> list[float]:
    """Check the per-point energy keys; return every observed-BER z-score."""
    keys = dict(line.split("=", 1) for line in manifest)
    assert int(keys["energy.workers"]) >= 1
    zs = []
    for i, ber in enumerate(sorted(bers, reverse=True)):
        target = float(keys[f"energy.point.{i}.target_ber"])
        assert target == ber
        for direction in ("p_to_ap", "ap_to_p"):
            observed = float(keys[f"energy.point.{i}.ber_observed.{direction}"])
            assert 0.0 <= observed <= 1.0
            z = float(keys[f"energy.point.{i}.ber_observed_z.{direction}"])
            assert z == (observed - target) * (samples / (target * (1.0 - target))) ** 0.5
            zs.append(z)
    return zs


def test_energy_curve_manifest_and_bytes_match_serial_reference(tmp_path):
    cfg = tmp_path / "dev.cfg"
    cfg.write_text("tmr=1.2\nsigma_rp_rel=0.1\n")
    out = tmp_path / "energy.csv"
    bers = [1e-2, 1e-5, 1e-1]
    args = [
        "energy-curve", "--device", str(cfg), "--bers", "1e-2,1e-5,1e-1",
        "--samples", "3001", "--mode", "variations", "--seed", "12", "--out", str(out),
    ]
    assert main(args) == 0
    params = parse_device_config(cfg.read_text())
    points = reference_energy_ber_curve(params, bers, 3001, 12, WITH_DEVICE_VARIATIONS)
    rows = [
        f"{p.ber!r},{p.t_pulse * 1e9!r},{p.energy_mean * 1e15!r},"
        f"{p.energy_std * 1e15!r},{p.variability_mode}\n"
        for p in points
    ]
    header = "ber,t_pulse_ns,energy_mean_fj,energy_std_fj,mode\n"
    assert out.read_text() == header + "".join(rows)
    manifest = (tmp_path / "energy.csv.manifest").read_text().splitlines()
    _energy_manifest_keys(manifest, bers, 3001)


def test_energy_curve_observed_ber_within_five_sigma_on_the_nominal_device(tmp_path):
    out = tmp_path / "energy.csv"
    bers = [1e-1, 1e-2, 1e-3]
    args = [
        "energy-curve", "--bers", "1e-1,1e-2,1e-3", "--samples", "20000",
        "--mode", "variations", "--seed", "13", "--out", str(out),
    ]
    assert main(args) == 0
    manifest = (tmp_path / "energy.csv.manifest").read_text().splitlines()
    zs = _energy_manifest_keys(manifest, bers, 20000)
    assert len(zs) == 6 and all(abs(z) < 5 for z in zs)  # perfbench's oracle bound


def test_energy_curve_subnormal_ber_gets_an_infinite_z_score(tmp_path):
    # the target's standard error, (1e-320 / 1e4) ** 0.5, underflows to 0
    out = tmp_path / "energy.csv"
    args = ["energy-curve", "--bers", "1e-320", "--samples", "10000", "--out", str(out)]
    assert main(args) == 0
    manifest = (tmp_path / "energy.csv.manifest").read_text().splitlines()
    assert _energy_manifest_keys(manifest, [1e-320], 10000) == [-np.inf, -np.inf]


@pytest.mark.parametrize("key", ["tmr", "diameter_nm"])
def test_energy_curve_non_finite_device_value_is_format_error(key, tmp_path, capsys):
    cfg = tmp_path / "dev.cfg"
    cfg.write_text(f"{key}=nan\n")
    out = tmp_path / "x.csv"
    code = main(["energy-curve", "--device", str(cfg), "--bers", "1e-3", "--out", str(out)])
    assert code == 3
    assert f"'{key}' is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config,message",
    [
        # the junction area underflows to 0
        ("diameter_nm=1e-200\n", "R_P=nan ohm, R_AP=nan ohm"),
        # V^2 underflows to 0
        ("vc_mv=1e-300\n", "write power V^2/R_AP=0.0 W"),
        # RA over the area overflows
        ("ra_ohm_um2=1e308\ndiameter_nm=1e-150\n", "R_P=inf ohm, R_AP=inf ohm"),
        # tau0 * Vc / (V - Vc) overflows just above the critical voltage
        ("tau0_ns=1e308\nv_over_vc=1.000000000001\n", "mean switching time tau=inf s"),
        # the closed-form tail needs a whole gamma shape, and sums that many terms
        ("gamma_k=16.5\n", "integer gamma shape in [1, 10000], got k=16.5"),
        ("gamma_k=10001\n", "integer gamma shape in [1, 10000], got k=10001.0"),
        ("gamma_k=1e20\n", "integer gamma shape in [1, 10000], got k=1e+20"),
    ],
    ids=[
        "area-underflow", "power-underflow", "resistance-overflow", "tau-overflow",
        "gamma_k-non-integer", "gamma_k-above-max", "gamma_k-huge",
    ],
)
def test_device_the_model_cannot_describe_is_format_error(config, message, tmp_path, capsys):
    # every value is finite, but the model cannot run it: the resistances,
    # write power or tau it gives are not, or its gamma shape is no whole
    # number the tail can sum
    cfg = tmp_path / "dev.cfg"
    cfg.write_text(config)
    args = ["energy-curve", "--device", str(cfg), "--bers", "1e-3", "--samples", "1000",
            "--out", str(tmp_path / "x.csv")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: device config: ") and message in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("mode", ["intrinsic", "variations"])
@pytest.mark.parametrize("config", OUT_OF_RANGE_DEVICES.values(), ids=OUT_OF_RANGE_DEVICES)
def test_device_whose_energies_leave_the_float_range_exits_4(config, mode, tmp_path, capsys):
    # the device check passes, but the write energies' moments over- or underflow
    cfg = tmp_path / "dev.cfg"
    cfg.write_text(config)
    args = ["energy-curve", "--device", str(cfg), "--bers", "1e-1,1e-3,1e-8", "--samples", "200",
            "--mode", mode, "--out", str(tmp_path / "x.csv")]
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: BER=0.1: ") and err.count("\n") == 1
    assert str(parse_device_config(config)) in err
    assert list(tmp_path.iterdir()) == [cfg]


# Devices the model describes whose pulse, sampled resistances or CSV pulse in
# ns float64 cannot hold, each run at one BER: (config, --bers, --mode, message)
BEYOND_RANGE_RUNS = {
    # tau = 1e307 s: the pulse at 1e-300 overflows
    "pulse-overflow": ("tau0_ns=1e303\nv_over_vc=1.0000000000001\n", "1e-300", "intrinsic",
                       "BER=1e-300: a pulse of inf s leaves the float range: "),
    # tau = 1e-323 s: theta = tau / k, and so the pulse, underflows to 0
    "pulse-underflow": ("tau0_ns=1e-300\nv_over_vc=1e14\n", "1e-3", "intrinsic",
                        "BER=0.001: a pulse of 0.0 s leaves the float range: "),
    # tau = 1e303 s: the pulse at 1e-300 fits in s but not in the CSV's ns
    "pulse-ns-overflow": ("tau0_ns=1e300\nv_over_vc=1.000000000001\nra_ohm_um2=1e297\n",
                          "1e-300", "intrinsic", "s pulse overflows in ns: "),
    "sampled-resistance-overflow": (
        "sigma_tmr_rel=7.938696344667321e+267\nra_ohm_um2=2.2355153743237522e+160\n", "1e-3",
        "variations", "BER=0.001: a sampled R_P or R_AP is not finite and positive: ",
    ),
}


@pytest.mark.parametrize(
    "config,bers,mode,message", BEYOND_RANGE_RUNS.values(), ids=BEYOND_RANGE_RUNS
)
def test_device_whose_pulse_or_resistances_leave_the_float_range_exits_4(
    config, bers, mode, message, tmp_path, capsys
):
    # the device check passes; a RuntimeWarning would fail the test
    cfg = tmp_path / "dev.cfg"
    cfg.write_text(config)
    args = ["energy-curve", "--device", str(cfg), "--bers", bers, "--samples", "200",
            "--mode", mode, "--out", str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "v_write=", UserWarning)  # close to v_c only warns
        assert main(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: BER=") and message in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [cfg]


def test_energy_curve_nonpositive_resistance_is_numeric_error(tmp_path, capsys, monkeypatch):
    # the error is raised inside a pool thread and must reach main intact
    threads = []
    original = mtj.write_energy_mc

    def spy(*args, **kwargs):
        threads.append(threading.current_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(mtj, "write_energy_mc", spy)
    cfg = tmp_path / "dev.cfg"
    cfg.write_text("sigma_rp_rel=2.0\n")
    out = tmp_path / "x.csv"
    args = [
        "energy-curve", "--device", str(cfg), "--bers", "1e-2,1e-4", "--samples", "10000",
        "--mode", "variations", "--out", str(out),
    ]
    assert main(args) == 4
    err = capsys.readouterr().err
    assert "a sampled R_P or R_AP is not finite and positive: sigma_rp_rel=2.0" in err
    assert threads and all(t is not threading.main_thread() for t in threads)
    assert not out.exists()


@pytest.mark.parametrize(
    "command,bers",
    [("energy-curve", "1e-3,1e-2,1e-3"), ("ber-sweep", "1e-3,0.001"), ("acc-energy", "1e-3,1e-3")],
)
def test_duplicate_bers_are_usage_error(command, bers, trained, synth_data_dir, tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = [command, "--bers", bers, "--out", str(out)]
    if command != "energy-curve":
        args += ["--model", str(trained), "--data-dir", str(synth_data_dir)]
    assert main(args) == 2
    assert "--bers lists 0.001 more than once" in capsys.readouterr().err
    assert not out.exists()


def test_empty_ber_list_is_usage_error(tmp_path):
    assert main(["energy-curve", "--bers", ",", "--out", str(tmp_path / "x.csv")]) == 2


def test_acc_energy_join(trained, synth_data_dir, tmp_path):
    out = tmp_path / "join.csv"
    args = [
        "acc-energy",
        "--model", str(trained),
        "--data-dir", str(synth_data_dir),
        "--bers", "1e-4,1e-2,1e-1",
        "--trials", "2",
        "--samples", "2000",
        "--seed", "6",
        "--out", str(out),
    ]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ber,energy_mean_fj,mean_accuracy,std_accuracy"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [1e-1, 1e-2, 1e-4]  # descending BER
    energies = [float(r[1]) for r in rows]
    assert energies == sorted(energies)
    for r in rows:
        assert 0.0 <= float(r[2]) <= 1.0

    manifest = (tmp_path / "join.csv.manifest").read_text().splitlines()
    assert "sweep.incremental_trials=2" in manifest
    assert "sweep.dense_trials=4" in manifest
    assert "sweep.fallback_blocks=0" in manifest
    assert any(line.startswith("stage.clean_pass_s=") for line in manifest)
    assert any(line.startswith("stage.incremental_s=") for line in manifest)
    _energy_manifest_keys(manifest, [1e-4, 1e-2, 1e-1], 2000)
    assert _tradeoff_keys(manifest) == _tradeoff_from_rows(rows)

    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def _tradeoff_keys(manifest: list[str]) -> dict:
    return {
        key: float(value)
        for key, value in (line.split("=", 1) for line in manifest)
        if key.startswith("tradeoff.")
    }


def _tradeoff_from_rows(rows: list[list[str]]) -> dict:
    """The operating point as read off the written CSV rows."""
    ref_ber, ref_energy, ref_acc = (float(v) for v in min(rows, key=lambda r: float(r[0]))[:3])
    within = [r for r in rows if abs(float(r[2]) - ref_acc) <= 0.01]
    best = max(within, key=lambda r: float(r[0]))
    return {
        "tradeoff.reference_ber": ref_ber,
        "tradeoff.max_ber_within_1pt": float(best[0]),
        "tradeoff.energy_ratio": float(best[1]) / ref_energy,
    }


def test_acc_energy_operating_point_is_the_reference_when_no_other_ber_qualifies(
    trained, synth_data_dir, tmp_path
):
    out = tmp_path / "join.csv"
    args = [
        "acc-energy", "--model", str(trained), "--data-dir", str(synth_data_dir),
        "--bers", "1e-4,0.45", "--trials", "1", "--samples", "1000", "--seed", "6",
        "--out", str(out),
    ]
    assert main(args) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert float(rows[1][2]) - float(rows[0][2]) > 0.01  # 0.45 is near chance
    manifest = (tmp_path / "join.csv.manifest").read_text().splitlines()
    assert _tradeoff_keys(manifest) == {
        "tradeoff.reference_ber": 1e-4,
        "tradeoff.max_ber_within_1pt": 1e-4,
        "tradeoff.energy_ratio": 1.0,
    }


def test_acc_energy_rejects_zero_ber(trained, synth_data_dir, tmp_path):
    code = main(
        [
            "acc-energy",
            "--model", str(trained),
            "--data-dir", str(synth_data_dir),
            "--bers", "0,1e-2",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["ber-sweep"])  # missing required flags
    assert exc.value.code == 2


# Every option of every subcommand, by its flags: (dest, default, required,
# type, choices). A refactor of the parser must keep this table.
MODES = ["intrinsic", "variations"]
CLI_SURFACE = {
    "train": {
        ("--data-dir",): ("data_dir", None, True, None, None),
        ("--out",): ("out", None, True, None, None),
        ("--epochs",): ("epochs", 100, False, int, None),
        ("--batch",): ("batch", 100, False, int, None),
        ("--lr",): ("lr", 1e-3, False, float, None),
        ("--seed",): ("seed", 0, False, int, None),
        ("--limit",): ("limit", None, False, int, None),
    },
    "eval": {
        ("--model",): ("model", None, True, None, None),
        ("--data-dir",): ("data_dir", None, True, None, None),
    },
    "ber-sweep": {
        ("--model",): ("model", None, True, None, None),
        ("--data-dir",): ("data_dir", None, True, None, None),
        ("--bers",): ("bers", None, True, None, None),
        ("--trials",): ("trials", 5, False, int, None),
        ("--seed",): ("seed", 0, False, int, None),
        ("--out",): ("out", None, True, None, None),
    },
    "energy-curve": {
        ("--device",): ("device", None, False, None, None),
        ("--bers",): ("bers", None, True, None, None),
        ("--samples",): ("samples", 100000, False, int, None),
        ("--mode",): ("mode", "intrinsic", False, None, MODES),
        ("--seed",): ("seed", 0, False, int, None),
        ("--out",): ("out", None, True, None, None),
    },
    "acc-energy": {
        ("--model",): ("model", None, True, None, None),
        ("--data-dir",): ("data_dir", None, True, None, None),
        ("--device",): ("device", None, False, None, None),
        ("--bers",): ("bers", None, True, None, None),
        ("--trials",): ("trials", 5, False, int, None),
        ("--samples",): ("samples", 100000, False, int, None),
        ("--mode",): ("mode", "intrinsic", False, None, MODES),
        ("--seed",): ("seed", 0, False, int, None),
        ("--out",): ("out", None, True, None, None),
    },
}


def test_every_subcommand_keeps_its_flags():
    import argparse

    from bitflip_bnn.cli import build_parser

    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    surface = {
        name: {
            tuple(a.option_strings): (a.dest, a.default, a.required, a.type, a.choices)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, sub in subparsers.choices.items()
    }
    assert surface == CLI_SURFACE


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_train_refuses_nan_learning_rate(synth_data_dir, tmp_path, capsys):
    out = tmp_path / "m.bnn"
    args = ["train", "--data-dir", str(synth_data_dir), "--out", str(out), "--lr", "nan"]
    assert main(args) == 2
    assert "learning_rate must be positive and finite, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_train_that_diverges_exits_4_and_writes_nothing(synth_data_dir, tmp_path, capsys):
    # lr passes TrainConfig's check, but Adam's lr * m_hat overflows float32
    # and the latent parameters turn NaN, silently; nothing is exported from them
    out = tmp_path / "m.bnn"
    args = [
        "train", "--data-dir", str(synth_data_dir), "--out", str(out),
        "--lr", "1e300", "--limit", "100", "--batch", "100", "--epochs", "1",
    ]
    assert main(args) == 4
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if not line.startswith("epoch ")] == lines[-1:]
    assert lines[-1].startswith("error: ") and "is not finite: training diverged" in lines[-1]
    assert list(tmp_path.iterdir()) == []


def test_train_that_diverges_makes_no_out_directory(synth_data_dir, tmp_path, monkeypatch):
    # --out's directory is made only when every output is ready to be written
    monkeypatch.chdir(tmp_path)
    args = ["train", "--data-dir", str(synth_data_dir), "--out", "o/m.bnn",
            "--lr", "1e300", "--batch", "7", "--limit", "60"]
    assert main(args) == 4
    assert not (tmp_path / "o").exists()


def _fail_second_write(monkeypatch) -> list[Path]:
    """Make the second file the CLI writes fail with ENOSPC, once part of it is
    on disk; return the paths written to, in order."""
    from bitflip_bnn import cli

    written = []
    write_text, save_model = Path.write_text, cli.save_model

    def count(path):
        written.append(Path(path))
        if len(written) == 2:
            write_text(Path(path), "partial")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    def counted_write_text(path, data, *args, **kwargs):
        count(path)
        return write_text(path, data, *args, **kwargs)

    def counted_save_model(model, path):
        count(path)
        save_model(model, path)

    monkeypatch.setattr(Path, "write_text", counted_write_text)
    monkeypatch.setattr(cli, "save_model", counted_save_model)
    return written


def _listing(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in root.iterdir()}


# per command: its flags, its --out, and the flag that makes each output of
# the earlier run differ from what the failing run would write
WRITE_FAILURES = {
    "ber-sweep": (["--trials", "2"], "sweep.csv", "--bers", ["0,1e-2", "0,2e-1"]),
    "train": (["--epochs", "1", "--batch", "50", "--limit", "100"], "m.bnn", "--seed", ["1", "2"]),
}


@pytest.mark.parametrize("earlier_run", [True, False], ids=["over-outputs", "fresh"])
@pytest.mark.parametrize("command", sorted(WRITE_FAILURES))
def test_a_failed_write_keeps_every_output_as_it_was(
    command, earlier_run, trained, synth_data_dir, tmp_path, monkeypatch, capsys
):
    flags, name, flag, (earlier, failing) = WRITE_FAILURES[command]
    if command == "ber-sweep":
        flags = [*flags, "--model", str(trained)]
    args = [command, "--data-dir", str(synth_data_dir), *flags, "--out", str(tmp_path / name)]
    if earlier_run:
        assert main([*args, flag, earlier]) == 0
    before = _listing(tmp_path)
    capsys.readouterr()
    written = _fail_second_write(monkeypatch)
    assert main([*args, flag, failing]) == 3
    assert len(written) == 2  # the failure came where it was put
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and os.strerror(errno.ENOSPC) in errors[0]
    # no output changed, none appeared, and no temporary is left
    assert _listing(tmp_path) == before
    assert len(before) == (3 if earlier_run else 0)


def test_ber_sweep_out_without_a_suffix_names_its_siblings(trained, synth_data_dir, tmp_path):
    out = tmp_path / "sweep"
    args = ["ber-sweep", "--model", str(trained), "--data-dir", str(synth_data_dir),
            "--bers", "1e-2", "--trials", "1", "--out", str(out)]
    assert main(args) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep", "sweep.manifest", "sweep_trials"]
    assert (tmp_path / "sweep_trials").read_text().startswith("ber,trial,accuracy\n")


def test_an_out_that_is_a_symlink_writes_through_it(tmp_path):
    args = ["energy-curve", "--bers", "1e-3", "--samples", "1000", "--seed", "4", "--out"]
    assert main([*args, str(tmp_path / "plain.csv")]) == 0
    target = tmp_path / "elsewhere" / "target.csv"
    target.parent.mkdir()
    target.write_text("earlier bytes\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main([*args, str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert (tmp_path / "link.csv.manifest").is_file()
    assert sorted(p.name for p in target.parent.iterdir()) == ["target.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "elsewhere", "link.csv", "link.csv.manifest", "plain.csv", "plain.csv.manifest"
    ]


@pytest.mark.parametrize(
    "bers,trials,message",
    [
        ("1e-2,1e-4", "1", "BERs must be sorted ascending"),
        ("1e-3,1.5", "1", "ber must lie in [0,1], got 1.5"),
        ("1e-3", "0", "trials must be >= 1"),
    ],
)
def test_ber_sweep_library_checks_are_usage_errors(
    bers, trials, message, trained, synth_data_dir, tmp_path, capsys
):
    out = tmp_path / "s.csv"
    args = [
        "ber-sweep", "--model", str(trained), "--data-dir", str(synth_data_dir),
        "--bers", bers, "--trials", trials, "--out", str(out),
    ]
    assert main(args) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_mnist_commands_pass_packed_images(trained, synth_data_dir, tmp_path, monkeypatch):
    # the pixel bits reach the library packed: a [N, 784] BitTensor, bit 1 iff byte >= 128
    from bitflip_bnn import cli

    seen = []

    def spy(original):
        def wrapped(*args, **kwargs):
            seen.extend(a.images for a in (*args, *kwargs.values()) if hasattr(a, "images"))
            return original(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(cli, "ber_sweep", spy(cli.ber_sweep))
    monkeypatch.setattr(cli, "train", spy(cli.train))
    sweep = [
        "ber-sweep", "--model", str(trained), "--data-dir", str(synth_data_dir),
        "--bers", "1e-2", "--trials", "1", "--out", str(tmp_path / "s.csv"),
    ]
    assert main(sweep) == 0
    train_args = [
        "train", "--data-dir", str(synth_data_dir), "--out", str(tmp_path / "m.bnn"),
        "--epochs", "1", "--limit", "100",
    ]
    assert main(train_args) == 0

    def bits(name, n=None):
        pixels = load_idx_images(synth_data_dir / name)[:n]
        return binarize_input(pixels >= 128)

    # the sweep's test split, train's first 100 training images and its test split
    expected = [bits(TEST_IMAGES), bits("train-images-idx3-ubyte", 100), bits(TEST_IMAGES)]
    assert all(isinstance(images, BitTensor) for images in seen)
    assert len(seen) == len(expected) and all(map(same_bits, seen, expected))


@pytest.fixture(scope="module")
def narrow_data_dir(tmp_path_factory):
    """Both splits as 14x14 images: 196 pixels against the 784 inputs of an MNIST model."""
    root = tmp_path_factory.mktemp("narrow")
    rng = np.random.default_rng(70)
    for images, labels in (
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        (TEST_IMAGES, TEST_LABELS),
    ):
        write_idx_images(root / images, rng.integers(0, 256, (50, 14, 14), dtype=np.uint8))
        write_idx_labels(root / labels, rng.integers(0, 10, 50, dtype=np.uint8))
    return root


@pytest.mark.parametrize(
    "command,extra,images",
    [
        ("train", ["--epochs", "1"], "train-images-idx3-ubyte"),
        ("eval", [], TEST_IMAGES),
        ("ber-sweep", ["--bers", "1e-5", "--trials", "1"], TEST_IMAGES),
        ("ber-sweep", ["--bers", "1e-2", "--trials", "1"], TEST_IMAGES),  # dense trials only
        ("acc-energy", ["--bers", "1e-2", "--trials", "1", "--samples", "10"], TEST_IMAGES),
    ],
    ids=["train", "eval", "ber-sweep", "ber-sweep-dense-only", "acc-energy"],
)
def test_data_width_not_matching_model_is_format_error(
    command, extra, images, trained, narrow_data_dir, tmp_path, capsys
):
    out = tmp_path / "out"
    args = [command, "--data-dir", str(narrow_data_dir), *extra]
    if command != "train":
        args += ["--model", str(trained)]
    if command != "eval":
        args += ["--out", str(out)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert f"error: {narrow_data_dir / images}: images of 196 pixels" in err
    assert "784 inputs" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "bers,samples,message",
    [
        ("0", "100", "target BERs must lie in (0, 1), got 0.0"),
        ("1.5", "100", "target BERs must lie in (0, 1), got 1.5"),
        ("1e-3", "0", "samples must be >= 1"),
    ],
)
def test_energy_curve_library_checks_are_usage_errors(bers, samples, message, tmp_path, capsys):
    out = tmp_path / "e.csv"
    args = ["energy-curve", "--bers", bers, "--samples", samples, "--out", str(out)]
    assert main(args) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
