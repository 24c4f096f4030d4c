import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import bitflip_bnn
from bitflip_bnn.bitcore import (
    BinarizedConvLayer,
    BinarizedLinearLayer,
    BitTensor,
    BnnModel,
    load_model,
    model_predict_batch,
    save_model,
)
from bitflip_bnn.cli import main
from bitflip_bnn.faultsim import flip_bits, trial_seed
from bitflip_bnn import mtj
from bitflip_bnn.mnist_io import (
    TEST_IMAGES,
    TEST_LABELS,
    binarize_input,
    load_dataset,
    load_idx_images,
)
from bitflip_bnn.mtj import WITH_DEVICE_VARIATIONS, parse_device_config
from tests.conftest import write_idx_images, write_idx_labels
from tests.test_bitcore import fan_in_bound_model_bytes
from tests.test_mtj_reference import reference_energy_ber_curve


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
    assert model.input_shape == (784,)
    assert model.class_count == 10
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
    assert "sweep.recounts=0" in manifest
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
        "sweep.incremental_trials=1",
        "sweep.recounts=0",
        "peak_rss_mib=",
        "duration_s=",
    ]


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


@pytest.fixture(scope="module")
def conv_model(tmp_path_factory):
    """A conv model that loads fine; BNN1 does not record its [1, 28, 28] input."""
    rng = np.random.default_rng(4)
    conv = BinarizedConvLayer(BitTensor.from_bool(rng.random((2, 1, 3, 3)) < 0.5), [4, 5])
    out = BinarizedLinearLayer(
        BitTensor.from_bool(rng.random((10, 2 * 26 * 26)) < 0.5), np.zeros(10, int), True
    )
    path = tmp_path_factory.mktemp("conv") / "conv.bnn"
    save_model(BnnModel([conv, out]), path)
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

    The command must exit with `code` (3 unless given) without calling any of them.
    """
    from bitflip_bnn import cli

    ran = []
    for name in (
        "load_dataset", "load_model", "load_device_config", "train", "ber_sweep",
        "energy_ber_curve",
    ):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: ran.append(_name))
    assert main(args) == code
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


def _energy_manifest_keys(manifest: list[str], bers: list[float]) -> None:
    keys = dict(line.split("=", 1) for line in manifest)
    assert int(keys["energy.workers"]) >= 1
    for i, ber in enumerate(sorted(bers, reverse=True)):
        assert float(keys[f"energy.point.{i}.target_ber"]) == ber
        for direction in ("p_to_ap", "ap_to_p"):
            assert 0.0 <= float(keys[f"energy.point.{i}.ber_observed.{direction}"]) <= 1.0


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
    _energy_manifest_keys((tmp_path / "energy.csv.manifest").read_text().splitlines(), bers)


@pytest.mark.parametrize("key", ["tmr", "diameter_nm"])
def test_energy_curve_non_finite_device_value_is_format_error(key, tmp_path, capsys):
    cfg = tmp_path / "dev.cfg"
    cfg.write_text(f"{key}=nan\n")
    out = tmp_path / "x.csv"
    code = main(["energy-curve", "--device", str(cfg), "--bers", "1e-3", "--out", str(out)])
    assert code == 3
    assert f"'{key}' is not finite" in capsys.readouterr().err
    assert not out.exists()


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
    assert "a sampled R_P or R_AP is <= 0 ohm: sigma_rp_rel=2.0" in capsys.readouterr().err
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
    assert "sweep.recounts=0" in manifest
    assert any(line.startswith("stage.clean_pass_s=") for line in manifest)
    assert any(line.startswith("stage.incremental_s=") for line in manifest)
    _energy_manifest_keys(manifest, [1e-4, 1e-2, 1e-1])

    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


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


def test_energy_curve_non_integer_gamma_k_is_format_error(tmp_path, capsys):
    cfg = tmp_path / "dev.cfg"
    cfg.write_text("gamma_k=16.5\n")
    out = tmp_path / "x.csv"
    code = main(["energy-curve", "--device", str(cfg), "--bers", "1e-3", "--out", str(out)])
    assert code == 3
    assert "gamma_k must be a positive integer, got 16.5" in capsys.readouterr().err
    assert not out.exists()


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


def test_mnist_commands_pass_bool_images(trained, synth_data_dir, tmp_path, monkeypatch):
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
    assert seen == expected


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
