import numpy as np
import pytest

from bitflip_bnn.bitcore import load_model, model_predict_batch
from bitflip_bnn.cli import main
from bitflip_bnn.faultsim import flip_bits, trial_seed
from bitflip_bnn.mnist_io import binarize_input, load_dataset


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
    # 0 .. 1e-3 take the incremental path, 5e-2 the dense one
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
    assert "sweep.incremental_trials=6" in manifest
    assert "sweep.dense_trials=2" in manifest
    assert any(line.startswith("stage.clean_pass_s=") for line in manifest)


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


def test_energy_curve_unknown_config_key(tmp_path):
    cfg = tmp_path / "dev.cfg"
    cfg.write_text("resistance=5\n")
    code = main(
        ["energy-curve", "--device", str(cfg), "--bers", "1e-3", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3


def test_energy_curve_rejects_boundary_bers(tmp_path):
    for bad in ("0", "1", "0.5,1.0"):
        code = main(["energy-curve", "--bers", bad, "--out", str(tmp_path / "x.csv")])
        assert code == 2


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
    assert any(line.startswith("stage.clean_pass_s=") for line in manifest)

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
