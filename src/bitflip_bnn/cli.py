"""Command-line interface: train, eval, ber-sweep, energy-curve, acc-energy.

Every CSV output gets a key=value manifest sidecar (<csv>.manifest) recording
the command, all resolved parameters, the master seed, package version,
output paths and wall-clock duration. With identical flags and seed all CSV
outputs are byte-identical.

Exit codes: 0 success, 2 usage error, 3 data/format error or an output that
cannot be written, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__
from .errors import FormatError, NumericError
from .bitcore import BnnModel, load_model, require_linear, save_model
from .faultsim import SweepResult, accuracy, ber_sweep
from .mnist_io import TEST_IMAGES, TRAIN_IMAGES, Dataset, load_dataset
from .mtj import (
    DIRECTIONS,
    INTRINSIC_ONLY,
    WITH_DEVICE_VARIATIONS,
    MtjDeviceParams,
    ProgrammingPoint,
    curve_workers,
    energy_ber_curve,
    load_device_config,
)
from .trainer import MNIST_LAYER_SIZES, TrainConfig, export_model, train

_MODE_FLAGS = {"intrinsic": INTRINSIC_ONLY, "variations": WITH_DEVICE_VARIATIONS}


class UsageError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_bers(text: str) -> list[float]:
    items = [p for p in text.split(",") if p.strip()]
    if not items:
        raise UsageError("--bers needs at least one value")
    try:
        bers = [float(p) for p in items]
    except ValueError as exc:
        raise UsageError(f"--bers: not a number in {text!r}") from exc
    seen = set()
    for ber in bers:
        if ber in seen:
            raise UsageError(f"--bers lists {ber!r} more than once")
        seen.add(ber)
    return bers


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(row + "\n")


def _write_manifest(
    csv_path: Path,
    command: str,
    params: dict,
    outputs: list[Path],
    started: float,
    stats: dict | None = None,
) -> None:
    """Write the reproducibility record <csv_path>.manifest.

    One key=value line each, in this order: the command, the sorted
    parameters, the seed, the outputs, the package versions, the sorted
    measured run figures, the process's peak resident set size so far
    (omitted where the resource module is missing), and the wall time since
    `started`.
    """
    duration_s = time.monotonic() - started
    stats = stats or {}
    lines = [f"command={command}"]
    lines += [f"param.{key}={_fmt(params[key])}" for key in sorted(params)]
    if params.get("seed") is not None:
        lines.append(f"seed={params['seed']}")
    lines += [f"output.{i}={out}" for i, out in enumerate(outputs)]
    lines += [f"version.bitflip_bnn={__version__}", f"version.numpy={np.__version__}"]
    lines += [f"{key}={_fmt(stats[key])}" for key in sorted(stats)]
    if resource is not None:
        # ru_maxrss counts KiB on Linux and bytes on macOS
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        unit = 2**20 if sys.platform == "darwin" else 2**10
        lines.append(f"peak_rss_mib={peak / unit!r}")
    lines.append(f"duration_s={duration_s!r}")
    Path(str(csv_path) + ".manifest").write_text("\n".join(lines) + "\n")


def _sweep_stats(result: SweepResult) -> dict:
    return {
        "sweep.incremental_trials": result.incremental_trials,
        "sweep.dense_trials": result.dense_trials,
        "sweep.recounts": result.recounts,
        "stage.clean_pass_s": result.clean_pass_s,
        "stage.incremental_s": result.incremental_s,
    }


def _energy_stats(points: list[ProgrammingPoint]) -> dict:
    stats = {"energy.workers": curve_workers(len(points))}
    for i, point in enumerate(points):
        stats[f"energy.point.{i}.target_ber"] = point.ber
        for direction, observed in zip(DIRECTIONS, point.ber_observed):
            stats[f"energy.point.{i}.ber_observed.{direction}"] = observed
    return stats


def _sibling(path: Path, tag: str) -> Path:
    if path.suffix:
        return path.with_name(path.stem + tag + path.suffix)
    return path.with_name(path.name + tag)


def _check_out(out: Path, *siblings: Path) -> None:
    """Refuse, before any data is read, an --out that could not be written.

    Every path the command writes must not be a directory, and its nearest
    existing ancestor must be a writable directory (missing ones are made at
    write time). Raises OSError, which exits 3, naming the flag and the path.
    """
    for path in (out, *siblings):
        if path.is_dir():
            raise OSError(f"--out {out}: {path} is a directory")
        if path.exists():
            writable = os.access(path, os.W_OK)
        else:
            parent = path.parent
            while not parent.exists():
                parent = parent.parent
            writable = parent.is_dir() and os.access(parent, os.W_OK | os.X_OK)
        if not writable:
            raise OSError(f"--out {out}: cannot create {path}")


def _load_linear_model(path) -> BnnModel:
    """Load a model for the MNIST commands, which feed it flat input rows."""
    model = load_model(path)
    try:
        require_linear(model)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return model


def _load_split(data_dir, split: str, n_in: int) -> Dataset:
    """Load a split for a model of n_in inputs, which takes one bit per pixel."""
    data = load_dataset(data_dir, split)
    width = data.images.shape[-1]
    if width != n_in:
        name = TRAIN_IMAGES if split == "train" else TEST_IMAGES
        raise FormatError(
            f"{Path(data_dir) / name}: images of {width} pixels, "
            f"but the model takes {n_in} inputs"
        )
    return data


def _device_params(args) -> MtjDeviceParams:
    if getattr(args, "device", None):
        return load_device_config(args.device)
    return MtjDeviceParams.nominal()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    started = time.monotonic()
    if args.limit is not None and args.limit < 1:
        raise UsageError("--limit must be >= 1")
    out = Path(args.out)
    log_path = Path(str(out) + ".log.csv")
    _check_out(out, log_path, Path(str(log_path) + ".manifest"))
    train_set = _load_split(args.data_dir, "train", MNIST_LAYER_SIZES[0])
    if args.limit is not None:
        train_set = train_set.take(args.limit)
    test_set = _load_split(args.data_dir, "test", MNIST_LAYER_SIZES[0])
    config = TrainConfig(
        epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr, seed=args.seed
    )
    out.parent.mkdir(parents=True, exist_ok=True)

    def progress(epoch, loss, acc):
        print(f"epoch {epoch}: train_loss={loss:.4f} test_accuracy={acc:.4f}", file=sys.stderr)

    latent, history = train(
        train_set, config, MNIST_LAYER_SIZES, test_set, log_path=log_path, progress=progress
    )
    save_model(export_model(latent), out)
    params = {
        "data_dir": args.data_dir,
        "out": str(out),
        "epochs": args.epochs,
        "batch": args.batch,
        "lr": args.lr,
        "seed": args.seed,
        "limit": args.limit if args.limit is not None else "",
    }
    _write_manifest(log_path, "train", params, [out, log_path], started)
    print(f"model written to {out}; final test accuracy {history[-1][2]!r}")
    return 0


def cmd_eval(args) -> int:
    model = _load_linear_model(args.model)
    test_set = _load_split(args.data_dir, "test", model.layers[0].in_features)
    acc = accuracy(model, test_set)
    print(f"accuracy={acc!r}")
    return 0


def _sweep_rows(result: SweepResult) -> tuple[list[str], list[str]]:
    trial_rows = []
    summary_rows = []
    for bi, ber in enumerate(result.bers):
        for ti in range(result.trials):
            trial_rows.append(f"{ber!r},{ti},{float(result.accuracies[bi, ti])!r}")
        summary_rows.append(
            f"{ber!r},{float(result.mean_accuracy[bi])!r},{float(result.std_accuracy[bi])!r}"
        )
    return trial_rows, summary_rows


def cmd_ber_sweep(args) -> int:
    started = time.monotonic()
    out = Path(args.out)
    trials_path = _sibling(out, "_trials")
    _check_out(out, trials_path, Path(str(out) + ".manifest"))
    model = _load_linear_model(args.model)
    test_set = _load_split(args.data_dir, "test", model.layers[0].in_features)
    bers = _parse_bers(args.bers)
    # ber_sweep refuses unsorted BERs, BERs outside [0,1] and trials < 1
    result = ber_sweep(model, test_set, bers, args.trials, args.seed)
    trial_rows, summary_rows = _sweep_rows(result)
    _write_csv(out, "ber,mean_accuracy,std_accuracy", summary_rows)
    _write_csv(trials_path, "ber,trial,accuracy", trial_rows)
    params = {
        "model": args.model,
        "data_dir": args.data_dir,
        "bers": args.bers,
        "trials": args.trials,
        "seed": args.seed,
    }
    _write_manifest(
        out, "ber-sweep", params, [out, trials_path], started, _sweep_stats(result)
    )
    print(f"sweep written to {out} (per-trial rows in {trials_path})")
    return 0


def cmd_energy_curve(args) -> int:
    started = time.monotonic()
    out = Path(args.out)
    _check_out(out, Path(str(out) + ".manifest"))
    params = _device_params(args)
    bers = _parse_bers(args.bers)
    mode = _MODE_FLAGS[args.mode]
    # energy_ber_curve refuses BERs outside (0,1) and samples < 1
    points = energy_ber_curve(params, bers, args.samples, args.seed, mode)
    rows = [
        f"{p.ber!r},{p.t_pulse * 1e9!r},{p.energy_mean * 1e15!r},"
        f"{p.energy_std * 1e15!r},{p.variability_mode}"
        for p in points
    ]
    _write_csv(out, "ber,t_pulse_ns,energy_mean_fj,energy_std_fj,mode", rows)
    manifest_params = {
        "device": args.device or "<built-in nominal device>",
        "bers": args.bers,
        "samples": args.samples,
        "mode": args.mode,
        "seed": args.seed,
    }
    _write_manifest(
        out, "energy-curve", manifest_params, [out], started, _energy_stats(points)
    )
    print(f"energy curve written to {out}")
    return 0


def cmd_acc_energy(args) -> int:
    started = time.monotonic()
    out = Path(args.out)
    _check_out(out, Path(str(out) + ".manifest"))
    model = _load_linear_model(args.model)
    test_set = _load_split(args.data_dir, "test", model.layers[0].in_features)
    device = _device_params(args)
    bers = _parse_bers(args.bers)
    for ber in bers:
        if not 0.0 < ber < 1.0:
            raise UsageError(f"target BER {ber} outside (0,1): the energy model needs (0,1)")
    if args.trials < 1 or args.samples < 1:
        raise UsageError("--trials and --samples must be >= 1")
    mode = _MODE_FLAGS[args.mode]

    ascending = sorted(bers)
    sweep = ber_sweep(model, test_set, ascending, args.trials, args.seed)
    curve = energy_ber_curve(device, bers, args.samples, args.seed, mode)
    acc_by_ber = {
        ber: (float(sweep.mean_accuracy[i]), float(sweep.std_accuracy[i]))
        for i, ber in enumerate(ascending)
    }
    rows = []
    for point in curve:  # descending BER, ascending energy
        mean_acc, std_acc = acc_by_ber[point.ber]
        rows.append(
            f"{point.ber!r},{point.energy_mean * 1e15!r},{mean_acc!r},{std_acc!r}"
        )
    _write_csv(out, "ber,energy_mean_fj,mean_accuracy,std_accuracy", rows)
    params = {
        "model": args.model,
        "data_dir": args.data_dir,
        "device": args.device or "<built-in nominal device>",
        "bers": args.bers,
        "trials": args.trials,
        "samples": args.samples,
        "mode": args.mode,
        "seed": args.seed,
    }
    stats = {**_sweep_stats(sweep), **_energy_stats(curve)}
    _write_manifest(out, "acc-energy", params, [out], started, stats)
    print(f"accuracy-energy curve written to {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitflip-bnn",
        description="Binarized neural network fault-injection and MRAM energy experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the MNIST binarized network")
    p.add_argument("--data-dir", required=True, help="directory with the four MNIST IDX files")
    p.add_argument("--out", required=True, help="output model file (BNN1 format)")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=None, help="cap the training set size")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="clean accuracy of a model on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--data-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ber-sweep", help="accuracy vs weight bit error rate")
    p.add_argument("--model", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--bers", required=True, help="comma-separated BERs, ascending")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="summary CSV path")
    p.set_defaults(func=cmd_ber_sweep)

    p = sub.add_parser("energy-curve", help="programming energy per bit vs BER")
    p.add_argument("--device", default=None, help="device config file (key=value)")
    p.add_argument("--bers", required=True, help="comma-separated target BERs in (0,1)")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--mode", choices=sorted(_MODE_FLAGS), default="intrinsic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_energy_curve)

    p = sub.add_parser("acc-energy", help="join accuracy sweep with energy curve")
    p.add_argument("--model", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--device", default=None)
    p.add_argument("--bers", required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--mode", choices=sorted(_MODE_FLAGS), default="intrinsic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_acc_energy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
