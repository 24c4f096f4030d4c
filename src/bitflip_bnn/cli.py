"""Command-line interface: train, eval, ber-sweep, energy-curve, acc-energy.

Every CSV output gets a key=value manifest sidecar (<csv>.manifest) recording
the command, all resolved parameters, the master seed, package version,
output paths and wall-clock duration. With identical flags and seed all CSV
outputs are byte-identical.

Exit codes: 0 success, 2 usage error, 3 data/format error or an output that
cannot be written, 4 numeric failure.

Every command works in one order. It parses and checks every flag first
(exit 2), through argparse and the check functions the library shares
(faultsim.check_sweep_grid, mtj.check_curve_grid); it then checks every
path it will write, none of them an input (_check_out, exit 3); only then
does it read the model, the data splits or the device file.
"""

from __future__ import annotations

import argparse
import os
import re
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
from .bitcore import load_model, save_model
from .faultsim import SweepResult, accuracy, ber_sweep, check_sweep_grid
from .mnist_io import Dataset, load_dataset, split_files
from .mtj import (
    DIRECTIONS,
    INTRINSIC_ONLY,
    WITH_DEVICE_VARIATIONS,
    MtjDeviceParams,
    ProgrammingPoint,
    check_curve_grid,
    curve_workers,
    energy_ber_curve,
    load_device_config,
)
from .trainer import MNIST_LAYER_SIZES, TrainConfig, export_model, train

_MODE_FLAGS = {"intrinsic": INTRINSIC_ONLY, "variations": WITH_DEVICE_VARIATIONS}
# accuracy a BER may lose against the lowest one and still count as the
# paper's low-energy operating point (acceptance criterion 7's one point)
TRADEOFF_ACC_TOLERANCE = 0.01


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_bers(text: str) -> list[float]:
    items = [p for p in text.split(",") if p.strip()]
    try:
        bers = [float(p) for p in items]
    except ValueError as exc:
        raise ValueError(f"--bers: not a number in {text!r}") from exc
    for i, ber in enumerate(bers):
        if ber in bers[:i]:
            raise ValueError(f"--bers lists {ber!r} more than once")
    return bers


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(row + "\n")


def _peak_rss() -> tuple[str, float] | None:
    """(source, MiB) of this process's peak resident set size so far.

    VmHWM from /proc/self/status resets at exec, so it is this command's own
    peak. ru_maxrss, the fallback where /proc is missing, carries the peak of
    the process that launched the command across fork and exec. None where
    neither exists.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return "vmhwm", int(line.split()[1]) / 2**10  # counted in KiB
    except OSError:
        pass
    if resource is None:
        return None
    # ru_maxrss counts KiB on Linux and bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    unit = 2**20 if sys.platform == "darwin" else 2**10
    return "ru_maxrss", peak / unit


def _key_order(key: str) -> list:
    """Sort key of a manifest key: its runs of digits compare as integers, so
    energy.point.2.* comes before energy.point.10.*."""
    return [int(part) if i % 2 else part for i, part in enumerate(re.split(r"(\d+)", key))]


def _write_manifest(
    csv_path: Path,
    command: str,
    params: dict,
    outputs: list[Path],
    started: float,
    stats: dict,
) -> None:
    """Write the reproducibility record <csv_path>.manifest.

    One key=value line each, in this order: the command, the parameters, the
    seed, the outputs, the package versions, the measured run figures (both
    sorted by _key_order), the source and value of the process's peak
    resident set size so far (both omitted where neither source exists; see
    _peak_rss), and the wall time since `started`.
    """
    duration_s = time.monotonic() - started
    lines = [f"command={command}"]
    lines += [f"param.{key}={_fmt(params[key])}" for key in sorted(params, key=_key_order)]
    if params.get("seed") is not None:
        lines.append(f"seed={params['seed']}")
    lines += [f"output.{i}={out}" for i, out in enumerate(outputs)]
    lines += [f"version.bitflip_bnn={__version__}", f"version.numpy={np.__version__}"]
    lines += [f"{key}={_fmt(stats[key])}" for key in sorted(stats, key=_key_order)]
    peak = _peak_rss()
    if peak is not None:
        source, mib = peak
        lines += [f"peak_rss_source={source}", f"peak_rss_mib={mib!r}"]
    lines.append(f"duration_s={duration_s!r}")
    Path(str(csv_path) + ".manifest").write_text("\n".join(lines) + "\n")


def _sweep_stats(result: SweepResult) -> dict:
    return {
        "sweep.incremental_trials": result.incremental_trials,
        "sweep.dense_trials": result.dense_trials,
        "sweep.fallback_blocks": result.fallback_blocks,
        "stage.clean_pass_s": result.clean_pass_s,
        "stage.incremental_s": result.incremental_s,
    }


def _energy_stats(points: list[ProgrammingPoint], samples: int) -> dict:
    """Per point: the target BER and, per direction, the observed BER and its
    binomial z-score against the target (infinite where the target's standard
    error underflows to 0)."""
    stats = {"energy.workers": curve_workers(len(points))}
    for i, point in enumerate(points):
        stats[f"energy.point.{i}.target_ber"] = point.ber
        inv_sigma = (samples / (point.ber * (1.0 - point.ber))) ** 0.5
        for direction, observed in zip(DIRECTIONS, point.ber_observed):
            stats[f"energy.point.{i}.ber_observed.{direction}"] = observed
            stats[f"energy.point.{i}.ber_observed_z.{direction}"] = (observed - point.ber) * inv_sigma
    return stats


def _tradeoff_stats(rows: list[tuple[float, float, float, float]]) -> dict:
    """The paper's operating point on an acc-energy grid, from its CSV rows
    (ber, energy_mean_fj, mean_accuracy, std_accuracy): the largest BER whose
    mean accuracy is within TRADEOFF_ACC_TOLERANCE of the lowest BER's, and
    its energy over the lowest BER's."""
    ref_ber, ref_energy, ref_acc, _ = min(rows)
    ber, energy = max(
        (ber, energy)
        for ber, energy, acc, _ in rows
        if abs(acc - ref_acc) <= TRADEOFF_ACC_TOLERANCE
    )
    return {
        "tradeoff.reference_ber": ref_ber,
        "tradeoff.max_ber_within_1pt": ber,
        "tradeoff.energy_ratio": energy / ref_energy,
    }


def _sibling(path: Path, tag: str) -> Path:
    if path.suffix:
        return path.with_name(path.stem + tag + path.suffix)
    return path.with_name(path.name + tag)


def _check_out(out: Path, *siblings: Path, inputs=()) -> None:
    """Refuse, before any data is read, an --out that could not be written.

    Every path the command writes must not be a directory, nor the same file
    as one of `inputs`, the files the command reads, however it is named:
    ./m.bnn, a symlink or a hard link to m.bnn (an unset input, None or "",
    is skipped). Its nearest existing ancestor must be a writable directory
    (missing ones are made at write time). Raises OSError, which exits 3,
    naming the flag and the path.
    """
    for path in (out, *siblings):
        same = path.exists() and [i for i in inputs if i and os.path.exists(i) and path.samefile(i)]
        if same:
            raise OSError(f"--out {out}: {path} would replace the input {same[0]}")
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


def _load_split(data_dir, split: str, n_in: int) -> Dataset:
    """Load a split for a model of n_in inputs, which takes one bit per pixel."""
    data = load_dataset(data_dir, split)
    width = data.images.shape[-1]
    if width != n_in:
        raise FormatError(
            f"{split_files(data_dir, split)[0]}: images of {width} pixels, "
            f"but the model takes {n_in} inputs"
        )
    return data


def _flag_params(args, *omit: str) -> dict:
    """The manifest parameters of a command: its flags, as given, but those named
    in omit. An unset or empty --device reads as the built-in device, an unset
    --limit as empty."""
    unset = {"device": "<built-in nominal device>", "limit": ""}
    return {
        flag: unset.get(flag, value) if value in (None, "") else value
        for flag, value in vars(args).items()
        if flag not in ("command", "func", *omit)
    }


def _device_params(args) -> MtjDeviceParams:
    if args.device:
        return load_device_config(args.device)
    return MtjDeviceParams.nominal()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    started = time.monotonic()
    if args.limit is not None and args.limit < 1:
        raise ValueError("--limit must be >= 1")
    # refuses --epochs, --batch and --lr, with ValueError (exit 2), before any file is read
    config = TrainConfig(
        epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr, seed=args.seed
    )
    out = Path(args.out)
    log_path = Path(str(out) + ".log.csv")
    splits = [*split_files(args.data_dir, "train"), *split_files(args.data_dir, "test")]
    _check_out(out, log_path, Path(str(log_path) + ".manifest"), inputs=splits)
    train_set = _load_split(args.data_dir, "train", MNIST_LAYER_SIZES[0])
    if args.limit is not None:
        train_set = train_set.take(args.limit)
    test_set = _load_split(args.data_dir, "test", MNIST_LAYER_SIZES[0])
    out.parent.mkdir(parents=True, exist_ok=True)
    # each epoch's wall time, its test pass included; the first also counts
    # train()'s set-up
    stats = {}
    epoch_started = time.monotonic()

    def progress(epoch, loss, acc):
        nonlocal epoch_started
        now = time.monotonic()
        stats[f"stage.epoch.{epoch}_s"] = now - epoch_started
        epoch_started = now
        print(f"epoch {epoch}: train_loss={loss:.4f} test_accuracy={acc:.4f}", file=sys.stderr)

    latent, history = train(train_set, config, MNIST_LAYER_SIZES, test_set, progress=progress)
    save_model(export_model(latent), out)
    rows = [f"{epoch},{loss!r},{acc!r}" for epoch, loss, acc in history]
    _write_csv(log_path, "epoch,train_loss,test_accuracy", rows)
    params = {**_flag_params(args), "out": str(out)}
    _write_manifest(log_path, args.command, params, [out, log_path], started, stats)
    print(f"model written to {out}; final test accuracy {history[-1][2]!r}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
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
    bers = _parse_bers(args.bers)
    check_sweep_grid(bers, args.trials)
    out = Path(args.out)
    trials_path = _sibling(out, "_trials")
    inputs = [args.model, *split_files(args.data_dir, "test")]
    _check_out(out, trials_path, Path(str(out) + ".manifest"), inputs=inputs)
    model = load_model(args.model)
    test_set = _load_split(args.data_dir, "test", model.layers[0].in_features)
    result = ber_sweep(model, test_set, bers, args.trials, args.seed)
    trial_rows, summary_rows = _sweep_rows(result)
    _write_csv(out, "ber,mean_accuracy,std_accuracy", summary_rows)
    _write_csv(trials_path, "ber,trial,accuracy", trial_rows)
    params = _flag_params(args, "out")
    _write_manifest(out, args.command, params, [out, trials_path], started, _sweep_stats(result))
    print(f"sweep written to {out} (per-trial rows in {trials_path})")
    return 0


def cmd_energy_curve(args) -> int:
    started = time.monotonic()
    bers = _parse_bers(args.bers)
    check_curve_grid(bers, args.samples)
    out = Path(args.out)
    _check_out(out, Path(str(out) + ".manifest"), inputs=[args.device])
    params = _device_params(args)
    points = energy_ber_curve(params, bers, args.samples, args.seed, _MODE_FLAGS[args.mode])
    for p in points:  # a pulse within the float range in s can overflow in ns
        if np.isinf(p.t_pulse * 1e9):
            raise NumericError(f"BER={p.ber!r}: a {p.t_pulse!r} s pulse overflows in ns: {params}")
    rows = [
        f"{p.ber!r},{p.t_pulse * 1e9!r},{p.energy_mean * 1e15!r},"
        f"{p.energy_std * 1e15!r},{p.variability_mode}"
        for p in points
    ]
    _write_csv(out, "ber,t_pulse_ns,energy_mean_fj,energy_std_fj,mode", rows)
    stats = _energy_stats(points, args.samples)
    _write_manifest(out, args.command, _flag_params(args, "out"), [out], started, stats)
    print(f"energy curve written to {out}")
    return 0


def cmd_acc_energy(args) -> int:
    started = time.monotonic()
    bers = _parse_bers(args.bers)
    ascending = sorted(bers)
    check_curve_grid(bers, args.samples)
    check_sweep_grid(ascending, args.trials)
    out = Path(args.out)
    inputs = [args.model, args.device, *split_files(args.data_dir, "test")]
    _check_out(out, Path(str(out) + ".manifest"), inputs=inputs)
    model = load_model(args.model)
    test_set = _load_split(args.data_dir, "test", model.layers[0].in_features)
    device = _device_params(args)

    sweep = ber_sweep(model, test_set, ascending, args.trials, args.seed)
    curve = energy_ber_curve(device, bers, args.samples, args.seed, _MODE_FLAGS[args.mode])
    acc_by_ber = {
        ber: (float(sweep.mean_accuracy[i]), float(sweep.std_accuracy[i]))
        for i, ber in enumerate(ascending)
    }
    # descending BER, ascending energy
    rows = [(p.ber, p.energy_mean * 1e15, *acc_by_ber[p.ber]) for p in curve]
    _write_csv(
        out,
        "ber,energy_mean_fj,mean_accuracy,std_accuracy",
        [",".join(map(repr, row)) for row in rows],
    )
    stats = {**_sweep_stats(sweep), **_energy_stats(curve, args.samples), **_tradeoff_stats(rows)}
    _write_manifest(out, args.command, _flag_params(args, "out"), [out], started, stats)
    print(f"accuracy-energy curve written to {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _NonNegative(argparse.Action):
    """Store an int flag, refused (exit 2, naming the flag) if it is negative."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be >= 0, got {value}")
        setattr(namespace, self.dest, value)


# the flags that several subcommands take, each with one meaning
_SHARED_FLAGS = {
    "--model": dict(required=True, help="model file (BNN1 format)"),
    "--data-dir": dict(required=True, help="directory with the four MNIST IDX files"),
    "--device": dict(default=None, help="device config file (key=value)"),
    "--trials": dict(type=int, default=5, help="fault-injection trials per BER"),
    "--samples": dict(type=int, default=100000, help="Monte Carlo samples per BER and direction"),
    "--mode": dict(choices=sorted(_MODE_FLAGS), default="intrinsic", help="variability to sample"),
    "--seed": dict(type=int, default=0, action=_NonNegative, help="master seed, >= 0"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitflip-bnn",
        description="Binarized neural network fault-injection and MRAM energy experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, *shared):
        """Subcommand `name`, run by func, with the shared flags named, through a parent parser."""
        parent = argparse.ArgumentParser(add_help=False)
        for flag in shared:
            parent.add_argument(flag, **_SHARED_FLAGS[flag])
        p = sub.add_parser(name, parents=[parent], help=summary)
        p.set_defaults(func=func)
        return p

    p = add("train", cmd_train, "train the MNIST binarized network", "--data-dir", "--seed")
    p.add_argument("--out", required=True, help="output model file (BNN1 format)")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--limit", type=int, default=None, help="cap the training set size")

    add("eval", cmd_eval, "clean accuracy of a model on the test split", "--model", "--data-dir")

    p = add("ber-sweep", cmd_ber_sweep, "accuracy vs weight bit error rate",
            "--model", "--data-dir", "--trials", "--seed")
    p.add_argument("--bers", required=True, help="comma-separated BERs, ascending")
    p.add_argument("--out", required=True, help="summary CSV path")

    p = add("energy-curve", cmd_energy_curve, "programming energy per bit vs BER",
            "--device", "--samples", "--mode", "--seed")
    p.add_argument("--bers", required=True, help="comma-separated target BERs in (0,1)")
    p.add_argument("--out", required=True)

    p = add("acc-energy", cmd_acc_energy, "join accuracy sweep with energy curve",
            "--model", "--data-dir", "--device", "--trials", "--samples", "--mode", "--seed")
    p.add_argument("--bers", required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:  # before ValueError, which FormatError is
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
