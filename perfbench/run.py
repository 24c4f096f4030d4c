#!/usr/bin/env python3
"""Benchmark of the bitflip-bnn command-line tool.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-flat --seed 1 --seconds 10 --trace 0

With --trace 0 each workload runs as a user would run it: `python3 -m
bitflip_bnn.cli <subcommand>` in a fresh process, with tracing off. The first
command warms up and its outputs are checked against an oracle that shares no
code with the package; the commands timed after it for --seconds seconds must
reproduce its output files byte for byte. `sweep-steep` also re-runs the
command with one worker and requires the same bytes (the determinism
contract). End-to-end metrics are medians over the timed commands.

With --trace 1 the command runs in this process through `cli.main(argv)`
with one worker, once untraced and once with every public function of the
package modules wrapped in a span (see spans.py), and prints per-layer self
times and counts.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The program exits with code 2
when the checkout holds no package source.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
# Cap BLAS threads at the cores this process may use, before numpy loads;
# child commands inherit the cap through the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(int(os.environ.get(_var) or NPROC), NPROC))

import argparse
import contextlib
import json
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREADS_ENV_VAR = "BITFLIP_BNN_THREADS"

LAYER_SIZES = (784, 1024, 1024, 10)
SETUP_REPEATS = 7
MIN_TIMED_COMMANDS = 3
COMMAND_TIMEOUT_S = 60  # about 8x the slowest command
RSS_POLL_S = 0.2  # each poll reads /proc, about 3 ms of CPU

FLAT_BERS = "1e-6,1e-5,1e-4,1e-3"
STEEP_BERS = "1e-2,1e-1,0.2"
ENERGY_BERS = "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8"
ENERGY_SAMPLES = 1_000_000
TRAIN_LIMIT = 3_000


@dataclass
class Workload:
    argv: Callable  # (inputs, out_dir, seed) -> CLI arguments
    outputs: tuple[str, ...]  # files the command writes, compared run to run
    items: int  # units of work one command completes
    check: Callable  # (out_dir, inputs, seed) -> oracle failure messages
    setup: str  # loader calls timed by the setup_s probe
    threads: int = 1  # BITFLIP_BNN_THREADS; above 1, a 1-worker run must match
    needs_model: bool = False  # the command reads the trained model


def _bers(text: str) -> list[float]:
    return [float(b) for b in text.split(",")]


def _sweep(bers: str, trials: int, threads: int) -> Workload:
    return Workload(
        argv=lambda inp, out, seed: [
            "ber-sweep", "--model", str(inp.model), "--data-dir", str(inp.data_dir),
            "--bers", bers, "--trials", str(trials), "--seed", str(seed),
            "--out", str(out / "sweep.csv"),
        ],
        outputs=("sweep.csv", "sweep_trials.csv"),
        items=inputs.TEST_IMAGES * len(_bers(bers)) * trials,
        check=lambda out, inp, seed: oracle.check_sweep(
            out, inp.model, inp.test_pixels, inp.test_labels, _bers(bers), trials, seed
        ),
        setup=(
            "ds = load_dataset(data_dir, 'test'); bitflip_bnn.load_model(model); "
            "bitflip_bnn.binarize_input(ds.images)"
        ),
        threads=threads,
        needs_model=True,
    )


WORKLOADS = {
    "sweep-flat": _sweep(FLAT_BERS, trials=1, threads=1),
    "sweep-steep": _sweep(STEEP_BERS, trials=1, threads=NPROC),
    "energy-curve": Workload(
        argv=lambda inp, out, seed: [
            "energy-curve", "--device", str(inp.device), "--bers", ENERGY_BERS,
            "--samples", str(ENERGY_SAMPLES), "--mode", "variations", "--seed", str(seed),
            "--out", str(out / "energy.csv"),
        ],
        outputs=("energy.csv",),
        items=len(_bers(ENERGY_BERS)) * 2 * ENERGY_SAMPLES,
        check=lambda out, inp, seed: oracle.check_energy(
            out, inp.device.read_text(), _bers(ENERGY_BERS), ENERGY_SAMPLES, seed
        ),
        setup="bitflip_bnn.load_device_config(device)",
    ),
    "train": Workload(
        argv=lambda inp, out, seed: [
            "train", "--data-dir", str(inp.data_dir), "--out", str(out / "model.bnn"),
            "--epochs", "1", "--limit", str(TRAIN_LIMIT), "--seed", str(seed),
        ],
        outputs=("model.bnn", "model.bnn.log.csv"),
        items=TRAIN_LIMIT,
        check=lambda out, inp, seed: oracle.check_train(
            out, inp.test_pixels, inp.test_labels, LAYER_SIZES
        ),
        setup=(
            "tr = load_dataset(data_dir, 'train'); load_dataset(data_dir, 'test'); "
            "bitflip_bnn.binarize_input(tr.images)"
        ),
    ),
}

SETUP_PROGRAM = """\
import sys, time
t0 = time.perf_counter()
import bitflip_bnn
from bitflip_bnn.mnist_io import load_dataset
data_dir, model, device = sys.argv[1:4]
{setup}
print(repr(time.perf_counter() - t0))
"""


def _metric_names(kind: str) -> tuple[list[str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]], {m["name"]: m["unit"] for m in spec[kind]}


def environment(threads: int) -> dict:
    """What the figures depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        commit = found.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        THREADS_ENV_VAR: threads,
        "commit": commit,
    }


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env[THREADS_ENV_VAR] = str(threads)
    return env


# ---------------------------------------------------------------------------
# Untraced commands
# ---------------------------------------------------------------------------


def _record_peaks(root_pid: int, peaks: dict[int, int]) -> None:
    """Raise peaks[pid] to the VmHWM (peak RSS, KiB) of the process and its descendants."""
    parents: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree = [root_pid]
    for pid in tree:
        tree.extend(child for child, parent in parents.items() if parent == pid)
    for pid in tree:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peaks[pid] = max(peaks.get(pid, 0), int(line.split()[1]))


def run_command(argv: list[str], threads: int, log: Path) -> tuple[float, float, int]:
    """(wall s, peak RSS MiB, exit code) of one CLI command.

    The peak RSS sums the peak of the command and of each pool worker, read
    from /proc every RSS_POLL_S; the rusage of the child is not used because
    Linux carries the parent's peak across fork and exec.
    """
    with open(log, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bitflip_bnn.cli", *argv],
            env=_child_env(threads), stdout=subprocess.DEVNULL, stderr=err,
        )
        peaks: dict[int, int] = {}
        done = threading.Event()

        def poll():
            while not done.wait(RSS_POLL_S):
                _record_peaks(proc.pid, peaks)

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            code = proc.wait(COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            wall = time.perf_counter() - start
            done.set()
            poller.join()
            if proc.poll() is None:  # timed out, or this benchmark is being stopped
                proc.kill()
                proc.wait()
    return wall, sum(peaks.values()) / 1024, proc.returncode if code is None else code


def _read_outputs(out_dir: Path, names) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes() for name in names if (out_dir / name).exists()}


def measure_setup(workload: Workload, inp) -> list[float]:
    program = SETUP_PROGRAM.format(setup=workload.setup)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", program, str(inp.data_dir), str(inp.model), str(inp.device)],
            env=_child_env(1), capture_output=True, text=True, check=True,
            timeout=COMMAND_TIMEOUT_S,
        )
        times.append(float(done.stdout))
    return times


def run_untraced(name: str, workload: Workload, inp, seed: int, seconds: float):
    """End-to-end metrics as {name: (median, samples)}, attempted, failed, problems."""
    out_dir = WORK / f"out-{name}"
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = workload.argv(inp, out_dir, seed)
    problems: list[str] = []
    attempted = failed = 0

    def attempt(threads: int, reference: dict | None):
        nonlocal attempted, failed
        for stale in workload.outputs:
            (out_dir / stale).unlink(missing_ok=True)
        log = out_dir / "stderr.log"
        wall, rss, code = run_command(argv, threads, log)
        attempted += 1
        errors = []
        if code != 0:
            errors.append(f"exit code {code}: {log.read_text()[-2000:]}")
        outputs = _read_outputs(out_dir, workload.outputs)
        if not errors:
            if reference is None:
                errors = workload.check(out_dir, inp, seed)
            elif outputs != reference:
                changed = sorted(k for k in reference if outputs.get(k) != reference[k])
                errors.append(
                    f"outputs with {threads} worker(s) differ from the first run: {changed}"
                )
        if errors:
            failed += 1
            problems.extend(errors)
        return wall, rss, outputs

    # The first command warms up (page cache, lazy imports) and is the oracle's.
    _, _, reference = attempt(workload.threads, None)
    if workload.threads > 1:
        attempt(1, reference)
    setup = measure_setup(workload, inp)
    walls, rss = [], []
    deadline = time.perf_counter() + seconds
    # Stop early once a command fails: the result is wrong whatever it measures.
    while not walls or not failed and (
        len(walls) < MIN_TIMED_COMMANDS or time.perf_counter() < deadline
    ):
        wall, peak, _ = attempt(workload.threads, reference)
        walls.append(wall)
        rss.append(peak)

    metrics = {
        "items_per_s": (workload.items / statistics.median(walls), len(walls)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mib": (statistics.median(rss), len(rss)),
    }
    return metrics, attempted, failed, problems


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _clean_activations(inp) -> dict:
    """Packed hidden activations of the unfaulted model on the test split."""
    from bitflip_bnn import bitcore
    from bitflip_bnn.mnist_io import binarize_input, load_dataset

    model = bitcore.load_model(inp.model)
    act = binarize_input(load_dataset(inp.data_dir, "test").images)
    acts = {}
    for i, layer in enumerate(model.layers[:-1]):
        act = bitcore.linear_forward(layer, act)
        acts[i] = act
    return acts


def run_traced(name: str, workload: Workload, inp, seed: int):
    """Per-layer metrics as {name: (value, None)}, attempted, failed, problems."""
    from bitflip_bnn import cli

    os.environ[THREADS_ENV_VAR] = "1"
    clean = _clean_activations(inp) if workload.needs_model else {}
    walls = {}
    outputs = {}
    problems = []
    attempted = failed = 0
    for mode in ("warmup", "untraced", "traced"):
        out_dir = WORK / f"trace-{name}-{mode}"
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = workload.argv(inp, out_dir, seed)
        tracer = spans.Tracer()
        if mode == "traced":
            spans.instrument(tracer, LAYER_SIZES, clean)
        try:
            with contextlib.redirect_stdout(sys.stderr):
                start = time.perf_counter()
                code = tracer.call(spans.ROOT, cli.main, argv)
                walls[mode] = time.perf_counter() - start
        finally:
            tracer.restore()
        attempted += 1
        outputs[mode] = _read_outputs(out_dir, workload.outputs)
        errors = [f"exit code {code}"] if code != 0 else []
        if not errors and mode == "traced":
            errors = workload.check(out_dir, inp, seed)
        if not errors and outputs[mode] != outputs["warmup"]:
            errors = [f"{mode} outputs differ from the warm-up run"]
        if errors:
            failed += 1
            problems.extend(errors)

    (WORK / f"trace-{name}-traced" / "spans.json").write_text(json.dumps(tracer.spans))
    values = spans.layer_metrics(tracer)
    values["trace.wall_s"] = walls["traced"]
    values["trace.untraced_wall_s"] = walls["untraced"]
    values["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    # A layer the command never reaches reads 0.
    names, _ = _metric_names("per_layer")
    return {n: (float(values.get(n, 0.0)), None) for n in names}, attempted, failed, problems


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a stop request into an exception, so that running commands are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "bitflip_bnn" / "cli.py").is_file():
        print(f"error: no package source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    inp = inputs.make_inputs(args.seed, WORK, workload.needs_model)
    if args.trace:
        metrics, attempted, failed, problems = run_traced(args.workload, workload, inp, args.seed)
        kind = "per_layer"
    else:
        metrics, attempted, failed, problems = run_untraced(
            args.workload, workload, inp, args.seed, args.seconds
        )
        kind = "end_to_end"

    names, units = _metric_names(kind)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("env " + json.dumps(environment(1 if args.trace else workload.threads)))
    for metric in names:
        value, n = metrics[metric]
        count = f" (median of {n})" if n else ""
        print(f"{args.workload} {metric} = {value!r} {units[metric]}{count}")
    print(f"{args.workload} failed_frac = {failed / attempted!r} ({failed} of {attempted} runs)")
    if args.trace:
        m = {k: v for k, (v, _) in metrics.items()}
        print(
            f"self times sum to {m['trace.self_sum_s']!r} s against a traced wall of "
            f"{m['trace.wall_s']!r} s; tracing overhead {m['trace.overhead_s']!r} s "
            "(word_ops, bytes_moved and job_bytes are computed from array sizes)"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": units[k]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
