"""The benchmark keeps running against the package: what it wraps, loads and trains.

`perfbench/spans.py` replaces package functions by traced wrappers that bind
each call's arguments by name. A renamed function or parameter makes the
traced benchmark crash, so one test runs its `instrument` (and `restore`)
and checks every wrapped function's signature.

The untraced benchmark times each workload's set-up snippet through
`run.SETUP_PROGRAM`, and trains its sweep model with `inputs._train_model`.
A package name they use that goes away would show only as a failed benchmark
run, so the other tests run both, on small synthetic inputs. The benchmark
files are only imported, never changed.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bitflip_bnn import bitcore, cli, faultsim, mtj, trainer
from bitflip_bnn.mnist_io import TRAIN_IMAGES, TRAIN_LABELS, load_idx_images, load_idx_labels

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"
LAYER_SIZES = (784, 1024, 1024, 10)
# Prints each workload's set-up program as run.measure_setup formats it. It
# runs in a process of its own: importing run.py caps the BLAS threads in
# os.environ, which this process and the commands it starts must not inherit.
LIST_SETUP_PROGRAMS = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import run
print(json.dumps({n: run.SETUP_PROGRAM.format(setup=w.setup) for n, w in run.WORKLOADS.items()}))
"""

# parameters the hooks and metric names read from the bound arguments
HOOKED_PARAMETERS = {
    (bitcore, "linear_forward"): {"layer", "x"},
    (faultsim, "flip_bits"): {"model"},
    (faultsim, "_run_trial"): {"args"},
    (mtj, "pulse_for_ber"): {"target_ber"},
    (mtj, "write_energy_mc"): {"samples", "t_pulse"},
}


def _load(name: str):
    """perfbench/<name>.py as a module, or a skip where the benchmark is not in the checkout."""
    path = PERFBENCH / f"{name}.py"
    if not path.exists():
        pytest.skip(f"perfbench/{name}.py is not in this checkout")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where @dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_existing_functions_and_restores_them():
    spans = _load("spans")
    modules = (bitcore, cli, faultsim, mtj, trainer)
    before = {m: dict(vars(m)) for m in modules}
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer, LAYER_SIZES, {})
        wrapped = [(module, attr) for module, attr, _ in tracer._patches]
        assert wrapped, "instrument wrapped nothing"
        for module, attr in wrapped:
            assert getattr(module, attr) is not before[module][attr]
    finally:
        tracer.restore()
    for module in modules:
        for attr, value in before[module].items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr} not restored"

    for (module, attr), names in HOOKED_PARAMETERS.items():
        assert (module, attr) in wrapped, f"{module.__name__}.{attr} is no longer wrapped"
        params = set(inspect.signature(before[module][attr]).parameters)
        assert names <= params, f"{module.__name__}.{attr} lacks {sorted(names - params)}"


@pytest.fixture(scope="module")
def bench_model(tmp_path_factory, synth_data_dir):
    """The benchmark's sweep model, trained by inputs._train_model on 200 synthetic images."""
    inputs = _load("inputs")
    out = tmp_path_factory.mktemp("bench") / "model.bnn"
    pixels = load_idx_images(synth_data_dir / TRAIN_IMAGES)[:200]
    labels = load_idx_labels(synth_data_dir / TRAIN_LABELS)[:200]
    inputs._train_model(pixels, labels, 1, out)
    return out


def test_train_model_writes_a_bnn1_model(bench_model):
    model = bitcore.load_model(bench_model)
    assert [layer.in_features for layer in model.layers] == list(LAYER_SIZES[:-1])


def test_every_workload_setup_runs(tmp_path, synth_data_dir, bench_model):
    device = tmp_path / "device.cfg"
    device.write_text(_load("inputs").DEVICE_CONFIG)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    listed = subprocess.run(
        [sys.executable, "-c", LIST_SETUP_PROGRAMS, str(PERFBENCH)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    programs = json.loads(listed.stdout)
    assert sorted(programs) == ["energy-curve", "sweep-flat", "sweep-steep", "train"]
    for name, program in programs.items():
        done = subprocess.run(
            [sys.executable, "-c", program, str(synth_data_dir), str(bench_model), str(device)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, f"{name}: {done.stderr}"
        assert float(done.stdout) > 0.0  # the timed set-up, in seconds
