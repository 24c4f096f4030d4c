"""Seeded inputs for the benchmark workloads.

One seed gives one set of files: synthetic 28x28 digits written as the four
canonical MNIST IDX files, a device config holding the nominal 32 nm junction,
and a 784-1024-1024-10 model trained on the synthetic train split with the
package trainer. A trained model is used, not a random one: a random model
with median thresholds is chaotic (one flipped weight bit changes about 1% of
its predictions), which would misstate how many activations a fault changes.

Files are cached per seed under the work directory. A `complete` marker is
written after the data and the model is renamed into place once saved, so an
interrupted generation is redone on the next run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TEST_IMAGES = 10_000
TRAIN_IMAGES = 6_000
MODEL_TRAIN_IMAGES = 3_000  # the sweep model's training subset
SIDE = 28
CLASS_SPREAD = 0.06  # share of pixels in which a class departs from the shared base
NOISE = 0.3  # share of pixels flipped away from the class prototype

# Nominal device of the README, written out so that `--device` is exercised.
DEVICE_CONFIG = """\
diameter_nm=32
ra_ohm_um2=4
tmr=1.5
vc_mv=190
v_over_vc=2.0
tau0_ns=1.0
gamma_k=16
sigma_tmr_rel=0.05
sigma_rp_rel=0.05
"""


@dataclass
class Inputs:
    root: Path
    test_pixels: np.ndarray  # [N, 28, 28] uint8
    test_labels: np.ndarray  # [N] uint8

    @property
    def data_dir(self) -> Path:
        return self.root / "data"

    @property
    def model(self) -> Path:
        return self.root / "model.bnn"

    @property
    def device(self) -> Path:
        return self.root / "device.cfg"


def _write_idx(prefix: Path, pixels: np.ndarray, labels: np.ndarray) -> None:
    with open(f"{prefix}-images-idx3-ubyte", "wb") as f:
        f.write(struct.pack(">IIII", 0x803, *pixels.shape))
        f.write(pixels.tobytes())
    with open(f"{prefix}-labels-idx1-ubyte", "wb") as f:
        f.write(struct.pack(">II", 0x801, len(labels)))
        f.write(labels.tobytes())


def _read_idx(prefix: Path) -> tuple[np.ndarray, np.ndarray]:
    images = Path(f"{prefix}-images-idx3-ubyte").read_bytes()
    labels = Path(f"{prefix}-labels-idx1-ubyte").read_bytes()
    n = struct.unpack(">I", labels[4:8])[0]
    pixels = np.frombuffer(images, dtype=np.uint8, offset=16).reshape(n, SIDE, SIDE)
    return pixels, np.frombuffer(labels, dtype=np.uint8, offset=8)


def _digits(rng: np.random.Generator, prototypes: np.ndarray, n: int):
    """Noisy copies of the class prototypes as uint8 intensities.

    Ink pixels get intensities in [128, 255] and background pixels [0, 127],
    so binarizing at 0.5 recovers exactly the noisy bit pattern.
    """
    labels = rng.integers(0, 10, n).astype(np.uint8)
    bits = prototypes[labels] ^ (rng.random((n, SIDE, SIDE)) < NOISE)
    level = rng.integers(0, 128, (n, SIDE, SIDE), dtype=np.uint8)
    return np.where(bits, 128 + level, level).astype(np.uint8), labels


def make_inputs(seed: int, work_dir: Path, with_model: bool) -> Inputs:
    """Generate (or reuse) the inputs for `seed` under `work_dir`.

    The model takes a few seconds to train, so it is made only when asked for.
    """
    root = work_dir / f"inputs-{seed}"
    data = root / "data"
    if not (root / "complete").exists():
        data.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        base = rng.random((SIDE, SIDE)) < 0.5
        prototypes = base ^ (rng.random((10, SIDE, SIDE)) < CLASS_SPREAD)
        train_pixels, train_labels = _digits(rng, prototypes, TRAIN_IMAGES)
        test_pixels, test_labels = _digits(rng, prototypes, TEST_IMAGES)
        _write_idx(data / "train", train_pixels, train_labels)
        _write_idx(data / "t10k", test_pixels, test_labels)
        (root / "device.cfg").write_text(DEVICE_CONFIG)
        (root / "complete").write_text("")
    inputs = Inputs(root, *_read_idx(data / "t10k"))
    if with_model and not inputs.model.exists():
        _train_model(*_read_idx(data / "train"), seed, inputs.model)
    return inputs


def _train_model(pixels: np.ndarray, labels: np.ndarray, seed: int, out: Path) -> None:
    from bitflip_bnn.bitcore import save_model
    from bitflip_bnn.mnist_io import Dataset
    from bitflip_bnn.trainer import MNIST_LAYER_SIZES, TrainConfig, export_model, train

    n = MODEL_TRAIN_IMAGES
    dataset = Dataset(pixels[:n].astype(np.float32) / 255.0, labels[:n].astype(np.int64))
    latent, _ = train(dataset, TrainConfig(epochs=1, seed=seed), MNIST_LAYER_SIZES)
    partial = out.with_name(out.name + ".partial")
    save_model(export_model(latent), partial)
    partial.rename(out)
