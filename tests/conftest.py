"""Shared fixtures: synthetic digit-like datasets and small trained models.

Tests asserting the reference MNIST accuracy bars need the real IDX files,
which are never downloaded. They are looked up in $BITFLIP_BNN_MNIST or
./data and skipped with a message when absent.
"""

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from bitflip_bnn import mnist_io
from bitflip_bnn.bitcore import BitTensor
from bitflip_bnn.mnist_io import IMAGE_MAGIC, LABEL_MAGIC, Dataset
from bitflip_bnn.trainer import TrainConfig, export_model, train

MNIST_ENV_VAR = "BITFLIP_BNN_MNIST"

_PROTO_RNG_SEED = 123
_NOISE = 0.08


def _prototypes() -> np.ndarray:
    rng = np.random.default_rng(_PROTO_RNG_SEED)
    return rng.random((10, 28, 28)) < 0.5


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a [N, rows, cols] uint8 tensor as an IDX image file."""
    arr = np.asarray(images, dtype=np.uint8)
    assert arr.ndim == 3, "images must be [N, rows, cols]"
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, *arr.shape))
        f.write(arr.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a vector of labels as an IDX label file."""
    arr = np.asarray(labels, dtype=np.uint8)
    assert arr.ndim == 1, "labels must be a vector"
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, arr.shape[0]))
        f.write(arr.tobytes())


def synthetic_dataset(n: int, seed: int) -> Dataset:
    """Noisy copies of 10 fixed random 28x28 prototypes, labeled by prototype."""
    protos = _prototypes()
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n)
    images = np.logical_xor(protos[labels], rng.random((n, 28, 28)) < _NOISE)
    return Dataset(images.astype(np.float32), labels.astype(np.int64))


def same_bits(a: BitTensor, b: BitTensor) -> bool:
    """Whether two packed tensors hold the same shape and the same words."""
    return a.shape == b.shape and np.array_equal(a.words, b.words)


@pytest.fixture(scope="session")
def synth_train() -> Dataset:
    return synthetic_dataset(2000, seed=1)


@pytest.fixture(scope="session")
def synth_test() -> Dataset:
    return synthetic_dataset(500, seed=2)


@pytest.fixture(scope="session")
def synth_latent(synth_train, synth_test):
    config = TrainConfig(epochs=3, batch_size=50, seed=7)
    latent, history = train(
        synth_train, config, layer_sizes=(784, 128, 10), test_data=synth_test
    )
    assert history[-1][2] > 0.9, "synthetic task should be learned easily"
    return latent


@pytest.fixture(scope="session")
def synth_model(synth_latent):
    return export_model(synth_latent)


@pytest.fixture(scope="session")
def synth_data_dir(tmp_path_factory) -> Path:
    """Synthetic train/test splits written as canonical IDX files."""
    root = tmp_path_factory.mktemp("idxdata")
    for prefix, n, seed in (("train", 1500, 11), ("t10k", 400, 12)):
        ds = synthetic_dataset(n, seed=seed)
        write_idx_images(
            root / f"{prefix}-images-idx3-ubyte", (ds.images * 255).astype(np.uint8)
        )
        write_idx_labels(
            root / f"{prefix}-labels-idx1-ubyte", ds.labels.astype(np.uint8)
        )
    return root


def mnist_data_dir() -> Path | None:
    candidate = Path(os.environ.get(MNIST_ENV_VAR, "data"))
    names = (
        mnist_io.TRAIN_IMAGES,
        mnist_io.TRAIN_LABELS,
        mnist_io.TEST_IMAGES,
        mnist_io.TEST_LABELS,
    )
    if all((candidate / name).exists() for name in names):
        return candidate
    return None


@pytest.fixture(scope="session")
def mnist_dir() -> Path:
    found = mnist_data_dir()
    if found is None:
        pytest.skip(
            "real MNIST IDX files not found (set BITFLIP_BNN_MNIST or place the "
            "four canonical files under ./data); they are user-supplied, never downloaded"
        )
    return found
