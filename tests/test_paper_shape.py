"""The paper's two tradeoffs on synthetic digits, checked without MNIST.

Criteria 1, 2 and 7 need the user-supplied MNIST files. This test guards the
same shape on data it makes itself: noisy copies of ten 28x28 prototypes
that share most of their pixels, written as IDX files and loaded through
load_dataset. A 784-1024-1024-10 network trains on them for one epoch, and
the acc-energy library path (ber_sweep, then energy_ber_curve) runs over a
fixed grid. Seeds, grid and bounds are fixed here, not tuned to a run.

What is asserted is what the paper states (PAPER.md) and what criteria 2
and 7 bound on MNIST: bit error rates up to 0.1% have little impact on the
accuracy, 1% costs at most a point, high rates do degrade it, and weaker
(cheaper) writes make more errors. The curve is that of the trained network:
every hidden bit of the exported model is the sign of the trained layer's
batch-normalized sum.
"""

import numpy as np
import pytest

from bitflip_bnn.bitcore import linear_forward
from bitflip_bnn.faultsim import ber_sweep
from bitflip_bnn.mnist_io import (
    TEST_IMAGES,
    TEST_LABELS,
    TRAIN_IMAGES,
    TRAIN_LABELS,
    binarize_input,
    load_dataset,
)
from bitflip_bnn.mtj import INTRINSIC_ONLY, MtjDeviceParams, energy_ber_curve
from bitflip_bnn.trainer import BN_EPS, MNIST_LAYER_SIZES, TrainConfig, export_model, train
from tests.conftest import write_idx_images, write_idx_labels

SEED = 1
TRAIN_N, TEST_N = 3000, 2000
CLASS_SPREAD = 0.06  # share of pixels in which a class departs from the shared base
NOISE = 0.3  # share of pixels flipped away from the class prototype
GRID = [1e-6, 1e-3, 1e-2, 0.1, 0.2]
TRIALS = 3
SWEEP_SEED = 2024
SAMPLES = 100_000


def _digits(rng, prototypes, n):
    """n noisy prototype copies as uint8 gray levels: ink in [128, 255], background below."""
    labels = rng.integers(0, 10, n).astype(np.uint8)
    bits = prototypes[labels] ^ (rng.random((n,) + prototypes.shape[1:]) < NOISE)
    level = rng.integers(0, 128, bits.shape, dtype=np.uint8)
    return np.where(bits, 128 + level, level).astype(np.uint8), labels


@pytest.fixture(scope="module")
def curve(tmp_path_factory):
    root = tmp_path_factory.mktemp("digits")
    rng = np.random.default_rng(SEED)
    base = rng.random((28, 28)) < 0.5
    prototypes = base ^ (rng.random((10, 28, 28)) < CLASS_SPREAD)
    splits = ((TRAIN_IMAGES, TRAIN_LABELS, TRAIN_N), (TEST_IMAGES, TEST_LABELS, TEST_N))
    for images, labels, n in splits:
        pixels, classes = _digits(rng, prototypes, n)
        write_idx_images(root / images, pixels)
        write_idx_labels(root / labels, classes)
    train_set, test_set = load_dataset(root, "train"), load_dataset(root, "test")

    latent, _ = train(train_set, TrainConfig(epochs=1, seed=SEED), MNIST_LAYER_SIZES)
    model = export_model(latent)
    sweep = ber_sweep(model, test_set, GRID, TRIALS, SWEEP_SEED)
    energy = energy_ber_curve(MtjDeviceParams.nominal(), GRID, SAMPLES, SWEEP_SEED, INTRINSIC_ONLY)
    accuracy = dict(zip(GRID, sweep.mean_accuracy))
    energy = {point.ber: point.energy_mean for point in energy}
    return latent, model, test_set, accuracy, energy


def test_accuracy_is_flat_to_a_ber_of_one_per_mille(curve):
    _, _, _, accuracy, _ = curve
    assert accuracy[1e-6] >= 0.9, "the network must have learned the digits"
    assert abs(accuracy[1e-3] - accuracy[1e-6]) <= 0.01  # criterion 7's tolerance
    assert accuracy[1e-6] - accuracy[1e-2] <= 0.01  # criterion 2b's bound


def test_accuracy_degrades_at_high_ber(curve):
    _, _, _, accuracy, _ = curve
    assert accuracy[0.2] <= accuracy[1e-6] - 0.20


def test_weaker_writes_cost_less_energy(curve):
    _, _, _, _, energy = curve
    by_rising_ber = [energy[ber] for ber in GRID]
    assert all(a > b for a, b in zip(by_rising_ber, by_rising_ber[1:]))
    assert energy[1e-3] < energy[1e-6]


def test_exported_bits_are_the_trained_network(curve):
    # the threshold fold on the trained layers, in the float64 expression
    # the fold decides by, on the exported model's own inputs to each layer
    latent, model, test_set, _, _ = curve
    x = binarize_input(test_set.images)
    for trained, exported in zip(latent.layers[:-1], model.layers[:-1]):
        signs = np.where(trained.weight >= 0, 1.0, -1.0)
        s = x.unpack().astype(np.float64) @ signs.T
        mu, var = trained.run_mean.astype(np.float64), trained.run_var.astype(np.float64)
        gamma, beta = trained.gamma.astype(np.float64), trained.beta.astype(np.float64)
        fires = gamma * (s - mu) / np.sqrt(var + BN_EPS) + beta >= 0.0
        x = linear_forward(exported, x)
        assert np.array_equal(x.unpack_bool(), fires)
