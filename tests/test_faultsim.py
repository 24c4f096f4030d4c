import copy
import math
import tracemalloc

import numpy as np
import pytest

from bitflip_bnn import bitcore as bc
from bitflip_bnn import faultsim as fs
from bitflip_bnn.bitcore import (
    BinarizedLinearLayer,
    BitTensor,
    BnnModel,
    dump_model,
    model_predict_batch,
)
from bitflip_bnn.faultsim import (
    IncrementalEvaluator,
    accuracy,
    ber_sweep,
    flip_bits,
    trial_seed,
)
from bitflip_bnn.mnist_io import Dataset, binarize_input
from tests.conftest import same_bits
from tests.test_acceptance import SWEEP_BERS


def _wide_model(rng, n_in=1000, n_out=1000):
    """Single output layer with ~10^6 weight bits for flip statistics."""
    signs = np.where(rng.random((n_out, n_in)) < 0.5, np.int8(1), np.int8(-1))
    layer = BinarizedLinearLayer(
        BitTensor.from_signs(signs), np.zeros(n_out, dtype=np.int32), is_output=True
    )
    return BnnModel([layer])


def _hamming(a: BnnModel, b: BnnModel) -> int:
    total = 0
    for la, lb in zip(a.layers, b.layers):
        total += int(np.bitwise_count(la.weights.words ^ lb.weights.words).sum())
    return total


def test_flip_zero_rate_is_identity(synth_model):
    flipped = flip_bits(synth_model, 0.0, 1)
    assert dump_model(flipped) == dump_model(synth_model)


def test_flip_full_rate_inverts_every_weight_bit(synth_model):
    flipped = flip_bits(synth_model, 1.0, 1)
    for fl, ol in zip(flipped.layers, synth_model.layers):
        assert np.array_equal(fl.weights.unpack(), -ol.weights.unpack())
        # padding stays zero, thresholds stay put
        assert np.all(fl.weights.words[:, -1] & ~bc.tail_mask(fl.weights.n_bits) == 0)
        assert np.array_equal(fl.thresholds, ol.thresholds)


def test_flip_leaves_original_untouched(synth_model):
    before = dump_model(synth_model)
    flip_bits(synth_model, 0.5, 2)
    assert dump_model(synth_model) == before


def test_flip_half_rate_binomial_bound():
    # 10^6 bits at ber=0.5: Hamming distance within 3 sigma of 5*10^5
    rng = np.random.default_rng(50)
    model = _wide_model(rng)
    flipped = flip_bits(model, 0.5, 123)
    distance = _hamming(model, flipped)
    sigma = math.sqrt(1e6 * 0.25)
    assert abs(distance - 5e5) <= 3 * sigma


def test_flip_rate_within_five_sigma():
    rng = np.random.default_rng(51)
    model = _wide_model(rng)
    for ber, seed in ((0.01, 7), (0.2, 8)):
        flipped = flip_bits(model, ber, seed)
        observed = _hamming(model, flipped) / 1e6
        sigma = math.sqrt(ber * (1 - ber) / 1e6)
        assert abs(observed - ber) <= 5 * sigma


def _flip_tensor_whole_array(tensor: BitTensor, ber: float, rng) -> BitTensor:
    """Reference: all of a tensor's uniforms drawn as one row-major array."""
    shape = (tensor.n_rows, tensor.n_bits)
    flips = (rng.random(shape[0] * shape[1]) < ber).reshape(shape)
    return BitTensor(tensor.shape, tensor.words ^ bc._pack_bool_rows(flips))


@pytest.mark.parametrize("n_bits", [10, 65, 784, 1024])
@pytest.mark.parametrize("extra_rows", [-1, 0, 1, None])
def test_flip_tensor_block_draws_equal_one_whole_array_draw(n_bits, extra_rows):
    block_rows = fs._FLIP_BLOCK_BITS // n_bits
    # below, at and above one block of rows, and a ragged multi-block case
    n_rows = block_rows + extra_rows if extra_rows is not None else 2 * block_rows + 3
    rng = np.random.default_rng(n_bits)
    tensor = BitTensor.from_bool(rng.random((n_rows, n_bits)) < 0.5)
    got = fs._flip_tensor(tensor, 0.3, np.random.Generator(np.random.PCG64(5)))
    want = _flip_tensor_whole_array(tensor, 0.3, np.random.Generator(np.random.PCG64(5)))
    assert same_bits(got, want)


def test_flip_deterministic_for_same_seed(synth_model):
    a = flip_bits(synth_model, 0.05, 42)
    b = flip_bits(synth_model, 0.05, 42)
    c = flip_bits(synth_model, 0.05, 43)
    assert dump_model(a) == dump_model(b)
    assert dump_model(a) != dump_model(c)


def test_flip_rejects_bad_rate(synth_model):
    with pytest.raises(ValueError):
        flip_bits(synth_model, -0.1, 0)
    with pytest.raises(ValueError):
        flip_bits(synth_model, 1.1, 0)


def test_sweep_refuses_out_of_range_bers_and_trials(synth_model, synth_test):
    with pytest.raises(ValueError, match=r"ber must lie in \[0,1\], got 1.5"):
        ber_sweep(synth_model, synth_test, [0.1, 1.5], trials=1, master_seed=0)
    with pytest.raises(ValueError, match=r"ber must lie in \[0,1\], got -0.1"):
        ber_sweep(synth_model, synth_test, [-0.1], trials=1, master_seed=0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        ber_sweep(synth_model, synth_test, [0.1], trials=0, master_seed=0)
    # boundary rates allowed
    result = ber_sweep(synth_model, synth_test, [0.0, 1.0], trials=1, master_seed=0)
    assert result.accuracies.shape == (2, 1)


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------


def _constant_class_model(n_classes=10, winner=3, n_in=16):
    weights = np.ones((n_classes, n_in), dtype=np.int8)
    thresholds = np.full(n_classes, 2 * n_in, dtype=np.int32)
    thresholds[winner] = 0  # one class always scores highest
    layer = BinarizedLinearLayer(BitTensor.from_signs(weights), thresholds, True)
    return BnnModel([layer])


def test_accuracy_constant_model_on_balanced_set():
    model = _constant_class_model(winner=3, n_in=16)
    images = np.zeros((100, 4, 4), dtype=np.float32)
    labels = np.repeat(np.arange(10), 10).astype(np.int64)
    assert accuracy(model, Dataset(images, labels)) == pytest.approx(0.1)


def test_accuracy_invariant_under_duplication(synth_model, synth_test):
    doubled = Dataset(
        np.concatenate([synth_test.images, synth_test.images]),
        np.concatenate([synth_test.labels, synth_test.labels]),
    )
    assert accuracy(synth_model, doubled) == accuracy(synth_model, synth_test)


def test_accuracy_rejects_empty_dataset(synth_model):
    empty = Dataset(np.zeros((0, 28, 28), dtype=np.float32), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="empty"):
        accuracy(synth_model, empty)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_zero_ber_replicates_clean_accuracy(synth_model, synth_test):
    clean = accuracy(synth_model, synth_test)
    result = ber_sweep(synth_model, synth_test, [0.0], trials=3, master_seed=9)
    assert np.all(result.accuracies == clean)
    assert result.std_accuracy[0] == 0.0


def test_sweep_requires_sorted_bers(synth_model, synth_test):
    with pytest.raises(ValueError, match="ascending"):
        ber_sweep(synth_model, synth_test, [0.1, 0.01], 1, 0)
    with pytest.raises(ValueError, match="one BER"):
        ber_sweep(synth_model, synth_test, [], 1, 0)


def test_sweep_deterministic_and_mean_bounded(synth_model, synth_test):
    bers = [1e-4, 1e-2, 0.2]
    a = ber_sweep(synth_model, synth_test, bers, trials=3, master_seed=11)
    b = ber_sweep(synth_model, synth_test, bers, trials=3, master_seed=11)
    assert np.array_equal(a.accuracies, b.accuracies)
    for bi in range(len(bers)):
        row = a.accuracies[bi]
        assert row.min() <= a.mean_accuracy[bi] <= row.max()


def test_sweep_monotone_at_extreme_bers(synth_model, synth_test):
    # mean accuracy at ber=0.2 does not beat ber=1e-4 (weak ordering)
    result = ber_sweep(synth_model, synth_test, [1e-4, 0.2], trials=5, master_seed=12)
    assert result.mean_accuracy[1] <= result.mean_accuracy[0]


def test_sweep_single_trial_std_is_zero(synth_model, synth_test):
    result = ber_sweep(synth_model, synth_test, [0.01], trials=1, master_seed=13)
    assert result.std_accuracy.tolist() == [0.0]


def test_sweep_repeats_for_the_same_seed(synth_model, synth_test):
    bers = [0.0, 0.05]
    first = ber_sweep(synth_model, synth_test, bers, trials=2, master_seed=14)
    again = ber_sweep(synth_model, synth_test, bers, trials=2, master_seed=14)
    assert np.array_equal(first.accuracies, again.accuracies)


def test_trial_seed_scheme_is_stable():
    # the (master, ber_index, trial_index) split must never change silently:
    # sweeps are reproducible across versions
    rng = np.random.Generator(np.random.PCG64(trial_seed(99, 1, 2)))
    assert rng.integers(0, 2**32) == 941588370


# ---------------------------------------------------------------------------
# incremental evaluation: exact against model_predict_batch of the flipped copy
# ---------------------------------------------------------------------------

# the evaluator stays exact a decade above the sweep's crossover
LOW_BERS = [ber for ber in SWEEP_BERS if ber <= 10 * fs.INCREMENTAL_MAX_BER]


def _random_model(seed, sizes):
    """Random linear model; hidden thresholds near half the fan-in, so faults propagate."""
    rng = np.random.default_rng(seed)
    layers = []
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        last = i == len(sizes) - 2
        thresholds = rng.integers(-2, 3, n_out) + (0 if last else n_in // 2)
        weights = BitTensor.from_bool(rng.random((n_out, n_in)) < 0.5)
        layers.append(BinarizedLinearLayer(weights, thresholds, is_output=last))
    return BnnModel(layers)


def _random_inputs(seed, rows, n_bits):
    return BitTensor.from_bool(np.random.default_rng(seed).random((rows, n_bits)) < 0.5)


def _flip_at(model, layer, positions):
    """Copy of the model with the weight bits at (neuron, input) of one layer flipped."""
    faulty = copy.deepcopy(model)
    bits = faulty.layers[layer].weights.unpack_bool()
    for j, i in positions:
        bits[j, i] = not bits[j, i]
    faulty.layers[layer].weights = BitTensor.from_bool(bits)
    return faulty


def evaluator_of(model, inputs):
    """An IncrementalEvaluator of the model on inputs, with the model's operands."""
    return IncrementalEvaluator(model, inputs, IncrementalEvaluator.operands(model))


def incremental_predict(evaluator, faulty):
    """The evaluator's predictions of `faulty`, a copy of its model with flipped weight bits."""
    return evaluator.predict_flips(fs._layer_flips(evaluator.model, faulty))


def _assert_incremental_exact(model, inputs, faulty_models):
    evaluator = evaluator_of(model, inputs)
    clean = model_predict_batch(model, inputs)
    moved = 0
    for faulty in faulty_models:
        expected = model_predict_batch(faulty, inputs)
        assert np.array_equal(incremental_predict(evaluator, faulty), expected)
        moved += int(np.sum(expected != clean))
    return moved


@pytest.mark.parametrize(
    "sizes",
    [(784, 256, 256, 10), (100, 70, 50, 10), (200, 96, 80, 64, 10)],
    ids=["784-256-256-10", "padded-100-70-50-10", "three-hidden"],
)
def test_incremental_matches_dense_on_low_ber_grid(sizes):
    model = _random_model(60, sizes)
    inputs = _random_inputs(61, 600, sizes[0])
    faulty = [
        flip_bits(model, ber, trial_seed(5, bi, ti))
        for bi, ber in enumerate(LOW_BERS)
        for ti in range(3)
    ]
    assert _assert_incremental_exact(model, inputs, faulty) > 0  # faults reached the output


def test_incremental_matches_dense_on_trained_model(synth_model, synth_test):
    inputs = binarize_input(synth_test.images)
    faulty = [
        flip_bits(synth_model, ber, trial_seed(6, bi, ti))
        for bi, ber in enumerate(LOW_BERS)
        for ti in range(3)
    ]
    _assert_incremental_exact(synth_model, inputs, faulty)


def test_incremental_zero_flips_is_clean(synth_model, synth_test):
    inputs = binarize_input(synth_test.images)
    faulty = [synth_model, flip_bits(synth_model, 0.0, trial_seed(1, 0, 0))]
    _assert_incremental_exact(synth_model, inputs, faulty)


def _single_flip_model(seed=64):
    """A 24-32-16-4 model, 1344 weight bits, for flipping every bit alone.

    Hidden thresholds near half the fan-in put many margins at -1 and 0, where
    one flip changes a neuron's output, and two per hidden layer lie outside
    [0, n]: one neuron always fires, one never does. Output classes 1 and 2
    are the same neuron, so they tie on every row and class 1 wins it.
    """
    rng = np.random.default_rng(seed)
    w0, t0 = rng.random((32, 24)) < 0.5, rng.integers(10, 15, 32)
    w1, t1 = rng.random((16, 32)) < 0.5, rng.integers(14, 19, 16)
    w2, t2 = rng.random((4, 16)) < 0.5, rng.integers(-2, 3, 4)
    t0[:2], t1[:2] = [-1, 25], [-3, 40]
    w2[2], t2[2] = w2[1], t2[1]
    return BnnModel([
        BinarizedLinearLayer(BitTensor.from_bool(w0), t0),
        BinarizedLinearLayer(BitTensor.from_bool(w1), t1),
        BinarizedLinearLayer(BitTensor.from_bool(w2), t2, is_output=True),
    ])


def test_incremental_matches_dense_for_every_single_weight_flip():
    # each flip moves one count by 1, so every clean margin of -1 or 0 on a
    # flipped neuron is an edge case of _toggle_hits, and a flip in class 1
    # or 2 of the output breaks their tie one way or the other
    model = _single_flip_model()
    inputs = _random_inputs(65, 60, 24)
    scores = bc.model_scores(model, inputs)
    assert np.array_equal(scores[:, 1], scores[:, 2])
    faulty = [
        _flip_at(model, l, [(j, i)])
        for l, layer in enumerate(model.layers)
        for j in range(layer.out_features)
        for i in range(layer.in_features)
    ]
    assert len(faulty) == 24 * 32 + 32 * 16 + 16 * 4
    assert _assert_incremental_exact(model, inputs, faulty) > 0


def test_incremental_targeted_flips():
    # padded widths, several flips in one neuron (across word boundaries and at
    # the last valid bit), flips only in the output layer, and combinations
    model = _random_model(62, (100, 70, 50, 10))
    inputs = _random_inputs(63, 500, 100)
    in_neuron = [(4, 0), (4, 63), (4, 64), (4, 99), (4, 50)]
    faulty = [
        _flip_at(model, 0, in_neuron),
        _flip_at(model, 1, [(7, 0), (7, 69), (8, 69), (7, 3)]),
        _flip_at(model, 2, [(3, 5), (3, 6), (9, 49)]),
        _flip_at(_flip_at(model, 0, in_neuron), 1, [(7, 0), (7, 1)]),
    ]
    assert _assert_incremental_exact(model, inputs, faulty) > 0


def test_incremental_matches_dense_at_fan_in_past_int16():
    # the int8 sums of a row's changes and the fallback do not depend on the fan-in
    sizes = (2**15 + 1, 70, 10)
    model = _random_model(58, sizes)
    inputs = _random_inputs(59, 40, sizes[0])
    faulty = [flip_bits(model, ber, trial_seed(4, bi, 0)) for bi, ber in enumerate(LOW_BERS)]
    assert _assert_incremental_exact(model, inputs, faulty) > 0


def test_incremental_rejects_mismatched_inputs(synth_model):
    with pytest.raises(ValueError, match="784"):
        evaluator_of(synth_model, _random_inputs(1, 5, 100))


def test_mixed_grid_trials_match_dense_path(synth_model, synth_test):
    # both paths: 0.0 and 1e-4 run incrementally, 1e-3 .. 0.2 densely
    bers = [0.0, 1e-4, 1e-3, 0.05, 0.2]
    result = ber_sweep(synth_model, synth_test, bers, trials=2, master_seed=15)
    assert (result.incremental_trials, result.dense_trials) == (4, 6)
    assert result.clean_pass_s > 0.0 and result.incremental_s > 0.0
    assert result.fallback_blocks == 0  # no trained margin is carried from the int8 bound

    inputs = binarize_input(synth_test.images)
    for bi, ber in enumerate(bers):
        for ti in range(2):
            faulty = flip_bits(synth_model, ber, trial_seed(15, bi, ti))
            hits = model_predict_batch(faulty, inputs) == synth_test.labels
            assert result.accuracies[bi, ti] == float(np.mean(hits))


def test_dense_only_grid_skips_clean_pass(synth_model, synth_test):
    result = ber_sweep(synth_model, synth_test, [0.01, 0.1], trials=1, master_seed=3)
    assert (result.incremental_trials, result.dense_trials, result.clean_pass_s) == (0, 2, 0.0)
    assert (result.incremental_s, result.fallback_blocks) == (0.0, 0)


def test_incremental_matches_dense_across_kernel_chunks():
    # the clean pass writes its margins one kernel chunk at a time, and a
    # trial updates all of the evaluator's rows at once, here two sweep
    # blocks and more
    rows = 2 * max(bc._MATRIX_CHUNK_ROWS, fs._SWEEP_BLOCK_ROWS) + 5
    model = _random_model(64, (100, 70, 50, 10))
    inputs = _random_inputs(65, rows, 100)
    faulty = [flip_bits(model, ber, trial_seed(8, bi, 0)) for bi, ber in enumerate(LOW_BERS)]
    assert _assert_incremental_exact(model, inputs, faulty) > 0


_C = bc._MATRIX_CHUNK_ROWS
_B = fs._SWEEP_BLOCK_ROWS
# fixed counts, named by their value, then counts around the kernel's chunk
# (c) and the sweep's block (b), the rows one incremental update covers,
# named relative to each, so that neither size renames or merges them
BOUNDARY_ROWS = [511, 512, 513, 1023, 1024, 1025, 1029, 2053] + [
    pytest.param(rows, id=name)
    for size, symbol in [(_C, "c"), (_B, "b")]
    for name, rows in [
        (f"{symbol}-1", size - 1),
        (symbol, size),
        (f"{symbol}+1", size + 1),
        (f"2{symbol}+5", 2 * size + 5),
    ]
]
THREE_HIDDEN = (100, 70, 50, 40, 10)  # padded widths: no layer is a whole number of words
# (layer, [(neuron, input)]) flips: word boundaries, the last valid bit, two in one neuron
_FLIPS = {
    0: [(4, 0), (4, 63), (4, 64), (9, 99), (69, 50)],
    1: [(7, 0), (7, 69), (49, 31)],
    2: [(0, 49), (39, 5), (12, 12)],
    3: [(3, 5), (3, 6), (9, 39)],
}


@pytest.mark.parametrize("rows", BOUNDARY_ROWS)
@pytest.mark.parametrize(
    "layers",
    [(0,), (1,), (2,), (0, 2), (3,)],
    ids=["first-hidden", "second-hidden", "third-hidden", "first-and-third", "output"],
)
def test_incremental_equals_dense_by_flipped_layer(layers, rows):
    model = _random_model(66, THREE_HIDDEN)
    inputs = _random_inputs(67, rows, THREE_HIDDEN[0])
    faulty = model
    for layer in layers:
        faulty = _flip_at(faulty, layer, _FLIPS[layer])
    assert _assert_incremental_exact(model, inputs, [faulty]) > 0


def test_incremental_int8_margins_fit_the_int16_count_budget():
    # two int8 margin arrays, the clean predictions and leads and the
    # activations stay within 1.5 int16 count arrays of one hidden layer
    rows, width = 4000, 256
    model = _random_model(68, (784, width, width, 10))
    inputs = _random_inputs(69, rows, 784)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluator = evaluator_of(model, inputs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    count_array = rows * width * np.dtype(np.int16).itemsize
    assert held < 1.5 * count_array
    assert incremental_predict(evaluator, model).shape == (rows,)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mixed_grid_frees_the_clean_pass_before_dense_trials():
    rows, width = 4000, 256
    model = _random_model(70, (784, width, width, 10))
    rng = np.random.default_rng(71)
    data = Dataset(rng.random((rows, 28, 28)) < 0.5, rng.integers(0, 10, rows))
    inputs = binarize_input(data.images)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluator = evaluator_of(model, inputs)
        state = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del evaluator

    def sweep(bers):
        return lambda: ber_sweep(model, data, bers, trials=1, master_seed=5)

    incremental_only = _traced_peak(sweep([1e-5]))
    dense_only = _traced_peak(sweep([1e-2]))
    mixed = _traced_peak(sweep([1e-5, 1e-2]))
    # a clean pass still held through the dense trial adds all of its state
    # to the dense trial's peak; freed, the mixed grid peaks like one path
    assert mixed < max(incremental_only, dense_only) + state / 2
    assert mixed < state + dense_only


# ---------------------------------------------------------------------------
# the low-BER phase of a sweep, scored one block of test rows at a time
# ---------------------------------------------------------------------------

_S = fs._SWEEP_BLOCK_ROWS
# two low BERs, zero flips and one dense BER
BLOCKED_GRID = [0.0, fs.INCREMENTAL_MAX_BER / 2, fs.INCREMENTAL_MAX_BER, 1e-2]


def _random_dataset(seed, rows):
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((rows, 28, 28)) < 0.5, rng.integers(0, 10, rows))


def _assert_sweep_equals_dense_trials(model, data, bers, trials, seed):
    result = ber_sweep(model, data, bers, trials, seed)
    inputs = binarize_input(data.images)
    clean = model_predict_batch(model, inputs)
    moved = 0
    for bi, ber in enumerate(bers):
        for ti in range(trials):
            predictions = model_predict_batch(flip_bits(model, ber, trial_seed(seed, bi, ti)), inputs)
            assert result.accuracies[bi, ti] == float(np.mean(predictions == data.labels))
            moved += int(np.sum(predictions != clean))
    return result, moved


@pytest.mark.parametrize(
    "rows", [_S - 1, _S, _S + 1, 2 * _S + 5], ids=["s-1", "s", "s+1", "2s+5"]
)
def test_blocked_sweep_equals_dense_trials_around_the_block(rows):
    model = _random_model(72, (784, 256, 256, 10))
    result, moved = _assert_sweep_equals_dense_trials(
        model, _random_dataset(73, rows), BLOCKED_GRID, trials=2, seed=16
    )
    assert (result.incremental_trials, result.dense_trials) == (6, 2)
    assert moved > 0  # faults reached the output


def test_blocked_sweep_equals_dense_trials_on_blocks_below_one_kernel_chunk(monkeypatch):
    monkeypatch.setattr(fs, "_SWEEP_BLOCK_ROWS", bc._MATRIX_CHUNK_ROWS // 3)
    model = _random_model(74, (784, 256, 256, 10))
    result, moved = _assert_sweep_equals_dense_trials(
        model, _random_dataset(75, bc._MATRIX_CHUNK_ROWS + 7), BLOCKED_GRID, trials=2, seed=17
    )
    assert result.incremental_trials == 6 and moved > 0


MIXED_GRID = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.2]
# kernel chunk rows, then sweep block rows: a third of a chunk, and blocks of
# several chunks
ROW_BLOCK_SIZES = [
    pytest.param(chunk, block, id=f"chunk{chunk}-block{name}")
    for chunk in (64, 256, 512)
    for block, name in [(chunk // 3, "c/3"), (1024, "1024"), (2048, "2048")]
]


@pytest.fixture(scope="module")
def row_block_case():
    """(model, data, accuracies, predictions) at the module's own row-block sizes."""
    model = _random_model(78, (784, 100, 70, 10))
    data = _random_dataset(79, 2 * 2048 + 5)
    accuracies = ber_sweep(model, data, MIXED_GRID, trials=2, master_seed=19).accuracies
    predictions = model_predict_batch(model, binarize_input(data.images))
    clean = float(np.mean(predictions == data.labels))
    assert np.any(accuracies[1 : MIXED_GRID.index(1e-4) + 1] != clean)  # low-BER faults moved outputs
    return model, data, accuracies, predictions


@pytest.mark.parametrize("chunk,block", ROW_BLOCK_SIZES)
def test_outputs_do_not_depend_on_the_row_block_sizes(monkeypatch, row_block_case, chunk, block):
    # the rows span several chunks and blocks at every size, so a retune of
    # either constant that changed an output would show here
    model, data, accuracies, predictions = row_block_case
    monkeypatch.setattr(bc, "_MATRIX_CHUNK_ROWS", chunk)
    monkeypatch.setattr(fs, "_SWEEP_BLOCK_ROWS", block)
    result = ber_sweep(model, data, MIXED_GRID, trials=2, master_seed=19)
    assert result.incremental_trials == 8
    assert np.array_equal(result.accuracies, accuracies)
    assert np.array_equal(model_predict_batch(model, binarize_input(data.images)), predictions)


def test_sweep_draws_each_trials_flips_once_from_its_seed(monkeypatch, synth_model, synth_test):
    # no block re-draws flips, so perfbench's flip and zero-flip counters stay right
    calls = []

    def spy(model, ber, seed):
        calls.append((ber, tuple(seed.generate_state(4))))
        return flip_bits(model, ber, seed)

    monkeypatch.setattr(fs, "_SWEEP_BLOCK_ROWS", len(synth_test) // 3)
    monkeypatch.setattr(fs, "flip_bits", spy)
    bers = [0.0, 1e-5, fs.INCREMENTAL_MAX_BER, 1e-2, 0.1]
    result = ber_sweep(synth_model, synth_test, bers, trials=3, master_seed=18)
    assert result.incremental_trials == 9
    expected = [
        (ber, tuple(trial_seed(18, bi, ti).generate_state(4)))
        for bi, ber in enumerate(bers)
        for ti in range(3)
    ]
    assert sorted(calls) == sorted(expected)


def _model_bytes(model):
    return sum(layer.weights.words.nbytes + layer.thresholds.nbytes for layer in model.layers)


def test_low_ber_sweep_peak_does_not_grow_with_the_test_rows():
    # the clean pass's margins, activations and scores are a block's, so
    # four blocks of rows peak like one: at all rows at once, the two hidden
    # layers' margins alone would add 6 * _S * 1024 bytes
    model = _random_model(76, (784, 1024, 1024, 10))

    def sweep(rows):
        data = _random_dataset(77, rows)
        return _traced_peak(lambda: ber_sweep(model, data, [1e-6, 1e-5], 1, 5))

    one_block, four_blocks = sweep(_S), sweep(4 * _S)
    margins_of_one_block = _S * 1024 * np.dtype(np.int8).itemsize
    assert four_blocks - one_block < margins_of_one_block


def test_dense_pass_working_set_does_not_grow_with_the_rows():
    # the kernel unpacks one chunk of rows at a time, so each extra row adds
    # only its packed activations of both hidden layers, its int64 scores and
    # its prediction, not its 784 float32 inputs (3136 bytes)
    model = _random_model(80, (784, 1024, 1024, 10))

    def peak(rows):
        inputs = _random_inputs(81, rows, 784)
        return _traced_peak(lambda: model_predict_batch(model, inputs))

    chunk = bc._MATRIX_CHUNK_ROWS
    few, many = peak(4 * chunk + 3), peak(16 * chunk + 3)
    per_row = 2 * bc.words_per_row(1024) * 8 + 10 * 8 + 8
    assert many - few < 12 * chunk * per_row + 64 * 1024


def test_incremental_update_holds_no_wide_count_per_row_and_neuron():
    # one trial's update of a whole sweep block: most rows of the second
    # layer's input change, yet each (row, neuron) pair holds at most three
    # int8-sized values, never an int32 or int64 count
    rows, width, classes = 1024, 1024, 10
    model = _random_model(82, (784, width, width, classes))
    inputs = _random_inputs(83, rows, 784)
    evaluator = evaluator_of(model, inputs)
    faulty = flip_bits(model, 1e-4, trial_seed(20, 0, 0))
    flips = fs._layer_flips(model, faulty)
    expected = model_predict_batch(faulty, inputs)
    changed = (bc.linear_forward(faulty.layers[0], inputs).words != evaluator.acts[1]).any(axis=1)
    assert np.count_nonzero(changed) > rows // 2

    got = []
    peak = _traced_peak(lambda: got.append(evaluator.predict_flips(flips)))
    assert np.array_equal(got[0], expected) and evaluator.fallback_blocks == 0
    hit = max(len(f.hit) for f in flips[:-1])
    words = bc.words_per_row(width)
    # the changed rows' int8 changes, their int8 clean margins and the bool
    # comparison of the two; the hit neurons' int32 margins, their int8
    # source and two bool masks; four copies of the packed activations; one
    # gemm chunk of the output layer's near rows, unpacked to bytes and float32
    bound = (
        3 * rows * width
        + (4 + 1 + 2) * rows * hit
        + 4 * rows * words * 8
        + min(rows, bc._MATRIX_CHUNK_ROWS) * width * (1 + 4)
    )
    assert peak < bound


def test_low_ber_trials_hold_their_flips_not_faulty_models():
    # each trial keeps only what its flips change: 40 trials at 1e-6 hold a
    # few flips each, where 40 faulty copies would add 40 models
    model = _random_model(78, (784, 1024, 1024, 10))
    data = _random_dataset(79, 600)
    one = _traced_peak(lambda: ber_sweep(model, data, [1e-6], 1, 6))
    forty = _traced_peak(lambda: ber_sweep(model, data, [1e-6], 40, 6))
    assert forty - one < 5 * _model_bytes(model)
