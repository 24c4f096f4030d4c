"""Differential tests of IncrementalEvaluator where its int8 margins saturate.

The evaluator stores q = clip(count - T, -127, 127) and decides a faulty
neuron's output from q and the exact change d of its count while no change
can reach 127; a block where one could runs the dense forward instead. These
models are built so that the second layer sees margins of exactly -127, -126,
126 and 127 (and beyond) on rows whose input changes by up to 126 bits (the
margins decide), or by 125 to 128 bits with neurons of 1 and more than 126
flipped weights (the block falls back). The special rows sit at 0, at fixed
rows 511-513 and 1023-1025, around the kernel's row chunk, at c - 1, c and
c + 1, and around the sweep's block, the rows one trial update covers, at
b - 1, b and b + 1.

Trials are checked exact on the integers: each hidden layer's words against
the dense kernel on the faulty model where the margins decide, and the
predictions against model_predict_batch, through output layers that read
single neurons of the second layer.
"""

import copy

import numpy as np
import pytest

from bitflip_bnn import bitcore as bc
from bitflip_bnn import faultsim
from bitflip_bnn.bitcore import BinarizedLinearLayer, BitTensor, BnnModel, model_predict_batch
from tests.test_faultsim import evaluator_of, incremental_predict

_C = bc._MATRIX_CHUNK_ROWS
_B = faultsim._SWEEP_BLOCK_ROWS
# test ids of the special rows: fixed rows, named by their value, then rows
# around the kernel's chunk (c) and the sweep's block (b), named relative to
# each, so that neither size renames or merges them
ROW_IDS = {f"row{r}": r for r in (0, 511, 512, 513, 1023, 1024, 1025)} | {
    name: size + offset
    for size, symbol in [(_C, "c"), (_B, "b")]
    for name, offset in [(f"{symbol}-1", -1), (symbol, 0), (f"{symbol}+1", 1)]
}
SPECIAL_ROWS = sorted(set(ROW_IDS.values()))
ROWS = SPECIAL_ROWS[-1] + 5
# second-layer input bits that change, per special row: up to 128, where the
# margins cannot decide, and up to 126, the most they decide at |q| = 127
CHANGED_BITS = [125 + a % 4 for a in range(len(SPECIAL_ROWS))]
DECIDED_BITS = [126 - a % 4 for a in range(len(SPECIAL_ROWS))]
N_IN = 96
GROUP = 128  # first-layer neurons tuned to one special row each
TARGETS = [-130, -128, -127, -126, -125, -1, 0, 1, 125, 126, 127, 128, 130]
SIGNS = [+1, -1]
MANY = 140  # flips of one second-layer neuron, past the int8 range
N_PROBES = len(SPECIAL_ROWS) * len(TARGETS) * len(SIGNS)
WIDTH = N_PROBES + 8


def _counts(x_bool, w_bool):
    """(rows, neurons) int64 agreement counts of boolean rows."""
    return (x_bool[:, None, :] == w_bool[None, :, :]).sum(axis=2)


def _free_column(w, special_x, a: int):
    """First input column where weight row w agrees with special row a and whose flip
    moves no other special row's margin across 0, or None.

    The neuron sits at margin 0 on row a. A flip lowers by 1 the count of each
    row that agreed with the weight and raises the others' by 1, so it moves a
    margin across 0 where it lowers a 0 or raises a -1.
    """
    agree = w == special_x  # (special rows, inputs)
    margins = agree.sum(axis=1) - agree[a].sum()
    crosses = (agree & (margins[:, None] == 0)) | (~agree & (margins[:, None] == -1))
    crosses[a] = False
    free = np.flatnonzero(agree[a] & ~crosses.any(axis=0))
    return free[0] if free.size else None


def _probe(a: int, t: int, s: int) -> int:
    """Second-layer neuron whose margin on special row a is t and whose input moves it by s per bit."""
    return (a * len(TARGETS) + TARGETS.index(t)) * len(SIGNS) + SIGNS.index(s)


def _saturation_model(seed=70, changed_bits=CHANGED_BITS, flip_second=True):
    """(model, inputs, faulty): a 96-(128 per special row)-WIDTH-10 model and a faulty copy.

    First layer: group a of 128 neurons sits at margin 0 on special row a, so
    one flipped weight that agreed with that row clears the neuron's output
    there; the faulty copy flips the first changed_bits[a] neurons of group a.
    Second layer: probe neurons hold the group-a inputs at 0 (each cleared
    bit adds +1 to the count) or at 1 (-1), with T set for margin t on row a.
    Neuron N_PROBES saturates at -127 on most rows; with flip_second, it
    takes MANY flips and neuron N_PROBES + 1 takes one. The model does not
    depend on changed_bits or flip_second, only the faulty copy does.

    The flip of a first-layer neuron must move no other special row's margin
    across 0 (_free_column). With more special rows, some random neurons
    have no such column; they are drawn again, so that any number of a
    group's neurons, up to GROUP, can be flipped whatever the row sizes.
    """
    rng = np.random.default_rng(seed)
    x = rng.random((ROWS, N_IN)) < 0.5
    w0 = rng.random((len(SPECIAL_ROWS) * GROUP, N_IN)) < 0.5
    cols = np.empty(len(w0), dtype=np.intp)  # the column each neuron's flip takes
    for i in range(len(w0)):
        while (col := _free_column(w0[i], x[SPECIAL_ROWS], i // GROUP)) is None:
            w0[i] = rng.random(N_IN) < 0.5
        cols[i] = col
    t0 = np.empty(len(w0), dtype=np.int64)
    for a, row in enumerate(SPECIAL_ROWS):
        group = slice(a * GROUP, (a + 1) * GROUP)
        t0[group] = _counts(x[row : row + 1], w0[group])[0]
    y = _counts(x, w0) >= t0

    w1 = rng.random((WIDTH, len(w0))) < 0.5
    t1 = rng.integers(len(w0) // 2 - 8, len(w0) // 2 + 9, WIDTH)
    for a, row in enumerate(SPECIAL_ROWS):
        for t in TARGETS:
            for s in SIGNS:
                j = _probe(a, t, s)
                w1[j, a * GROUP : (a + 1) * GROUP] = s < 0
                t1[j] = _counts(y[row : row + 1], w1[j : j + 1])[0, 0] - t
    t1[N_PROBES] = len(w0) // 2 + 140

    layers = [
        BinarizedLinearLayer(BitTensor.from_bool(w0), t0.astype(np.int32)),
        BinarizedLinearLayer(BitTensor.from_bool(w1), t1.astype(np.int32)),
        BinarizedLinearLayer(
            BitTensor.from_bool(rng.random((10, WIDTH)) < 0.5),
            np.zeros(10, dtype=np.int32),
            is_output=True,
        ),
    ]
    model = BnnModel(layers)

    bad0 = w0.copy()
    for a in range(len(SPECIAL_ROWS)):
        flipped = np.arange(a * GROUP, a * GROUP + changed_bits[a])
        bad0[flipped, cols[flipped]] ^= True
    bad1 = w1.copy()
    if flip_second:
        bad1[N_PROBES, rng.permutation(len(w0))[:MANY]] ^= True
        bad1[N_PROBES + 1, 3] ^= True
    faulty = copy.deepcopy(model)
    faulty.layers[0].weights = BitTensor.from_bool(bad0)
    faulty.layers[1].weights = BitTensor.from_bool(bad1)
    return model, BitTensor.from_bool(x), faulty


def _updated_hidden_words(evaluator, model, faulty):
    """Each hidden layer's packed outputs on the faulty model, as the evaluator updates them."""
    rows, new = np.empty(0, dtype=np.intp), evaluator.acts[0][:0]
    words = []
    for l, flips in enumerate(faultsim._layer_flips(model, faulty)[:-1]):
        rows, new = evaluator._update_layer(l, flips, rows, new)
        layer_words = evaluator.acts[l + 1].copy()
        layer_words[rows] = new
        words.append(layer_words)
    return words


def _dense_hidden_words(faulty, inputs):
    words, x = [], inputs
    for layer in faulty.layers[:-1]:
        x = bc.linear_forward(layer, x)
        words.append(x.words)
    return words


@pytest.fixture(scope="module")
def saturated():
    return _saturation_model()


@pytest.fixture(scope="module")
def decided():
    """The same model, with a faulty copy whose changes the margins decide."""
    return _saturation_model(changed_bits=DECIDED_BITS, flip_second=False)


def test_the_model_reaches_the_int8_bounds(saturated):
    model, inputs, faulty = saturated
    evaluator = evaluator_of(model, inputs)
    q = evaluator.margins[1]
    for a, row in enumerate(SPECIAL_ROWS):
        for t in TARGETS:
            for s in SIGNS:
                assert q[row, _probe(a, t, s)] == np.clip(t, -127, 127)
    changed = np.bitwise_count(
        _dense_hidden_words(faulty, inputs)[0] ^ evaluator.acts[1]
    ).sum(axis=1)
    assert changed[SPECIAL_ROWS].tolist() == CHANGED_BITS
    assert np.count_nonzero(q[:, N_PROBES] == -127) > ROWS // 2


def test_hidden_words_equal_the_dense_kernel_at_the_int8_bounds(decided):
    model, inputs, faulty = decided
    evaluator = evaluator_of(model, inputs)
    dense = _dense_hidden_words(faulty, inputs)
    changed = np.bitwise_count(dense[0] ^ evaluator.acts[1]).sum(axis=1)
    assert changed[SPECIAL_ROWS].tolist() == DECIDED_BITS
    updated = _updated_hidden_words(evaluator, model, faulty)
    for got, want in zip(updated, dense):
        assert np.array_equal(got, want)
    predictions = incremental_predict(evaluator, faulty)
    assert np.array_equal(predictions, model_predict_batch(faulty, inputs))
    assert evaluator.fallback_blocks == 0  # the margins decided every bit
    # the probes whose margin crosses 0 did move
    y1 = BitTensor((ROWS, WIDTH), updated[1]).unpack_bool()
    clean = evaluator.margins[1] >= 0
    row, a = SPECIAL_ROWS[0], 0  # 126 changed bits
    assert y1[row, _probe(a, -125, +1)] and not clean[row, _probe(a, -125, +1)]
    assert not y1[row, _probe(a, 125, -1)] and clean[row, _probe(a, 125, -1)]


def test_saturated_blocks_fall_back_to_the_dense_kernel(saturated):
    # rows of 127 and 128 changed bits and a neuron of MANY flips could carry
    # a margin of -127 or 127 across 0: the full model, and read-outs of two
    # probes whose saturated margins the change does carry across 0
    model, inputs, faulty = saturated
    probes = [_probe(2, -128, +1), _probe(3, 127, -1)]  # rows of 127 and 128 changes
    pairs = [(model, faulty)] + [(_readout(model, j), _readout(faulty, j)) for j in probes]
    for clean, bad in pairs:
        evaluator = evaluator_of(clean, inputs)
        assert np.array_equal(incremental_predict(evaluator, bad), model_predict_batch(bad, inputs))
        assert evaluator.fallback_blocks == 1


def _readout(model, j):
    """The model with a two-class output layer whose prediction is hidden neuron j's bit.

    The classes' weights differ only at input j, class 1 holding a 1 there,
    and their thresholds are equal: class 1 scores 2 higher iff the bit is set.
    """
    w = np.zeros((2, WIDTH), dtype=bool)
    w[1, j] = True
    out = BinarizedLinearLayer(BitTensor.from_bool(w), np.zeros(2, dtype=np.int32), is_output=True)
    return BnnModel(model.layers[:-1] + [out])


@pytest.mark.parametrize("a", [SPECIAL_ROWS.index(r) for r in ROW_IDS.values()], ids=list(ROW_IDS))
@pytest.mark.parametrize("t,s", [(-127, +1), (-126, +1), (126, -1), (127, -1), (-128, +1)])
def test_predictions_read_saturated_neurons_exactly(saturated, a, t, s):
    model, inputs, faulty = saturated
    j = _probe(a, t, s)
    read, read_faulty = _readout(model, j), _readout(faulty, j)
    predictions = incremental_predict(evaluator_of(read, inputs), read_faulty)
    expected = model_predict_batch(read_faulty, inputs)
    assert np.array_equal(predictions, expected)
    # the prediction is the neuron's bit, so the check reaches it
    assert np.array_equal(expected, bc.linear_forward(faulty.layers[1], bc.linear_forward(
        faulty.layers[0], inputs)).unpack_bool()[:, j])


def test_predictions_equal_dense_with_many_flips_and_only_output_flips(saturated):
    model, inputs, faulty = saturated
    evaluator = evaluator_of(model, inputs)
    output_only = copy.deepcopy(model)
    bits = output_only.layers[2].weights.unpack_bool()
    bits[[0, 0, 7], [0, 5, N_PROBES]] ^= True
    output_only.layers[2].weights = BitTensor.from_bool(bits)
    both = copy.deepcopy(faulty)
    both.layers[2].weights = output_only.layers[2].weights
    for bad in (faulty, output_only, both, model):
        assert np.array_equal(incremental_predict(evaluator, bad), model_predict_batch(bad, inputs))


def test_output_lead_at_the_bound_ties_to_the_lowest_class():
    # one changed input bit of the output layer moves each score by 2, so a
    # lead of exactly 4 can become a tie, which the lowest class index wins
    rng = np.random.default_rng(71)
    x = rng.random((5, 40)) < 0.5
    w0 = rng.random((8, 40)) < 0.5
    t0 = _counts(x[2:3], w0)[0]  # every hidden neuron at margin 0 on row 2
    y = (_counts(x, w0) >= t0)[2]
    w1 = rng.random((2, 8)) < 0.5
    w1[:, 3] = [False, True]  # hidden bit 3 (set on row 2) agrees with class 1 only
    agree = _counts(y[None], w1)[0]
    t1 = np.array([0, 2 * (agree[1] - agree[0]) - 4])  # class 1 leads by 4 on row 2
    model = BnnModel(
        [
            BinarizedLinearLayer(BitTensor.from_bool(w0), t0.astype(np.int32)),
            BinarizedLinearLayer(BitTensor.from_bool(w1), t1.astype(np.int32), is_output=True),
        ]
    )
    faulty = copy.deepcopy(model)
    bits = w0.copy()
    col = np.flatnonzero(w0[3] == x[2])[0]  # clears hidden bit 3 on row 2
    bits[3, col] = ~bits[3, col]
    faulty.layers[0].weights = BitTensor.from_bool(bits)
    inputs = BitTensor.from_bool(x)
    assert model_predict_batch(model, inputs)[2] == 1
    assert model_predict_batch(faulty, inputs)[2] == 0
    evaluator = evaluator_of(model, inputs)
    assert evaluator.lead[2] == 4
    predictions = incremental_predict(evaluator, faulty)
    assert np.array_equal(predictions, model_predict_batch(faulty, inputs))
