"""Differential tests of the paired float32 kernel against int64 +-1 dot products.

For fan-in n <= 2047 the kernel puts neurons j and j + ceil(k/2) in one
matrix column (w_j + 4096 w_{j+h}) and splits the product back into two
counts. The reference here never goes through that kernel: it takes the +-1
dot products of the unpacked rows (a float64 matrix product, exact for these
integers) as int64 and derives counts, sign bits and scores from them in
int64. Inputs include rows that agree with, or oppose, both neurons of a pair
in every position, so that each split sees |p_j| = n. The output layer's
scores, which bitcore counts by XOR-popcount instead, are checked against
the same dot products, and so is the memory one of its forwards holds.
"""

import math
import tracemalloc

import numpy as np
import pytest

from bitflip_bnn import bitcore as bc
from bitflip_bnn.bitcore import BinarizedLinearLayer, BitTensor, linear_forward

_C = bc._MATRIX_CHUNK_ROWS
# around the last paired fan-in (2047) and the first unpaired one (2048)
FAN_INS = [1, 63, 64, 65, 784, 2047, 2048, 2049]
# odd counts leave the last low column without a partner
NEURONS = [1, 2, 3, 10, 1023, 1025]
# fixed counts, named by their value, then counts around the gemm chunk
# boundary, named relative to the chunk so that its size never renames them
ROWS = [1023, 1024, 1025] + [
    pytest.param(rows, id=name) for name, rows in [("c-1", _C - 1), ("c", _C), ("c+1", _C + 1)]
]
_I32_MAX = 2**31 - 1


def _threshold_sets(rng, n, k):
    """Threshold vectors that put every special value on low and high neurons.

    Beside the specials, neurons get thresholds near n/2, where their output
    depends on the input row.
    """
    spread = max(1, math.isqrt(n) // 2)
    near_half = rng.integers(n // 2 - spread, n // 2 + spread + 1, k)
    special = np.array([-n - 2, -n - 1, 0, n, n + 1, n + 2, _I32_MAX, -_I32_MAX])
    if k < 2 * len(special):
        # few neurons: each of them takes every special value in turn
        j = np.arange(k)
        return [near_half] + [special[(j + s) % len(special)] for s in range(len(special))]
    mixed = near_half.copy()
    mixed[::2] = special[np.arange(0, k, 2) // 2 % len(special)]
    return [mixed]


def _weights_and_inputs(rng, n, k, rows):
    """Random weight and input rows, with pairs and rows that reach |P| = 4097 n.

    Neuron h copies neuron 0 and neuron k-1 negates neuron k-1-h, so rows 0..3
    (neuron 0, its negation, neuron k-1-h and its negation) give both counts
    of a pair at +-n.
    """
    h = (k + 1) // 2
    w = rng.random((k, n)) < 0.5
    if k > 1:
        w[h] = w[0]
        w[k - 1] = ~w[k - 1 - h]
    x = rng.random((rows, n)) < 0.5
    x[0], x[1] = w[0], ~w[0]
    x[2], x[3] = w[k - 1 - h], ~w[k - 1 - h]
    return w, x


def _dot_pm1(x_bool, w_bool):
    """(rows, k) int64 +-1 dot products of boolean rows (True <-> +1)."""
    xs = np.where(x_bool, 1.0, -1.0)
    ws = np.where(w_bool, 1.0, -1.0)
    # float64 sums of at most 2049 terms of +-1 are exact integers
    return (xs @ ws.T).astype(np.int64)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("k", NEURONS)
@pytest.mark.parametrize("n", FAN_INS)
def test_paired_kernel_matches_int64_dot_products(n, k, rows):
    rng = np.random.default_rng(n * 7919 + k * 31 + rows)
    w_bool, x_bool = _weights_and_inputs(rng, n, k, rows)
    weights, x = BitTensor.from_bool(w_bool), BitTensor.from_bool(x_bool)

    # pairing depends on the fan-in and the neuron count alone
    columns, _ = bc._paired_operands(weights.words, n)
    paired = n <= 2047 and k > 1
    assert len(columns) == ((k + 1) // 2 if paired else k)

    dots = _dot_pm1(x_bool, w_bool)
    agree = (dots + n) // 2

    # the kernel's int16 margins at T = 0 are its counts, since n < 2^15
    counts = np.empty((rows, k), dtype=np.int16)
    zero = np.zeros(k, dtype=np.int32)
    bc._fire_words(bc._hidden_operands(weights.words, zero, n), x.words, n, counts)
    assert np.array_equal(counts, agree)

    for thresholds in _threshold_sets(rng, n, k):
        words = bc._hidden_words(weights.words, thresholds, x.words, n)
        bits = BitTensor((rows, k), words).unpack_bool()
        assert np.array_equal(bits, agree >= thresholds)
        # what the clean pass of IncrementalEvaluator stores, thresholds
        # outside [0, n] included: the margin of T clipped to [-1, n+1]
        margins = np.full((rows, k), 99, dtype=np.int8)
        operands = bc._hidden_operands(weights.words, thresholds, n)
        assert np.array_equal(bc._fire_words(operands, x.words, n, margins), words)
        clipped = np.clip(thresholds.astype(np.int64), -1, n + 1)
        assert np.array_equal(margins, np.clip(agree - clipped, -127, 127))
        assert np.array_equal(margins >= 0, bits)

        output = BinarizedLinearLayer(weights, thresholds, is_output=True)
        scores = linear_forward(output, x)
        assert scores.dtype == np.int64
        assert np.array_equal(scores, dots - thresholds.astype(np.int64))


@pytest.mark.parametrize("dtype", [np.int8, np.int16])
def test_margins_clip_to_the_range_of_their_dtype(dtype):
    # the kernel takes the margin format from the array it fills: an int16
    # array gets every margin of a 784-bit layer unclipped, an int8 one +-127
    rng = np.random.default_rng(29)
    n, k, rows = 784, 10, 50
    w_bool, x_bool = _weights_and_inputs(rng, n, k, rows)
    weights, x = BitTensor.from_bool(w_bool), BitTensor.from_bool(x_bool)
    agree = (_dot_pm1(x_bool, w_bool) + n) // 2
    for thresholds in _threshold_sets(rng, n, k):
        margins = np.empty((rows, k), dtype=dtype)
        bc._fire_words(bc._hidden_operands(weights.words, thresholds, n), x.words, n, margins)
        bound = np.iinfo(dtype).max
        clipped = np.clip(thresholds.astype(np.int64), -1, n + 1)
        assert np.array_equal(margins, np.clip(agree - clipped, -bound, bound))
        largest = np.abs(margins).max()
        assert (largest == 127) if dtype == np.int8 else (largest > 127)


def test_output_forward_holds_its_scores_and_one_xor_block():
    # the widest case above: 1025 neurons of 2049 bits over 1025 rows
    rng = np.random.default_rng(31)
    n, k, rows = 2049, 1025, 1025
    w_bool, x_bool = _weights_and_inputs(rng, n, k, rows)
    weights, x = BitTensor.from_bool(w_bool), BitTensor.from_bool(x_bool)
    output = BinarizedLinearLayer(weights, rng.integers(0, n, k), is_output=True)
    # the int64 scores, one XOR block (at least one row against every
    # neuron), and 64 KiB for the small temporaries: the n - T vector and
    # the reduction's buffers
    bound = rows * k * 8 + max(bc._XOR_BLOCK_BYTES, weights.words.nbytes) + 64 * 1024
    tracemalloc.start()
    try:
        scores = linear_forward(output, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(scores, _dot_pm1(x_bool, w_bool) - output.thresholds)
    assert peak <= bound, f"peak {peak} B above {bound} B"
