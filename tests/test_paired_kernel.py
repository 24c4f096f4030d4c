"""Differential tests of the paired float32 kernel against int64 +-1 dot products.

For fan-in n <= 2047 the kernel puts neurons j and j + ceil(k/2) in one
matrix column (w_j + 4096 w_{j+h}) and splits the product back into two
counts. The reference here never goes through that kernel: it takes the +-1
dot products of the unpacked rows (a float64 matrix product, exact for these
integers) as int64 and derives counts, sign bits and scores from them in
int64. Inputs include rows that agree with, or oppose, both neurons of a pair
in every position, so that each split sees |p_j| = n.
"""

import math

import numpy as np
import pytest

from bitflip_bnn import bitcore as bc
from bitflip_bnn.bitcore import BinarizedLinearLayer, BitTensor, linear_forward, popcount_chunks

_C = bc._MATRIX_CHUNK_ROWS
# around the last paired fan-in (2047) and the first unpaired one (2048)
FAN_INS = [1, 63, 64, 65, 784, 2047, 2048, 2049]
# odd counts leave the last low column without a partner
NEURONS = [1, 2, 3, 10, 1023, 1025]
ROWS = [_C - 1, _C, _C + 1]
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

    chunks = list(popcount_chunks(x.words, weights.words, n))
    assert [lo for lo, _ in chunks] == list(range(0, rows, _C))
    assert np.array_equal(np.concatenate([c for _, c in chunks]), agree)

    for i, thresholds in enumerate(_threshold_sets(rng, n, k)):
        counts = np.full((rows, k), -1, dtype=np.int16) if i == 0 else None
        words = bc._hidden_words(weights.words, thresholds, x.words, n, counts)
        bits = BitTensor((rows, k), words).unpack_bool()
        assert np.array_equal(bits, agree >= thresholds)
        if counts is not None:
            # what the clean pass of IncrementalEvaluator stores
            assert np.array_equal(counts, agree)

        output = BinarizedLinearLayer(weights, thresholds, is_output=True)
        scores = linear_forward(output, x)
        assert scores.dtype == np.int64
        assert np.array_equal(scores, dots - thresholds.astype(np.int64))
