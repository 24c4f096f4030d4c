"""Differential tests of the package's two counts against the uint64 XNOR loop.

`popcount_oracle` is the package's former production kernel: for each 64-bit
word it XNORs every x row with every w row, masks the padding of the last
word and adds the popcount. Hidden and conv layers now count through the
+-1 float32 matrix product of `bitcore._fire_words`, read here as its int16
margins at T = 0, which are the counts themselves; the output layer counts
by XOR-popcount in `bitcore._disagreements`, read through the scores of
`linear_forward`. These tests require both to give the oracle's integers
exactly, across the row-chunk boundary, with dirty padding and with
thresholds that force constant outputs.
"""

import math

import numpy as np
import pytest

from bitflip_bnn import bitcore as bc
from bitflip_bnn.bitcore import (
    BinarizedConvLayer,
    BinarizedLinearLayer,
    BitTensor,
    conv_forward,
    linear_forward,
    tail_mask,
)

IN_FEATURES = [1, 63, 64, 70, 784, 1000]
_CHUNK = bc._MATRIX_CHUNK_ROWS
# fixed counts, named by their value, then counts around the gemm chunk
# boundary, named relative to the chunk so that its size never renames them
ROW_COUNTS = [1, 255, 256, 257, 600, 1023, 1024, 1025, 2053] + [
    pytest.param(rows, id=name)
    for name, rows in [
        ("c-1", _CHUNK - 1),
        ("c", _CHUNK),
        ("c+1", _CHUNK + 1),
        ("2c+5", 2 * _CHUNK + 5),
    ]
]
OUT_FEATURES = 37


def popcount_oracle(x_words: np.ndarray, w_words: np.ndarray, n_bits: int) -> np.ndarray:
    """(N, M) int32 counts of the positions among the first n_bits where rows agree."""
    n_rows, wpr = x_words.shape
    counts = np.zeros((n_rows, w_words.shape[0]), dtype=np.int32)
    mask = tail_mask(n_bits)
    buf = np.empty((n_rows, w_words.shape[0]), dtype=np.uint64)
    for k in range(wpr):
        np.bitwise_xor(x_words[:, k, None], w_words[None, :, k], out=buf)
        np.bitwise_not(buf, out=buf)
        if k == wpr - 1:
            np.bitwise_and(buf, mask, out=buf)
        counts += np.bitwise_count(buf)
    return counts


def _kernel_counts(x_words, w_words, n_bits):
    """The float32 kernel's counts: its int16 margins at T = 0, exact for n_bits < 2^15."""
    margins = np.empty((len(x_words), len(w_words)), dtype=np.int16)
    operands = bc._hidden_operands(w_words, np.zeros(len(w_words), np.int32), n_bits)
    bc._fire_words(operands, x_words, n_bits, margins)
    return margins


def _random_bits(rng, rows, n_bits):
    return BitTensor.from_bool(rng.random((rows, n_bits)) < 0.5)


def _dirty(tensor: BitTensor) -> BitTensor:
    """The same values with every padding bit set in storage."""
    words = tensor.words.copy()
    words[:, -1] |= ~tensor.tail_mask
    return BitTensor(tensor.shape, words, validate=False)


def _layer(weights: BitTensor, thresholds, is_output: bool) -> BinarizedLinearLayer:
    """A layer over `weights` as given, dirty padding included."""
    layer = BinarizedLinearLayer(weights.mask_padding(), thresholds, is_output)
    layer.weights = weights
    return layer


def _thresholds(rng, n_bits):
    """Thresholds across [0, n] and beyond it on both sides (constant outputs)."""
    thr = rng.integers(-3, n_bits + 4, OUT_FEATURES)
    thr[:4] = [-5, 0, n_bits + 1, n_bits + 9]
    return thr


@pytest.mark.parametrize("n_bits", IN_FEATURES)
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_kernel_and_linear_forward_equal_oracle(n_bits, rows):
    rng = np.random.default_rng(1000 * n_bits + rows)
    x = _random_bits(rng, rows, n_bits)
    w = _random_bits(rng, OUT_FEATURES, n_bits)
    thr = _thresholds(rng, n_bits)
    expected = popcount_oracle(x.words, w.words, n_bits)

    # dirty padding on one side only, too: there an unmasked XOR would count it
    for xt, wt in [(x, w), (_dirty(x), w), (x, _dirty(w)), (_dirty(x), _dirty(w))]:
        assert np.array_equal(_kernel_counts(xt.words, wt.words, n_bits), expected)

        hidden = linear_forward(_layer(wt, thr, is_output=False), xt)
        assert hidden.shape == (rows, OUT_FEATURES)
        assert np.array_equal(hidden.unpack_bool(), expected >= thr)

        scores = linear_forward(_layer(wt, thr, is_output=True), xt)
        assert np.array_equal(scores, 2 * expected.astype(np.int64) - n_bits - thr)


def test_thresholds_outside_range_force_constant_outputs():
    rng = np.random.default_rng(5)
    n_bits = 70
    x = _random_bits(rng, 300, n_bits)
    w = _random_bits(rng, 4, n_bits)
    out = linear_forward(_layer(w, [-1, 0, n_bits + 1, n_bits], is_output=False), x)
    bits = out.unpack_bool()
    assert bits[:, 0].all() and bits[:, 1].all() and not bits[:, 2].any()
    expected = popcount_oracle(x.words, w.words, n_bits)[:, 3] == n_bits
    assert np.array_equal(bits[:, 3], expected)


def _oracle_conv_forward(layer: BinarizedConvLayer, x: BitTensor) -> np.ndarray:
    """(filters, h_out, w_out) bool map: each receptive field gathered, then the oracle."""
    c, h, w = x.shape
    kh, kw = layer.kernel_size
    s, p = layer.stride, layer.padding
    padded = np.zeros((c, h + 2 * p, w + 2 * p), dtype=bool)  # padding is -1: bit 0
    padded[:, p : p + h, p : p + w] = x.unpack_bool()
    h_out = (h + 2 * p - kh) // s + 1
    w_out = (w + 2 * p - kw) // s + 1
    patches = [
        padded[:, i * s : i * s + kh, j * s : j * s + kw].reshape(-1)
        for i in range(h_out)
        for j in range(w_out)
    ]
    n = c * kh * kw
    patch_words = BitTensor.from_bool(np.array(patches)).words
    filt_words = BitTensor.from_bool(layer.weights.unpack_bool().reshape(layer.filters, n)).words
    fires = popcount_oracle(patch_words, filt_words, n) >= layer.thresholds
    return fires.T.reshape(layer.filters, h_out, w_out)


@pytest.mark.parametrize(
    "c,h,w,f,k,stride,padding",
    [
        (1, 5, 5, 3, 3, 1, 0),  # 9 positions, one chunk
        (3, 20, 20, 4, 3, 1, 1),  # 400 positions, padding 1
        (2, 33, 17, 5, 5, 2, 2),  # 50-bit fields, strided
        (8, 16, 16, 2, 3, 1, 0),  # 72-bit fields: two words per field
    ],
)
def test_conv_forward_equals_oracle(c, h, w, f, k, stride, padding):
    rng = np.random.default_rng(c * 100 + h)
    n = c * k * k
    weights = BitTensor.from_bool(rng.random((f, c, k, k)) < 0.5)
    thr = rng.integers(-2, n + 3, f)
    layer = BinarizedConvLayer(weights, thr, stride, padding)
    x = BitTensor.from_bool(rng.random((c, h, w)) < 0.5)
    got = conv_forward(layer, x).unpack_bool()
    assert np.array_equal(got, _oracle_conv_forward(layer, x))


def test_int32_extreme_thresholds_are_constant_and_scores_exact():
    # the kernel compares against T - m clipped to [-n-1, n+1]; the clip must not wrap
    rng = np.random.default_rng(9)
    n_bits = 130
    x = _random_bits(rng, _CHUNK + 3, n_bits)
    w = _random_bits(rng, 4, n_bits)
    i32 = np.iinfo(np.int32)
    thr = np.array([i32.min, i32.max, -n_bits - 1, n_bits + 2])
    bits = linear_forward(_layer(_dirty(w), thr, is_output=False), _dirty(x)).unpack_bool()
    assert bits[:, 0].all() and not bits[:, 1].any()
    assert bits[:, 2].all() and not bits[:, 3].any()
    scores = linear_forward(_layer(_dirty(w), thr, is_output=True), _dirty(x))
    expected = popcount_oracle(x.words, w.words, n_bits).astype(np.int64)
    assert np.array_equal(scores, 2 * expected - n_bits - thr)


def test_conv_forward_equals_oracle_across_row_chunks():
    side = math.isqrt(_CHUNK) + 3  # side**2 positions: more than one gemm chunk
    rng = np.random.default_rng(side)
    weights = BitTensor.from_bool(rng.random((3, 2, 3, 3)) < 0.5)
    layer = BinarizedConvLayer(weights, rng.integers(-1, 20, 3), stride=1, padding=1)
    x = BitTensor.from_bool(rng.random((2, side, side)) < 0.5)
    got = conv_forward(layer, x).unpack_bool()
    assert np.array_equal(got, _oracle_conv_forward(layer, x))
