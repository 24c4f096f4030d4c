"""Bit-packed sign tensors and binarized inference kernels.

A binarized network stores weights and activations as signs (+1/-1). Packing
64 signs per machine word turns the neuron pre-activation into an
XNOR + popcount reduction: for rows w and x of length n,

    popcount(XNOR(w, x)) == number of matching positions
    2 * popcount - n     == sum_i w_i * x_i   (the +-1 dot product)

One kernel computes these counts for every layer, hidden, conv and output,
and for xnor_popcount_row: a float32 matrix product of the inputs unpacked as
0/1 (bit set <-> +1) and the weights unpacked as +-1, x01 . w + m, where m
counts the -1 weights of the row (_weight_operands, _products). It is exact
while n < 2^24 (MAX_FAN_IN): every partial sum is then an integer float32
holds exactly, in any order.

For fan-in n <= 2047 (_MAX_PAIRED_FAN_IN) the kernel pairs neurons: of k
neurons, neuron j and neuron j + h, h = ceil(k/2), share the matrix column
w_j + 4096 w_{j+h}, so the product has h columns instead of k, half the
multiply-adds. Its entries are P = p_j + 4096 p_{j+h}, with p = x01 . w.
Every partial sum is an integer of magnitude <= 4097 n < 2^24, exact in
float32 whatever order BLAS adds in, so the output bytes still do not depend
on the BLAS thread count. Since |p_j| <= n < 2048, rounding P to the nearest
multiple of 4096 gives 4096 p_{j+h} exactly, and what is left is p_j. A layer
of larger fan-in, or of one neuron, runs unpaired through the same loop.

A hidden neuron fires (+1) iff popcount >= T, an integer threshold learned
during training (_fire_words). The output layer emits the integer score
2 * popcount - n - T so that an argmax (hardmax) over classes is well
defined without any floating point. Its popcounts are the kernel's products
plus m, written into an int64 array (_counts), for every caller of
linear_forward.

Encoding conventions (fixed, they define the serialization format):
  * bit 1 <-> +1, bit 0 <-> -1; sign ties map to +1
  * 64-bit words, row-major, last dimension packed LSB-first
  * padding bits beyond the last dimension are always zero
  * convolution padding contributes -1 (bit 0)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

WORD_BITS = 64

MODEL_MAGIC = b"BNN1"
LAYER_KIND_LINEAR = 0
LAYER_KIND_CONV = 1

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

# Fan-in bound of the float32 kernel: below it every sum is exact. A paired
# layer (fan-in n <= 2047) forms sums of magnitude up to 4097 n < 2^24, exact
# too, so the bytes depend neither on the BLAS summation order nor on its
# thread count.
MAX_FAN_IN = 2**24

# Column weight of the second neuron of a pair. Pairing needs 2n < _PAIR_SHIFT,
# so that p_j in [-n, n] rounds away, and (_PAIR_SHIFT + 1) n < 2^24, so that
# every partial sum is exact.
_PAIR_SHIFT = 4096
_MAX_PAIRED_FAN_IN = 2047
# float32 values in [2^23 s, 2^24 s) lie s = _PAIR_SHIFT apart, so
# P + _ROUNDER - _ROUNDER is P rounded to the nearest multiple of s, exactly,
# for any |P| < 2^22 s.
_ROUNDER = np.float32(3 * 2**22 * _PAIR_SHIFT)

# Rows per gemm chunk. Bounds the chunk's float32 temporaries: its 0/1 inputs
# (784 KiB for 784 inputs) and, for a paired 1024-wide layer, its (rows x 512)
# product and split, 512 KiB each. Chosen with faultsim._SWEEP_BLOCK_ROWS, the
# low-BER sweep's block, from the sweep-flat benchmark's peak RSS in MiB
# (seed 1, medians of 3 fresh commands; 2-vCPU Xeon, OpenBLAS with 2 threads):
#
#     chunk rows | sweep blocks of 512  1024  2048
#            128 |                47.7  48.0  50.8
#            192 |                48.0  48.4  50.9
#            256 |                48.1  48.6  51.1
#            384 |                49.3  50.1  52.4
#            512 |                51.0  51.7  54.1
#
# Timed against 512 x 2048 in fresh processes (medians of 10 alternating
# pairs), 256 x 1024 ran the low-BER phase (3 BERs) in 331 against 321 ms at
# 1 trial and 787 against 774 ms at 5 trials, faster in 5 and 4 pairs. Its
# dense forward costs a little more: bare 256-row sgemm calls run about 8%
# behind 512-row ones in process, and the sweep-steep benchmark (three dense
# trials) read 3 to 7% fewer items/s, better in 2 of 12 pairs. The points
# of lower peak were slower still: in process, 128-row chunks took the dense
# forward from 158 to 189 ms (7 pairs), and in fresh processes the 5-trial
# phase took 755 against 680 ms at 192 x 1024 and 756 against 665 ms at
# 256 x 512. The kernel's chunk-boundary tests name their row counts relative
# to this value, so changing it renames none of them.
_MATRIX_CHUNK_ROWS = 256


def words_per_row(n_bits: int) -> int:
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def tail_mask(n_bits: int) -> np.uint64:
    """Mask selecting the valid bits of the last word of an n_bits row."""
    rem = n_bits % WORD_BITS
    if rem == 0:
        return _ALL_ONES
    return np.uint64((1 << rem) - 1)


def _pack_bool_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, n) boolean array into (rows, words_per_row) uint64."""
    rows, n = bits.shape
    wpr = words_per_row(n)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    buf = np.zeros((rows, wpr * 8), dtype=np.uint8)
    buf[:, : packed.shape[1]] = packed
    return buf.view("<u8").astype(np.uint64, copy=False)


def _unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """(rows, n_bits) uint8 0/1 array of packed rows; padding bits are dropped."""
    as_bytes = np.ascontiguousarray(words.astype("<u8", copy=False)).view(np.uint8)
    as_bytes = as_bytes.reshape(words.shape[0], words.shape[1] * 8)
    return np.unpackbits(as_bytes, axis=-1, count=n_bits, bitorder="little")


def pm1(bits: np.ndarray, dtype) -> np.ndarray:
    """New +1/-1 array of `dtype` from a boolean or 0/1 array (true/1 <-> +1).

    Two in-place passes over one fresh array: several times faster than
    np.where(bits, 1, -1), and the same values.
    """
    signs = np.asarray(bits).astype(dtype)
    signs *= 2
    signs -= 1
    return signs


class BitTensor:
    """Bit-packed sign tensor (bit 1 <-> +1, bit 0 <-> -1).

    `shape` is the logical sign-tensor shape; `words` holds
    prod(shape[:-1]) rows of ceil(shape[-1]/64) uint64 words each, row-major,
    LSB-first within each word. Padding bits past shape[-1] are zero.

    Instances are immutable by convention: kernels never write to `words`,
    so one tensor can serve any number of callers, such as every trial of a sweep.
    """

    __slots__ = ("shape", "words")

    def __init__(self, shape: tuple[int, ...], words: np.ndarray, *, validate: bool = True):
        shape = tuple(int(d) for d in shape)
        if len(shape) == 0 or any(d <= 0 for d in shape):
            raise ValueError(f"invalid BitTensor shape {shape}")
        rows = int(np.prod(shape[:-1], dtype=np.int64)) if len(shape) > 1 else 1
        wpr = words_per_row(shape[-1])
        words = np.asarray(words, dtype=np.uint64)
        if words.size != rows * wpr:
            raise ValueError(
                f"need {rows * wpr} words for shape {shape}, got {words.size}"
            )
        words = words.reshape(rows, wpr)
        if validate:
            if shape[-1] % WORD_BITS != 0:
                pad = words[:, -1] & ~tail_mask(shape[-1])
                if np.any(pad != 0):
                    raise ValueError("padding bits beyond the last dimension must be zero")
        self.shape = shape
        self.words = words

    # -- construction ------------------------------------------------------

    @classmethod
    def from_signs(cls, values: np.ndarray) -> "BitTensor":
        """Pack an array of +1/-1 values (bit i set iff value i is +1)."""
        arr = np.asarray(values)
        if not np.all(np.abs(arr) == 1):
            raise ValueError("sign values must be +1 or -1")
        return cls.from_bool(arr > 0)

    @classmethod
    def from_bool(cls, bits: np.ndarray) -> "BitTensor":
        """Pack a boolean array (True <-> +1)."""
        arr = np.asarray(bits, dtype=bool)
        if arr.ndim == 0:
            raise ValueError("cannot pack a scalar")
        shape = arr.shape
        flat = arr.reshape(-1, shape[-1])
        return cls(shape, _pack_bool_rows(flat), validate=False)

    # -- properties --------------------------------------------------------

    @property
    def n_bits(self) -> int:
        """Logical bits per packed row (the last dimension size)."""
        return self.shape[-1]

    @property
    def n_rows(self) -> int:
        return self.words.shape[0]

    @property
    def words_per_row(self) -> int:
        return self.words.shape[1]

    # -- conversions -------------------------------------------------------

    def unpack_bool(self) -> np.ndarray:
        return _unpack_bits(self.words, self.n_bits).astype(bool).reshape(self.shape)

    def unpack(self) -> np.ndarray:
        """Unpack to an int8 array of +1/-1."""
        return pm1(_unpack_bits(self.words, self.n_bits), np.int8).reshape(self.shape)

    def __repr__(self) -> str:
        return f"BitTensor(shape={self.shape})"


def pack(signs) -> BitTensor:
    """Pack a vector (or array) of +1/-1 signs into a BitTensor."""
    return BitTensor.from_signs(np.asarray(signs))


# ---------------------------------------------------------------------------
# XNOR / popcount kernels
# ---------------------------------------------------------------------------


def _weight_operands(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, m) of (rows, n) 0/1 weight bits: w the float32 +-1 rows, m the int64 -1 counts.

    The count kernel multiplies inputs x unpacked as 0/1 (bit set <-> +1) by w.
    Since x01 . w_j = #(+1,+1) - #(+1,-1) and m_j = #(+1,-1) + #(-1,-1), x agrees
    with row j at x01 . w_j + m_j of its n positions. The product is exact: every
    partial sum is an integer of magnitude <= n < MAX_FAN_IN.
    """
    m = bits.shape[1] - np.count_nonzero(bits, axis=1)
    return pm1(bits, np.float32), m.astype(np.int64)


def _paired_operands(w_words: np.ndarray, n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, m) of packed weight rows: w the float32 matrix columns, m the int64 -1 counts.

    Neurons j and j + h, h = ceil(k/2), share column j of w, as w_j + 4096 w_{j+h},
    when the fan-in allows pairing and k > 1; otherwise w is the k +-1 rows.
    """
    bits = _unpack_bits(w_words, n_bits)
    k = len(bits)
    if n_bits > _MAX_PAIRED_FAN_IN or k == 1:
        return _weight_operands(bits)
    h = (k + 1) // 2
    w, m = _weight_operands(bits[:h])
    high, m_high = _weight_operands(bits[h:])
    high *= _PAIR_SHIFT
    w[: k - h] += high  # with odd k, the last low column has no partner
    return w, np.concatenate([m, m_high])


def _products(x_words: np.ndarray, w: np.ndarray, k: int, n_bits: int):
    """Yield (rows, parts) for successive chunks of the packed x rows, `rows` a slice.

    w holds the columns of k neurons (_paired_operands). parts is a list of
    (neurons, p): p the float32 x01 . w_j of the chunk rows for the neurons
    j in the slice `neurons`; the slices cover 0..k-1 in order. The p arrays
    are views of buffers that the next chunk overwrites.
    """
    h = len(w)
    rows = min(len(x_words), _MATRIX_CHUNK_ROWS)
    p_buf = np.empty((rows, h), dtype=np.float32)
    high_buf = np.empty((rows, h), dtype=np.float32) if h < k else None
    for lo in range(0, len(x_words), _MATRIX_CHUNK_ROWS):
        chunk = x_words[lo : lo + _MATRIX_CHUNK_ROWS]
        rows = slice(lo, lo + len(chunk))
        # passed unnamed, the chunk's 0/1 rows are freed before the yield
        p = np.matmul(
            _unpack_bits(chunk, n_bits).astype(np.float32), w.T, out=p_buf[: len(chunk)]
        )
        if h == k:
            yield rows, [(slice(0, k), p)]
            continue
        # P = p_j + 4096 p_{j+h} with |p_j| < 2048: rounding P to a multiple
        # of 4096 gives 4096 p_{j+h}, and what it leaves is p_j
        high = np.add(p, _ROUNDER, out=high_buf[: len(chunk)])
        high -= _ROUNDER
        p -= high
        high *= 1 / _PAIR_SHIFT
        yield rows, [(slice(0, h), p), (slice(h, k), high[:, : k - h])]


def _fire_levels(thresholds: np.ndarray, m: np.ndarray, n_bits: int) -> np.ndarray:
    """float32 levels of x01 . w_j at which hidden neurons fire: p_j >= T_j - m_j.

    T is first clipped to [-1, n+1]: since the count p_j + m_j lies in [0, n],
    that keeps every output, and p_j - level_j is the count minus the clipped
    T, an integer of magnitude <= n + 1 that float32 holds exactly.
    """
    levels = np.clip(thresholds.astype(np.int64), -1, n_bits + 1) - m
    return levels.astype(np.float32)


def xnor_popcount_row(w: BitTensor, x: BitTensor) -> int:
    """Count positions where two packed sign rows agree.

    Equals (s + n) / 2 where s is the +-1 dot product of the two rows.
    """
    if len(w.shape) != 1 or len(x.shape) != 1:
        raise ValueError("xnor_popcount_row expects 1-D packed rows")
    if w.n_bits != x.n_bits:
        raise ValueError(f"bit length mismatch: {w.n_bits} vs {x.n_bits}")
    return int(_counts(w.words, x.words, w.n_bits)[0, 0])


# ---------------------------------------------------------------------------
# Layers and models
# ---------------------------------------------------------------------------


@dataclass
class BinarizedLinearLayer:
    """Fully connected binarized layer.

    weights: BitTensor [out_features, in_features]
    thresholds: int32 vector, length out_features (popcount-domain; may lie
        outside [0, in_features], which forces a constant output)
    is_output: when set the layer emits integer scores instead of sign bits
    """

    weights: BitTensor
    thresholds: np.ndarray
    is_output: bool = False

    def __post_init__(self):
        if len(self.weights.shape) != 2:
            raise ValueError("linear weights must be 2-D [out, in]")
        _check_fan_in(self.in_features)
        self.thresholds = _int32_thresholds(self.thresholds, self.out_features)

    @property
    def out_features(self) -> int:
        return self.weights.shape[0]

    @property
    def in_features(self) -> int:
        return self.weights.shape[1]


@dataclass
class BinarizedConvLayer:
    """2-D binarized convolution layer for conv_forward; a BnnModel holds none.

    weights: BitTensor [filters, in_channels, k_h, k_w]
    thresholds: int32 vector, length filters, as for the linear layer
    Padded positions contribute -1 bits.
    """

    weights: BitTensor
    thresholds: np.ndarray
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if len(self.weights.shape) != 4:
            raise ValueError("conv weights must be 4-D [filters, in_ch, k_h, k_w]")
        if self.stride < 1:
            raise ValueError("stride must be a positive integer")
        if self.padding < 0:
            raise ValueError("padding must be non-negative")
        _check_fan_in(int(np.prod(self.weights.shape[1:], dtype=np.int64)))
        self.thresholds = _int32_thresholds(self.thresholds, self.filters)

    @property
    def filters(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> tuple[int, int]:
        return self.weights.shape[2], self.weights.shape[3]


# Why a BnnModel, and so a BNN1 file, holds linear layers only.
CONV_MODELS_REFUSED = (
    "conv models are not supported: the BNN1 format stores no input shape, "
    "and the MNIST input is a flat 784-bit row"
)


def _int32_thresholds(thresholds, count: int) -> np.ndarray:
    """The thresholds as an int32 vector of `count` values, as BNN1 stores them.

    A value int32 cannot hold is refused, not wrapped: cast, 2^31 ("never
    fire") would become -2^31 and fire on every input.
    """
    thresholds = np.asarray(thresholds)
    if not np.issubdtype(thresholds.dtype, np.integer):
        raise ValueError("thresholds must be integers")
    if thresholds.shape != (count,):
        raise ValueError(f"expected {count} thresholds, got shape {thresholds.shape}")
    limits = np.iinfo(np.int32)
    if np.any(thresholds < limits.min) or np.any(thresholds > limits.max):
        raise ValueError(f"thresholds must lie in the int32 range [{limits.min}, {limits.max}]")
    return thresholds.astype(np.int32)


def _check_fan_in(n: int) -> None:
    if n >= MAX_FAN_IN:
        raise ValueError(
            f"fan-in {n} is not below 2^24 = {MAX_FAN_IN}, the bound under which "
            "the float32 popcount kernel is exact"
        )


@dataclass
class BnnModel:
    """Ordered stack of binarized linear layers; the last layer emits class scores."""

    layers: list[BinarizedLinearLayer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if not all(isinstance(layer, BinarizedLinearLayer) for layer in self.layers):
            raise ValueError(CONV_MODELS_REFUSED)
        if not self.layers[-1].is_output:
            raise ValueError("the last layer must be a linear output layer")
        for layer in self.layers[:-1]:
            if layer.is_output:
                raise ValueError("only the last layer may be the output layer")
        for i, (prev, nxt) in enumerate(zip(self.layers, self.layers[1:])):
            if prev.out_features != nxt.in_features:
                raise ValueError(
                    f"layer {i} emits {prev.out_features} bits but layer {i + 1} "
                    f"expects {nxt.in_features}"
                )


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def linear_forward(layer: BinarizedLinearLayer, x: BitTensor):
    """Apply a binarized linear layer to a batch x of shape [N, in].

    Any other shape, a single [in] sample among them, raises ValueError.
    Hidden layers return an [N, out] BitTensor of sign bits
    (bit j set iff popcount_j >= T_j, _fire_words); the output layer returns
    [N, out] int64 scores 2*popcount - n - T, from _counts: the kernel's
    products plus m. Both count through the one float32 kernel, _products.
    """
    n = layer.in_features
    if len(x.shape) != 2 or x.n_bits != n:
        raise ValueError(f"expected an input of shape (N, {n}), got {x.shape}")
    if layer.is_output:
        scores = _counts(layer.weights.words, x.words, n)
        scores *= 2
        scores -= n + layer.thresholds.astype(np.int64)
        return scores
    out = _fire_words(_hidden_operands(layer.weights.words, layer.thresholds, n), x.words, n)
    return BitTensor((x.n_rows, layer.out_features), out, validate=False)


def _hidden_operands(w_words, thresholds, n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, levels) of a hidden layer: its matrix columns and float32 fire levels.

    They depend on the layer alone, so a caller that runs the same layer over
    many row sets computes them once and passes them to _fire_words.
    """
    w, m = _paired_operands(w_words, n_bits)
    return w, _fire_levels(thresholds, m, n_bits)


def _fire_words(operands, x_words, n_bits: int, margins=None) -> np.ndarray:
    """Packed hidden-layer outputs of the x rows: bit j set iff row j of w agrees in >= T_j bits.

    Thresholded and packed chunk by chunk, on operands from _hidden_operands,
    so no (N, neurons) product array exists. A given `margins`, a (N, neurons)
    signed integer array, also receives each neuron's margin
    clip(count - T, -B, B), where B is the largest value of the array's dtype
    and T is clipped as in _fire_levels, written by the same chunk loop; the
    neuron fires iff its margin is >= 0.
    """
    w, levels = operands
    bound = None if margins is None else np.iinfo(margins.dtype).max
    out = np.empty((len(x_words), words_per_row(len(levels))), dtype=np.uint64)
    bits_buf = np.empty((min(len(x_words), _MATRIX_CHUNK_ROWS), len(levels)), dtype=bool)
    for rows, parts in _products(x_words, w, len(levels), n_bits):
        bits = bits_buf[: rows.stop - rows.start]
        for neurons, p in parts:
            if margins is None:
                np.greater_equal(p, levels[neurons], out=bits[:, neurons])
                continue
            # in place on the chunk's own buffer: clipped in float32, then one cast
            p -= levels[neurons]
            np.clip(p, -bound, bound, out=p)
            np.copyto(margins[rows, neurons], p, casting="unsafe")
        if margins is not None:
            np.greater_equal(margins[rows], 0, out=bits)
        out[rows] = _pack_bool_rows(bits)
    return out


def _counts(w_words, x_words, n_bits: int) -> np.ndarray:
    """(N, M) int64 positions among the first n_bits where each x row and each w row agree.

    Each chunk's float32 products x01 . w_j, integers, are written into the
    int64 result as they come, and m_j is added once at the end.
    """
    w, m = _paired_operands(w_words, n_bits)
    counts = np.empty((len(x_words), len(m)), dtype=np.int64)
    for rows, parts in _products(x_words, w, len(m), n_bits):
        for neurons, p in parts:
            counts[rows, neurons] = p
    counts += m
    return counts


def conv_forward(layer: BinarizedConvLayer, x: BitTensor) -> BitTensor:
    """Apply a binarized 2-D convolution to a single [C, H, W] sample.

    Equivalent to gathering each receptive field into a row of
    C*k_h*k_w sign bits (padding supplying -1) and running the
    XNOR-popcount threshold kernel against the flattened filters: the
    gathered rows are packed and go through the hidden-layer kernel of
    linear_forward, one row per output position.
    """
    if len(x.shape) != 3:
        raise ValueError("conv input must be [channels, height, width]")
    c, h, w = x.shape
    if c != layer.in_channels:
        raise ValueError(f"expected {layer.in_channels} input channels, got {c}")
    kh, kw = layer.kernel_size
    stride, pad = layer.stride, layer.padding
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ValueError("kernel does not fit the (padded) input")

    dense = x.unpack_bool()
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=bool)  # pad = -1 bits
    padded[:, pad : pad + h, pad : pad + w] = dense

    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]  # (C, h_out, w_out, kh, kw)
    patches = windows.transpose(1, 2, 0, 3, 4).reshape(h_out * w_out, c * kh * kw)

    n = c * kh * kw
    filters = _pack_bool_rows(_unpack_bits(layer.weights.words, kw).reshape(layer.filters, n))
    operands = _hidden_operands(filters, layer.thresholds, n)
    words = _fire_words(operands, _pack_bool_rows(patches), n)
    bits = _unpack_bits(words, layer.filters)  # (positions, filters)
    return BitTensor.from_bool(bits.T.reshape(layer.filters, h_out, w_out))


def model_scores(model: BnnModel, x: BitTensor) -> np.ndarray:
    """Run the full stack on a batch [N, in] and return its [N, classes] integer scores.

    linear_forward refuses any other shape with ValueError.
    """
    act = x
    for layer in model.layers:
        act = linear_forward(layer, act)
    return act


def model_predict_batch(model: BnnModel, x: BitTensor) -> np.ndarray:
    """Predict the classes (ties to the lowest index) of a batch [N, in]."""
    return np.argmax(model_scores(model, x), axis=1)


# ---------------------------------------------------------------------------
# Serialization (format BNN1, little-endian)
# ---------------------------------------------------------------------------
#
#   magic "BNN1" | u32 layer_count
#   per layer:
#     u8 kind (0 linear; 1, LAYER_KIND_CONV, is reserved and refused at load)
#     u32 out, u32 in
#     u8 is_output
#     i32 thresholds [out]
#     u64 weight words (row-major BitTensor layout)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, size: int, what: str) -> bytes:
        if self.offset + size > len(self.data):
            raise FormatError(f"truncated model file while reading {what}", self.offset)
        chunk = self.data[self.offset : self.offset + size]
        self.offset += size
        return chunk

    def unpack(self, fmt: str, what: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what))

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        raw = self.take(count * np.dtype(dtype).itemsize, what)
        return np.frombuffer(raw, dtype).copy()

    def expect_eof(self):
        if self.offset != len(self.data):
            raise FormatError(
                f"{len(self.data) - self.offset} trailing bytes after model payload",
                self.offset,
            )


def dump_model(model: BnnModel) -> bytes:
    out = bytearray()
    out += MODEL_MAGIC
    out += struct.pack("<I", len(model.layers))
    for layer in model.layers:
        out += struct.pack("<B", LAYER_KIND_LINEAR)
        out += struct.pack("<II", layer.out_features, layer.in_features)
        out += struct.pack("<B", 1 if layer.is_output else 0)
        out += layer.thresholds.astype("<i4").tobytes()
        out += layer.weights.words.astype("<u8").tobytes()
    return bytes(out)


def load_model_bytes(data: bytes) -> BnnModel:
    r = _Reader(data)
    magic = r.take(4, "magic")
    if magic != MODEL_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}", 0)
    (layer_count,) = r.unpack("<I", "layer count")
    if layer_count == 0:
        raise FormatError("model has zero layers", r.offset)
    layers = []
    for i in range(layer_count):
        (kind,) = r.unpack("<B", f"layer {i} kind")
        if kind == LAYER_KIND_CONV:
            raise FormatError(f"layer {i}: {CONV_MODELS_REFUSED}", r.offset - 1)
        if kind != LAYER_KIND_LINEAR:
            raise FormatError(f"unknown layer kind {kind}", r.offset - 1)
        out_f, in_f = r.unpack("<II", f"layer {i} dims")
        if out_f == 0 or in_f == 0:
            raise FormatError(f"layer {i} has zero dimension", r.offset)
        (is_output,) = r.unpack("<B", f"layer {i} is_output")
        thr = r.array("<i4", out_f, f"layer {i} thresholds")
        n_words = out_f * words_per_row(in_f)
        words = r.array("<u8", n_words, f"layer {i} weights")
        try:
            weights = BitTensor((out_f, in_f), words)
            layers.append(BinarizedLinearLayer(weights, thr, bool(is_output)))
        except ValueError as exc:
            raise FormatError(f"layer {i}: {exc}", r.offset) from exc
    r.expect_eof()
    try:
        return BnnModel(layers)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_model(model: BnnModel, path) -> None:
    with open(path, "wb") as f:
        f.write(dump_model(model))


def load_model(path) -> BnnModel:
    """Read a BNN1 file; every FormatError names the file."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return load_model_bytes(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
