import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitflip_bnn import bitcore as bc
from bitflip_bnn.bitcore import (
    BinarizedConvLayer,
    BinarizedLinearLayer,
    BitTensor,
    BnnModel,
    conv_forward,
    linear_forward,
    model_predict_batch,
    pack,
    xnor_popcount_row,
)
from bitflip_bnn.errors import FormatError
from tests.conftest import same_bits


def random_signs(rng, shape):
    return np.where(rng.random(shape) < 0.5, np.int8(1), np.int8(-1))


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------


def test_pack_all_ones():
    assert pack([1, 1, 1]).words[0, 0] == 0b111


def test_pack_all_minus():
    assert pack([-1, -1, -1]).words[0, 0] == 0


def test_pack_mixed():
    assert pack([1, -1, 1]).words[0, 0] == 0b101


def test_pack_rejects_non_signs():
    with pytest.raises(ValueError):
        pack([1, 0, -1])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=200))
def test_pack_unpack_identity(signs):
    assert pack(signs).unpack().tolist() == signs


def test_pack_matrix_padding_zero():
    rng = np.random.default_rng(0)
    t = BitTensor.from_signs(random_signs(rng, (5, 70)))
    assert t.words.shape == (5, 2)
    assert np.all(t.words[:, 1] & ~bc.tail_mask(70) == 0)


def test_bittensor_word_count_invariant():
    with pytest.raises(ValueError):
        BitTensor((2, 70), np.zeros(2, dtype=np.uint64))


def test_bittensor_rejects_dirty_padding():
    words = np.full(1, 0xFFFF_FFFF_FFFF_FFFF, dtype=np.uint64)
    with pytest.raises(ValueError):
        BitTensor((3,), words)


# ---------------------------------------------------------------------------
# xnor popcount
# ---------------------------------------------------------------------------


def _dirty(t: BitTensor) -> BitTensor:
    """A copy of t with every padding bit set in storage."""
    words = t.words.copy()
    words[:, -1] |= ~bc.tail_mask(t.n_bits)
    return BitTensor(t.shape, words, validate=False)


def _padded_pairs(w: BitTensor, x: BitTensor):
    """(w, x) as given, then with every padding bit set in storage in w, in x and in both."""
    return [(w, x), (_dirty(w), x), (w, _dirty(x)), (_dirty(w), _dirty(x))]


def test_popcount_identity_row():
    w = pack([1, -1, 1])
    for a, b in _padded_pairs(w, w):
        assert xnor_popcount_row(a, b) == 3


def test_popcount_hand_case():
    # only position 0 matches; +-1 dot product is -1 = 2*1 - 3
    for w, x in _padded_pairs(pack([1, -1, 1]), pack([1, 1, -1])):
        assert xnor_popcount_row(w, x) == 1


def test_popcount_random_1000_bits_matches_dot_product():
    rng = np.random.default_rng(7)
    a = random_signs(rng, 1000)
    b = random_signs(rng, 1000)
    dot = int(np.dot(a.astype(np.int64), b.astype(np.int64)))
    for w, x in _padded_pairs(pack(a), pack(b)):
        assert 2 * xnor_popcount_row(w, x) - 1000 == dot


def test_popcount_length_mismatch():
    with pytest.raises(ValueError):
        xnor_popcount_row(pack([1, 1]), pack([1, 1, 1]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4096), st.integers(min_value=0, max_value=2**32 - 1))
def test_popcount_equals_pm1_dot_product(n, seed):
    rng = np.random.default_rng(seed)
    a = random_signs(rng, n)
    b = random_signs(rng, n)
    dot = int(np.dot(a.astype(np.int64), b.astype(np.int64)))
    for w, x in _padded_pairs(pack(a), pack(b)):
        assert 2 * xnor_popcount_row(w, x) - n == dot


def test_padding_bits_never_affect_popcount():
    rng = np.random.default_rng(3)
    signs = random_signs(rng, (4, 70))
    layer = BinarizedLinearLayer(BitTensor.from_signs(signs), np.full(4, 35, dtype=np.int32))
    x = BitTensor.from_signs(random_signs(rng, (1, 70)))
    clean = linear_forward(layer, x)

    dirty_layer = BinarizedLinearLayer.__new__(BinarizedLinearLayer)
    dirty_layer.weights = _dirty(layer.weights)  # corrupt padding in storage
    dirty_layer.thresholds = layer.thresholds
    dirty_layer.is_output = False
    assert same_bits(linear_forward(dirty_layer, x), clean)


# ---------------------------------------------------------------------------
# linear layers
# ---------------------------------------------------------------------------


def test_linear_perfect_match_boundary():
    rng = np.random.default_rng(11)
    row = random_signs(rng, 8)
    layer = BinarizedLinearLayer(BitTensor.from_signs(row[None, :]), np.array([8]))
    out = linear_forward(layer, pack(row[None, :]))
    assert out.unpack().tolist() == [[1]]


def test_linear_complement_never_fires():
    rng = np.random.default_rng(12)
    row = random_signs(rng, 8)
    layer = BinarizedLinearLayer(BitTensor.from_signs(row[None, :]), np.array([1]))
    out = linear_forward(layer, pack(-row[None, :]))
    assert out.unpack().tolist() == [[-1]]


def test_linear_three_input_threshold():
    # popcount 1 < T=2 -> -1, agreeing with sign(popcount - T)
    layer = BinarizedLinearLayer(pack(np.array([[1, -1, 1]])), np.array([2]))
    out = linear_forward(layer, pack([[1, 1, -1]]))
    assert out.unpack().tolist() == [[-1]]


@pytest.mark.parametrize("bad", [2**31, -(2**31) - 1, np.uint64(2**63)])
def test_layers_refuse_thresholds_int32_cannot_hold(bad):
    # cast, 2^31 ("never fire") would wrap to -2^31 and fire on every input
    thresholds = np.array([bad])
    with pytest.raises(ValueError, match=r"int32 range \[-2147483648, 2147483647\]"):
        BinarizedLinearLayer(pack(np.array([[1, -1, 1]])), thresholds)
    with pytest.raises(ValueError, match="int32 range"):
        BinarizedConvLayer(BitTensor.from_signs(np.ones((1, 1, 2, 2))), thresholds)


def test_thresholds_at_the_int32_limits_keep_their_meaning():
    row = np.array([[1, -1, 1]])
    limits = np.array([2**31 - 1, -(2**31 - 1)])
    never = BinarizedLinearLayer(pack(row), limits[:1])
    always = BinarizedLinearLayer(pack(row), limits[1:])
    for x in ([[1, -1, 1]], [[-1, 1, -1]]):  # all agree, all disagree
        assert linear_forward(never, pack(x)).unpack().tolist() == [[-1]]
        assert linear_forward(always, pack(x)).unpack().tolist() == [[1]]
    assert never.thresholds.dtype == np.int32 and never.thresholds[0] == 2**31 - 1

    conv = BinarizedConvLayer(BitTensor.from_signs(np.ones((2, 1, 2, 2))), limits)
    out = conv_forward(conv, BitTensor.from_signs(np.ones((1, 3, 3)))).unpack()
    assert np.all(out[0] == -1) and np.all(out[1] == 1)

    output = BinarizedLinearLayer(pack(np.ones((2, 1))), limits, is_output=True)
    blob = bc.dump_model(BnnModel([never, output]))
    loaded = bc.load_model_bytes(blob)
    assert [layer.thresholds.tolist() for layer in loaded.layers] == [
        [2**31 - 1], [2**31 - 1, -(2**31 - 1)]
    ]


def dense_linear_reference(weights, thresholds, x, is_output):
    """Dense +-1 arithmetic reference for the packed kernel."""
    s = x.astype(np.int64) @ weights.astype(np.int64).T
    n = weights.shape[1]
    if is_output:
        return s - thresholds
    return np.where((s + n) // 2 >= thresholds, 1, -1)


def test_linear_batch_matches_dense_reference():
    rng = np.random.default_rng(13)
    w = random_signs(rng, (17, 100))
    thr = rng.integers(-5, 105, size=17)
    x = random_signs(rng, (9, 100))
    layer = BinarizedLinearLayer(BitTensor.from_signs(w), thr)
    got = linear_forward(layer, BitTensor.from_signs(x)).unpack()
    assert np.array_equal(got, dense_linear_reference(w, thr, x, False))


def test_output_scores_match_dense_reference():
    rng = np.random.default_rng(14)
    w = random_signs(rng, (10, 65))
    thr = rng.integers(-10, 10, size=10)
    x = random_signs(rng, (6, 65))
    layer = BinarizedLinearLayer(BitTensor.from_signs(w), thr, is_output=True)
    got = linear_forward(layer, BitTensor.from_signs(x))
    assert np.array_equal(got, dense_linear_reference(w, thr, x, True))


def test_linear_shape_mismatch():
    layer = BinarizedLinearLayer(pack(np.array([[1, -1, 1]])), np.array([1]))
    with pytest.raises(ValueError):
        linear_forward(layer, pack([[1, 1]]))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def dense_conv_reference(weights, thresholds, x, stride, padding):
    """Brute-force +-1 convolution then threshold (padding contributes -1)."""
    f, c, kh, kw = weights.shape
    _, h, w = x.shape
    padded = -np.ones((c, h + 2 * padding, w + 2 * padding), dtype=np.int64)
    padded[:, padding : padding + h, padding : padding + w] = x
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    out = np.empty((f, h_out, w_out), dtype=np.int8)
    n = c * kh * kw
    for fi in range(f):
        for i in range(h_out):
            for j in range(w_out):
                patch = padded[:, i * stride : i * stride + kh, j * stride : j * stride + kw]
                s = int(np.sum(patch * weights[fi]))
                out[fi, i, j] = 1 if (s + n) // 2 >= thresholds[fi] else -1
    return out


def im2col_reference(layer, x):
    """Independent im2col + linear_forward route."""
    c, h, w = x.shape
    kh, kw = layer.kernel_size
    stride, padding = layer.stride, layer.padding
    dense = x.unpack()
    padded = -np.ones((c, h + 2 * padding, w + 2 * padding), dtype=np.int8)
    padded[:, padding : padding + h, padding : padding + w] = dense
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    rows = []
    for i in range(h_out):
        for j in range(w_out):
            rows.append(
                padded[:, i * stride : i * stride + kh, j * stride : j * stride + kw].reshape(-1)
            )
    patches = BitTensor.from_signs(np.array(rows))
    flat_weights = BitTensor.from_signs(layer.weights.unpack().reshape(layer.filters, -1))
    lin = BinarizedLinearLayer(flat_weights, layer.thresholds)
    out = linear_forward(lin, patches).unpack()  # (positions, filters)
    return out.T.reshape(layer.filters, h_out, w_out)


def _random_conv_case(rng, c, h, w, f, k, stride=1, padding=0):
    weights = random_signs(rng, (f, c, k, k))
    thr = rng.integers(0, c * k * k + 1, size=f)
    x = random_signs(rng, (c, h, w))
    layer = BinarizedConvLayer(BitTensor.from_signs(weights), thr, stride, padding)
    return layer, BitTensor.from_signs(x), weights, thr, x


def test_conv_1x1_equals_per_pixel_linear():
    rng = np.random.default_rng(21)
    layer, xt, weights, thr, x = _random_conv_case(rng, 3, 5, 6, 4, 1)
    got = conv_forward(layer, xt).unpack()
    lin = BinarizedLinearLayer(
        BitTensor.from_signs(weights.reshape(4, 3)), thr
    )
    pixels = BitTensor.from_signs(x.transpose(1, 2, 0).reshape(-1, 3))
    per_pixel = linear_forward(lin, pixels).unpack().T.reshape(4, 5, 6)
    assert np.array_equal(got, per_pixel)


def test_conv_matches_dense_reference():
    rng = np.random.default_rng(22)
    layer, xt, weights, thr, x = _random_conv_case(rng, 2, 8, 8, 3, 3)
    got = conv_forward(layer, xt).unpack()
    assert np.array_equal(got, dense_conv_reference(weights, thr, x, 1, 0))


def test_conv_all_ones_constant_field():
    # every interior popcount is 9*C with an all-(+1) input and kernel
    c = 2
    weights = np.ones((1, c, 3, 3), dtype=np.int8)
    x = np.ones((c, 6, 6), dtype=np.int8)
    full = 9 * c
    layer_fire = BinarizedConvLayer(BitTensor.from_signs(weights), np.array([full]))
    out = conv_forward(layer_fire, BitTensor.from_signs(x)).unpack()
    assert np.all(out == 1)
    layer_quiet = BinarizedConvLayer(BitTensor.from_signs(weights), np.array([full + 1]))
    out = conv_forward(layer_quiet, BitTensor.from_signs(x)).unpack()
    assert np.all(out == -1)


@pytest.mark.parametrize(
    "c,h,w,f,k,stride,padding",
    [(1, 6, 6, 2, 3, 1, 0), (3, 9, 7, 4, 3, 2, 1), (4, 16, 16, 3, 3, 1, 1), (2, 5, 5, 2, 2, 1, 2)],
)
def test_conv_equals_im2col_linear(c, h, w, f, k, stride, padding):
    rng = np.random.default_rng(1000 + c * h + k)
    layer, xt, weights, thr, x = _random_conv_case(rng, c, h, w, f, k, stride, padding)
    got = conv_forward(layer, xt).unpack()
    assert np.array_equal(got, im2col_reference(layer, xt))
    assert np.array_equal(got, dense_conv_reference(weights, thr, x, stride, padding))


def test_conv_channel_mismatch():
    rng = np.random.default_rng(23)
    layer, _, _, _, _ = _random_conv_case(rng, 2, 8, 8, 3, 3)
    bad = BitTensor.from_signs(random_signs(rng, (3, 8, 8)))
    with pytest.raises(ValueError):
        conv_forward(layer, bad)


# ---------------------------------------------------------------------------
# model predict
# ---------------------------------------------------------------------------


def _score_model(scores):
    """One output layer rigged to emit the given scores for a batch of one all-ones row."""
    scores = np.asarray(scores, dtype=np.int64)
    n = 4
    weights = np.ones((len(scores), n), dtype=np.int8)
    thresholds = (n - scores).astype(np.int32)  # all-ones input gives s = n
    layer = BinarizedLinearLayer(BitTensor.from_signs(weights), thresholds, is_output=True)
    return BnnModel([layer]), pack([[1] * n])


def test_predict_argmax():
    model, x = _score_model([0, 5, -3])
    assert np.array_equal(bc.model_scores(model, x), [[0, 5, -3]])
    assert model_predict_batch(model, x).tolist() == [1]


def test_predict_tie_lowest_index():
    model, x = _score_model([2, 2])
    assert model_predict_batch(model, x).tolist() == [0]


def test_predict_deterministic(synth_model, synth_test):
    from bitflip_bnn.mnist_io import binarize_input

    x = binarize_input(synth_test.images[:32])
    first = model_predict_batch(synth_model, x)
    for _ in range(3):
        assert np.array_equal(model_predict_batch(synth_model, x), first)
    singles = [
        model_predict_batch(synth_model, binarize_input(img[None]))[0]
        for img in synth_test.images[:32]
    ]
    assert np.array_equal(first, singles)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_model_refuses_a_conv_layer_in_any_position(position):
    rng = np.random.default_rng(33)
    layers = _round_trip_model(rng).layers
    layers[position] = BinarizedConvLayer(
        BitTensor.from_signs(random_signs(rng, (2, 1, 3, 3))), [4, 5]
    )
    # the message the CLI prints, after the file name, for a conv model
    with pytest.raises(ValueError, match="^conv models are not supported: .*stores no input shape"):
        BnnModel(layers)


# input shapes fed to a 784-input model, with the shape of the scores of the
# accepted ones, the [N, 784] batches; the first layer's linear_forward refuses
# the others, a single (784,) sample among them
INPUT_SHAPES = {
    (784,): None,
    (5, 784): (5, 3),
    (1, 28, 28): None,
    (1, 784): (1, 3),
    (783,): None,
    (5, 783): None,
    (28, 28): None,
    (2, 3, 784): None,
    (4, 196): None,
}


@pytest.mark.parametrize("shape", list(INPUT_SHAPES), ids=str)
def test_model_accepts_and_refuses_input_shapes(shape):
    rng = np.random.default_rng(34)
    hidden = BinarizedLinearLayer(
        BitTensor.from_signs(random_signs(rng, (8, 784))), np.full(8, 392, np.int32)
    )
    out = BinarizedLinearLayer(
        BitTensor.from_signs(random_signs(rng, (3, 8))), np.zeros(3, np.int32), True
    )
    model = BnnModel([hidden, out])
    x = BitTensor.from_signs(random_signs(rng, shape))
    expected = INPUT_SHAPES[shape]
    if expected is None:
        with pytest.raises(ValueError):
            bc.model_scores(model, x)
        with pytest.raises(ValueError):
            model_predict_batch(model, x)
        return
    scores = bc.model_scores(model, x)
    assert scores.shape == expected
    predictions = model_predict_batch(model, x)
    assert np.array_equal(predictions, np.argmax(scores, axis=1))


def test_model_requires_output_last():
    rng = np.random.default_rng(31)
    hidden = BinarizedLinearLayer(BitTensor.from_signs(random_signs(rng, (4, 8))), np.zeros(4, dtype=np.int32))
    with pytest.raises(ValueError):
        BnnModel([hidden])
    out = BinarizedLinearLayer(
        BitTensor.from_signs(random_signs(rng, (3, 4))), np.zeros(3, dtype=np.int32), True
    )
    with pytest.raises(ValueError):
        BnnModel([out, out])


def test_model_rejects_incompatible_linear_chain():
    rng = np.random.default_rng(32)
    hidden = BinarizedLinearLayer(
        BitTensor.from_signs(random_signs(rng, (4, 8))), np.zeros(4, dtype=np.int32)
    )
    out = BinarizedLinearLayer(
        BitTensor.from_signs(random_signs(rng, (3, 5))), np.zeros(3, dtype=np.int32), True
    )
    with pytest.raises(ValueError, match="expects"):
        BnnModel([hidden, out])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _round_trip_model(rng):
    """Two hidden layers and an output layer, with thresholds outside [0, fan-in]."""
    first = BinarizedLinearLayer(
        BitTensor.from_signs(random_signs(rng, (4, 70))), np.array([-3, 0, 70, 74])
    )
    hidden = BinarizedLinearLayer(
        BitTensor.from_signs(random_signs(rng, (6, 4))),
        rng.integers(-3, 8, size=6),
    )
    out = BinarizedLinearLayer(
        BitTensor.from_signs(random_signs(rng, (5, 6))), rng.integers(-6, 7, size=5), True
    )
    return BnnModel([first, hidden, out])


def _kind_offsets(model: BnnModel) -> list[int]:
    """Byte offset of each layer's kind byte in the model's BNN1 bytes."""
    offsets, offset = [], 8  # magic, layer count
    for layer in model.layers:
        offsets.append(offset)
        offset += 1 + 8 + 1 + layer.thresholds.nbytes + layer.weights.words.nbytes
    return offsets


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    model = _round_trip_model(rng)
    path = tmp_path / "model.bnn"
    bc.save_model(model, path)
    blob = path.read_bytes()
    assert blob[:4] == b"BNN1"
    loaded = bc.load_model(path)
    assert bc.dump_model(loaded) == blob
    for a, b in zip(model.layers, loaded.layers):
        assert same_bits(a.weights, b.weights)
        assert np.array_equal(a.thresholds, b.thresholds)


def test_load_rejects_bad_magic():
    with pytest.raises(FormatError):
        bc.load_model_bytes(b"XXXX" + b"\x00" * 16)


def test_load_rejects_truncation(tmp_path):
    rng = np.random.default_rng(42)
    blob = bc.dump_model(_round_trip_model(rng))
    with pytest.raises(FormatError):
        bc.load_model_bytes(blob[:-5])


def test_load_rejects_trailing_garbage():
    rng = np.random.default_rng(43)
    blob = bc.dump_model(_round_trip_model(rng))
    with pytest.raises(FormatError):
        bc.load_model_bytes(blob + b"\x00")


def fan_in_bound_model_bytes(in_features: int = bc.MAX_FAN_IN) -> bytes:
    """A BNN1 file of one output neuron with `in_features` inputs (2 MiB at 2^24)."""
    header = b"BNN1" + struct.pack("<IBIIB", 1, bc.LAYER_KIND_LINEAR, 1, in_features, 1)
    threshold = struct.pack("<i", 0)
    return header + threshold + bytes(8 * bc.words_per_row(in_features))


def test_layers_refuse_fan_in_at_kernel_bound():
    assert bc.MAX_FAN_IN == 2**24
    below = BitTensor((1, 2**24 - 1), np.zeros(2**18, dtype=np.uint64))
    assert BinarizedLinearLayer(below, [0]).in_features == 2**24 - 1
    at = BitTensor((1, 2**24), np.zeros(2**18, dtype=np.uint64))
    with pytest.raises(ValueError, match=r"fan-in 16777216 .*2\^24"):
        BinarizedLinearLayer(at, [0])

    # conv fan-in is in_ch * k_h * k_w: 4 * 2048 * 2048 = 2^24 (one word per kernel row)
    conv_at = BitTensor((1, 4, 2048, 2048), np.zeros(4 * 2048 * 32, dtype=np.uint64))
    with pytest.raises(ValueError, match=r"2\^24"):
        BinarizedConvLayer(conv_at, [0])
    conv_below = BitTensor((1, 4, 2047, 2048), np.zeros(4 * 2047 * 32, dtype=np.uint64))
    BinarizedConvLayer(conv_below, [0])


def test_load_refuses_fan_in_at_kernel_bound():
    with pytest.raises(FormatError, match=r"layer 0: fan-in 16777216 .*2\^24"):
        bc.load_model_bytes(fan_in_bound_model_bytes())
    model = bc.load_model_bytes(fan_in_bound_model_bytes(2**24 - 1))
    assert model.layers[0].in_features == 2**24 - 1


def test_load_rejects_unknown_kind():
    rng = np.random.default_rng(44)
    blob = bytearray(bc.dump_model(_round_trip_model(rng)))
    blob[8] = 9  # first layer kind byte
    with pytest.raises(FormatError):
        bc.load_model_bytes(bytes(blob))


@pytest.mark.parametrize("layer", [0, 1, 2])
def test_load_refuses_the_conv_kind_at_its_offset(layer):
    model = _round_trip_model(np.random.default_rng(45))
    blob = bytearray(bc.dump_model(model))
    offset = _kind_offsets(model)[layer]
    assert blob[offset] == bc.LAYER_KIND_LINEAR
    blob[offset] = bc.LAYER_KIND_CONV
    message = f"layer {layer}: {bc.CONV_MODELS_REFUSED} (at byte offset {offset})"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$") as exc:
        bc.load_model_bytes(bytes(blob))
    assert exc.value.offset == offset


def test_load_rejects_dirty_padding_bits():
    out = BinarizedLinearLayer(pack(np.array([[1, -1, 1]])), np.array([0]), True)
    blob = bytearray(bc.dump_model(BnnModel([out])))
    blob[-1] = 0xFF  # weight word high bits are padding for a 3-bit row
    with pytest.raises(FormatError):
        bc.load_model_bytes(bytes(blob))
