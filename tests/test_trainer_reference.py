"""Differential tests of the trainer's elementwise paths against their former formulas.

The reference functions below are the trainer's earlier whole-array
expressions: signs through `np.where`, the Adam update with a fresh temporary
per operation, the straight-through weight mask as a new product, the
forward pass with batch moments as sums over the count (its running
estimates and dropout draws included), the backward pass that reads the
forward cache without consuming it, and the
batch-norm fold with its own search for gamma < 0. The current code must give
the same floats (and fold thresholds) bit for bit, so arrays are compared as
unsigned integers of the same width (which tells -0.0 from 0.0 and compares
NaN payloads).
"""

import copy
import math

import numpy as np
import pytest

from bitflip_bnn import trainer as tr
from bitflip_bnn.bitcore import BitTensor, dump_model, pm1
from bitflip_bnn.trainer import (
    AdamState,
    LatentDenseLayer,
    LatentModel,
    TrainConfig,
    adam_step,
    backward_ste,
    export_model,
    forward_train,
    init_latent_model,
    softmax_cross_entropy,
    train,
)
from tests.conftest import synthetic_dataset

SHAPES = [(1, 1), (3, 5), (1024, 784), (1024,)]  # 1024 x 784 ends in a partial block
DTYPES = [  # (param dtype, grad dtype)
    (np.float32, np.float32),
    (np.float64, np.float64),
    (np.float32, np.float64),
    (np.float64, np.float32),
]
STEPS = 6


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------


def reference_sign_pm1(arr):
    return np.where(arr >= 0, 1.0, -1.0).astype(arr.dtype, copy=False)


def reference_gate_weight_grad(dwb, weight):
    return dwb * (np.abs(weight) <= 1.0)


def reference_backward_ste(model, cache, grad_logits):
    grads = [None] * len(model.layers)

    entry = cache[-1]
    layer = model.layers[-1]
    ds = grad_logits * entry["scale"]
    dwb = ds.T @ entry["x"]
    grads[-1] = {"weight": reference_gate_weight_grad(dwb, layer.weight)}
    da = ds @ entry["wb"]

    for i in range(len(model.layers) - 2, -1, -1):
        layer = model.layers[i]
        entry = cache[i]
        if "mask" in entry:
            da = da * entry["mask"] / entry["keep"]
        dz = da * (np.abs(entry["z"]) <= 1.0)

        dgamma = (dz * entry["s_hat"]).sum(axis=0)
        dbeta = dz.sum(axis=0)
        ds_hat = dz * layer.gamma
        b = ds_hat.shape[0]
        ds = (
            entry["istd"]
            / b
            * (
                b * ds_hat
                - ds_hat.sum(axis=0)
                - entry["s_hat"] * (ds_hat * entry["s_hat"]).sum(axis=0)
            )
        )
        dwb = ds.T @ entry["x"]
        dw = reference_gate_weight_grad(dwb, layer.weight)
        grads[i] = {"weight": dw, "gamma": dgamma, "beta": dbeta}
        if i > 0:
            da = ds @ entry["wb"]
    return grads


def reference_forward_train(model, x, rng):
    """The training forward pass with `np.where` signs and sum-over-count moments."""
    cache = []
    act = x
    for i, layer in enumerate(model.layers):
        wb = reference_sign_pm1(layer.weight)
        s = act @ wb.T
        entry = {"x": act}
        if i > 0:
            entry["wb"] = wb
        if layer.is_output:
            entry["scale"] = 1.0 / math.sqrt(layer.in_features)
            cache.append(entry)
            return s * entry["scale"], cache

        b = s.shape[0]
        mu = s.sum(axis=0) / b
        dev = s - mu
        var = (dev * dev).sum(axis=0) / b
        m = tr.BN_MOMENTUM
        layer.run_mean = ((1.0 - m) * layer.run_mean + m * mu).astype(layer.run_mean.dtype)
        layer.run_var = ((1.0 - m) * layer.run_var + m * var).astype(layer.run_var.dtype)
        istd = 1.0 / np.sqrt(var + tr.BN_EPS)
        s_hat = dev * istd
        z = layer.gamma * s_hat + layer.beta
        a = reference_sign_pm1(z)
        entry.update({"s_hat": s_hat, "z": z, "istd": istd})
        if model.dropout > 0:
            keep = 1.0 - model.dropout
            mask = rng.random(a.shape) < keep
            a = a * mask / keep
            entry.update({"mask": mask, "keep": keep})
        cache.append(entry)
        act = a
    raise AssertionError("model has no output layer")


def reference_adam_step(model, grads, state, config, t):
    if t < 1:
        raise ValueError("Adam step index starts at 1")
    b1, b2 = tr.ADAM_BETA1, tr.ADAM_BETA2
    lr, eps = config.learning_rate, tr.ADAM_EPS
    for i, (layer, layer_grads) in enumerate(zip(model.layers, grads)):
        for name, grad in layer_grads.items():
            param = getattr(layer, name)
            m, v = state.slot((i, name), param)
            m += (1.0 - b1) * (grad - m)
            v += (1.0 - b2) * (grad * grad - v)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            param -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(param.dtype)
            if name == "weight":
                np.clip(param, -1.0, 1.0, out=param)


def reference_fold_neuron(gamma, beta, mu, var, n):
    d = math.sqrt(var + tr.BN_EPS)

    def fires(s: float) -> bool:
        return gamma * (s - mu) / d + beta >= 0.0

    if gamma == 0.0:
        return False, 0 if beta >= 0.0 else n + 1

    s_star = mu - beta * d / gamma
    s_star = min(max(s_star, -(n + 1)), n + 1)

    if gamma > 0:
        s0 = math.ceil(s_star)
        while s0 > -(n + 1) and fires(s0 - 1):
            s0 -= 1
        while s0 <= n and not fires(s0):
            s0 += 1
        return False, (s0 + n + 1) // 2
    s0 = math.floor(s_star)
    while s0 < n + 1 and fires(s0 + 1):
        s0 += 1
    while s0 >= -n and not fires(s0):
        s0 -= 1
    return True, (n - s0 + 1) // 2


def reference_pm1(bits, dtype):
    return np.where(bits, 1, -1).astype(dtype)


def reference_unpack(self):
    return np.where(self.unpack_bool(), np.int8(1), np.int8(-1))


def as_bits(arr: np.ndarray) -> np.ndarray:
    """The array's bit patterns as unsigned integers of the same width."""
    arr = np.asarray(arr)
    return arr.view(np.dtype(f"u{arr.dtype.itemsize}"))


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(as_bits(got), as_bits(want))


# ---------------------------------------------------------------------------
# signs
# ---------------------------------------------------------------------------

SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45, -1e-45, 1.0, -1.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", SHAPES)
def test_sign_pm1_matches_reference(shape, dtype):
    rng = np.random.default_rng(1)
    arr = rng.standard_normal(shape).astype(dtype)
    flat = arr.reshape(-1)
    flat[: len(SPECIAL)] = np.array(SPECIAL, dtype=dtype)[: flat.size]
    assert_bits_equal(tr._sign_pm1(arr), reference_sign_pm1(arr))


def test_sign_pm1_special_values():
    arr = np.array(SPECIAL, dtype=np.float32)
    assert tr._sign_pm1(arr).tolist() == [1, 1, -1, -1, 1, -1, 1, -1, 1, -1]


@pytest.mark.parametrize("shape", [(1,), (3, 5), (2, 3, 70), (1024, 784)])
def test_unpack_and_pm1_match_reference(shape):
    rng = np.random.default_rng(2)
    bits = rng.random(shape) < 0.5
    tensor = BitTensor.from_bool(bits)
    assert_bits_equal(tensor.unpack(), reference_unpack(tensor))
    for dtype in (np.int8, np.float32, np.float64):
        assert_bits_equal(pm1(bits, dtype), reference_pm1(bits, dtype))
        assert_bits_equal(pm1(bits.astype(np.uint8), dtype), reference_pm1(bits, dtype))


# ---------------------------------------------------------------------------
# straight-through weight mask
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", SHAPES)
def test_gate_weight_grad_matches_reference(shape, dtype):
    rng = np.random.default_rng(3)
    weight = (rng.standard_normal(shape) * 1.5).astype(dtype)  # many outside [-1, 1]
    flat = weight.reshape(-1)
    flat[: len(SPECIAL)] = np.array(SPECIAL, dtype=dtype)[: flat.size]
    dwb = rng.standard_normal(shape).astype(dtype)
    want = reference_gate_weight_grad(dwb, weight)
    got = tr._gate_weight_grad(dwb, weight)
    assert got is dwb  # in place
    assert_bits_equal(got, want)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

NETS = [((784, 1024, 1024, 10), 100), ((9, 7, 5, 3), 6), ((6, 3), 4)]  # (sizes, batch)


def _ste_case(sizes, batch, odd, dropout, dtype):
    """A model of `dtype` with latents on both sides of [-1, 1], and a +-1 batch.

    `odd` adds a row: the even batches of NETS can give +-1 columns that sum
    to 0, which hides the batch-mean terms of the batch-norm backward.
    """
    rng = np.random.default_rng(5)
    model = init_latent_model(sizes, dropout, rng)
    for layer in model.layers:
        # latents on both sides of the [-1, 1] window, so the weight gate acts
        layer.weight = rng.uniform(-1.5, 1.5, layer.weight.shape).astype(dtype)
        if not layer.is_output:
            for name in ("gamma", "beta", "run_mean", "run_var"):
                setattr(layer, name, getattr(layer, name).astype(dtype))
    x = pm1(rng.random((batch + odd, sizes[0])) < 0.5, dtype)
    return model, x, rng


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("odd", [0, 1])
@pytest.mark.parametrize("sizes,batch", NETS)
def test_forward_train_matches_reference(sizes, batch, odd, dropout, dtype):
    model, x, rng = _ste_case(sizes, batch, odd, dropout, dtype)
    ref_model, ref_rng = copy.deepcopy(model), copy.deepcopy(rng)
    logits, cache = forward_train(model, x, rng)
    want_logits, want_cache = reference_forward_train(ref_model, x, ref_rng)

    assert_bits_equal(logits, want_logits)
    assert [e.keys() for e in cache] == [e.keys() for e in want_cache]
    for entry, want_entry in zip(cache, want_cache):
        for name, value in entry.items():
            if isinstance(value, np.ndarray):
                assert_bits_equal(value, want_entry[name])
            else:
                assert value == want_entry[name]
    for layer, ref_layer in zip(model.layers, ref_model.layers):
        if not layer.is_output:  # the running estimates moved the same way
            assert_bits_equal(layer.run_mean, ref_layer.run_mean)
            assert_bits_equal(layer.run_var, ref_layer.run_var)
    # the dropout masks took the same draws from the generator, in the same order
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert ("mask" in cache[0]) == (dropout > 0 and len(sizes) > 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("odd", [0, 1])
@pytest.mark.parametrize("sizes,batch", NETS)
def test_backward_ste_matches_reference(sizes, batch, odd, dropout, dtype):
    model, x, rng = _ste_case(sizes, batch, odd, dropout, dtype)
    logits, cache = forward_train(model, x, rng)
    _, grad = softmax_cross_entropy(logits, rng.integers(0, sizes[-1], len(x)))

    ref_cache = copy.deepcopy(cache)
    if len(sizes) == 2:
        # the earlier forward pass also cached the signs of a lone output layer
        ref_cache[0]["wb"] = reference_sign_pm1(model.layers[0].weight)
    want = reference_backward_ste(model, ref_cache, grad)
    got = backward_ste(model, cache, grad)
    assert cache == []  # consumed
    assert [g.keys() for g in got] == [w.keys() for w in want]
    for got_layer, want_layer in zip(got, want):
        for name in got_layer:
            assert_bits_equal(got_layer[name], want_layer[name])
    assert np.any(got[0]["weight"] == 0.0)  # the gate took part


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def _adam_pair(shape, param_dtype, rng):
    """Two identical one-layer models: a clipped `weight` and an unclipped `beta`."""
    weight = rng.uniform(-1, 1, shape).astype(param_dtype)
    beta = rng.standard_normal(shape).astype(param_dtype)

    def make():
        layer = LatentDenseLayer(weight.copy(), None, beta.copy(), None, None)
        return LatentModel([layer], dropout=0.0)

    return make(), make()


@pytest.mark.parametrize("param_dtype,grad_dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
def test_adam_step_matches_reference(shape, param_dtype, grad_dtype):
    rng = np.random.default_rng(4)
    fast, ref = _adam_pair(shape, param_dtype, rng)
    fast_state, ref_state = AdamState(), AdamState()
    config = TrainConfig(learning_rate=0.05)  # large enough for weights to hit the clip
    for t in range(1, STEPS + 1):
        grads = [
            {
                "weight": rng.standard_normal(shape).astype(grad_dtype),
                "beta": (rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)).astype(
                    grad_dtype
                ),
            }
        ]
        grads[0]["weight"].reshape(-1)[:1] = 0.0
        adam_step(fast, grads, fast_state, config, t)
        reference_adam_step(ref, grads, ref_state, config, t)
        for name in ("weight", "beta"):
            assert_bits_equal(getattr(fast.layers[0], name), getattr(ref.layers[0], name))
            assert_bits_equal(fast_state.m[(0, name)], ref_state.m[(0, name)])
            assert_bits_equal(fast_state.v[(0, name)], ref_state.v[(0, name)])
    weight = fast.layers[0].weight
    if weight.size > 100:
        assert np.any(np.abs(weight) == 1.0)  # the clip took part


def test_adam_step_refuses_gradient_of_another_shape():
    model = LatentModel([LatentDenseLayer(np.zeros((3, 5)), None, None, None, None, True)], 0.0)
    state = AdamState()
    with pytest.raises(ValueError, match=r"gradient shape \(1, 5\) differs"):
        adam_step(model, [{"weight": np.ones((1, 5))}], state, TrainConfig(), 1)
    assert not state.m  # nothing was updated or allocated
    assert np.all(model.layers[0].weight == 0.0)


def test_adam_step_refuses_parameter_it_cannot_update_in_place():
    model = LatentModel([LatentDenseLayer(np.zeros((5, 3)).T, None, None, None, None, True)], 0.0)
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_step(model, [{"weight": np.ones((3, 5))}], AdamState(), TrainConfig(), 1)


# ---------------------------------------------------------------------------
# batch-norm fold
# ---------------------------------------------------------------------------


def _fold_cases(rng, count):
    """Random (gamma, beta, mu, var, n), a third of them with an integer crossing."""
    n = rng.integers(1, 2048, count)
    scale = lambda: 10.0 ** rng.uniform(-3, 3, count)  # noqa: E731
    gamma = rng.standard_normal(count) * scale()
    beta = rng.standard_normal(count) * scale()
    mu = rng.standard_normal(count) * n / 3
    var = 10.0 ** rng.uniform(-4, 4, count)
    exact = rng.random(count) < 1 / 3  # beta = 0 and an integer mu: s* is an integer
    beta[exact] = 0.0
    mu[exact] = rng.integers(-n[exact] - 2, n[exact] + 3)
    return [tuple(case) + (int(k),) for case, k in zip(zip(gamma, beta, mu, var), n)]


FOLD_SPECIAL = [
    (0.0, 0.5, 1.0, 1.0, 8),
    (-0.0, 0.5, 1.0, 1.0, 8),
    (-0.0, -0.5, 1.0, 1.0, 8),
    (0.0, -0.0, 0.0, 1.0, 8),
    (1e-300, 1e300, 0.0, 1.0, 100),  # |beta/gamma| overflows: s* = -inf
    (-1e-300, 1e300, 0.0, 1.0, 100),
    (1e-300, -1e300, 0.0, 1.0, 100),
    (-1e-300, -1e300, 0.0, 1.0, 100),
    (1.0, -100.0, 0.0, 1.0, 8),  # s* clamped to n + 1
    (-1.0, -100.0, 0.0, 1.0, 8),
    (1.0, 100.0, 0.0, 1.0, 8),  # s* clamped to -(n + 1)
    (-1.0, 100.0, 0.0, 1.0, 8),
    (np.inf, 0.0, 3.0, 1.0, 8),  # gamma * 0 is NaN at s = mu
    (-np.inf, 0.0, 3.0, 1.0, 8),
    (2.0, 1.0, 3.0, 4.0, 10),
    (-2.0, 1.0, 3.0, 4.0, 10),
    (-1.0, -0.0, 0.0, 1.0, 8),
]


def test_fold_neuron_matches_two_branch_reference():
    rng = np.random.default_rng(2024)
    cases = _fold_cases(rng, 100_000) + FOLD_SPECIAL
    mismatches = [c for c in cases if tr._fold_neuron(*c) != reference_fold_neuron(*c)]
    assert mismatches == []
    assert sum(c[0] < 0 for c in cases) > 40_000  # the mirrored search is well covered


# ---------------------------------------------------------------------------
# a whole training run
# ---------------------------------------------------------------------------


def _train_bytes():
    data = synthetic_dataset(300, seed=31)  # 4 full batches of 64 and one of 44
    test = synthetic_dataset(100, seed=32)
    config = TrainConfig(epochs=2, batch_size=64, seed=8)
    latent, history = train(data, config, (784, 48, 32, 10), test)
    return dump_model(export_model(latent)), history


def test_train_matches_reference_formulas(monkeypatch):
    fast = _train_bytes()
    monkeypatch.setattr(tr, "_sign_pm1", reference_sign_pm1)
    monkeypatch.setattr(tr, "_gate_weight_grad", reference_gate_weight_grad)
    monkeypatch.setattr(tr, "backward_ste", reference_backward_ste)
    monkeypatch.setattr(tr, "adam_step", reference_adam_step)
    monkeypatch.setattr(tr, "_fold_neuron", reference_fold_neuron)
    monkeypatch.setattr(tr, "pm1", reference_pm1)
    monkeypatch.setattr(BitTensor, "unpack", reference_unpack)
    ref = _train_bytes()
    assert fast == ref
