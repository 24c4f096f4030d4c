import math
import tracemalloc

import numpy as np
import pytest

from bitflip_bnn import trainer as tr
from bitflip_bnn.bitcore import BitTensor, dump_model, model_predict_batch
from bitflip_bnn.errors import NumericError
from bitflip_bnn.mnist_io import Dataset
from bitflip_bnn.trainer import (
    ADAM_EPS,
    BN_EPS,
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


def random_pm1(rng, shape, dtype=np.float64):
    return np.where(rng.random(shape) < 0.5, 1.0, -1.0).astype(dtype)


def binarize_weights(latent: np.ndarray) -> BitTensor:
    """Pack the entry-wise sign of a latent weight matrix (sign(0) = +1)."""
    return BitTensor.from_bool(np.asarray(latent) >= 0)


def latent_predict(model: LatentModel, inputs: np.ndarray) -> np.ndarray:
    """Inference-mode classes of the latent model, in float64.

    A hidden layer fires iff gamma*(s-mu)/sqrt(var+BN_EPS)+beta >= 0 on its
    running statistics, s being the +-1 dot product with the weight signs;
    the class is the argmax of the output layer's dot products a @ sign(W).T.
    """
    a = np.asarray(inputs, dtype=np.float64)
    for layer in model.layers:
        s = a @ np.where(layer.weight >= 0, 1.0, -1.0).T
        if layer.is_output:
            return np.argmax(s, axis=1)
        mu, var = layer.run_mean.astype(np.float64), layer.run_var.astype(np.float64)
        gamma, beta = layer.gamma.astype(np.float64), layer.beta.astype(np.float64)
        a = np.where(gamma * (s - mu) / np.sqrt(var + BN_EPS) + beta >= 0.0, 1.0, -1.0)
    raise AssertionError("model has no output layer")


# ---------------------------------------------------------------------------
# weight binarization
# ---------------------------------------------------------------------------


def test_binarize_weights_signs():
    bits = binarize_weights(np.array([[0.3, -0.7]]))
    assert bits.unpack().tolist() == [[1, -1]]


def test_binarize_weights_zero_ties_positive():
    bits = binarize_weights(np.zeros((2, 3)))
    assert np.all(bits.unpack() == 1)


def test_binarize_weights_random_elementwise():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((13, 21))
    got = binarize_weights(w).unpack()
    assert np.array_equal(got, np.where(w >= 0, 1, -1))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def _toy_model(rng, sizes=(4, 3, 2), dropout=0.0, dtype=np.float64):
    model = init_latent_model(sizes, dropout, rng)
    for layer in model.layers:  # promote to requested dtype
        layer.weight = layer.weight.astype(dtype)
        if not layer.is_output:
            for name in ("gamma", "beta", "run_mean", "run_var"):
                setattr(layer, name, getattr(layer, name).astype(dtype))
    return model


def test_preactivation_is_pm1_dot_product():
    # the normalized pre-activation is (x . sign(W) - batch mean) / batch std,
    # and the running estimates move a tenth of the way to the batch's
    rng = np.random.default_rng(1)
    model = _toy_model(rng)
    x = random_pm1(rng, (5, 4))
    layer = model.layers[0]
    layer.run_mean = rng.normal(size=layer.out_features)
    layer.run_var = rng.uniform(0.5, 2.0, size=layer.out_features)
    run_mean, run_var = layer.run_mean.copy(), layer.run_var.copy()
    _, cache = forward_train(model, x, rng)
    s = x @ np.where(layer.weight >= 0, 1.0, -1.0).T
    istd = 1.0 / np.sqrt(s.var(axis=0) + BN_EPS)
    assert np.array_equal(cache[0]["s_hat"], (s - s.mean(axis=0)) * istd)
    assert np.allclose(layer.run_mean, 0.9 * run_mean + 0.1 * s.mean(axis=0))
    assert np.allclose(layer.run_var, 0.9 * run_var + 0.1 * s.var(axis=0))


def test_single_neuron_batchnorm_hand_computed():
    # one hidden neuron, batch of two: mu and sigma^2 are scalar arithmetic
    model = LatentModel(
        [
            LatentDenseLayer(
                weight=np.array([[1.0, 1.0]]),
                gamma=np.array([2.0]),
                beta=np.array([0.5]),
                run_mean=np.array([0.0]),
                run_var=np.array([1.0]),
            ),
            LatentDenseLayer(np.array([[1.0]]), None, None, None, None, True),
        ],
        dropout=0.0,
    )
    x = np.array([[1.0, 1.0], [1.0, -1.0]])  # s = [2, 0]
    _, cache = forward_train(model, x, np.random.default_rng(0))
    mu, var = 1.0, 1.0  # mean of [2,0], biased variance
    z0 = 2.0 * (2.0 - mu) / math.sqrt(var + BN_EPS) + 0.5
    z1 = 2.0 * (0.0 - mu) / math.sqrt(var + BN_EPS) + 0.5
    assert cache[0]["z"][:, 0] == pytest.approx([z0, z1])


def test_identical_samples_produce_identical_rows():
    rng = np.random.default_rng(2)
    model = _toy_model(rng, (6, 4, 3))
    row = random_pm1(rng, (1, 6))
    batch = np.repeat(row, 2, axis=0)
    logits, _ = forward_train(model, batch, rng)
    assert np.array_equal(logits[0], logits[1])


def test_output_logit_scale_is_inverse_sqrt_fan_in():
    rng = np.random.default_rng(3)
    model = _toy_model(rng, (4, 9, 2))
    x = random_pm1(rng, (3, 4))
    logits, cache = forward_train(model, x, rng)
    wb = np.where(model.layers[1].weight >= 0, 1.0, -1.0)
    assert np.allclose(logits * math.sqrt(9), cache[1]["x"] @ wb.T)


# ---------------------------------------------------------------------------
# straight-through estimator gates
# ---------------------------------------------------------------------------


def _gate_probe(z_target: float):
    """1-1-1 net rigged so the hidden pre-sign value equals z_target; returns
    the gradient that reaches beta, which is the gated activation gradient."""
    model = LatentModel(
        [
            LatentDenseLayer(
                weight=np.array([[0.5]]),  # binarizes to +1
                gamma=np.array([1.0]),
                beta=np.array([z_target]),  # one row is its batch's mean: s_hat = 0, z = beta
                run_mean=np.array([0.0]),
                run_var=np.array([1.0]),
            ),
            LatentDenseLayer(np.array([[0.5]]), None, None, None, None, True),
        ],
        dropout=0.0,
    )
    x = np.array([[1.0]])
    logits, cache = forward_train(model, x, np.random.default_rng(0))
    assert cache[0]["z"][0, 0] == z_target
    grads = backward_ste(model, cache, np.ones_like(logits))
    return grads[0]["beta"][0]


def test_ste_gate_open_inside_window():
    assert _gate_probe(0.5) != 0.0


def test_ste_gate_closed_outside_window():
    assert _gate_probe(1.5) == 0.0


def test_ste_gate_boundary_passes():
    assert _gate_probe(1.0) != 0.0


def test_weight_gate_zeroes_saturated_latents():
    rng = np.random.default_rng(6)
    model = _toy_model(rng, (3, 2, 2))
    model.layers[-1].weight = np.array([[1.5, 0.5], [0.5, -2.0]])  # out-of-range latents
    x = random_pm1(rng, (4, 3))
    logits, cache = forward_train(model, x, rng)
    grads = backward_ste(model, cache, np.ones_like(logits))
    gate = np.abs(model.layers[-1].weight) <= 1.0
    assert np.all(grads[-1]["weight"][~gate] == 0.0)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def _scalar_model():
    return LatentModel(
        [LatentDenseLayer(np.array([[0.5]]), None, None, None, None, True)], 0.0
    )


def test_adam_zero_gradient_keeps_parameters():
    model = _scalar_model()
    config = TrainConfig(epochs=1, batch_size=1)
    state = AdamState()
    adam_step(model, [{"weight": np.zeros((1, 1))}], state, config, 1)
    assert model.layers[0].weight[0, 0] == 0.5


def test_adam_scalar_hand_computed_first_step():
    model = _scalar_model()
    config = TrainConfig(epochs=1, batch_size=1)
    g = 0.2
    adam_step(model, [{"weight": np.array([[g]])}], AdamState(), config, 1)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expected = 0.5 - config.learning_rate * g / (abs(g) + ADAM_EPS)
    assert model.layers[0].weight[0, 0] == pytest.approx(expected, rel=1e-12)


def test_adam_constant_gradient_moves_monotonically():
    model = _scalar_model()
    config = TrainConfig(epochs=1, batch_size=1)
    state = AdamState()
    seen = [model.layers[0].weight[0, 0]]
    for t in range(1, 40):
        adam_step(model, [{"weight": np.array([[0.3]])}], state, config, t)
        seen.append(model.layers[0].weight[0, 0])
    assert all(a > b for a, b in zip(seen, seen[1:]))  # strictly toward -g direction
    assert seen[0] - seen[-1] == pytest.approx(39 * config.learning_rate, rel=0.05)


def test_adam_clips_latent_weights():
    model = _scalar_model()
    model.layers[0].weight[0, 0] = 0.9999999
    config = TrainConfig(epochs=1, batch_size=1, learning_rate=0.5)
    adam_step(model, [{"weight": np.array([[-1.0]])}], AdamState(), config, 1)
    assert model.layers[0].weight[0, 0] == 1.0


def test_adam_rejects_step_zero():
    with pytest.raises(ValueError):
        adam_step(_scalar_model(), [{"weight": np.zeros((1, 1))}], AdamState(), TrainConfig(), 0)


# ---------------------------------------------------------------------------
# gradient check (full precision)
# ---------------------------------------------------------------------------


def full_precision_forward(model: LatentModel, x: np.ndarray):
    """forward_train with binarization as the identity (wb = W, a = z) and no
    dropout; returns the logits and the cache backward_ste reads."""
    cache = []
    act = x
    for i, layer in enumerate(model.layers):
        s = act @ layer.weight.T
        entry = {"x": act}
        if i > 0:
            entry["wb"] = layer.weight
        if layer.is_output:
            entry["scale"] = 1.0 / math.sqrt(layer.in_features)
            cache.append(entry)
            return s * entry["scale"], cache
        istd = 1.0 / np.sqrt(s.var(axis=0) + BN_EPS)
        s_hat = (s - s.mean(axis=0)) * istd
        z = layer.gamma * s_hat + layer.beta
        entry.update({"s_hat": s_hat, "z": z, "istd": istd})
        cache.append(entry)
        act = z
    raise AssertionError("model has no output layer")


def test_gradients_match_finite_differences():
    # with every straight-through gate open, backward_ste is the exact
    # gradient of the full-precision network
    rng = np.random.default_rng(8)
    model = _toy_model(rng, (2, 2, 2), dtype=np.float64)
    for layer in model.layers:
        layer.weight[...] = rng.uniform(-0.9, 0.9, layer.weight.shape)
    model.layers[0].gamma[...] = [0.3, -0.3]
    model.layers[0].beta[...] = [0.1, -0.2]
    # an odd batch: the batch-mean term of the BN backward reaches the weight
    # gradient through the column sums of x, which a +-1 column of even
    # length can zero
    x = random_pm1(rng, (5, 2))
    labels = np.array([0, 1, 1, 0, 1])

    def loss_fn():
        logits, cache = full_precision_forward(model, x)
        loss, grad = softmax_cross_entropy(logits, labels)
        return loss, cache, grad

    loss, cache, grad = loss_fn()
    assert np.all(np.abs(cache[0]["z"]) <= 1.0)  # the activation gate is open
    assert all(np.all(np.abs(layer.weight) <= 1.0) for layer in model.layers)
    grads = backward_ste(model, cache, grad)

    h = 1e-6
    worst = 0.0
    for li, layer in enumerate(model.layers):
        for name in ("weight", "gamma", "beta"):
            param = getattr(layer, name, None)
            if param is None or name not in grads[li]:
                continue
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + h
                up, _, _ = loss_fn()
                param[idx] = orig - h
                dn, _, _ = loss_fn()
                param[idx] = orig
                numeric = (up - dn) / (2 * h)
                analytic = grads[li][name][idx]
                rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
                worst = max(worst, rel)
    assert worst <= 1e-4


# ---------------------------------------------------------------------------
# threshold folding / export
# ---------------------------------------------------------------------------


def test_fold_symmetric_case():
    # gamma=1, beta=0, mu=0: fires iff s >= 0, T = ceil(n/2)
    for n in (7, 8, 100):
        negate, t = tr._fold_neuron(1.0, 0.0, 0.0, 1.0, n)
        assert not negate
        assert t == math.ceil(n / 2)


def test_fold_scalar_inequality_case():
    # gamma=2, beta=1, mu=3, var=4: z = (s-3) + 1 >= 0 iff s >= 2 (computed
    # from the scalar inequality; T = ceil((n+2)/2))
    n = 10
    negate, t = tr._fold_neuron(2.0, 1.0, 3.0, 4.0, n)
    assert not negate
    assert t == math.ceil((n + 2) / 2) == 6


def test_fold_negative_gamma_flips_row():
    # gamma<0: fires iff s <= s*, realized by negating the stored row
    n = 8
    negate, t = tr._fold_neuron(-1.0, 0.0, 0.0, 1.0, n)
    assert negate
    assert t == math.ceil(n / 2)  # fires for popcount' >= 4  <=>  s <= 0


def test_fold_zero_gamma_constant_neuron():
    assert tr._fold_neuron(0.0, 0.5, 1.0, 1.0, 8) == (False, 0)  # always fires
    assert tr._fold_neuron(0.0, -0.5, 1.0, 1.0, 8) == (False, 9)  # never fires


def test_fold_out_of_range_crossing_saturates():
    n = 8
    _, t_never = tr._fold_neuron(1.0, -100.0, 0.0, 1.0, n)
    assert t_never == n + 1
    _, t_always = tr._fold_neuron(1.0, 100.0, 0.0, 1.0, n)
    assert t_always == 0


def _random_hidden_layer(rng, n_out, n_in):
    gamma = rng.standard_normal(n_out)
    gamma[rng.random(n_out) < 0.1] = 0.0  # include degenerate scales
    return LatentDenseLayer(
        weight=rng.uniform(-1, 1, size=(n_out, n_in)),
        gamma=gamma,
        beta=rng.standard_normal(n_out),
        run_mean=rng.standard_normal(n_out) * math.sqrt(n_in),
        run_var=rng.uniform(0.5, 2.0, size=n_out) * n_in,
    )


def test_folding_matches_batchnorm_sign_exactly():
    # the acceptance criterion at reduced scale: every neuron's integer
    # decision equals the float64 batchnorm sign on random inputs
    rng = np.random.default_rng(9)
    n_in, n_out, n_samples = 96, 40, 2000
    layer = _random_hidden_layer(rng, n_out, n_in)
    model = LatentModel(
        [layer, LatentDenseLayer(rng.uniform(-1, 1, size=(3, n_out)), None, None, None, None, True)],
        dropout=0.0,
    )
    exported = export_model(model)

    x = random_pm1(rng, (n_samples, n_in))
    wb = np.where(layer.weight >= 0, 1.0, -1.0)
    s = x @ wb.T
    d = np.sqrt(layer.run_var + BN_EPS)
    real_fire = layer.gamma * (s - layer.run_mean) / d + layer.beta >= 0.0

    from bitflip_bnn.bitcore import linear_forward

    bits = linear_forward(exported.layers[0], BitTensor.from_signs(x.astype(np.int8)))
    assert np.array_equal(bits.unpack() == 1, real_fire)


def test_export_rejects_nonpositive_variance():
    rng = np.random.default_rng(10)
    layer = _random_hidden_layer(rng, 4, 8)
    layer.run_var = np.array([1.0, 0.0, 1.0, 1.0])
    model = LatentModel(
        [layer, LatentDenseLayer(rng.uniform(-1, 1, (2, 4)), None, None, None, None, True)],
        dropout=0.0,
    )
    with pytest.raises(ValueError, match="variance"):
        export_model(model)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["weight", "gamma", "beta", "run_mean", "run_var"])
def test_export_refuses_non_finite_parameters(name, value):
    rng = np.random.default_rng(12)
    model = LatentModel(
        [
            _random_hidden_layer(rng, 4, 8),
            _random_hidden_layer(rng, 3, 4),
            LatentDenseLayer(rng.uniform(-1, 1, (2, 3)), None, None, None, None, True),
        ],
        dropout=0.0,
    )
    getattr(model.layers[1], name)[-1] = value
    with pytest.raises(NumericError, match=f"layer 1 {name} is not finite"):
        export_model(model)


def test_exported_model_agrees_with_latent_forward(synth_latent, synth_model):
    rng = np.random.default_rng(11)
    x = random_pm1(rng, (1000, 784), dtype=np.float32)
    latent_classes = latent_predict(synth_latent, x)
    exported_classes = model_predict_batch(synth_model, BitTensor.from_signs(x.astype(np.int8)))
    assert np.array_equal(latent_classes, exported_classes)


def test_exported_output_layer_has_zero_thresholds(synth_model):
    assert np.all(synth_model.layers[-1].thresholds == 0)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _toy_training_run(seed, steps=50):
    rng = np.random.default_rng(seed)
    model = init_latent_model((2, 2, 2), 0.0, rng)
    for layer in model.layers:
        layer.weight = layer.weight.astype(np.float64)
        if not layer.is_output:
            for name in ("gamma", "beta", "run_mean", "run_var"):
                setattr(layer, name, getattr(layer, name).astype(np.float64))
    x = random_pm1(rng, (16, 2))
    labels = (x[:, 0] > 0).astype(np.int64)
    # progress in a binarized net happens through latent sign flips; the
    # learning rate is sized so flips can happen inside the 50-step window
    config = TrainConfig(epochs=1, batch_size=16, learning_rate=5e-2, seed=seed)
    state = AdamState()
    losses = []
    for t in range(1, steps + 1):
        logits, cache = forward_train(model, x, rng)
        loss, grad = softmax_cross_entropy(logits, labels)
        backward = backward_ste(model, cache, grad)
        adam_step(model, backward, state, config, t)
        losses.append(loss)
    return losses


def test_toy_training_reduces_loss():
    losses = _toy_training_run(seed=0)
    assert losses[-1] < losses[0]


def test_toy_training_mostly_non_increasing_across_seeds():
    # STE training is noisy; compare the first and last 10-step windows
    improved = 0
    for seed in range(10):
        losses = _toy_training_run(seed)
        if np.mean(losses[-10:]) <= np.mean(losses[:10]):
            improved += 1
    assert improved >= 9


def test_train_deterministic_and_returns_history():
    data = synthetic_dataset(300, seed=21)
    test = synthetic_dataset(100, seed=22)
    config = TrainConfig(epochs=2, batch_size=30, seed=5)

    model_a, hist_a = train(data, config, (784, 32, 10), test)
    model_b, hist_b = train(data, config, (784, 32, 10), test)
    assert hist_a == hist_b
    assert dump_model(export_model(model_a)) == dump_model(export_model(model_b))

    assert len(hist_a) == 2
    epoch, loss, acc = hist_a[0]
    assert epoch == 1 and loss > 0 and 0.0 <= acc <= 1.0


def test_train_different_seeds_differ():
    data = synthetic_dataset(200, seed=23)
    a, _ = train(data, TrainConfig(epochs=1, batch_size=50, seed=1), (784, 16, 10))
    b, _ = train(data, TrainConfig(epochs=1, batch_size=50, seed=2), (784, 16, 10))
    assert dump_model(export_model(a)) != dump_model(export_model(b))


def test_train_learns_synthetic_task(synth_latent, synth_model, synth_test):
    from bitflip_bnn.faultsim import accuracy

    assert accuracy(synth_model, synth_test) > 0.95


def test_train_validates_feature_count():
    images = np.zeros((10, 5, 5), dtype=np.float32)
    labels = np.zeros(10, dtype=np.int64)
    with pytest.raises(ValueError, match="features"):
        train(Dataset(images, labels), TrainConfig(epochs=1, batch_size=5), (784, 8, 10))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


def test_mnist_one_epoch_smoke(mnist_dir):
    import time

    from bitflip_bnn.mnist_io import load_dataset

    train_set = load_dataset(mnist_dir, "train").take(1000)
    test_set = load_dataset(mnist_dir, "test")
    started = time.monotonic()
    _, history = train(
        train_set, TrainConfig(epochs=1, batch_size=100, seed=0), test_data=test_set
    )
    assert time.monotonic() - started < 120
    assert history[-1][2] > 0.60


def test_train_holds_no_float_copy_of_the_split():
    rng = np.random.default_rng(41)
    data = Dataset(rng.random((4000, 28, 28)) < 0.5, rng.integers(0, 10, 4000))
    float32_split = data.images.size * 4
    tracemalloc.start()
    try:
        train(data, TrainConfig(epochs=1, seed=3), (784, 16, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a float32 copy of the split (12 MiB) would be four times over the bound
    assert peak < float32_split / 4


def test_train_step_frees_each_array_at_its_last_use():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    inputs = BitTensor.from_bool(rng.random((200, 784)) < 0.5)
    labels = rng.integers(0, 10, 200)
    config = TrainConfig()
    tracemalloc.start()
    try:
        model = init_latent_model(tr.MNIST_LAYER_SIZES, tr.DROPOUT, rng)
        state = AdamState()
        tr._train_step(model, inputs, labels, np.arange(100), rng, state, config, 1)
        before, _ = tracemalloc.get_traced_memory()  # model and Adam moments
        tracemalloc.reset_peak()
        tr._train_step(model, inputs, labels, np.arange(100, 200), rng, state, config, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # numpy reports its buffers to tracemalloc, so the figure is the same on
    # every run: 10.4 MiB, reached as the backward pass ends at the first
    # layer with both hidden weight gradients (7.1 MiB) alive; 21 MiB when the
    # signs of every layer and whole-array gate masks lived through the step
    assert peak - before <= 12 * 2**20


def test_train_on_binarized_dataset_gives_identical_model_and_history():
    # gray levels as load_dataset makes them, so the threshold is exercised
    rng = np.random.default_rng(31)
    pixels = rng.integers(0, 256, (240, 28, 28), dtype=np.uint8)
    images = pixels.astype(np.float32) / 255.0
    data = Dataset(images[:180], rng.integers(0, 10, 180))
    test = Dataset(images[180:], rng.integers(0, 10, 60))
    config = TrainConfig(epochs=2, batch_size=30, seed=9)

    model_f, hist_f = train(data, config, (784, 16, 10), test)
    bits = Dataset(pixels[:180] >= 128, data.labels)
    test_bits = Dataset(pixels[180:] >= 128, test.labels)
    model_b, hist_b = train(bits, config, (784, 16, 10), test_bits)
    assert hist_f == hist_b
    assert dump_model(export_model(model_f)) == dump_model(export_model(model_b))


@pytest.mark.parametrize("field", ["learning_rate"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_train_config_refuses_non_finite_step_sizes(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        TrainConfig(**{field: value})
