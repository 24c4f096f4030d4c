"""Training of the fully connected binarized network on latent real weights.

Forward and backward passes use the sign of the latent weights; the latent
values themselves receive the updates (Adam) and are clipped to [-1, 1].
Gradients cross the sign nonlinearity through a straight-through estimator:
the activation gradient passes where the pre-sign input lies in [-1, 1] and
is zeroed outside, and the weight gradient passes where the latent weight
lies in [-1, 1].

Hidden layers apply per-neuron batch normalization before the sign, which at
export time folds into the integer popcount threshold of the inference
engine. The output layer is kept free of per-class normalization (fixed
1/sqrt(fan_in) temperature into softmax cross-entropy instead) so that the
exported integer scores reproduce the trained classifier exactly; its
exported thresholds are zero.

Adam's decay rates and epsilon (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) and the
training dropout rate of hidden activations (DROPOUT) are module constants;
TrainConfig holds the epochs, batch size, learning rate and seed. The Adam
update runs in place on cache-sized blocks of each parameter, with the same
float operations, in the same order and dtypes, as the whole-array
expression. Within a step each large array lives until its last use: the
forward cache keeps the weight signs of every layer but the first, and the
backward pass pops each layer's cache entry and drops its signs before it
allocates that layer's weight gradient.

Reproducibility: a single seeded RNG stream is consumed in a fixed order --
weight init (layer order), then per epoch one shuffle, then per step the
dropout masks (layer order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitcore import BinarizedLinearLayer, BitTensor, BnnModel, _unpack_bits, pm1
from .errors import NumericError
from .faultsim import accuracy
from .mnist_io import Dataset, binarize_input

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # running = (1-m)*running + m*batch
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DROPOUT = 0.2  # hidden activations dropped per training step

MNIST_LAYER_SIZES = (784, 1024, 1024, 10)

# Elements per Adam block. A float32 block of param, grad, m, v and the three
# scratch buffers spans 1.75 MiB, inside a 2 MiB per-core L2. One step over the
# 784-1024-1024-10 parameters on a 2-vCPU Xeon: 7.6-9.7 ms at 32k-128k
# elements, 11 ms at 16k and at 256k, 27 ms for the whole-array expression.
_ADAM_BLOCK = 65_536


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 100
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate!r}"
            )


@dataclass
class LatentDenseLayer:
    """Latent real weights plus batchnorm state for one dense layer."""

    weight: np.ndarray  # (out, in), clipped to [-1, 1]
    gamma: np.ndarray | None  # hidden layers only
    beta: np.ndarray | None
    run_mean: np.ndarray | None
    run_var: np.ndarray | None
    is_output: bool = False

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]


@dataclass
class LatentModel:
    """Trainable shadow of a BnnModel: real weights and normalization stats."""

    layers: list[LatentDenseLayer]
    dropout: float


def init_latent_model(
    layer_sizes: tuple[int, ...], dropout: float, rng: np.random.Generator
) -> LatentModel:
    """Glorot-uniform float32 latent weights; batchnorm starts at identity."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    layers = []
    for i in range(len(layer_sizes) - 1):
        n_in, n_out = layer_sizes[i], layer_sizes[i + 1]
        limit = math.sqrt(6.0 / (n_in + n_out))
        weight = rng.uniform(-limit, limit, size=(n_out, n_in)).astype(np.float32)
        is_output = i == len(layer_sizes) - 2
        if is_output:
            layers.append(LatentDenseLayer(weight, None, None, None, None, True))
        else:
            layers.append(
                LatentDenseLayer(
                    weight,
                    np.ones(n_out, dtype=np.float32),
                    np.zeros(n_out, dtype=np.float32),
                    np.zeros(n_out, dtype=np.float32),
                    np.ones(n_out, dtype=np.float32),
                    False,
                )
            )
    return LatentModel(layers, dropout)


def _sign_pm1(arr: np.ndarray) -> np.ndarray:
    """Sign with the +1 tie convention (-0.0 -> +1, NaN -> -1), preserving dtype."""
    return pm1(arr >= 0, arr.dtype)


def forward_train(model: LatentModel, batch: np.ndarray, rng: np.random.Generator):
    """Training forward pass over a (B, in) batch of +-1 inputs.

    Returns (logits, cache). Weights and hidden activations are binarized,
    hidden layers normalize by the batch statistics (updating the running
    estimates), and dropout masks are drawn from `rng`. This is the one mode:
    the latent model has no inference pass of its own, because its inference
    form is the exported BNN1 model (export_model), which folds the running
    statistics into popcount thresholds. The cache is the list of per-layer
    entries that backward_ste reads, which it consumes.
    """
    x = np.asarray(batch)
    if x.ndim != 2:
        raise ValueError("batch must be 2-D (samples, features)")

    cache = []
    act = x
    for i, layer in enumerate(model.layers):
        wb = _sign_pm1(layer.weight)
        s = act @ wb.T
        entry = {"x": act}
        if i > 0:  # backward_ste reads the signs of every layer but the first
            entry["wb"] = wb
        del wb  # layer 0's signs go before the next layer's are built
        if layer.is_output:
            scale = 1.0 / math.sqrt(layer.in_features)
            logits = s * scale
            entry["scale"] = scale
            cache.append(entry)
            return logits, cache

        mu = s.mean(axis=0)
        var = s.var(axis=0)
        layer.run_mean = (
            (1.0 - BN_MOMENTUM) * layer.run_mean + BN_MOMENTUM * mu
        ).astype(layer.run_mean.dtype)
        layer.run_var = (
            (1.0 - BN_MOMENTUM) * layer.run_var + BN_MOMENTUM * var
        ).astype(layer.run_var.dtype)
        istd = 1.0 / np.sqrt(var + BN_EPS)
        s_hat = (s - mu) * istd
        # freed before z and a are allocated: kept until the next layer's
        # product replaces it, it raised the train command's peak (manifest
        # VmHWM, 1 epoch on 3k images, 2-vCPU Xeon, seeds 1 and 2) from 71.5
        # to 74.5 MiB
        del s
        z = layer.gamma * s_hat + layer.beta
        a = _sign_pm1(z)
        entry.update({"s_hat": s_hat, "z": z, "istd": istd})

        if model.dropout > 0:
            keep = 1.0 - model.dropout
            mask = rng.random(a.shape) < keep
            a = a * mask / keep
            entry["mask"] = mask
            entry["keep"] = keep
        cache.append(entry)
        act = a
    raise AssertionError("model has no output layer")


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and its gradient w.r.t. the logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = len(labels)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def _gate_weight_grad(dwb: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Zero, in place, the gradient of latent weights outside [-1, 1]; returns dwb.

    Runs over blocks of whole rows of about _ADAM_BLOCK elements, so the masks
    stay block-sized.
    """
    rows = max(1, _ADAM_BLOCK // max(1, dwb[:1].size))
    for lo in range(0, len(dwb), rows):
        g, w = dwb[lo : lo + rows], weight[lo : lo + rows]
        # two comparisons give the mask of |w| <= 1 (NaN and ±inf excluded)
        # without a float copy of the weights
        np.multiply(g, (w >= -1.0) & (w <= 1.0), out=g)
    return dwb


def backward_ste(model: LatentModel, cache: list[dict], grad_logits: np.ndarray) -> list[dict]:
    """Backprop of forward_train's one mode; returns per-layer grads.

    Sign gradients are straight-through: the activation gradient passes where
    the pre-sign value lies in [-1, 1] and the weight gradient where the
    latent weight does. The hidden layers' batch statistics take part in the
    graph. Consumes the cache: each layer's entry is popped when its layer is
    reached, and a layer's signs are dropped as soon as the activation
    gradient below it is computed, before the weight gradient is allocated.
    `cache` is empty afterwards.
    """
    grads: list[dict] = [None] * len(model.layers)

    entry = cache.pop()
    layer = model.layers[-1]
    ds = grad_logits * entry["scale"]
    if len(model.layers) > 1:
        da = ds @ entry.pop("wb")
    dwb = ds.T @ entry["x"]
    grads[-1] = {"weight": _gate_weight_grad(dwb, layer.weight)}

    for i in range(len(model.layers) - 2, -1, -1):
        layer = model.layers[i]
        entry = cache.pop()
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
        if i > 0:
            da = ds @ entry.pop("wb")
        dwb = ds.T @ entry["x"]
        dw = _gate_weight_grad(dwb, layer.weight)
        grads[i] = {"weight": dw, "gamma": dgamma, "beta": dbeta}
    return grads


class AdamState:
    """First/second moment accumulators, keyed by (layer index, param name)."""

    def __init__(self):
        self.m: dict[tuple[int, str], np.ndarray] = {}
        self.v: dict[tuple[int, str], np.ndarray] = {}

    def slot(self, key, like: np.ndarray):
        if key not in self.m:
            self.m[key] = np.zeros_like(like)
            self.v[key] = np.zeros_like(like)
        return self.m[key], self.v[key]


def adam_step(
    model: LatentModel,
    grads: list[dict],
    state: AdamState,
    config: TrainConfig,
    t: int,
) -> None:
    """One bias-corrected Adam update; latent weights re-clipped to [-1, 1].

    Each gradient must have its parameter's shape. Per element the update is

        m += (1 - b1) * (grad - m);  v += (1 - b2) * (grad * grad - v)
        param -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

    computed in place, block by block, with the float operations and dtypes
    of that whole-array expression.
    """
    if t < 1:
        raise ValueError("Adam step index starts at 1")
    for i, (layer, layer_grads) in enumerate(zip(model.layers, grads)):
        for name, grad in layer_grads.items():
            param = getattr(layer, name)
            grad = np.asarray(grad)
            if grad.shape != param.shape:
                raise ValueError(
                    f"layer {i} {name}: gradient shape {grad.shape} differs from "
                    f"parameter shape {param.shape}"
                )
            if not param.flags.c_contiguous:
                raise ValueError(f"layer {i} {name}: parameter must be C-contiguous")
            m, v = state.slot((i, name), param)  # zeros_like: param's dtype and layout
            _adam_update(param, grad, m, v, config, t, clip=name == "weight")


def _adam_update(param, grad, m, v, config: TrainConfig, t: int, clip: bool) -> None:
    """Adam on one C-contiguous parameter, in place, in blocks of _ADAM_BLOCK elements."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    lr, eps = config.learning_rate, ADAM_EPS
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    # flat views; grad, which is only read, may come back as a copy
    param, grad, m, v = (a.reshape(-1) for a in (param, grad, m, v))
    size = min(param.size, _ADAM_BLOCK)
    diff_buf = np.empty(size, np.result_type(grad, m))  # grad - m, grad * grad - v
    m_hat_buf = np.empty(size, m.dtype)
    v_hat_buf = np.empty(size, m.dtype)
    for lo in range(0, param.size, _ADAM_BLOCK):
        blk = slice(lo, lo + _ADAM_BLOCK)
        p, g, mb, vb = param[blk], grad[blk], m[blk], v[blk]
        diff, m_hat, v_hat = diff_buf[: p.size], m_hat_buf[: p.size], v_hat_buf[: p.size]
        np.subtract(g, mb, out=diff)
        diff *= 1.0 - b1
        mb += diff
        np.multiply(g, g, out=diff)
        diff -= vb
        diff *= 1.0 - b2
        vb += diff
        np.divide(mb, c1, out=m_hat)
        np.divide(vb, c2, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += eps
        m_hat *= lr
        m_hat /= v_hat
        p -= m_hat
        if clip:
            np.clip(p, -1.0, 1.0, out=p)


# ---------------------------------------------------------------------------
# Export: fold batchnorm into integer popcount thresholds
# ---------------------------------------------------------------------------


def _fold_neuron(gamma: float, beta: float, mu: float, var: float, n: int):
    """(negate_row, threshold) for one hidden neuron.

    The neuron fires iff gamma*(s-mu)/sqrt(var+eps) + beta >= 0, where s is
    the +-1 dot product. The crossing is located from the closed form and
    then nudged by evaluating the same float expression at neighboring
    integers, so the integer decision agrees with the real-valued sign at
    every representable s, not just up to rounding of the crossing.

    A gamma < 0 neuron is the gamma > 0 case of the negated row, whose dot
    product is -s: negating gamma and mu gives gamma*(s-mu) the same value at
    -s (IEEE negation is exact, (-a)*(-b) == a*b, and >= 0 ignores the sign of
    a zero), so one search serves both.
    """
    d = math.sqrt(var + BN_EPS)
    if gamma == 0.0:
        return False, 0 if beta >= 0.0 else n + 1
    negate = gamma < 0
    if negate:
        gamma, mu = -gamma, -mu

    def fires(s: float) -> bool:
        return gamma * (s - mu) / d + beta >= 0.0

    s_star = mu - beta * d / gamma
    s_star = min(max(s_star, -(n + 1)), n + 1)
    s0 = math.ceil(s_star)
    while s0 > -(n + 1) and fires(s0 - 1):
        s0 -= 1
    while s0 <= n and not fires(s0):
        s0 += 1
    return negate, (s0 + n + 1) // 2  # fire iff popcount >= T


def export_model(model: LatentModel) -> BnnModel:
    """Compile the latent model into the packed integer-threshold form.

    Raises NumericError, naming the layer and the parameter, if any latent
    parameter is NaN or infinite (training diverged): such a neuron has no
    popcount threshold that means what it computed.
    """
    layers = []
    for i, layer in enumerate(model.layers):
        for name in ("weight", "gamma", "beta", "run_mean", "run_var"):
            value = getattr(layer, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise NumericError(f"layer {i} {name} is not finite: training diverged")
        signs = pm1(layer.weight >= 0, np.int8)
        n = layer.in_features
        thresholds = np.zeros(layer.out_features, dtype=np.int32)  # the output layer's
        if not layer.is_output:
            if np.any(layer.run_var <= 0):
                raise ValueError("running variance must be positive to export")
            for j in range(layer.out_features):
                negate, t_j = _fold_neuron(
                    float(layer.gamma[j]),
                    float(layer.beta[j]),
                    float(layer.run_mean[j]),
                    float(layer.run_var[j]),
                    n,
                )
                thresholds[j] = t_j
                if negate:
                    signs[j] = -signs[j]
        layers.append(
            BinarizedLinearLayer(BitTensor.from_signs(signs), thresholds, layer.is_output)
        )
    return BnnModel(layers)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _train_step(
    model: LatentModel,
    inputs: BitTensor,
    labels: np.ndarray,
    idx: np.ndarray,
    rng: np.random.Generator,
    state: AdamState,
    config: TrainConfig,
    t: int,
) -> float:
    """One Adam step on the packed input rows idx; returns the batch loss.

    The +-1 float32 batch, the cache and the gradients are this function's
    locals, so none of them outlives the step.
    """
    batch = pm1(_unpack_bits(inputs.words[idx], inputs.n_bits), np.float32)
    logits, cache = forward_train(model, batch, rng)
    loss, grad = softmax_cross_entropy(logits, labels[idx])
    grads = backward_ste(model, cache, grad)
    adam_step(model, grads, state, config, t)
    return loss


def train(
    data: Dataset,
    config: TrainConfig,
    layer_sizes: tuple[int, ...] = MNIST_LAYER_SIZES,
    test_data: Dataset | None = None,
    progress=None,
) -> tuple[LatentModel, list[tuple[int, float, float]]]:
    """Train on `data`; returns the latent model and per-epoch history.

    The training images are held packed, 1 bit per pixel, and each step
    unpacks only its own batch into +-1 float32 rows. History rows are
    (epoch, mean train loss, test accuracy of the exported model); a given
    `progress` is also called with each row as its epoch ends. train writes
    no file: the CLI writes the history as a CSV once the model is saved.
    """
    if len(data) == 0:
        raise ValueError("training set is empty")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    model = init_latent_model(layer_sizes, DROPOUT, rng)
    state = AdamState()

    inputs = binarize_input(data.images)
    if inputs.n_bits != layer_sizes[0]:
        raise ValueError(
            f"data has {inputs.n_bits} features but the model expects {layer_sizes[0]}"
        )
    labels = np.asarray(data.labels)

    history: list[tuple[int, float, float]] = []
    t = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(inputs.n_rows)
        losses = []
        for lo in range(0, len(order), config.batch_size):
            t += 1
            idx = order[lo : lo + config.batch_size]
            losses.append(_train_step(model, inputs, labels, idx, rng, state, config, t))
        train_loss = float(np.mean(losses))
        test_acc = (
            accuracy(export_model(model), test_data) if test_data is not None else float("nan")
        )
        history.append((epoch, train_loss, test_acc))
        if progress:
            progress(epoch, train_loss, test_acc)
    return model, history
