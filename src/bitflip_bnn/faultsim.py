"""Stochastic bit-flip injection into stored weights and accuracy sweeps.

Errors model imperfect programming of the memory holding the binarized
weights: each weight bit is XOR-flipped independently with probability BER,
once per trial (persistent write errors, not read disturb). Thresholds and
the network structure are assumed error-free, and padding bits are never
touched. Trials are independent; each derives its own RNG stream from
(master_seed, ber_index, trial_index), so a sweep is reproducible for any
execution order.

A sweep runs its trials in the calling process, in (ber, trial) order, and
scores each on one of two paths, chosen by BER alone:

* at or below INCREMENTAL_MAX_BER (a fixed constant, no flag or environment
  variable), an IncrementalEvaluator makes one clean pass over the dataset,
  and each trial reruns only the neurons whose weights hold a flip and the
  rows whose input those neurons changed;
* above it, each trial flips a copy and runs the full dense forward
  (_run_trial).

Both paths take their flips from flip_bits and compute the same integers,
so the accuracies, and every CSV built from them, are byte-identical
whichever path scored a trial. The cores share the work inside BLAS, whose
float32 sums are exact small integers, so the bytes do not depend on its
thread count either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .bitcore import (
    _MATRIX_CHUNK_ROWS,
    BinarizedLinearLayer,
    BitTensor,
    BnnModel,
    _hidden_words,
    _pack_bool_rows,
    _unpack_bits,
    model_predict_batch,
    pm1,
)
from .mnist_io import Dataset, binarize_input

# Trials at or below this BER are scored incrementally against a clean pass.
# On a 784-1024-1024-10 model and 10k rows (2-vCPU box, 2 BLAS threads) an
# update costs 0.10-0.11 s at 1e-4, 0.35-0.38 s at 1e-3 and 0.61-0.63 s at
# 1e-2, against 0.24-0.30 s for a dense trial. With the earlier evaluator,
# which kept every hidden layer's counts, the sweep-flat benchmark (seed 1,
# 10 pairs) ran at 35.1k items/s at 1e-4 against 32.8k at 1e-3 (faster in 8
# of 10 pairs), with peak RSS 127.5 MiB against 134.4 (lower in all 10).
INCREMENTAL_MAX_BER = 1e-4

# Weight bits per block of flip draws: a 1 MiB float64 block in place of one
# 8 MiB array of uniforms for a 1024x1024 layer.
_FLIP_BLOCK_BITS = 1 << 17


@dataclass
class SweepResult:
    """Per-trial accuracies plus per-BER mean and sample std."""

    bers: list[float]
    trials: int
    accuracies: np.ndarray  # (n_bers, trials)
    incremental_trials: int = 0  # trials scored by IncrementalEvaluator
    clean_pass_s: float = 0.0  # wall time of its clean pass
    mean_accuracy: np.ndarray = field(init=False)
    std_accuracy: np.ndarray = field(init=False)

    def __post_init__(self):
        self.accuracies = np.asarray(self.accuracies, dtype=np.float64)
        if self.accuracies.shape != (len(self.bers), self.trials):
            raise ValueError("accuracy matrix shape mismatch")
        if self.accuracies.size and (
            self.accuracies.min() < 0.0 or self.accuracies.max() > 1.0
        ):
            raise ValueError("accuracies must lie in [0,1]")
        self.mean_accuracy = self.accuracies.mean(axis=1)
        if self.trials > 1:
            self.std_accuracy = self.accuracies.std(axis=1, ddof=1)
        else:
            self.std_accuracy = np.zeros(len(self.bers))

    @property
    def dense_trials(self) -> int:
        return self.accuracies.size - self.incremental_trials


def trial_seed(master_seed: int, ber_index: int, trial_index: int) -> np.random.SeedSequence:
    """The fixed seed-splitting scheme for sweep trials."""
    return np.random.SeedSequence((master_seed, ber_index, trial_index))


def _flip_tensor(tensor: BitTensor, ber: float, rng: np.random.Generator) -> BitTensor:
    # uniforms are drawn a block of rows at a time, in row-major order, so the
    # stream is that of one rng.random(total_bits) without its float64 array
    n_bits = tensor.n_bits
    rows_per_block = max(1, _FLIP_BLOCK_BITS // n_bits)
    words = tensor.words.copy()
    for lo in range(0, tensor.n_rows, rows_per_block):
        block = words[lo : lo + rows_per_block]
        block ^= _pack_bool_rows(rng.random((len(block), n_bits)) < ber)
    return BitTensor(tensor.shape, words, validate=False)


def flip_bits(model: BnnModel, ber: float, seed) -> BnnModel:
    """Copy the model with each weight bit flipped independently at rate ber.

    Thresholds, layer structure and padding bits are untouched; the input
    model is never modified. `seed` may be an int, a SeedSequence or a
    Generator; layers consume one stream in order, so identical
    (model, ber, seed) always yields an identical faulty model.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must lie in [0,1], got {ber}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(
        np.random.PCG64(seed)
    )
    layers = [
        replace(layer, weights=_flip_tensor(layer.weights, ber, rng))
        for layer in model.layers
    ]
    return BnnModel(layers, model.input_shape, model.class_count)


def accuracy(model: BnnModel, dataset: Dataset) -> float:
    """Fraction of dataset samples whose predicted class matches the label."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    inputs = binarize_input(dataset.images)
    predictions = model_predict_batch(model, inputs)
    return float(np.mean(predictions == dataset.labels))


def _run_trial(args) -> tuple[int, int, float]:
    model, inputs, labels, ber, master_seed, ber_index, trial_index = args
    faulty = flip_bits(model, ber, trial_seed(master_seed, ber_index, trial_index))
    predictions = model_predict_batch(faulty, inputs)
    return ber_index, trial_index, float(np.mean(predictions == labels))


class IncrementalEvaluator:
    """Exact predictions of faulty copies of one linear model on fixed inputs.

    One clean pass, through the dense kernel's own chunk loop, stores the
    packed activations of every hidden layer and, for each hidden layer after
    the first, its agreement counts (int16, row-major: fan-in < 2^15). The
    first layer needs none: its input is the fixed inputs, so none of its
    rows ever changes. A faulty model is then scored layer by layer, in row
    chunks:

    * rows whose input changed get the stored counts plus (x' - x)/2 . W'
      over the changed input columns, a small +-1 float32 matmul that is
      exact on these integers;
    * neurons whose weight row holds a flip are rerun on every row of the
      layer's current input with the dense kernel;
    * the output layer is recomputed in full.

    Rows whose activations end up equal to the clean ones drop out, so each
    layer only carries the rows that really changed. The integers are the
    dense path's, so predictions equal model_predict_batch(faulty, inputs).
    """

    def __init__(self, model: BnnModel, inputs: BitTensor):
        if not self.supports(model):
            raise ValueError("incremental evaluation needs linear layers with fan-in < 2^15")
        n_in = model.layers[0].in_features
        if len(inputs.shape) != 2 or inputs.shape[1] != n_in:
            raise ValueError(f"expected inputs of {n_in} bits, got shape {inputs.shape}")
        self.model = model
        self.acts = [inputs.words]  # acts[l]: clean packed input of layer l
        self.counts = []  # counts[l]: clean agreement counts of hidden layer l > 0, (rows, out)
        for l, layer in enumerate(model.layers[:-1]):
            x = self.acts[-1]
            counts = np.empty((len(x), layer.out_features), dtype=np.int16) if l else None
            w, n = layer.weights.words, layer.in_features
            self.acts.append(_hidden_words(w, layer.thresholds, x, n, counts))
            self.counts.append(counts)

    @staticmethod
    def supports(model: BnnModel) -> bool:
        return all(
            isinstance(layer, BinarizedLinearLayer) and layer.in_features < 2**15
            for layer in model.layers
        )

    def predict(self, faulty: BnnModel) -> np.ndarray:
        """Class predictions of `faulty`, a copy of the model with flipped weight bits."""
        rows = np.empty(0, dtype=np.intp)  # input rows that differ from the clean pass
        new = self.acts[0][:0]  # their packed words
        for l, (clean, bad) in enumerate(zip(self.model.layers[:-1], faulty.layers[:-1])):
            rows, new = self._update_layer(l, clean, bad, rows, new)
        x = self.acts[-1].copy()
        x[rows] = new
        out = faulty.layers[-1]
        x = BitTensor((len(x), out.in_features), x, validate=False)
        return model_predict_batch(BnnModel([out]), x)

    def _update_layer(self, l, clean, bad, rows, new):
        """Hidden layer l's output rows that differ from the clean pass, and their words.

        `rows` (ascending) and `new` give the same for the layer's input.
        """
        x, act, n = self.acts[l], self.acts[l + 1], clean.in_features
        hit = np.flatnonzero((clean.weights.words != bad.weights.words).any(axis=1))
        if not hit.size and not rows.size:
            return rows, act[:0]
        # float32 keeps every comparison with counts of magnitude <= n < 2^15 exact
        levels = clean.thresholds.astype(np.float32)
        if rows.size:
            # input bits changed in any row, and the faulty weights on them as +-1
            diff = new ^ x[rows]
            cols = np.flatnonzero(_unpack_bits(np.bitwise_or.reduce(diff, axis=0)[None], n)[0])
            w_cols = pm1(_unpack_bits(bad.weights.words, n)[:, cols].T, np.float32)
            x = x.copy()
            x[rows] = new
        if hit.size:
            hit_words = _hidden_words(bad.weights.words[hit], clean.thresholds[hit], x, n)

        out_rows, out_words = [rows[:0]], [act[:0]]
        for lo in range(0, len(x), _MATRIX_CHUNK_ROWS):
            hi = lo + _MATRIX_CHUNK_ROWS
            a, b = np.searchsorted(rows, (lo, hi))
            if not hit.size and a == b:
                continue
            bits = _unpack_bits(act[lo:hi], clean.out_features)
            if b > a:
                # (x' - x)/2 is x' where an input bit changed, else 0
                dx = pm1(_unpack_bits(new[a:b], n)[:, cols], np.float32)
                dx *= _unpack_bits(diff[a:b], n)[:, cols]
                full = dx @ w_cols  # exact: |values| < 2^24
                full += self.counts[l][rows[a:b]]
                bits[rows[a:b] - lo] = full >= levels
            if hit.size:
                bits[:, hit] = _unpack_bits(hit_words[lo:hi], len(hit))
            packed = _pack_bool_rows(bits)
            changed = np.flatnonzero((packed != act[lo:hi]).any(axis=1))
            out_rows.append(lo + changed)
            out_words.append(packed[changed])
        return np.concatenate(out_rows), np.concatenate(out_words)


def ber_sweep(
    model: BnnModel,
    dataset: Dataset,
    bers: list[float],
    trials: int,
    master_seed: int,
) -> SweepResult:
    """Accuracy under injected faults over a BER grid, repeated `trials` times.

    BERs must be sorted ascending. Each (ber, trial) evaluation flips a fresh
    copy of the model with its derived seed and scores it on the dataset:
    incrementally against one clean pass at or below INCREMENTAL_MAX_BER,
    with a dense forward above it. Trials run in (ber, trial) order in this
    process, and the outcome does not depend on the path that scored them.
    """
    if not bers:
        raise ValueError("need at least one BER")
    if sorted(bers) != list(bers):
        raise ValueError("BERs must be sorted ascending")
    for ber in bers:
        if not 0.0 <= ber <= 1.0:
            raise ValueError(f"ber must lie in [0,1], got {ber}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(dataset) == 0:
        raise ValueError("dataset is empty")

    # binarize once; every trial scores the same packed bits
    inputs = binarize_input(dataset.images)
    labels = np.asarray(dataset.labels)
    supported = IncrementalEvaluator.supports(model)
    evaluator, clean_pass_s, incremental_trials = None, 0.0, 0
    accuracies = np.empty((len(bers), trials))
    for bi, ber in enumerate(bers):
        incremental = supported and ber <= INCREMENTAL_MAX_BER
        if not incremental:
            # BERs ascend, so no later trial needs the clean pass: free its
            # state before the dense forwards allocate theirs
            evaluator = None
        elif evaluator is None:
            started = time.perf_counter()
            evaluator = IncrementalEvaluator(model, inputs)
            clean_pass_s = time.perf_counter() - started
        for ti in range(trials):
            if incremental:
                # the flips _run_trial would draw, so the accuracy is the one it returns
                faulty = flip_bits(model, ber, trial_seed(master_seed, bi, ti))
                accuracies[bi, ti] = np.mean(evaluator.predict(faulty) == labels)
                incremental_trials += 1
            else:
                job = (model, inputs, labels, ber, master_seed, bi, ti)
                accuracies[bi, ti] = _run_trial(job)[2]
    return SweepResult(list(bers), trials, accuracies, incremental_trials, clean_pass_s)
