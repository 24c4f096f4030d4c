"""Stochastic bit-flip injection into stored weights and accuracy sweeps.

Errors model imperfect programming of the memory holding the binarized
weights: each weight bit is XOR-flipped independently with probability BER,
once per trial (persistent write errors, not read disturb). Thresholds and
the network structure are assumed error-free, and padding bits are never
touched. Trials are independent; each derives its own RNG stream from
(master_seed, ber_index, trial_index), so a sweep is reproducible for any
execution order or worker count.

A sweep scores trials on one of two paths, chosen by BER alone:

* at or below INCREMENTAL_MAX_BER (a fixed constant, no flag or environment
  variable), an IncrementalEvaluator makes one clean pass over the dataset
  and each trial updates only what its flips touch. These trials run in the
  calling process, one after another;
* above it, each trial flips a copy and runs the full dense forward
  (_run_trial), in a process pool when BITFLIP_BNN_THREADS > 1.

Both paths take their flips from flip_bits and compute the same integers,
so the accuracies, and every CSV built from them, are byte-identical
whichever path or worker count scored a trial.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bitcore import (
    BinarizedLinearLayer,
    BitTensor,
    BnnModel,
    _pack_bool_rows,
    _unpack_bool_rows,
    model_predict_batch,
    popcount_chunks,
    words_per_row,
)
from .mnist_io import Dataset, binarize_input

THREADS_ENV_VAR = "BITFLIP_BNN_THREADS"

# Trials at or below this BER are scored incrementally against a clean pass.
# Above it flips touch most neurons: on a 784-1024-1024-10 model the update
# costs as much as a dense forward near 1e-2, and only dense trials can use
# the process pool, so the crossover sits a decade below that.
INCREMENTAL_MAX_BER = 1e-3

# Row chunk of the incremental update: bounds its per-chunk temporaries.
_DELTA_CHUNK_ROWS = 512


@dataclass
class FaultTrialConfig:
    """One point of a fault-injection experiment (weight bits only)."""

    ber: float
    trials: int = 5
    master_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"ber must lie in [0,1], got {self.ber}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


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
    draws = rng.random(tensor.total_bits)
    flips = (draws < ber).reshape(tensor.n_rows, tensor.n_bits)
    flip_words = _pack_bool_rows(flips)
    return BitTensor(tensor.shape, tensor.words ^ flip_words, validate=False)


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
    faulty = model.copy()
    for layer in faulty.layers:
        layer.weights = _flip_tensor(layer.weights, ber, rng)
    return faulty


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

    One clean pass caches, for every hidden layer, its popcounts (int16,
    one row per neuron: fan-in < 2^15) and the packed bits of its input and
    its activations. A faulty model is then scored by updating only what its
    flipped weights touch:

    * a flipped weight (j, i) changes count[j] by -w_old * x_i, so with
      clean inputs only the neurons whose weight rows hold a flip move;
    * where a layer's inputs changed, the counts of those rows gain
      (x' - x)/2 . W' over the changed input columns, a small +-1 float32
      matmul that is exact on these integers;
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
        self.counts = []  # counts[l]: clean popcounts of hidden layer l, (out, rows)
        words = [inputs.words]  # words[l]: clean packed input of layer l
        for layer in model.layers[:-1]:
            x = words[-1]
            counts = np.empty((layer.out_features, len(x)), dtype=np.int16)
            act = np.empty((len(x), words_per_row(layer.out_features)), dtype=np.uint64)
            for lo, chunk in popcount_chunks(x, layer.weights.words, layer.in_features):
                counts[:, lo : lo + len(chunk)] = chunk.T
                act[lo : lo + len(chunk)] = _pack_bool_rows(chunk >= layer.thresholds)
            self.counts.append(counts)
            words.append(act)
        # the same bits as bytes, and transposed: row b of acts_t[l] is byte b of every row
        self.acts = [_as_bytes(w) for w in words]
        self.acts_t = [np.ascontiguousarray(a.T) for a in self.acts]

    @staticmethod
    def supports(model: BnnModel) -> bool:
        return all(
            isinstance(layer, BinarizedLinearLayer) and layer.in_features < 2**15
            for layer in model.layers
        )

    def predict(self, faulty: BnnModel) -> np.ndarray:
        """Class predictions of `faulty`, a copy of the model with flipped weight bits."""
        rows = np.empty(0, dtype=np.intp)  # input rows that differ from the clean pass
        new = self.acts[0][:0]  # their packed bytes
        for l, (clean, bad) in enumerate(zip(self.model.layers[:-1], faulty.layers[:-1])):
            rows, new = self._update_layer(l, clean, bad, rows, new)
        x = self.acts[-1].copy()
        x[rows] = new
        out = faulty.layers[-1]
        x = BitTensor((len(x), out.in_features), x.view("<u8"), validate=False)
        return model_predict_batch(BnnModel([out]), x)

    def _update_layer(self, l, clean, bad, rows, new):
        """Hidden layer l's output rows that differ from the clean pass, and their bytes.

        `rows` (ascending) and `new` give the same for the layer's input.
        """
        x_t, act, counts = self.acts_t[l], self.acts[l + 1], self.counts[l]
        thresholds = clean.thresholds[:, None]

        # flipped weights (hit[fj], fi), numbered by rank within their neuron
        flipped = clean.weights.words ^ bad.weights.words
        hit = np.flatnonzero(flipped.any(axis=1))
        if not hit.size and not rows.size:
            return rows, act[:0]
        fj, fi = np.nonzero(_unpack_bool_rows(flipped[hit], clean.in_features))
        w_old = (_as_bytes(clean.weights.words)[hit[fj], fi // 8] >> (fi % 8).astype(np.uint8)) & 1
        rank = np.arange(len(fj)) - np.searchsorted(fj, fj)
        flips = np.bincount(fj, minlength=len(hit)).astype(np.int16)[:, None]

        # input bits changed in any row, and the faulty weights on them as +-1
        new_t = np.ascontiguousarray(new.T)
        diff_t = new_t ^ x_t[:, rows]
        cols = np.flatnonzero(np.unpackbits(np.bitwise_or.reduce(diff_t, axis=1), bitorder="little"))
        w_cols = 2 * _bit_rows(_as_bytes(bad.weights.words).T, cols).T.astype(np.float32) - 1

        out_rows, out_bytes = [], []
        for lo in range(0, x_t.shape[1], _DELTA_CHUNK_ROWS):
            hi = min(lo + _DELTA_CHUNK_ROWS, x_t.shape[1])
            a, b = np.searchsorted(rows, (lo, hi))
            if not hit.size and a == b:
                continue
            local = rows[a:b] - lo

            # a flip adds +1 where x_i disagreed with w_old, -1 where it agreed
            disagree = _bit_rows(x_t[:, lo:hi], fi) ^ w_old[:, None]
            delta = np.zeros((len(hit), hi - lo), dtype=np.int16)
            for k in range(rank.max(initial=-1) + 1):
                at = rank == k  # at most one flip per neuron
                delta[fj[at]] += disagree[at]
            delta = 2 * delta - flips
            bits = np.unpackbits(act[lo:hi], axis=1, bitorder="little")
            bits[:, hit] = (counts[hit, lo:hi] + delta >= thresholds[hit]).T

            if b > a:
                # (x' - x)/2 is x' where an input bit changed, else 0
                sign = 2 * _bit_rows(new_t[:, a:b], cols).astype(np.float32) - 1
                dx = _bit_rows(diff_t[:, a:b], cols) * sign
                full = counts[:, rows[a:b]] + w_cols @ dx  # exact: |values| < 2^24
                full[hit] += delta[:, local]
                bits[local, : len(full)] = (full >= thresholds).T

            packed = np.packbits(bits, axis=1, bitorder="little")
            changed = np.flatnonzero((packed != act[lo:hi]).any(axis=1))
            out_rows.append(lo + changed)
            out_bytes.append(packed[changed])
        if not out_rows:
            return rows[:0], act[:0]
        return np.concatenate(out_rows), np.concatenate(out_bytes)


def _as_bytes(words: np.ndarray) -> np.ndarray:
    """Packed uint64 rows as little-endian bytes: bit i of a row is bit i % 8 of byte i // 8."""
    return words.astype("<u8", copy=False).view(np.uint8)


def _bit_rows(bytes_t: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Bits idx of packed rows given as transposed bytes, as a (len(idx), rows) 0/1 array."""
    return (bytes_t[idx // 8] >> (idx % 8).astype(np.uint8)[:, None]) & 1


def worker_count() -> int:
    """Worker cap from BITFLIP_BNN_THREADS (default 1: sequential)."""
    raw = os.environ.get(THREADS_ENV_VAR, "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    return max(1, n)


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
    with a dense forward (pooled when workers > 1) above it. Results are
    aggregated in (ber, trial) order, so the outcome does not depend on the
    path or the number of workers.
    """
    if not bers:
        raise ValueError("need at least one BER")
    if sorted(bers) != list(bers):
        raise ValueError("BERs must be sorted ascending")
    for ber in bers:
        FaultTrialConfig(ber, trials, master_seed)  # validates ranges
    if len(dataset) == 0:
        raise ValueError("dataset is empty")

    # binarize once; trials ship the packed bits, not the float images
    inputs = binarize_input(dataset.images)
    labels = np.asarray(dataset.labels)
    jobs = [
        (model, inputs, labels, ber, master_seed, bi, ti)
        for bi, ber in enumerate(bers)
        for ti in range(trials)
    ]
    incremental = IncrementalEvaluator.supports(model)
    sparse = [job for job in jobs if incremental and job[3] <= INCREMENTAL_MAX_BER]
    dense = jobs[len(sparse) :]  # BERs ascend, so the sparse trials come first
    workers = worker_count()
    results: dict[tuple[int, int], float] = {}
    clean_pass_s = 0.0
    with contextlib.ExitStack() as stack:
        if workers > 1 and len(dense) > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            pending = pool.map(_run_trial, dense)
        else:
            pending = map(_run_trial, dense)  # lazy: runs after the sparse trials
        if sparse:
            clean_pass_s, sparse_results = _run_incremental(model, inputs, labels, sparse)
            results.update(sparse_results)
        for bi, ti, acc in pending:
            results[(bi, ti)] = acc

    matrix = np.array(
        [[results[(bi, ti)] for ti in range(trials)] for bi in range(len(bers))]
    )
    return SweepResult(list(bers), trials, matrix, len(sparse), clean_pass_s)


def _run_incremental(model, inputs, labels, jobs) -> tuple[float, dict]:
    """Score low-BER jobs in this process against one clean pass.

    Returns the clean pass's wall time and {(ber_index, trial_index): accuracy}.
    The flips are those flip_bits draws for the job, so every accuracy equals
    the one _run_trial would return.
    """
    started = time.perf_counter()
    evaluator = IncrementalEvaluator(model, inputs)
    clean_pass_s = time.perf_counter() - started
    results = {}
    for _, _, _, ber, master_seed, bi, ti in jobs:
        faulty = flip_bits(model, ber, trial_seed(master_seed, bi, ti))
        results[(bi, ti)] = float(np.mean(evaluator.predict(faulty) == labels))
    return clean_pass_s, results
