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
  keeping each hidden neuron's int8 margin clip(count - T, -127, 127) per
  row, and each trial adds up the exact changes of the counts its flips
  cause: over a flipped weight's columns, over a row's changed input bits,
  and into the clean output scores. A new bit is decided from the margin
  alone, and only saturated margins that the change could carry across 0
  are recounted;
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
    WORD_BITS,
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
# On the 784-1024-1024-10 sweep model of the benchmark and 10k rows (2-vCPU
# box, 2 BLAS threads, wall time, medians of 5 trials) an update costs 0.06 s
# at 1e-4, 0.09 s at 2e-4, 0.12 s at 3e-4, 0.15 s at 5e-4 and 0.26 s at 1e-3,
# against 0.15-0.17 s for a dense trial: the crossover lies between 5e-4 and
# 1e-3, so of the decade grid the paper sweeps, 1e-4 is the last BER that
# pays to score incrementally.
INCREMENTAL_MAX_BER = 1e-4

# Rows per block of an incremental trial's update and of the clean output
# scores, which bounds their temporaries. The clean pass itself runs on the
# dense kernel's chunks (bitcore._MATRIX_CHUNK_ROWS), so the two sizes are
# chosen apart. On the sweep-flat benchmark (2-vCPU box, seed 1, 10
# alternating pairs against 1024 rows, kernel chunks of 1024 rows), 512 rows
# here lowered the peak RSS from 72.1 to 70.5 MiB in 10 of 10 pairs at the
# same speed: 47.1k against 47.2k items/s in the median, faster in 4 pairs.
_UPDATE_BLOCK_ROWS = 512

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
    incremental_s: float = 0.0  # wall time of all its trial updates
    recounts: int = 0  # saturated (row, neuron) pairs it recounted
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


_ONE = np.uint64(1)
# |margin| at which the int8 margins saturate. A saturated margin stands for
# any count at least that far from T, so it decides a neuron's new output
# only while the count can move by at most _SATURATED - 1.
_SATURATED = 127


def _set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, positions) of the set bits of 2-D uint64 words, sorted by row, then position."""
    wpr = words.shape[1]
    index = np.flatnonzero(words)
    values, rows, positions = words.reshape(-1)[index], index // wpr, index % wpr * WORD_BITS
    found_rows, found = [rows[:0]], [positions[:0]]
    while values.size:
        low = values & (~values + _ONE)  # lowest set bit of each word
        found_rows.append(rows)
        found.append(positions + np.bitwise_count(low - _ONE))
        values = values ^ low
        left = values != 0
        rows, positions, values = rows[left], positions[left], values[left]
    rows, positions = np.concatenate(found_rows), np.concatenate(found)
    order = np.argsort(rows * (wpr * WORD_BITS) + positions, kind="stable")
    return rows[order], positions[order]


def _bits(words: np.ndarray, rows: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """uint64 0/1 bits of packed (contiguous) rows at (rows, positions), broadcast together."""
    index = rows * words.shape[1] + positions // WORD_BITS
    return (words.reshape(-1).take(index) >> (positions % WORD_BITS).astype(np.uint64)) & _ONE


def _disagreements(x_words: np.ndarray, w_words: np.ndarray, within=None) -> np.ndarray:
    """(rows, classes) int64 positions where each x row and each w row differ.

    Counted by popcount, _UPDATE_BLOCK_ROWS rows at a time; with `within`,
    packed rows like x, only among the positions set there. Padding bits are
    zero in both operands, so they never count.
    """
    counts = np.empty((len(x_words), len(w_words)), dtype=np.int64)
    buf = np.empty((min(len(x_words), _UPDATE_BLOCK_ROWS),) + w_words.shape, dtype=np.uint64)
    for lo in range(0, len(x_words), _UPDATE_BLOCK_ROWS):
        x = x_words[lo : lo + _UPDATE_BLOCK_ROWS]
        differ = np.bitwise_xor(x[:, None, :], w_words[None], out=buf[: len(x)])
        if within is not None:
            differ &= within[lo : lo + len(x), None, :]
        counts[lo : lo + len(x)] = np.bitwise_count(differ).sum(axis=2, dtype=np.int64)
    return counts


class _Flips:
    """The weight bits of one layer that a faulty copy flips, grouped by neuron."""

    def __init__(self, clean: BinarizedLinearLayer, bad: BinarizedLinearLayer):
        neurons, self.inputs = _set_bits(clean.weights.words ^ bad.weights.words)
        self.hit, self.starts, self.per_neuron = np.unique(
            neurons, return_index=True, return_counts=True
        )
        self.clean_bits = _bits(clean.weights.words, neurons, self.inputs)
        self.most = int(self.per_neuron.max()) if neurons.size else 0
        self.reach = np.minimum(self.per_neuron, _SATURATED).astype(np.int8)

    def deltas(self, x_words: np.ndarray, rows: np.ndarray, hit: np.ndarray) -> np.ndarray:
        """int32 change of the count of neuron self.hit[hit[i]] on clean x row rows[i].

        A flip turns agreement into disagreement and back, so it adds +1 where
        the clean input disagreed with the clean weight and -1 elsewhere.
        """
        flips = self.per_neuron[hit]
        delta = -flips.astype(np.int32)
        for t in range(self.most):  # the t-th flip of every neuron that has one
            on = np.flatnonzero(flips > t) if t else slice(None)
            f = self.starts[hit[on]] + t
            disagree = _bits(x_words, rows[on], self.inputs[f]) ^ self.clean_bits[f]
            delta[on] += 2 * disagree.astype(np.int32)
        return delta


class _InputChanges:
    """The input rows of one layer that differ from the clean pass, as signed weight columns.

    A changed input bit i moves the count of neuron j by +-1: +1 where its new
    value agrees with the faulty weight w'_ji. `table` holds the negated
    moves, -w'_i for a bit that became 1 and +w'_i for one that became 0, as
    int8 rows over the neurons, for the input columns that change in any row,
    so that a row's summed slots are minus its exact change d of every count.
    """

    def __init__(self, x_words, bad: BinarizedLinearLayer, rows, new):
        n = bad.in_features
        self.rows, self.new = rows, new
        self.diff = new ^ x_words[rows]
        self.flipped = np.bitwise_count(self.diff).sum(axis=1, dtype=np.int64)
        union = np.bitwise_or.reduce(self.diff, axis=0)[None]
        cols = np.flatnonzero(_unpack_bits(union, n)[0])
        neurons = np.arange(bad.out_features)
        signs = pm1(_bits(bad.weights.words, neurons[None, :], cols[:, None]), np.int8)
        self.table = np.concatenate([-signs, signs])
        local = np.zeros(n, dtype=np.intp)
        local[cols] = np.arange(len(cols))
        # every changed bit, by row, as its table row
        self.bit_rows, positions = _set_bits(self.diff)
        now_set = _bits(new, self.bit_rows, positions).astype(np.intp)
        self.keys = local[positions] + len(cols) * (1 - now_set)

    def minus_deltas(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """(order, acc) for changed rows a..b-1: acc[i] = -d of row a + order[i], all neurons.

        Rows are ordered by their changed bits, most first, so that the rows
        holding an s-th changed bit are a prefix and each slot adds one
        contiguous block of table rows.
        """
        keys = self.keys[slice(*np.searchsorted(self.bit_rows, (a, b)))]
        flipped = self.flipped[a:b]
        order = np.argsort(-flipped, kind="stable")
        first = (np.cumsum(flipped) - flipped)[order]
        depth = flipped[order]
        acc = self.table.take(keys[first], axis=0)
        if depth[0] >= _SATURATED:
            acc = acc.astype(np.int16)  # fan-in < 2^15 bounds every sum
        for slot in range(1, int(depth[0])):
            m = np.count_nonzero(depth > slot)
            acc[:m] += self.table.take(keys[first[:m] + slot], axis=0)
        return order, acc


class IncrementalEvaluator:
    """Exact predictions of faulty copies of one linear model on fixed inputs.

    One clean pass, through the dense kernel's own chunk loop, stores for
    every hidden layer its packed activations and its int8 margins
    q = clip(count - T, -127, 127) (row-major; the neuron fires iff q >= 0),
    and the clean output scores. A faulty model is then scored layer by
    layer, one block of _UPDATE_BLOCK_ROWS rows at a time, as exact changes d
    of the counts:

    * a flipped weight moves its neuron's count by a delta over its flipped
      columns, computed on the clean input;
    * a changed input bit moves every count of its row by the faulty weight's
      sign, summed per row from a table of signed weight columns (int8);
    * the new output bit is q + d >= 0. A pair can only change where
      |q| <= (changed bits of the row) + (flipped weights of the neuron), and
      a saturated margin is ambiguous only if that bound reaches 127: those
      pairs alone are recounted exactly, by popcount;
    * the output layer is the clean scores plus deltas, for the rows whose
      input changed and the classes that hold a flip, on the rows whose lead
      over the runner-up class the change could overcome.

    Only rows whose outputs really changed are carried to the next layer.
    The integers are the dense path's, so predictions equal
    model_predict_batch(faulty, inputs), ties included (lowest class index).
    """

    def __init__(self, model: BnnModel, inputs: BitTensor):
        if not self.supports(model):
            raise ValueError("incremental evaluation needs linear layers with fan-in < 2^15")
        n_in = model.layers[0].in_features
        if len(inputs.shape) != 2 or inputs.shape[1] != n_in:
            raise ValueError(f"expected inputs of {n_in} bits, got shape {inputs.shape}")
        self.model = model
        self.acts = [inputs.words]  # acts[l]: clean packed input of layer l
        self.margins = []  # margins[l]: int8 clip(count - T, -127, 127) of hidden layer l
        for layer in model.layers[:-1]:
            x = self.acts[-1]
            margins = np.empty((len(x), layer.out_features), dtype=np.int8)
            self.acts.append(
                _hidden_words(layer.weights.words, layer.thresholds, x, layer.in_features, margins)
            )
            self.margins.append(margins)
        out = model.layers[-1]
        # the integer scores 2 * count - n - T of the dense output layer
        disagree = _disagreements(self.acts[-1], out.weights.words)
        self.scores = out.in_features - out.thresholds.astype(np.int64) - 2 * disagree
        self.predictions = np.argmax(self.scores, axis=1)
        self.lead = None  # how far each row's top score leads the runner-up
        if out.out_features > 1:
            top_two = np.partition(self.scores, -2, axis=1)[:, -2:]
            self.lead = top_two[:, 1] - top_two[:, 0]
        self.recounts = 0  # saturated (row, neuron) pairs recounted, over all trials

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
        return self._predict_output(self.model.layers[-1], faulty.layers[-1], rows, new)

    def _update_layer(self, l, clean, bad, rows, new):
        """Hidden layer l's output rows that differ from the clean pass, and their words.

        `rows` (ascending) and `new` give the same for the layer's input.
        """
        x, act, q = self.acts[l], self.acts[l + 1], self.margins[l]
        flips = _Flips(clean, bad)
        hit = flips.hit
        if not hit.size and not rows.size:
            return rows, act[:0]
        changes = _InputChanges(x, bad, rows, new) if rows.size else None
        out_rows, out_words = [rows[:0]], [act[:0]]
        for lo in range(0, len(x), _UPDATE_BLOCK_ROWS):
            hi = min(lo + _UPDATE_BLOCK_ROWS, len(x))
            a, b = np.searchsorted(rows, (lo, hi))
            if not hit.size and a == b:
                continue
            words = act[lo:hi].copy()
            same_input = np.ones(hi - lo, dtype=bool)  # rows of the block whose input is clean
            if b > a:
                order, acc = changes.minus_deltas(a, b)
                local = rows[a:b][order] - lo
                words[local] = _pack_bool_rows(q.take(local + lo, axis=0) >= acc)
                same_input[local] = False
            if hit.size:
                q_hit = q[lo:hi, hit]
                if b > a:
                    # q - acc: the margin with the input's change, whose sign `words` holds
                    margins = q_hit[local].astype(np.int32)
                    margins -= acc[:, hit]
                    self._toggle_hits(words, x[lo:hi], flips, local, margins)
                same = np.flatnonzero(same_input)
                self._toggle_hits(words, x[lo:hi], flips, same, q_hit[same])
            most = changes.flipped[a:b].max() if b > a else 0
            if most + flips.most >= _SATURATED:
                self._recount_saturated(l, bad, flips, changes, lo, hi, a, b, words)
            moved = np.flatnonzero((words != act[lo:hi]).any(axis=1))
            out_rows.append(lo + moved)
            out_words.append(words[moved])
        return np.concatenate(out_rows), np.concatenate(out_words)

    @staticmethod
    def _toggle_hits(words, x_words, flips, rows, margins):
        """Flip, in `words`, the hit-neuron bits that the weight flips change.

        margins[i, h] is the margin of row rows[i] at neuron flips.hit[h], with
        any change of its input, and `words` holds its sign. The f flips of a
        neuron move that margin by at most f, so only margins in [-f, f - 1]
        can change sign; only those pairs are scored, on the clean x rows.
        """
        hit = flips.hit
        pairs = np.flatnonzero((margins < flips.reach) & (margins >= -flips.reach))
        i = pairs // len(hit)
        h = pairs - i * len(hit)
        before = margins.reshape(-1).take(pairs).astype(np.int32)
        rows = rows[i]
        after = before + flips.deltas(x_words, rows, h)
        toggled = np.flatnonzero((after >= 0) != (before >= 0))
        rows, j = rows[toggled], hit[h[toggled]]
        np.bitwise_xor.at(
            words.reshape(-1),
            rows * words.shape[1] + j // WORD_BITS,
            _ONE << (j % WORD_BITS).astype(np.uint64),
        )

    def _recount_saturated(self, l, bad, flips, changes, lo, hi, a, b, words):
        """Recount, by popcount, the pairs of rows lo..hi-1 whose saturated margin is ambiguous."""
        bound = np.zeros((hi - lo, 1), dtype=np.int64)
        x = self.acts[l][lo:hi].copy()
        if b > a:
            bound[changes.rows[a:b] - lo, 0] = changes.flipped[a:b]
            x[changes.rows[a:b] - lo] = changes.new[a:b]
        per_neuron = np.zeros(bad.out_features, dtype=np.int64)
        per_neuron[flips.hit] = flips.per_neuron
        ambiguous = (np.abs(self.margins[l][lo:hi]) == _SATURATED) & (
            bound + per_neuron >= _SATURATED
        )
        r, j = np.nonzero(ambiguous)
        if not r.size:
            return
        self.recounts += len(r)
        n = bad.in_features
        agree = n - np.bitwise_count(x[r] ^ bad.weights.words[j]).sum(axis=1, dtype=np.int64)
        fires = (agree >= bad.thresholds[j]).astype(np.uint64)
        flat = words.reshape(-1)
        index = r * words.shape[1] + j // WORD_BITS
        bit = _ONE << (j % WORD_BITS).astype(np.uint64)
        np.bitwise_and.at(flat, index, ~bit)
        np.bitwise_or.at(flat, index, bit * fires)

    def _predict_output(self, clean, bad, rows, new):
        """Class predictions from the clean scores plus each row's and class's exact change.

        A score moves by at most 2 per changed input bit of its row and per
        flipped weight of its class, so a row whose top score leads the
        runner-up by more than twice that keeps its prediction and is skipped.
        """
        x = self.acts[-1]
        flips = _Flips(clean, bad)
        predictions = self.predictions.copy()
        if self.lead is None:
            return predictions
        diff = new ^ x[rows]
        reach = np.full(len(x), flips.most, dtype=np.int64)
        reach[rows] += np.bitwise_count(diff).sum(axis=1, dtype=np.int64)
        near = np.flatnonzero(self.lead <= 4 * reach)
        scores = self.scores[near]
        if flips.hit.size:
            r, h = np.divmod(np.arange(len(near) * len(flips.hit)), len(flips.hit))
            delta = flips.deltas(x, near[r], h).reshape(len(near), len(flips.hit))
            scores[:, flips.hit] += 2 * delta
        # the rows of `near` whose input changed, and their place in `rows`
        at = np.minimum(np.searchsorted(rows, near), len(rows) - 1)
        moved = np.flatnonzero(rows[at] == near) if rows.size else at[:0]
        at = at[moved]
        # each changed input bit adds +1 to a class's count where it now agrees
        # with the faulty weight and -1 where it now disagrees
        d = -2 * _disagreements(new[at], bad.weights.words, within=diff[at])
        d += np.bitwise_count(diff[at]).sum(axis=1, dtype=np.int64)[:, None]
        scores[moved] += 2 * d  # a score is 2 * count - n - T
        predictions[near] = np.argmax(scores, axis=1)
        return predictions


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
    evaluator, clean_pass_s, incremental_s, incremental_trials, recounts = None, 0.0, 0.0, 0, 0
    accuracies = np.empty((len(bers), trials))
    for bi, ber in enumerate(bers):
        incremental = supported and ber <= INCREMENTAL_MAX_BER
        if not incremental and evaluator is not None:
            # BERs ascend, so no later trial needs the clean pass: free its
            # state before the dense forwards allocate theirs
            recounts, evaluator = evaluator.recounts, None
        elif incremental and evaluator is None:
            started = time.perf_counter()
            evaluator = IncrementalEvaluator(model, inputs)
            clean_pass_s = time.perf_counter() - started
        for ti in range(trials):
            if incremental:
                # the flips _run_trial would draw, so the accuracy is the one it returns
                faulty = flip_bits(model, ber, trial_seed(master_seed, bi, ti))
                started = time.perf_counter()
                predictions = evaluator.predict(faulty)
                incremental_s += time.perf_counter() - started
                accuracies[bi, ti] = np.mean(predictions == labels)
                incremental_trials += 1
            else:
                job = (model, inputs, labels, ber, master_seed, bi, ti)
                accuracies[bi, ti] = _run_trial(job)[2]
    if evaluator is not None:
        recounts = evaluator.recounts
    return SweepResult(
        list(bers), trials, accuracies, incremental_trials, clean_pass_s, incremental_s, recounts
    )
