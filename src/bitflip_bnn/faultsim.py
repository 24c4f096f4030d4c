"""Stochastic bit-flip injection into stored weights and accuracy sweeps.

Errors model imperfect programming of the memory holding the binarized
weights: each weight bit is XOR-flipped independently with probability BER,
once per trial (persistent write errors, not read disturb). Thresholds and
the network structure are assumed error-free, and padding bits are never
touched. Trials are independent; each derives its own RNG stream from
(master_seed, ber_index, trial_index), so a sweep is reproducible for any
execution order.

A sweep runs its trials in the calling process and scores each on one of
two paths, chosen by BER alone:

* at or below INCREMENTAL_MAX_BER (a fixed constant, no flag or environment
  variable), the trials run first. Each trial's flips are drawn and only
  what they change is kept. The dataset is then taken one block of
  _SWEEP_BLOCK_ROWS rows at a time: an IncrementalEvaluator makes a clean
  pass over the block, keeping each hidden neuron's int8 margin
  clip(count - T, -127, 127) per row, and every trial updates the whole
  block in one step per layer. In the hidden layers it adds up the exact
  changes of the counts its flips cause, over a flipped weight's columns
  and over a row's changed input bits, and decides every new bit from its
  margin and its change alone. Where a change could carry a saturated
  margin across 0, the margins cannot decide, and the trial runs the dense
  forward on that block instead. In the output layer it rescores by
  linear_forward of the faulty layer the rows whose prediction the change
  could move, on their faulty inputs. A trial's accuracy is its correct
  predictions summed over the blocks;
* above it, each trial in turn flips a copy and runs the full dense forward
  (_run_trial).

Both paths take their flips from flip_bits and count every layer, the
output layer too, through bitcore's one float32 kernel or by exact changes
to its counts. So they compute the same integers, and every CSV built from
their accuracies is byte-identical whichever path scored a trial. The
cores share the work inside BLAS, whose float32 sums are exact small
integers, so the bytes do not depend on its thread count either.
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
    _fire_words,
    _hidden_operands,
    _pack_bool_rows,
    _unpack_bits,
    linear_forward,
    model_predict_batch,
    pm1,
)
from .mnist_io import Dataset, binarize_input

# Trials at or below this BER are scored incrementally against a clean pass.
# On the 784-1024-1024-10 sweep model of the benchmark and 10k rows (2-vCPU
# box, 2 BLAS threads, wall time, medians of 7 in-process runs of 3 trials;
# 1024-row sweep blocks, 256-row kernel chunks) an update costs 55 ms at
# 1e-4, 101 ms at 2e-4, 158 ms at 3e-4, 224 ms at 5e-4 and 331 ms at 1e-3,
# against 185 to 207 ms for a dense trial with its flips: the crossover lies
# between 3e-4 and 5e-4, so of the decade grid the paper sweeps, 1e-4 is the
# last BER that pays to score incrementally.
INCREMENTAL_MAX_BER = 1e-4

# Test rows per block of the low-BER trials: each block gets its own clean
# pass, and every trial is scored on it before the next block's, so the
# margins, activations and scores are a block's. Chosen with
# bitcore._MATRIX_CHUNK_ROWS from the grid beside it: 1024-row blocks and
# 256-row chunks hold the sweep-flat benchmark's peak RSS at 48.6 MiB,
# against 54.1 MiB at 2048 and 512 rows, with no slowdown of the low-BER
# phase that the box resolves. 512-row blocks saved 0.5 MiB more, but there
# the per-block work of every trial showed: the phase of 3 BERs x 5 trials
# took 756 against 665 ms.
_SWEEP_BLOCK_ROWS = 1024

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
    clean_pass_s: float = 0.0  # wall time of its clean passes, summed over the blocks
    incremental_s: float = 0.0  # wall time of all its trial updates, summed over the blocks
    fallback_blocks: int = 0  # (trial, block) pairs whose saturated margins it scored dense
    mean_accuracy: np.ndarray = field(init=False)
    std_accuracy: np.ndarray = field(init=False)

    def __post_init__(self):
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


def _check_ber(ber: float) -> None:
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must lie in [0,1], got {ber}")


def flip_bits(model: BnnModel, ber: float, seed) -> BnnModel:
    """Copy the model with each weight bit flipped independently at rate ber.

    Thresholds, layer structure and padding bits are untouched; the input
    model is never modified. `seed` is an int or a SeedSequence, as
    trial_seed gives; layers consume one stream in order, so identical
    (model, ber, seed) always yields an identical faulty model.
    """
    _check_ber(ber)
    rng = np.random.Generator(np.random.PCG64(seed))
    layers = [
        replace(layer, weights=_flip_tensor(layer.weights, ber, rng))
        for layer in model.layers
    ]
    return BnnModel(layers)


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
# The clean pass's margins, and the |margin| at which they saturate: the
# kernel clips them to the dtype's range. A saturated margin stands for any
# count at least that far from T, so it decides a neuron's new output only
# while the count can move by at most _SATURATED - 1. Within that bound, a
# sum of int8 +-1 moves fits the dtype too.
_MARGIN_DTYPE = np.int8
_SATURATED = np.iinfo(_MARGIN_DTYPE).max


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


class _Flips:
    """The weight bits of one layer that a faulty copy flips, grouped by neuron.

    Beside the clean layer, it holds the flips' positions and the faulty
    weight rows of the neurons that hold one, so it grows with the flips.
    """

    def __init__(self, clean: BinarizedLinearLayer, bad: BinarizedLinearLayer):
        self.clean = clean
        neurons, self.inputs = _set_bits(clean.weights.words ^ bad.weights.words)
        self.hit, self.starts, self.per_neuron = np.unique(
            neurons, return_index=True, return_counts=True
        )
        self.clean_bits = _bits(clean.weights.words, neurons, self.inputs)
        self.bad_rows = bad.weights.words[self.hit]
        self.most = int(self.per_neuron.max()) if neurons.size else 0

    def weights(self) -> np.ndarray:
        """A new array of the faulty layer's packed weight rows."""
        words = self.clean.weights.words.copy()
        words[self.hit] = self.bad_rows
        return words

    def faulty_layer(self) -> BinarizedLinearLayer:
        """The faulty layer, for the dense forward."""
        weights = BitTensor(self.clean.weights.shape, self.weights(), validate=False)
        return replace(self.clean, weights=weights)

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

    def __init__(self, x_words, flips: _Flips, rows, new):
        n = flips.clean.in_features
        self.diff = new ^ x_words[rows]
        self.flipped = np.bitwise_count(self.diff).sum(axis=1, dtype=np.int64)
        union = np.bitwise_or.reduce(self.diff, axis=0)[None]
        cols = np.flatnonzero(_unpack_bits(union, n)[0])
        neurons = np.arange(flips.clean.out_features)
        signs = pm1(_bits(flips.weights(), neurons[None, :], cols[:, None]), np.int8)
        self.table = np.concatenate([-signs, signs])
        local = np.zeros(n, dtype=np.intp)
        local[cols] = np.arange(len(cols))
        # every changed bit, by row, as its table row
        bit_rows, positions = _set_bits(self.diff)
        now_set = _bits(new, bit_rows, positions).astype(np.intp)
        self.keys = local[positions] + len(cols) * (1 - now_set)

    def minus_deltas(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, acc) over the changed rows: acc[i] = -d of changed row order[i], all neurons.

        Rows are ordered by their changed bits, most first, so that the rows
        holding an s-th changed bit are a prefix and each slot adds one
        contiguous block of table rows.
        """
        flipped = self.flipped
        order = np.argsort(-flipped, kind="stable")
        first = (np.cumsum(flipped) - flipped)[order]
        depth = flipped[order]
        acc = self.table.take(self.keys[first], axis=0)
        for slot in range(1, int(depth[0])):
            m = np.count_nonzero(depth > slot)
            acc[:m] += self.table.take(self.keys[first[:m] + slot], axis=0)
        return order, acc


def _layer_flips(model: BnnModel, faulty: BnnModel) -> list[_Flips]:
    """The flips of a faulty copy of the model, layer by layer."""
    return [_Flips(clean, bad) for clean, bad in zip(model.layers, faulty.layers)]


class IncrementalEvaluator:
    """Exact predictions of faulty copies of one model on fixed [N, in] inputs.

    One clean pass, through the dense kernel's own chunk loop, stores for
    every hidden layer its packed activations and its _MARGIN_DTYPE margins
    q = clip(count - T, -_SATURATED, _SATURATED) (row-major; the neuron fires
    iff q >= 0), and each row's clean prediction and lead over the runner-up
    class, so the state scales with the input rows: a sweep builds one
    evaluator per block of _SWEEP_BLOCK_ROWS rows. A faulty model is then
    scored layer by layer, each layer in one update of all the rows, the
    hidden ones as exact changes d of the counts:

    * a flipped weight moves its neuron's count by a delta over its flipped
      columns, computed on the clean input;
    * a changed input bit moves every count of its row by the faulty weight's
      sign, summed per row from a table of signed weight columns (int8);
    * the new output bit is q + d >= 0. A pair can only change where
      |q| <= (changed bits of the row) + (flipped weights of the neuron), and
      a saturated margin decides its bit only while that bound stays below
      _SATURATED. Where a row's bound reaches it, the margins cannot decide
      the layer, and the faulty copy runs the dense forward on the block
      instead (counted in fallback_blocks);
    * the output layer rescores the rows whose lead over the runner-up class
      the change could overcome, by linear_forward of the faulty layer on
      their faulty inputs, which counts through the same float32 kernel as
      every other layer; every other row keeps its clean prediction.

    Only rows whose outputs really changed are carried to the next layer.
    The integers are the dense path's, so predictions equal
    model_predict_batch(faulty, inputs), ties included (lowest class index).
    """

    def __init__(self, model: BnnModel, inputs: BitTensor, operands: list):
        """`operands` are the model's operands(), computed once for every block of a sweep."""
        n_in = model.layers[0].in_features
        if len(inputs.shape) != 2 or inputs.shape[1] != n_in:
            raise ValueError(f"expected inputs of {n_in} bits, got shape {inputs.shape}")
        self.model, self.inputs = model, inputs
        self.acts = [inputs.words]  # acts[l]: clean packed input of layer l
        self.margins = []  # margins[l]: the clipped margins q of hidden layer l
        for layer, layer_operands in zip(model.layers[:-1], operands):
            x = self.acts[-1]
            margins = np.empty((len(x), layer.out_features), dtype=_MARGIN_DTYPE)
            self.acts.append(_fire_words(layer_operands, x, layer.in_features, margins))
            self.margins.append(margins)
        out = model.layers[-1]
        x = BitTensor((len(self.acts[-1]), out.in_features), self.acts[-1], validate=False)
        scores = linear_forward(out, x)
        self.predictions = np.argmax(scores, axis=1)
        self.lead = None  # how far each row's top score leads the runner-up
        if out.out_features > 1:
            top_two = np.partition(scores, -2, axis=1)[:, -2:]
            self.lead = top_two[:, 1] - top_two[:, 0]
        self.fallback_blocks = 0  # faulty copies scored by the dense forward

    @staticmethod
    def operands(model: BnnModel) -> list:
        """The dense kernel's operands of each hidden layer, which depend on the model alone."""
        return [
            _hidden_operands(layer.weights.words, layer.thresholds, layer.in_features)
            for layer in model.layers[:-1]
        ]

    def predict_flips(self, flips: list[_Flips]) -> np.ndarray:
        """Class predictions of the faulty copy whose flips, per layer, are `flips`.

        Scored by the dense forward where the margins cannot decide a hidden layer.
        """
        rows = np.empty(0, dtype=np.intp)  # input rows that differ from the clean pass
        new = self.acts[0][:0]  # their packed words
        for l, layer_flips in enumerate(flips[:-1]):
            changed = self._update_layer(l, layer_flips, rows, new)
            if changed is None:
                self.fallback_blocks += 1
                layers = [f.faulty_layer() for f in flips]
                faulty = BnnModel(layers)
                return model_predict_batch(faulty, self.inputs)
            rows, new = changed
        return self._predict_output(flips[-1], rows, new)

    def _update_layer(self, l, flips, rows, new):
        """Hidden layer l's output rows that differ from the clean pass, and their words.

        `flips` are the layer's; `rows` (ascending) and `new` give the same
        for the layer's input. None if a change could carry a saturated
        margin across 0, which the margins cannot decide.
        """
        x, act, q = self.acts[l], self.acts[l + 1], self.margins[l]
        hit = flips.hit
        if not hit.size and not rows.size:
            return rows, act[:0]
        changes = _InputChanges(x, flips, rows, new) if rows.size else None
        most = changes.flipped.max() if rows.size else 0
        if most + flips.most >= _SATURATED:
            return None
        words = act.copy()
        if rows.size:
            order, acc = changes.minus_deltas()
            changed = rows[order]
            words[changed] = _pack_bool_rows(q.take(changed, axis=0) >= acc)
        if hit.size:
            # q - acc: the margin with the input's change, whose sign `words` holds
            margins = q[:, hit].astype(np.int32)
            if rows.size:
                margins[changed] -= acc[:, hit]
            self._toggle_hits(words, x, flips, margins)
        moved = np.flatnonzero((words != act).any(axis=1))
        return moved, words[moved]

    @staticmethod
    def _toggle_hits(words, x_words, flips, margins):
        """Flip, in `words`, the hit-neuron bits that the weight flips change.

        margins[i, h] is the int32 margin of row i at neuron flips.hit[h], with
        any change of its input, and `words` holds its sign. The f flips of a
        neuron move that margin by at most f, so only margins in [-f, f - 1]
        can change sign; only those pairs are scored, on the clean x rows.
        """
        hit, reach = flips.hit, flips.per_neuron
        pairs = np.flatnonzero((margins < reach) & (margins >= -reach))
        rows, h = np.divmod(pairs, len(hit))
        before = margins.reshape(-1).take(pairs)
        after = before + flips.deltas(x_words, rows, h)
        toggled = np.flatnonzero((after >= 0) != (before >= 0))
        rows, j = rows[toggled], hit[h[toggled]]
        np.bitwise_xor.at(
            words.reshape(-1),
            rows * words.shape[1] + j // WORD_BITS,
            _ONE << (j % WORD_BITS).astype(np.uint64),
        )

    def _predict_output(self, flips, rows, new):
        """Class predictions, with the rows near a change scored on their faulty inputs.

        A score moves by at most 2 per changed input bit of its row and per
        flipped weight of its class, so a row whose top score leads the
        runner-up by more than twice that keeps its prediction and is skipped.
        Every other row is scored anew by linear_forward, on its
        faulty input words and the faulty layer.
        """
        x = self.acts[-1]
        predictions = self.predictions.copy()
        if self.lead is None:
            return predictions
        reach = np.full(len(x), flips.most, dtype=np.int64)
        reach[rows] += np.bitwise_count(new ^ x[rows]).sum(axis=1, dtype=np.int64)
        near = np.flatnonzero(self.lead <= 4 * reach)
        if not near.size:
            return predictions
        faulty = x.copy()
        faulty[rows] = new
        inputs = BitTensor((len(near), flips.clean.in_features), faulty[near], validate=False)
        predictions[near] = np.argmax(linear_forward(flips.faulty_layer(), inputs), axis=1)
        return predictions


def check_sweep_grid(bers: list[float], trials: int) -> None:
    """Refuse, with ValueError, a BER grid or a trial count that ber_sweep cannot run."""
    if not bers:
        raise ValueError("need at least one BER")
    if sorted(bers) != list(bers):
        raise ValueError("BERs must be sorted ascending")
    for ber in bers:
        _check_ber(ber)
    if trials < 1:
        raise ValueError("trials must be >= 1")


def ber_sweep(
    model: BnnModel,
    dataset: Dataset,
    bers: list[float],
    trials: int,
    master_seed: int,
) -> SweepResult:
    """Accuracy of a model under injected faults over a BER grid, `trials` times each.

    BERs must be sorted ascending. Each (ber, trial) evaluation flips a fresh
    copy of the model with its derived seed and scores it on the dataset:
    incrementally, block by block, at or below INCREMENTAL_MAX_BER
    (_score_low_bers), with a dense forward above it. The low-BER trials run
    first, and their state is freed before the dense trials start. The
    outcome does not depend on the path that scored a trial. The grid and
    the trial count are checked by check_sweep_grid, which the CLI runs
    before it reads the model or the data.
    """
    check_sweep_grid(bers, trials)
    if len(dataset) == 0:
        raise ValueError("dataset is empty")

    # binarize once; every trial scores the same packed bits
    inputs = binarize_input(dataset.images)
    labels = np.asarray(dataset.labels)
    accuracies = np.empty((len(bers), trials))
    # BERs ascend, so the low ones are a prefix of the grid
    n_low = sum(ber <= INCREMENTAL_MAX_BER for ber in bers)
    clean_pass_s, incremental_s, fallbacks = 0.0, 0.0, 0
    if n_low:
        accuracies[:n_low], clean_pass_s, incremental_s, fallbacks = _score_low_bers(
            model, inputs, labels, bers[:n_low], trials, master_seed
        )
    for bi in range(n_low, len(bers)):
        for ti in range(trials):
            job = (model, inputs, labels, bers[bi], master_seed, bi, ti)
            accuracies[bi, ti] = _run_trial(job)[2]
    return SweepResult(
        list(bers), trials, accuracies, n_low * trials, clean_pass_s, incremental_s, fallbacks
    )


def _score_low_bers(model, inputs, labels, bers, trials, master_seed):
    """(accuracies, clean_pass_s, incremental_s, fallback_blocks) of the trials of the first BERs.

    Every trial's flips are drawn first, from the streams _run_trial would
    use, and only what they change is held (_Flips). The rows are then taken
    _SWEEP_BLOCK_ROWS at a time: a clean pass over the block, on kernel
    operands computed once, and every trial's update on it. A trial's
    accuracy is its correct predictions summed over the blocks, over N. The
    times are sums over the blocks: the clean passes, and the trial updates.
    """
    faults = [
        _layer_flips(model, flip_bits(model, ber, trial_seed(master_seed, bi, ti)))
        for bi, ber in enumerate(bers)
        for ti in range(trials)
    ]
    started = time.perf_counter()
    operands = IncrementalEvaluator.operands(model)
    clean_pass_s, incremental_s, fallbacks = time.perf_counter() - started, 0.0, 0
    correct = np.zeros(len(faults), dtype=np.int64)
    n_rows, n_bits = inputs.shape
    for lo in range(0, n_rows, _SWEEP_BLOCK_ROWS):
        hi = min(lo + _SWEEP_BLOCK_ROWS, n_rows)
        block = BitTensor((hi - lo, n_bits), inputs.words[lo:hi], validate=False)
        started = time.perf_counter()
        evaluator = IncrementalEvaluator(model, block, operands)
        clean_pass_s += time.perf_counter() - started
        started = time.perf_counter()
        for t, flips in enumerate(faults):
            correct[t] += np.count_nonzero(evaluator.predict_flips(flips) == labels[lo:hi])
        incremental_s += time.perf_counter() - started
        fallbacks += evaluator.fallback_blocks
        del evaluator  # before the next block's clean pass allocates its own
    accuracies = (correct / n_rows).reshape(len(bers), trials)
    return accuracies, clean_pass_s, incremental_s, fallbacks
