"""In-process tracing of one CLI command, layer by layer.

The package functions a command reaches (the public functions of each
module, and the sweep's per-trial runner) are wrapped where they are looked
up, for example `cli.ber_sweep` or `faultsim.flip_bits`, so a span covers
exactly the call the command makes. A span records its id, its parent, a
start and an end; spans stay in memory and are reduced to self times when
the run ends. A span's self time is its duration minus the durations of its
direct children, so the self times of all spans sum to the root span.

Counts are taken by hooks that run after the wrapped call returns. Hook time
is recorded as a `trace.hook` span, so it is charged to tracing overhead and
not to the caller's self time. `word_ops`, `bytes_moved` and `job_bytes` are
computed from array sizes, not measured.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np

HOOK = "trace.hook"
ROOT = "cli.self_s"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, metric, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, metric: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, metric, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def inside(self, metric: str) -> bool:
        return any(self.spans[i][2] == metric for i in self._stack)

    def call(self, metric: str, fn, *args, **kwargs):
        span = self._open(metric)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, module, attr: str, metric, hook=None) -> None:
        """Replace module.attr by a traced version.

        `metric` is the self-time metric name, or a function of the bound
        arguments that returns it. `hook(arguments, result)` takes counts.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)
        named = callable(metric)
        tracer = self

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if named or hook else None
            span = tracer._open(metric(bound) if named else metric)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook_span = tracer._open(HOOK)
                try:
                    hook(bound, result)
                finally:
                    tracer._close(hook_span)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        own = [end - start for _, _, _, start, end in self.spans]
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (_, _, metric, _, _), value in zip(self.spans, own):
            totals[metric] += value
        return totals

    def calls(self, metric: str) -> int:
        return sum(1 for span in self.spans if span[2] == metric)


def _popcount(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.bitwise_count(a ^ b).sum())


def instrument(tracer: Tracer, layer_sizes: tuple[int, ...], clean_acts: dict):
    """Wrap the package's public functions for one traced command.

    `clean_acts` maps a hidden layer index to the packed activations of the
    clean model on the evaluation inputs; activations of faulty trials are
    compared against it to count the ones a fault changed.
    """
    from bitflip_bnn import bitcore, cli, faultsim, mtj, trainer

    layer_index = {pair: i for i, pair in enumerate(zip(layer_sizes, layer_sizes[1:]))}
    counts = tracer.counts
    targets: dict[float, float] = {}

    def forward_metric(a):
        layer = a["layer"]
        return f"bitcore.linear_forward_s.l{layer_index[(layer.in_features, layer.out_features)]}"

    def forward_hook(a, result):
        layer, x = a["layer"], a["x"]
        out_bytes = result.words.nbytes if isinstance(result, bitcore.BitTensor) else result.nbytes
        counts["bitcore.word_ops"] += x.n_rows * layer.out_features * layer.weights.words_per_row
        counts["bitcore.bytes_moved"] += (
            x.words.nbytes + layer.weights.words.nbytes + layer.thresholds.nbytes + out_bytes
        )
        i = layer_index[(layer.in_features, layer.out_features)]
        clean = clean_acts.get(i)
        if clean is not None and tracer.inside("faultsim.trial_s") and x.n_rows == clean.n_rows:
            counts[f"changed.l{i}"] += _popcount(result.words, clean.words)
            counts[f"evaluated.l{i}"] += x.n_rows * layer.out_features

    def flip_hook(a, faulty):
        flips = sum(
            _popcount(clean.weights.words, bad.weights.words)
            for clean, bad in zip(a["model"].layers, faulty.layers)
        )
        counts["faultsim.flips"] += flips
        counts["faultsim.zero_flip_trials"] += flips == 0

    def trial_hook(a, _result):
        model, inputs, labels = a["args"][:3]
        counts["faultsim.job_bytes"] += inputs.words.nbytes + labels.nbytes + sum(
            layer.weights.words.nbytes + layer.thresholds.nbytes for layer in model.layers
        )

    def pulse_hook(a, t_pulse):
        targets[t_pulse] = a["target_ber"]

    def energy_hook(a, stats):
        counts["mtj.mc_samples"] += a["samples"]
        target = targets.get(a["t_pulse"])
        if target is not None:
            sigma = (target * (1.0 - target) / a["samples"]) ** 0.5
            z = abs(stats.ber_observed - target) / sigma
            counts["mtj.ber_observed_z"] = max(counts["mtj.ber_observed_z"], z)

    wrap = tracer.wrap
    wrap(cli, "load_model", "bitcore.load_model_s")
    wrap(cli, "save_model", "bitcore.save_model_s")
    wrap(cli, "load_dataset", "mnist_io.load_dataset_s")
    wrap(cli, "load_device_config", "mtj.load_device_config_s")
    wrap(cli, "ber_sweep", "faultsim.orchestration_s")
    wrap(cli, "energy_ber_curve", "mtj.energy_ber_curve_s")
    wrap(cli, "train", "trainer.train_s")
    wrap(cli, "export_model", "trainer.export_model_s")
    wrap(faultsim, "binarize_input", "mnist_io.binarize_input_s")
    wrap(faultsim, "_run_trial", "faultsim.trial_s", trial_hook)
    wrap(faultsim, "flip_bits", "faultsim.flip_bits_s", flip_hook)
    wrap(faultsim, "model_predict_batch", "bitcore.model_predict_batch_s")
    wrap(bitcore, "linear_forward", forward_metric, forward_hook)
    wrap(mtj, "pulse_for_ber", "mtj.pulse_for_ber_s", pulse_hook)
    wrap(mtj, "gamma_upper_q", "mtj.gamma_upper_q_s")
    wrap(mtj, "write_energy_mc", "mtj.write_energy_mc_s", energy_hook)
    wrap(trainer, "binarize_input", "mnist_io.binarize_input_s")
    wrap(trainer, "forward_train", "trainer.forward_train_s")
    wrap(trainer, "backward_ste", "trainer.backward_ste_s")
    wrap(trainer, "adam_step", "trainer.adam_step_s")
    wrap(trainer, "export_model", "trainer.export_model_s")
    wrap(trainer, "accuracy", "faultsim.accuracy_s")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self times by metric name, plus the counts and ratios the hooks took."""
    values = dict(tracer.counts)
    values.update(tracer.self_times())
    values["bitcore.forward_calls"] = sum(
        tracer.calls(f"bitcore.linear_forward_s.l{i}") for i in range(3)
    )
    values["mtj.gamma_upper_q_calls"] = tracer.calls("mtj.gamma_upper_q_s")
    values["trainer.steps"] = tracer.calls("trainer.adam_step_s")
    for i in range(2):
        evaluated = tracer.counts.get(f"evaluated.l{i}", 0)
        if evaluated:
            values[f"faultsim.act_changed_frac.l{i}"] = tracer.counts[f"changed.l{i}"] / evaluated
    values["trace.hook_s"] = values.pop(HOOK, 0.0)
    values["trace.self_sum_s"] = sum(tracer.self_times().values()) - values["trace.hook_s"]
    return values
