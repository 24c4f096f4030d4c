"""Output oracles that share no code with the package.

The sweep oracle reads the BNN1 file itself, re-derives every trial's weight
flips from the documented stream, SeedSequence((seed, ber_index,
trial_index)) feeding PCG64 with one `random(out * in)` draw per layer in
layer order, and scores the faulty network with a +-1 float32 matmul. Every
partial sum is an integer of magnitude at most the fan-in, so the matmul is
exact while the fan-in stays below 2**24, whatever order BLAS sums in. The
popcount of agreeing positions is then (s + n) / 2.

The energy oracle re-derives the Monte Carlo switching times from the
documented (seed, point_index, direction_index) streams and checks the
observed BER of every point against its target, and the energies against
the closed-form conduction energy of the same samples.

Each check returns a list of failure messages; an empty list means the
output is correct.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

Z_LIMIT = 5.0  # observed BER must lie within this many sigmas of its target


# ---------------------------------------------------------------------------
# Binarized network, scored with float32 +-1 matmuls
# ---------------------------------------------------------------------------


def read_bnn1(path: Path) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """Linear BNN1 layers as (weight signs [out, in] float32, thresholds, is_output)."""
    data = Path(path).read_bytes()
    if data[:4] != b"BNN1":
        raise ValueError(f"{path}: not a BNN1 file")
    (count,) = struct.unpack_from("<I", data, 4)
    offset = 8
    layers = []
    for _ in range(count):
        kind, n_out, n_in, is_output = struct.unpack_from("<BIIB", data, offset)
        if kind != 0:
            raise ValueError(f"{path}: only linear layers are scored")
        offset += 10
        thresholds = np.frombuffer(data, "<i4", n_out, offset).astype(np.int64)
        offset += 4 * n_out
        n_words = n_out * ((n_in + 63) // 64)
        words = np.frombuffer(data, "<u8", n_words, offset)
        offset += 8 * n_words
        bits = np.unpackbits(words.view(np.uint8).reshape(n_out, -1), axis=1, bitorder="little")
        signs = np.where(bits[:, :n_in], np.float32(1), np.float32(-1))
        layers.append((signs, thresholds, bool(is_output)))
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    return layers


def input_signs(pixels: np.ndarray) -> np.ndarray:
    """+-1 float32 rows; a pixel is +1 iff its intensity is at least 0.5 (128/255)."""
    flat = pixels.reshape(len(pixels), -1)
    return np.where(flat >= 128, np.float32(1), np.float32(-1))


def predict(layers, x: np.ndarray) -> np.ndarray:
    act = x
    for signs, thresholds, is_output in layers:
        s = act @ signs.T
        if is_output:
            # 2 * popcount - n - T == s - T; argmax takes the lowest class on ties
            return np.argmax(s.astype(np.int64) - thresholds, axis=1)
        popcount = (s.astype(np.int64) + signs.shape[1]) // 2
        act = np.where(popcount >= thresholds, np.float32(1), np.float32(-1))
    raise ValueError("model has no output layer")


def score(layers, x: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(predict(layers, x) == labels))


def _faulty(layers, ber: float, seed: tuple[int, int, int]):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out = []
    for signs, thresholds, is_output in layers:
        flips = (rng.random(signs.size) < ber).reshape(signs.shape)
        out.append((np.where(flips, -signs, signs), thresholds, is_output))
    return out


def sweep_csvs(model: Path, pixels, labels, bers: list[float], trials: int, seed: int):
    """The exact text of the ber-sweep summary CSV and its _trials CSV."""
    layers = read_bnn1(model)
    x = input_signs(pixels)
    acc = np.array(
        [
            [score(_faulty(layers, ber, (seed, bi, ti)), x, labels) for ti in range(trials)]
            for bi, ber in enumerate(bers)
        ]
    )
    std = acc.std(axis=1, ddof=1) if trials > 1 else np.zeros(len(bers))
    summary = ["ber,mean_accuracy,std_accuracy"] + [
        f"{ber!r},{float(m)!r},{float(s)!r}" for ber, m, s in zip(bers, acc.mean(axis=1), std)
    ]
    per_trial = ["ber,trial,accuracy"] + [
        f"{ber!r},{ti},{float(acc[bi, ti])!r}"
        for bi, ber in enumerate(bers)
        for ti in range(trials)
    ]
    return "\n".join(summary) + "\n", "\n".join(per_trial) + "\n"


def check_sweep(out_dir: Path, model: Path, pixels, labels, bers, trials, seed) -> list[str]:
    summary, per_trial = sweep_csvs(model, pixels, labels, bers, trials, seed)
    errors = []
    for name, expected in (("sweep.csv", summary), ("sweep_trials.csv", per_trial)):
        got = (out_dir / name).read_text()
        if got != expected:
            errors.append(f"{name} disagrees with the oracle:\n{got}--- expected ---\n{expected}")
    return errors


def check_train(out_dir: Path, pixels, labels, expected_sizes) -> list[str]:
    """The exported model has the expected shape and the logged accuracy is its score."""
    layers = read_bnn1(out_dir / "model.bnn")
    sizes = (layers[0][0].shape[1],) + tuple(s.shape[0] for s, _, _ in layers)
    if sizes != tuple(expected_sizes):
        return [f"exported model has layer sizes {sizes}, expected {tuple(expected_sizes)}"]
    last = (out_dir / "model.bnn.log.csv").read_text().splitlines()[-1]
    logged = last.split(",")[2]
    expected = repr(score(layers, input_signs(pixels), labels))
    if logged != expected:
        return [f"logged test accuracy {logged} but the exported model scores {expected}"]
    return []


# ---------------------------------------------------------------------------
# MTJ programming energy
# ---------------------------------------------------------------------------


def _upper_gamma_q(k: int, x: float) -> float:
    """Q(k, x) for integer k, summed in log space with math.fsum."""
    return math.fsum(math.exp(-x + i * math.log(x) - math.lgamma(i + 1)) for i in range(k))


def check_energy(out_dir: Path, device_config: str, bers, samples: int, seed: int) -> list[str]:
    """Observed BER within Z_LIMIT sigmas, energies exact and strictly rising.

    `device_config` is the key=value text given to the CLI, with every key
    present. The oracle draws each (point, direction) stream in one chunk, so
    `samples` must not exceed the package's Monte Carlo chunk of 2**20.
    """
    cfg = dict(line.split("=") for line in device_config.split())
    cfg = {key: float(value) for key, value in cfg.items()}
    if samples > 1 << 20:
        raise ValueError("the energy oracle draws one chunk of at most 2**20 samples")
    lines = (out_dir / "energy.csv").read_text().splitlines()
    if lines[0] != "ber,t_pulse_ns,energy_mean_fj,energy_std_fj,mode":
        return [f"unexpected energy header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    expected_bers = sorted(bers, reverse=True)
    if [float(r[0]) for r in rows] != expected_bers:
        return [f"energy rows are not the BER grid in descending order: {[r[0] for r in rows]}"]

    k = int(cfg["gamma_k"])
    v_c = cfg["vc_mv"] * 1e-3
    v = cfg["v_over_vc"] * v_c
    theta = cfg["tau0_ns"] * 1e-9 * v_c / (v - v_c) / k
    r_p_nom = cfg["ra_ohm_um2"] / (math.pi * (cfg["diameter_nm"] / 2000.0) ** 2)
    errors = []
    energies = []
    for idx, (ber_s, t_ns, e_fj, _std_fj, mode) in enumerate(rows):
        ber, t_pulse = float(ber_s), float(t_ns) * 1e-9
        if mode != "with_device_variations":
            errors.append(f"row {idx}: mode {mode!r}")
        tail = _upper_gamma_q(k, t_pulse / theta)
        if abs(tail - ber) > 1e-6 * ber:
            errors.append(f"BER {ber_s}: pulse {t_ns} ns has tail {tail!r}")
        means = []
        for d_idx in range(2):  # p_to_ap, then ap_to_p
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, idx, d_idx))))
            r_p = r_p_nom * (1.0 + cfg["sigma_rp_rel"] * rng.standard_normal(samples))
            tmr = cfg["tmr"] * (1.0 + cfg["sigma_tmr_rel"] * rng.standard_normal(samples))
            r_ap = r_p * (1.0 + tmr)
            t_sw = rng.gamma(k, theta, size=samples)
            r_init, r_final = (r_p, r_ap) if d_idx == 0 else (r_ap, r_p)
            observed = np.count_nonzero(t_sw > t_pulse) / samples
            sigma = math.sqrt(ber * (1.0 - ber) / samples)
            if abs(observed - ber) > Z_LIMIT * sigma:
                errors.append(f"BER {ber_s} direction {d_idx}: observed {observed!r}")
            energy = v * v * (
                np.minimum(t_sw, t_pulse) / r_init + np.maximum(0.0, t_pulse - t_sw) / r_final
            )
            means.append(float(energy.mean()))
        expected = 0.5 * (means[0] + means[1]) * 1e15
        if abs(float(e_fj) - expected) > 1e-9 * expected:
            errors.append(f"BER {ber_s}: energy {e_fj} fJ, expected {expected!r}")
        energies.append(float(e_fj))
    if any(b <= a for a, b in zip(energies, energies[1:])):
        errors.append(f"energy does not rise strictly as BER falls: {energies}")
    return errors
