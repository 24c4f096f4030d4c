"""Differential tests of the Monte Carlo energy path against its serial form.

The reference functions below are the earlier `write_energy_mc` and
`energy_ber_curve`: whole-array expressions with a fresh temporary per
operation, and the (point, direction) streams run one after another. The
current code computes in place, block by block, and runs the streams on a
thread pool; it must give the same floats exactly.
"""

import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from bitflip_bnn import mtj
from bitflip_bnn.mtj import (
    DIRECTIONS,
    INTRINSIC_ONLY,
    P_TO_AP,
    VARIABILITY_MODES,
    WITH_DEVICE_VARIATIONS,
    EnergyStats,
    MtjDeviceParams,
    ProgrammingPoint,
    conduction_energy,
    energy_ber_curve,
    mean_switching_time,
    pulse_for_ber,
    resistances,
    write_energy_mc,
)
from bitflip_bnn.errors import NumericError

REF_MC_CHUNK = 1 << 20
_B = mtj._BLOCK
# fixed counts, named by their value (one sample, a partial block, blocks,
# chunks), then counts around the switching-time block (b), named relative
# to it, so that a new block size neither renames nor merges them
SAMPLES = [1, 777, 2**15 + 1, 2**20 + 3] + [
    pytest.param(samples, id=name)
    for name, samples in [("b-1", _B - 1), ("b", _B), ("b+1", _B + 1), ("2b+5", 2 * _B + 5)]
]
CURVE_BERS = [1e-7, 1e-1, 1e-3, 1e-5]


# ---------------------------------------------------------------------------
# reference: the serial whole-array code
# ---------------------------------------------------------------------------


def reference_write_energy_mc(params, t_pulse, direction, samples, rng, variability_mode):
    r_p_nom, _ = resistances(params)
    theta = mean_theta(params)

    count = 0
    mean = 0.0
    m2 = 0.0
    unswitched = 0
    remaining = samples
    while remaining > 0:
        n = min(remaining, REF_MC_CHUNK)
        remaining -= n
        if variability_mode == WITH_DEVICE_VARIATIONS:
            r_p = r_p_nom * (1.0 + params.sigma_rp_rel * rng.standard_normal(n))
            tmr = params.tmr * (1.0 + params.sigma_tmr_rel * rng.standard_normal(n))
            r_ap = r_p * (1.0 + tmr)
        else:
            r_p = np.full(n, r_p_nom)
            r_ap = r_p * (1.0 + params.tmr)
        t_sw = rng.gamma(params.k, theta, size=n)
        if direction == P_TO_AP:
            r_init, r_final = r_p, r_ap
        else:
            r_init, r_final = r_ap, r_p
        energy = conduction_energy(t_sw, t_pulse, r_init, r_final, params.v_write)
        unswitched += int(np.count_nonzero(t_sw > t_pulse))

        c_mean = float(energy.mean())
        c_m2 = float(((energy - c_mean) ** 2).sum())
        delta = c_mean - mean
        total = count + n
        mean += delta * n / total
        m2 += c_m2 + delta * delta * count * n / total
        count = total

    std = math.sqrt(m2 / (count - 1)) if count > 1 else 0.0
    return EnergyStats(mean, std, unswitched / samples)


def mean_theta(params):
    return mean_switching_time(params) / params.k


def reference_energy_ber_curve(params, bers, samples, seed, variability_mode):
    points = []
    for idx, ber in enumerate(sorted(bers, reverse=True)):
        t_pulse = pulse_for_ber(params, ber)
        stats = []
        for d_idx, direction in enumerate(DIRECTIONS):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence((seed, idx, d_idx)))
            )
            stats.append(
                reference_write_energy_mc(
                    params, t_pulse, direction, samples, rng, variability_mode
                )
            )
        mean = 0.5 * (stats[0].energy_mean + stats[1].energy_mean)
        second_moment = 0.5 * sum(s.energy_std**2 + s.energy_mean**2 for s in stats)
        var = max(0.0, second_moment - mean**2)
        points.append(
            ProgrammingPoint(t_pulse, ber, mean, math.sqrt(var), variability_mode)
        )
    return points


def curve_fields(points):
    """The fields the reference fills, as exact tuples."""
    return [(p.t_pulse, p.ber, p.energy_mean, p.energy_std, p.variability_mode) for p in points]


@pytest.fixture
def params():
    return MtjDeviceParams.nominal()


# ---------------------------------------------------------------------------
# write_energy_mc
# ---------------------------------------------------------------------------


def test_reference_chunk_matches_module():
    assert mtj._MC_CHUNK == REF_MC_CHUNK  # the chunk size fixes the streams


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("mode", VARIABILITY_MODES)
def test_write_energy_mc_equals_reference(params, mode, direction, samples):
    t_pulse = pulse_for_ber(params, 1e-3)
    got = write_energy_mc(params, t_pulse, direction, samples, np.random.default_rng(71), mode)
    want = reference_write_energy_mc(
        params, t_pulse, direction, samples, np.random.default_rng(71), mode
    )
    assert got == want


@pytest.mark.parametrize("mode", VARIABILITY_MODES)
def test_write_energy_mc_equals_reference_with_blocks_across_chunks(params, mode, monkeypatch):
    # blocks that do not divide the chunk: each chunk ends on a partial block
    monkeypatch.setattr(mtj, "_BLOCK", 1000)
    t_pulse = pulse_for_ber(params, 1e-2)
    samples = 2**20 + 3
    got = write_energy_mc(params, t_pulse, P_TO_AP, samples, np.random.default_rng(78), mode)
    want = reference_write_energy_mc(
        params, t_pulse, P_TO_AP, samples, np.random.default_rng(78), mode
    )
    assert got == want


@pytest.mark.parametrize("mode", VARIABILITY_MODES)
def test_write_energy_mc_equals_reference_without_switching(params, mode):
    # a pulse far below the switching-time support: the max(0, t_p - t) term is 0
    t_pulse = mean_theta(params) * 1e-6
    got = write_energy_mc(params, t_pulse, P_TO_AP, 5000, np.random.default_rng(72), mode)
    want = reference_write_energy_mc(
        params, t_pulse, P_TO_AP, 5000, np.random.default_rng(72), mode
    )
    assert got == want
    assert got.ber_observed == 1.0


# one chunk's float64 arrays per call (8 bytes a sample): R_P and R_AP with
# device variations, the energies alone without; the rest is one block
PEAK_BOUNDS = {WITH_DEVICE_VARIATIONS: 2.5, INTRINSIC_ONLY: 1.25}


@pytest.mark.parametrize("mode", VARIABILITY_MODES)
def test_write_energy_mc_peak_memory_per_chunk(params, mode):
    n = mtj._MC_CHUNK
    t_pulse = pulse_for_ber(params, 1e-3)
    rng = np.random.default_rng(79)
    write_energy_mc(params, t_pulse, P_TO_AP, 1000, rng, mode)  # one-time costs
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_energy_mc(params, t_pulse, P_TO_AP, n, rng, mode)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < PEAK_BOUNDS[mode] * 8 * n, f"peak {peak / (8 * n):.2f} x 8n bytes"


class _DrawLog:
    """A Generator that records the name of every method drawn from it."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def __getattr__(self, name):
        self.draws.append(name)
        return getattr(self.rng, name)


def test_nonpositive_sampled_resistance_is_refused_before_any_switching_time(params):
    wide = MtjDeviceParams(**{**vars(params), "sigma_rp_rel": 2.0})
    rng = _DrawLog(np.random.default_rng(80))
    with pytest.raises(NumericError, match="R_P or R_AP is not finite and positive"):
        write_energy_mc(wide, 1e-9, P_TO_AP, 2**20 + 3, rng, WITH_DEVICE_VARIATIONS)
    assert rng.draws == ["standard_normal", "standard_normal"]


# ---------------------------------------------------------------------------
# energy_ber_curve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", VARIABILITY_MODES)
def test_curve_equals_reference(params, mode):
    got = energy_ber_curve(params, CURVE_BERS, 50_001, 73, mode)
    want = reference_energy_ber_curve(params, CURVE_BERS, 50_001, 73, mode)
    assert curve_fields(got) == curve_fields(want)


def test_curve_keeps_observed_ber_per_direction(params):
    points = energy_ber_curve(params, CURVE_BERS, 3000, 74, WITH_DEVICE_VARIATIONS)
    for idx, point in enumerate(points):
        want = []
        for d_idx, direction in enumerate(DIRECTIONS):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((74, idx, d_idx))))
            want.append(
                reference_write_energy_mc(
                    params, point.t_pulse, direction, 3000, rng, WITH_DEVICE_VARIATIONS
                ).ber_observed
            )
        assert point.ber_observed == tuple(want)


@pytest.mark.parametrize("mode", VARIABILITY_MODES)
def test_curve_same_for_pool_sizes_one_and_two(params, mode, monkeypatch):
    curves = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert mtj.curve_workers(len(CURVE_BERS)) == len(cpus)
        curves.append(energy_ber_curve(params, CURVE_BERS, 20_001, 75, mode))
    assert curves[0] == curves[1]


def test_curve_workers_bounded_by_jobs_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert mtj.curve_workers(1) == 2  # one point has two direction streams
    assert mtj.curve_workers(3) == 6
    assert mtj.curve_workers(8) == 8


@pytest.mark.parametrize("cpu_count,workers", [(4, 4), (None, 1)], ids=["4-cpus", "unknown"])
def test_curve_workers_without_sched_getaffinity(monkeypatch, cpu_count, workers):
    # macOS and Windows have no os.sched_getaffinity: count the machine's
    # CPUs, or run one thread where even that is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert mtj.curve_workers(8) == workers


def test_nonpositive_sampled_resistance_is_numeric_error_in_a_pool_thread(params, monkeypatch):
    wide = MtjDeviceParams(**{**vars(params), "sigma_rp_rel": 2.0})
    threads = []
    original = mtj.write_energy_mc

    def spy(*args, **kwargs):
        threads.append(threading.current_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(mtj, "write_energy_mc", spy)
    with pytest.raises(NumericError, match="R_P or R_AP is not finite and positive"):
        energy_ber_curve(wide, [1e-2, 1e-4], 10_000, 76, WITH_DEVICE_VARIATIONS)
    assert threads and all(t is not threading.main_thread() for t in threads)
    # intrinsic mode samples no resistances, so the same device still runs
    (point,) = energy_ber_curve(wide, [1e-2], 1000, 76, INTRINSIC_ONLY)
    assert math.isfinite(point.energy_mean)
