"""Behavioral spin-torque MTJ model: resistances, stochastic switching, energy.

A junction stores a bit as the relative magnetization of two layers;
parallel/antiparallel states differ in resistance:

    TMR = (R_AP - R_P) / R_P,   R_P = RA / area

Programming applies a voltage pulse. The mean switching time follows Sun's
model, tau = tau0 * Vc / (V - Vc) (valid for V well above the critical
voltage Vc), and the actual switching time is gamma-distributed with shape k
and scale theta = tau / k (k = 16 gives a relative spread of 0.25). A write
error is a cell that has not switched when the pulse ends, so

    BER(t_pulse) = P(t_sw > t_pulse) = Q(k, t_pulse / theta)

with Q the regularized upper incomplete gamma, evaluated for integer k by
the exact Poisson sum exp(-x) * sum_{i<k} x^i / i!. Per-write energy is the
junction conduction energy V^2 * t / R, split between the initial-state and
final-state resistance at the sampled switching instant. Device-to-device
variability perturbs R_P and TMR with independent Gaussian relative noise;
Vc and tau0 are held nominal.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError, NumericError

INTRINSIC_ONLY = "intrinsic_only"
WITH_DEVICE_VARIATIONS = "with_device_variations"
VARIABILITY_MODES = (INTRINSIC_ONLY, WITH_DEVICE_VARIATIONS)

P_TO_AP = "p_to_ap"
AP_TO_P = "ap_to_p"
DIRECTIONS = (P_TO_AP, AP_TO_P)

_MC_CHUNK = 1 << 20  # samples per vectorized chunk; fixed so results do not
# depend on how a caller splits the total sample count
_BLOCK = 1 << 15  # switching times drawn per pass of the in-place energy step;
# its 256 KiB of draws stay in cache while each chunk array streams through once
PULSE_REL_TOL = 1e-9  # relative bracket width at which pulse_for_ber's bisection stops


@dataclass
class MtjDeviceParams:
    """Junction geometry, electrical parameters and variability sigmas.

    Units: diameter in nm, RA product in ohm*um^2, voltages in V, times in s.
    tmr and the sigmas are dimensionless ratios (tmr=1.5 means 150%).
    """

    diameter_nm: float
    ra_ohm_um2: float
    tmr: float
    v_c: float
    tau_0: float
    k: float
    v_write: float
    sigma_tmr_rel: float = 0.0
    sigma_rp_rel: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("diameter_nm", "ra_ohm_um2", "tmr", "v_c", "tau_0", "k"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.sigma_tmr_rel < 0 or self.sigma_rp_rel < 0:
            raise ValueError("variability sigmas must be non-negative")
        # finite values can still under- or overflow: the junction area to 0 or
        # past the float range (which raises), a resistance, V^2 or tau to 0 or
        # inf; at v_write <= v_c, tau is negative or divides by zero
        try:
            r_p, r_ap = resistances(self)
            power = self.v_write * self.v_write / r_ap
        except (ZeroDivisionError, OverflowError):
            r_p = r_ap = power = math.nan
        tau = mean_switching_time(self) if self.v_write != self.v_c else math.inf
        if not all(0 < value < math.inf for value in (r_p, r_ap, power, tau)):
            raise ValueError(
                f"diameter_nm, ra_ohm_um2, tmr, v_c, tau_0 and v_write give R_P={r_p!r} ohm, "
                f"R_AP={r_ap!r} ohm, a write power V^2/R_AP={power!r} W and a mean "
                f"switching time tau={tau!r} s; each must be finite and positive"
            )
        if self.v_write < 1.5 * self.v_c:
            warnings.warn(
                f"v_write={self.v_write} V is below 1.5*v_c; the mean "
                "switching-time model is only trusted well above v_c",
                stacklevel=2,
            )

    @classmethod
    def nominal(cls) -> "MtjDeviceParams":
        """32 nm perpendicular-anisotropy junction written at 2*Vc (the config defaults)."""
        return parse_device_config("")


class EnergyStats(NamedTuple):
    energy_mean: float
    energy_std: float
    ber_observed: float


@dataclass
class ProgrammingPoint:
    """One operating point of the energy-vs-BER tradeoff curve."""

    t_pulse: float
    ber: float
    energy_mean: float
    energy_std: float
    variability_mode: str
    # observed unswitched fraction per direction, in DIRECTIONS order
    ber_observed: tuple[float, ...] = ()


def resistances(params: MtjDeviceParams) -> tuple[float, float]:
    """(R_P, R_AP) in ohms from the RA product, diameter and TMR."""
    area_um2 = math.pi * (params.diameter_nm / 2000.0) ** 2
    r_p = params.ra_ohm_um2 / area_um2
    r_ap = r_p * (1.0 + params.tmr)
    return r_p, r_ap


def mean_switching_time(params: MtjDeviceParams) -> float:
    """Sun-model mean switching time tau0 * Vc / (V - Vc), in seconds."""
    return params.tau_0 * params.v_c / (params.v_write - params.v_c)


def _gamma_theta(params: MtjDeviceParams) -> float:
    return mean_switching_time(params) / params.k


def switching_time_sample(params: MtjDeviceParams, rng: np.random.Generator) -> float:
    """Draw one stochastic switching time (gamma, shape k, scale tau/k)."""
    return float(rng.gamma(params.k, _gamma_theta(params)))


def _integer_shape(k: float) -> int:
    ik = round(k)
    if ik < 1 or abs(k - ik) > 1e-9:
        raise ValueError(
            f"closed-form switching tail needs a positive integer gamma shape, got k={k}"
        )
    return ik


def gamma_upper_q(k: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(k, x) for positive integer k.

    Closed form (Poisson sum): Q(k, x) = exp(-x) * sum_{i=0}^{k-1} x^i / i!.
    Evaluated directly for x >= k; for x < k the numerically better route is
    the exact complement 1 - P(k, x) with P from its power series, which
    avoids accumulated rounding when Q is within a few ulp of 1. Q(k, 0) = 1
    and Q(k, inf) = 0 exactly; a negative or NaN x is refused.
    """
    ik = _integer_shape(k)
    if not x >= 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if x < ik:
        # P(k,x) = x^k e^-x / Gamma(k+1) * sum_{n>=0} x^n / ((k+1)...(k+n))
        term = 1.0 / ik
        total = term
        n = ik
        while True:
            n += 1
            term *= x / n
            total += term
            if term < total * 1e-17:
                break
        p_low = total * math.exp(-x + ik * math.log(x) - math.lgamma(ik))
        return 1.0 - p_low
    lead = math.exp(-x)
    if lead > 0.0:
        term = lead
        total = term
        for i in range(1, ik):
            term *= x / i
            total += term
    else:
        # x beyond exp underflow (~745): sum term-by-term in log space
        lx = math.log(x)
        total = 0.0
        for i in range(ik):
            total += math.exp(-x + i * lx - math.lgamma(i + 1))
    return min(total, 1.0)


def pulse_for_ber(params: MtjDeviceParams, target_ber: float) -> float:
    """Pulse width achieving a target BER, by bisection on the exact tail.

    Q(k, t/theta) is strictly decreasing in t, so the solution is unique.
    target_ber=1.0 maps to the t=0 boundary. Any other target whose pulse
    over- or underflows the float range raises NumericError naming it.
    """
    if not 0.0 < target_ber <= 1.0:
        raise ValueError("target BER must lie in (0, 1]")
    if target_ber == 1.0:
        return 0.0
    k = params.k
    theta = _gamma_theta(params)

    lo, hi = 0.0, float(k)
    expansions = 0
    while gamma_upper_q(k, hi) > target_ber:
        hi *= 2.0
        expansions += 1
        if expansions > 100:
            raise NumericError(f"could not bracket BER={target_ber}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gamma_upper_q(k, mid) > target_ber:
            lo = mid
        else:
            hi = mid
        if lo > 0.0 and (hi - lo) <= PULSE_REL_TOL * lo:
            t_pulse = 0.5 * (lo + hi) * theta
            if 0.0 < t_pulse < math.inf:
                return t_pulse
            raise NumericError(
                f"BER={target_ber!r}: a pulse of {t_pulse!r} s leaves the float range: {params}"
            )
    raise NumericError(
        f"bisection for BER={target_ber} did not reach rel tol {PULSE_REL_TOL} in 200 iterations"
    )


def conduction_energy(t_sw, t_pulse: float, r_init, r_final, v_write: float, out=None):
    """Junction conduction energy of one write pulse.

    The cell conducts at the initial-state resistance until min(t_sw, t_pulse)
    and, if it switched, at the final-state resistance for the remainder:

        E = V^2 * [ min(t_sw, t_p)/R_init + max(0, t_p - t_sw)/R_final ]

    Accepts scalars or arrays (broadcast). With `out`, a float64 array of the
    broadcast shape that may be t_sw itself but not a resistance, E is
    written into it in place and `out` is returned.
    """
    a = np.minimum(t_sw, t_pulse) / r_init
    e = np.subtract(t_pulse, t_sw, out=out)
    e = np.maximum(0.0, e, out=out)
    e = np.divide(e, r_final, out=out)
    e = np.add(e, a, out=out)
    return np.multiply(e, v_write**2, out=out)


def write_energy_mc(
    params: MtjDeviceParams,
    t_pulse: float,
    direction: str,
    samples: int,
    rng: np.random.Generator,
    variability_mode: str = INTRINSIC_ONLY,
) -> EnergyStats:
    """Monte Carlo per-write conduction energy for one switching direction.

    Each sample optionally perturbs R_P and TMR (relative Gaussian noise),
    draws a switching time, and dissipates conduction_energy. Returns the
    sample mean and std of E and the observed unswitched fraction.

    Samples are processed in fixed-size chunks merged by streaming
    mean/variance combination, so chunking does not change the result. A
    chunk draws its resistances whole, then its switching times one _BLOCK
    at a time, and each block's energies overwrite the resistance slots the
    block has just read: a call holds two float64 arrays of min(samples,
    _MC_CHUNK) with device variations and one without, plus one block.
    Raises NumericError when device variations sample an R_P or R_AP that
    is not finite and positive, before any switching time is drawn, and when
    float64 cannot hold the moments of a chunk's energies, before they are
    formed.
    """
    _check_samples(samples)
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if variability_mode not in VARIABILITY_MODES:
        raise ValueError(f"unknown variability mode {variability_mode!r}")
    if not 0 <= t_pulse < math.inf:
        raise ValueError("pulse width must be non-negative and finite")

    r_p_nom, r_ap_nom = resistances(params)
    theta = _gamma_theta(params)

    count = 0
    mean = 0.0
    m2 = 0.0
    unswitched = 0
    remaining = samples
    while remaining > 0:
        n = min(remaining, _MC_CHUNK)
        remaining -= n
        if variability_mode == WITH_DEVICE_VARIATIONS:
            # r_p_nom * (1 + sigma_rp * N), then r_p * (1 + tmr * (1 + sigma_tmr * N)),
            # in place and in the same operation order as the expressions
            r_p = rng.standard_normal(n)
            r_ap = rng.standard_normal(n)
            with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the check below
                r_p *= params.sigma_rp_rel
                r_p += 1.0
                r_p *= r_p_nom
                r_ap *= params.sigma_tmr_rel
                r_ap += 1.0
                r_ap *= params.tmr
                r_ap += 1.0
                r_ap *= r_p
            # an R_P of +inf makes its R_AP inf or NaN, and NaN compares false
            if not (r_p.min() > 0.0 and 0.0 < r_ap.min() <= r_ap.max() < math.inf):
                raise NumericError(
                    "a sampled R_P or R_AP is not finite and positive: sigma_rp_rel="
                    f"{params.sigma_rp_rel!r} and sigma_tmr_rel={params.sigma_tmr_rel!r} "
                    "are too large for Gaussian device variations"
                )
            energy = r_p  # each block's energies replace the R_P it has just read
        else:
            r_p = np.broadcast_to(r_p_nom, (n,))
            r_ap = np.broadcast_to(r_ap_nom, (n,))
            energy = np.empty(n)
        r_init, r_final = (r_p, r_ap) if direction == P_TO_AP else (r_ap, r_p)
        # the switching times are the stream's last draws, so drawing them a
        # block at a time gives the same samples as one draw of n
        for lo in range(0, n, _BLOCK):
            piece = slice(lo, min(lo + _BLOCK, n))
            t_sw = rng.gamma(params.k, theta, size=piece.stop - lo)
            unswitched += int(np.count_nonzero(t_sw > t_pulse))
            with np.errstate(over="ignore"):  # an inf energy fails the range check below
                conduction_energy(
                    t_sw, t_pulse, r_init[piece], r_final[piece], params.v_write, out=t_sw
                )
            energy[piece] = t_sw
        # The moments' sums, squares and products, here and in the curve, are
        # at most top = high * samples or top^2, so top^2 must be finite.
        # Underflow has lost the spread when its square, and so every squared
        # deviation, is below the smallest normal, or a pulse's energies all 0.
        low, high = float(energy.min()), float(energy.max())
        spread, top = high - low, high * samples
        lost = spread * spread < np.finfo(float).tiny if spread else high == 0 < t_pulse
        if lost or not math.isfinite(top * top):
            raise NumericError(
                f"write energies of {low!r} to {high!r} J at a {t_pulse!r} s pulse, over "
                f"{samples} samples, leave the float64 range of their mean and std: {params}"
            )

        # Chan et al. parallel mean/M2 combination
        c_mean = float(energy.mean())
        energy -= c_mean
        np.square(energy, out=energy)
        c_m2 = float(energy.sum())
        delta = c_mean - mean
        total = count + n
        mean += delta * n / total
        m2 += c_m2 + delta * delta * count * n / total
        count = total

    std = math.sqrt(m2 / (count - 1)) if count > 1 else 0.0
    return EnergyStats(mean, std, unswitched / samples)


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError("samples must be >= 1")


def check_curve_grid(bers: list[float], samples: int) -> None:
    """Refuse, with ValueError, target BERs or a sample count that energy_ber_curve cannot run."""
    if not bers:
        raise ValueError("need at least one target BER")
    for b in bers:
        if not 0.0 < b < 1.0:
            raise ValueError(f"target BERs must lie in (0, 1), got {b}")
    _check_samples(samples)


def energy_ber_curve(
    params: MtjDeviceParams,
    bers: list[float],
    samples: int,
    seed: int,
    variability_mode: str = INTRINSIC_ONLY,
) -> list[ProgrammingPoint]:
    """Energy-per-bit operating points for a list of target BERs.

    For each target the pulse width is solved from the switching tail, then
    both write directions are simulated and averaged equally. Points are
    returned sorted by BER descending (energy grows as BER shrinks). Each
    (point, direction) pair owns a derived RNG stream, so the curve is
    reproducible and the pairs are evaluated in parallel, on
    curve_workers(len(bers)) threads, with the same result for any count.
    The targets and the sample count are checked by check_curve_grid, which
    the CLI runs before it reads a device file. A NumericError of
    write_energy_mc is raised again with the BER it was simulating.
    """
    # imported here because at module level it costs every command ~5 ms and 0.3 MiB
    from concurrent.futures import ThreadPoolExecutor

    check_curve_grid(bers, samples)
    ordered = sorted(bers, reverse=True)
    pulses = [pulse_for_ber(params, ber) for ber in ordered]

    def simulate(job: tuple[int, int]) -> EnergyStats:
        idx, d_idx = job
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, idx, d_idx)))
        )
        try:
            return write_energy_mc(
                params, pulses[idx], DIRECTIONS[d_idx], samples, rng, variability_mode
            )
        except NumericError as exc:
            raise NumericError(f"BER={ordered[idx]!r}: {exc}") from exc

    jobs = [(idx, d_idx) for idx in range(len(ordered)) for d_idx in range(len(DIRECTIONS))]
    with ThreadPoolExecutor(curve_workers(len(ordered))) as pool:
        results = list(pool.map(simulate, jobs))

    points: list[ProgrammingPoint] = []
    for idx, (ber, t_pulse) in enumerate(zip(ordered, pulses)):
        stats = results[idx * len(DIRECTIONS) : (idx + 1) * len(DIRECTIONS)]
        mean = 0.5 * (stats[0].energy_mean + stats[1].energy_mean)
        # equal-weight mixture of the two direction distributions
        second_moment = 0.5 * sum(s.energy_std**2 + s.energy_mean**2 for s in stats)
        var = max(0.0, second_moment - mean**2)
        observed = tuple(s.ber_observed for s in stats)
        points.append(
            ProgrammingPoint(t_pulse, ber, mean, math.sqrt(var), variability_mode, observed)
        )
    return points


def curve_workers(n_points: int) -> int:
    """Threads energy_ber_curve uses for n_points BERs: one per (point,
    direction) job, at most one per CPU this process may run on (per CPU of
    the machine where the platform has no os.sched_getaffinity)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(n_points * len(DIRECTIONS), cpus)


# ---------------------------------------------------------------------------
# Device config files: line-oriented key=value
# ---------------------------------------------------------------------------

_CONFIG_DEFAULTS = {
    "diameter_nm": 32.0,
    "ra_ohm_um2": 4.0,
    "tmr": 1.5,
    "vc_mv": 190.0,
    "v_over_vc": 2.0,
    "tau0_ns": 1.0,
    "gamma_k": 16.0,
    "sigma_tmr_rel": 0.05,
    "sigma_rp_rel": 0.05,
}


def parse_device_config(text: str) -> MtjDeviceParams:
    """Parse key=value device config text; unknown or duplicate keys error.

    Keys not present fall back to the nominal 32 nm device values. Blank
    lines and '#' comments are allowed.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"device config line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_DEFAULTS:
            raise FormatError(f"device config line {lineno}: unknown key '{key}'")
        if key in values:
            raise FormatError(f"device config line {lineno}: duplicate key '{key}'")
        try:
            value = float(val)
        except ValueError as exc:
            raise FormatError(
                f"device config line {lineno}: value for '{key}' is not a number: {val!r}"
            ) from exc
        if not math.isfinite(value):
            raise FormatError(
                f"device config line {lineno}: value for '{key}' is not finite: {val!r}"
            )
        values[key] = value
    merged = {**_CONFIG_DEFAULTS, **values}
    try:
        _integer_shape(merged["gamma_k"])
    except ValueError as exc:
        raise FormatError(
            f"device config: gamma_k must be a positive integer, got {merged['gamma_k']!r}"
        ) from exc
    v_c = merged["vc_mv"] * 1e-3
    try:
        return MtjDeviceParams(
            diameter_nm=merged["diameter_nm"],
            ra_ohm_um2=merged["ra_ohm_um2"],
            tmr=merged["tmr"],
            v_c=v_c,
            tau_0=merged["tau0_ns"] * 1e-9,
            k=merged["gamma_k"],
            v_write=merged["v_over_vc"] * v_c,
            sigma_tmr_rel=merged["sigma_tmr_rel"],
            sigma_rp_rel=merged["sigma_rp_rel"],
        )
    except ValueError as exc:
        raise FormatError(f"device config: {exc}") from exc


def load_device_config(path) -> MtjDeviceParams:
    """Parse a device config file; every FormatError names the file.

    The bytes are decoded as strict UTF-8: any other encoding is a format
    error at the first byte that does not decode.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: device config is not UTF-8 text", exc.start) from exc
    try:
        return parse_device_config(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
