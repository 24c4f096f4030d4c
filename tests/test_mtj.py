import math
import warnings

import numpy as np
import pytest
from scipy import special

from bitflip_bnn import mtj
from bitflip_bnn.errors import FormatError, NumericError
from bitflip_bnn.mtj import (
    AP_TO_P,
    INTRINSIC_ONLY,
    P_TO_AP,
    WITH_DEVICE_VARIATIONS,
    MtjDeviceParams,
    conduction_energy,
    energy_ber_curve,
    gamma_upper_q,
    mean_switching_time,
    parse_device_config,
    pulse_for_ber,
    resistances,
    switching_time_sample,
    write_energy_mc,
)


@pytest.fixture
def params():
    return MtjDeviceParams.nominal()


def _ber_at_pulse(params, t_pulse):
    """The paper's BER(t) = Q(k, t / theta), with theta = tau / k."""
    return gamma_upper_q(params.k, t_pulse / (mean_switching_time(params) / params.k))


def expected_write_energy(params, t_pulse, direction):
    """Independent analytic expectation of the conduction energy.

    E[min(t_sw, T)] = k*theta*P(k+1, x) + T*Q(k, x) and
    E[max(0, T - t_sw)] = T*P(k, x) - k*theta*P(k+1, x) with x = T/theta,
    using scipy's regularized incomplete gammas.
    """
    theta = mean_switching_time(params) / params.k
    x = t_pulse / theta
    k = params.k
    e_min = k * theta * special.gammainc(k + 1, x) + t_pulse * special.gammaincc(k, x)
    e_rem = t_pulse * special.gammainc(k, x) - k * theta * special.gammainc(k + 1, x)
    r_p, r_ap = resistances(params)
    r_init, r_final = (r_p, r_ap) if direction == P_TO_AP else (r_ap, r_p)
    return params.v_write**2 * (e_min / r_init + e_rem / r_final)


# ---------------------------------------------------------------------------
# resistances
# ---------------------------------------------------------------------------


def test_tmr_definition_round_trip(params):
    r_p, r_ap = resistances(params)
    assert (r_ap - r_p) / r_p == pytest.approx(params.tmr)


def test_nominal_resistance_value(params):
    # area = pi*(16 nm)^2 = 804.25 nm^2, R_P = 4 ohm*um^2 / area
    r_p, r_ap = resistances(params)
    assert r_p == pytest.approx(4973.59, rel=1e-4)
    assert r_ap == pytest.approx(2.5 * 4973.59, rel=1e-4)


def test_simple_tmr_scaling():
    p = MtjDeviceParams(
        diameter_nm=32, ra_ohm_um2=4, tmr=1.5, v_c=0.19, tau_0=1e-9, k=16, v_write=0.38
    )
    r_p, r_ap = resistances(p)
    assert r_ap == pytest.approx(r_p * 2.5)


def test_doubling_diameter_quarters_resistance(params):
    wide = MtjDeviceParams(
        diameter_nm=2 * params.diameter_nm,
        ra_ohm_um2=params.ra_ohm_um2,
        tmr=params.tmr,
        v_c=params.v_c,
        tau_0=params.tau_0,
        k=params.k,
        v_write=params.v_write,
    )
    assert resistances(wide)[0] == pytest.approx(resistances(params)[0] / 4)


# ---------------------------------------------------------------------------
# switching time
# ---------------------------------------------------------------------------


def _at_voltage(params, ratio):
    return MtjDeviceParams(
        diameter_nm=params.diameter_nm,
        ra_ohm_um2=params.ra_ohm_um2,
        tmr=params.tmr,
        v_c=params.v_c,
        tau_0=params.tau_0,
        k=params.k,
        v_write=ratio * params.v_c,
        sigma_tmr_rel=params.sigma_tmr_rel,
        sigma_rp_rel=params.sigma_rp_rel,
    )


def test_mean_time_at_twice_critical(params):
    assert mean_switching_time(params) == pytest.approx(params.tau_0)


def test_mean_time_at_three_times_critical(params):
    assert mean_switching_time(_at_voltage(params, 3.0)) == pytest.approx(params.tau_0 / 2)


def test_mean_time_diverges_near_critical(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        near = _at_voltage(params, 1.01)
    assert mean_switching_time(near) > 10 * mean_switching_time(params)


def test_subcritical_voltage_rejected(params):
    with pytest.raises(ValueError, match="v_write"):
        _at_voltage(params, 0.9)


def test_low_overdrive_warns(params):
    with pytest.warns(UserWarning, match="1.5"):
        _at_voltage(params, 1.2)


def test_sampler_moments(params):
    rng = np.random.default_rng(100)
    samples = np.array([switching_time_sample(params, rng) for _ in range(2000)])
    tau = mean_switching_time(params)
    assert samples.mean() == pytest.approx(tau, rel=0.02)
    assert samples.std() / samples.mean() == pytest.approx(0.25, rel=0.1)


def test_sampler_cdf_at_mean_matches_closed_form(params):
    rng = np.random.default_rng(101)
    tau = mean_switching_time(params)
    n = 10**6
    samples = rng.gamma(params.k, tau / params.k, size=n)
    empirical = np.count_nonzero(samples <= tau) / n
    assert abs(empirical - (1.0 - gamma_upper_q(16, 16.0))) < 0.005


# ---------------------------------------------------------------------------
# closed-form tail and pulse solving
# ---------------------------------------------------------------------------


def test_q_matches_scipy_on_grid():
    for x in np.linspace(0.0, 120.0, 241):
        assert gamma_upper_q(16, float(x)) == pytest.approx(
            float(special.gammaincc(16, x)), rel=1e-10, abs=1e-300
        )


def test_q_strictly_decreasing(params):
    theta = mean_switching_time(params) / params.k
    # strict decrease on a 10^3 grid where the differences are representable
    grid = np.linspace(3.0, 100.0, 1000) * theta
    values = [_ber_at_pulse(params, float(t)) for t in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    # near t=0 the tail saturates at 1.0 in floats but never increases
    tiny = [_ber_at_pulse(params, float(t)) for t in np.linspace(0.0, 3.0, 200) * theta]
    assert all(a >= b for a, b in zip(tiny, tiny[1:]))
    assert tiny[0] == 1.0


def test_ber_at_zero_pulse_is_one(params):
    assert _ber_at_pulse(params, 0.0) == 1.0


def test_ber_vanishes_for_long_pulses(params):
    theta = mean_switching_time(params) / params.k
    assert _ber_at_pulse(params, 10 * params.k * theta) < 1e-12


def test_ber_rejects_negative_pulse(params):
    with pytest.raises(ValueError):
        _ber_at_pulse(params, -1e-9)


def test_q_and_ber_at_infinity_are_zero(params):
    for k in (1, 16, 200):
        assert gamma_upper_q(k, math.inf) == 0.0
    assert _ber_at_pulse(params, math.inf) == 0.0


def test_nan_pulse_and_tail_argument_are_refused(params):
    with pytest.raises(ValueError, match="x must be non-negative"):
        gamma_upper_q(16, math.nan)
    with pytest.raises(ValueError, match="pulse width must be non-negative"):
        write_energy_mc(params, math.nan, P_TO_AP, 10, np.random.default_rng(0))


def test_monte_carlo_refuses_an_infinite_pulse(params):
    # no cell is left unswitched, but the conduction energy has no finite mean
    assert _ber_at_pulse(params, math.inf) == 0.0
    with pytest.raises(ValueError, match="pulse width must be non-negative and finite"):
        write_energy_mc(params, math.inf, P_TO_AP, 10, np.random.default_rng(0))


def test_non_integer_shape_rejected(params):
    odd = MtjDeviceParams(
        diameter_nm=32, ra_ohm_um2=4, tmr=1.5, v_c=0.19, tau_0=1e-9, k=15.5, v_write=0.38
    )
    with pytest.raises(ValueError, match="integer"):
        _ber_at_pulse(odd, 1e-9)
    with pytest.raises(ValueError, match="integer"):
        pulse_for_ber(odd, 1e-3)


def test_pulse_for_full_ber_is_zero(params):
    assert pulse_for_ber(params, 1.0) == 0.0


def test_pulse_for_ber_rejects_bad_targets(params):
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            pulse_for_ber(params, bad)


def test_pulse_round_trips(params):
    for target in (1e-2, 1e-4, 1e-6):
        t = pulse_for_ber(params, target)
        assert _ber_at_pulse(params, t) == pytest.approx(target, rel=1e-6)


def test_pulse_matches_scipy_inverse(params):
    theta = mean_switching_time(params) / params.k
    for target in (0.5, 1e-1, 1e-3, 1e-6, 1e-9):
        expected = float(special.gammainccinv(16, target)) * theta
        assert pulse_for_ber(params, target) == pytest.approx(expected, rel=1e-8)


def test_pulse_ratio_between_operating_points(params):
    # frozen from the scipy inverse: 42.6158/31.2436 (Wilson-Hilferty ~1.37)
    ratio = pulse_for_ber(params, 1e-6) / pulse_for_ber(params, 1e-3)
    assert ratio == pytest.approx(1.3639837394, rel=1e-8)
    assert 1.3 <= ratio <= 1.45


# ---------------------------------------------------------------------------
# write energy
# ---------------------------------------------------------------------------


def test_conduction_energy_no_switch(params):
    r_p, r_ap = resistances(params)
    t_pulse = 2e-9
    e = conduction_energy(5e-9, t_pulse, r_p, r_ap, params.v_write)
    assert float(e) == params.v_write**2 * t_pulse / r_p


def test_conduction_energy_half_interval_switch(params):
    r_p, r_ap = resistances(params)
    t_pulse = 2e-9
    e = conduction_energy(t_pulse / 2, t_pulse, r_p, r_ap, params.v_write)
    assert float(e) == pytest.approx(
        params.v_write**2 * t_pulse * (1 / r_p + 1 / r_ap) / 2, rel=1e-12
    )


def test_conduction_energy_additive_in_no_switch_regime(params):
    r_p, r_ap = resistances(params)
    e1 = float(conduction_energy(1.0, 1e-9, r_p, r_ap, params.v_write))
    e2 = float(conduction_energy(1.0, 2e-9, r_p, r_ap, params.v_write))
    assert e2 == 2 * e1


def _conduction_cases(params):
    """(t_sw, r_init, r_final) on scalars, arrays and broadcast resistances."""
    rng = np.random.default_rng(41)
    r_p, r_ap = resistances(params)
    t_sw = rng.gamma(params.k, mean_switching_time(params) / params.k, size=1000)
    t_sw[:3] = [0.0, 2e-9, 4e-9]  # at and around the pulse end
    r_init = r_p * (1.0 + 0.05 * rng.standard_normal(1000))
    r_final = r_init * (1.0 + params.tmr)
    return {
        "scalars": (1.5e-9, r_p, r_ap),
        "arrays": (t_sw, r_init, r_final),
        "scalar-resistances": (t_sw, r_ap, r_p),
        "broadcast-resistances": (t_sw, np.broadcast_to(r_p, t_sw.shape), r_final),
    }


@pytest.mark.parametrize(
    "case", ["scalars", "arrays", "scalar-resistances", "broadcast-resistances"]
)
@pytest.mark.parametrize("out", ["plain", "fresh-out", "out-is-t_sw"])
def test_conduction_energy_equals_the_formula_bit_for_bit(params, case, out):
    t_sw, r_init, r_final = _conduction_cases(params)[case]
    t = np.asarray(t_sw, dtype=np.float64)
    want = params.v_write**2 * (
        np.minimum(t, 2e-9) / r_init + np.maximum(0.0, 2e-9 - t) / r_final
    )
    t_in = np.array(t_sw, dtype=np.float64)
    target = {"plain": None, "fresh-out": np.empty_like(t_in), "out-is-t_sw": t_in}[out]
    got = conduction_energy(t_in, 2e-9, r_init, r_final, params.v_write, out=target)
    if target is not None:
        assert got is target
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_mc_no_switch_regime_is_deterministic(params):
    # pulse far below the distribution support: nothing switches
    theta = mean_switching_time(params) / params.k
    t_pulse = theta * 1e-6
    r_p, _ = resistances(params)
    stats = write_energy_mc(params, t_pulse, P_TO_AP, 1000, np.random.default_rng(0))
    assert stats.ber_observed == 1.0
    expected = params.v_write**2 * t_pulse / r_p
    assert stats.energy_mean == pytest.approx(expected, rel=1e-15)
    # every sample has the identical energy; only summation rounding remains
    assert stats.energy_std <= 1e-14 * expected


def test_mc_energy_matches_analytic_expectation(params):
    t_pulse = pulse_for_ber(params, 1e-3)
    for direction in (P_TO_AP, AP_TO_P):
        stats = write_energy_mc(
            params, t_pulse, direction, 10**5, np.random.default_rng(200)
        )
        assert stats.energy_mean == pytest.approx(
            expected_write_energy(params, t_pulse, direction), rel=0.02
        )


def test_mc_failure_rate_matches_closed_form(params):
    target = 1e-2
    t_pulse = pulse_for_ber(params, target)
    n = 10**6
    stats = write_energy_mc(params, t_pulse, P_TO_AP, n, np.random.default_rng(201))
    sigma = math.sqrt(target * (1 - target) / n)
    assert abs(stats.ber_observed - target) < 5 * sigma


def test_mc_at_target_operating_point(params):
    # at the BER=1e-6 pulse, 10^5 writes see ~0.1 expected failures
    t_pulse = pulse_for_ber(params, 1e-6)
    stats = write_energy_mc(params, t_pulse, P_TO_AP, 10**5, np.random.default_rng(202))
    assert stats.ber_observed * 10**5 <= 5
    assert stats.energy_mean == pytest.approx(
        expected_write_energy(params, t_pulse, P_TO_AP), rel=0.02
    )


def test_mc_chunked_merge_matches_direct(params, monkeypatch):
    monkeypatch.setattr(mtj, "_MC_CHUNK", 1000)
    t_pulse = pulse_for_ber(params, 1e-2)
    stats = write_energy_mc(params, t_pulse, P_TO_AP, 2500, np.random.default_rng(7))
    r_p, r_ap = resistances(params)
    theta = mean_switching_time(params) / params.k
    t_sw = np.random.default_rng(7).gamma(params.k, theta, size=2500)
    energy = conduction_energy(t_sw, t_pulse, r_p, r_ap, params.v_write)
    assert stats.energy_mean == pytest.approx(float(energy.mean()), rel=1e-12)
    assert stats.energy_std == pytest.approx(float(energy.std(ddof=1)), rel=1e-12)
    assert stats.ber_observed == np.count_nonzero(t_sw > t_pulse) / 2500


def test_mc_deterministic_given_seed(params):
    t = pulse_for_ber(params, 1e-3)
    a = write_energy_mc(params, t, P_TO_AP, 5000, np.random.default_rng(3), WITH_DEVICE_VARIATIONS)
    b = write_energy_mc(params, t, P_TO_AP, 5000, np.random.default_rng(3), WITH_DEVICE_VARIATIONS)
    assert a == b


def test_mc_argument_validation(params):
    with pytest.raises(ValueError):
        write_energy_mc(params, 1e-9, "sideways", 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        write_energy_mc(params, 1e-9, P_TO_AP, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        write_energy_mc(params, 1e-9, P_TO_AP, 10, np.random.default_rng(0), "half")


# ---------------------------------------------------------------------------
# energy curve
# ---------------------------------------------------------------------------


def test_curve_sorted_descending_and_monotone(params):
    bers = [10**-e for e in range(1, 9)]
    points = energy_ber_curve(params, bers, 20000, seed=5)
    assert [p.ber for p in points] == sorted(bers, reverse=True)
    energies = [p.energy_mean for p in points]
    assert all(a < b for a, b in zip(energies, energies[1:]))
    pulses = [p.t_pulse for p in points]
    assert all(a < b for a, b in zip(pulses, pulses[1:]))


def test_curve_two_point_ratio_matches_oracle(params):
    points = energy_ber_curve(params, [1e-3, 1e-6], 10**5, seed=6)
    got = points[1].energy_mean / points[0].energy_mean
    expected = sum(
        expected_write_energy(params, points[1].t_pulse, d) for d in (P_TO_AP, AP_TO_P)
    ) / sum(expected_write_energy(params, points[0].t_pulse, d) for d in (P_TO_AP, AP_TO_P))
    assert got == pytest.approx(expected, rel=0.02)


def test_curve_single_half_ber(params):
    (point,) = energy_ber_curve(params, [0.5], 1000, seed=8)
    assert point.t_pulse > 0
    assert point.energy_mean > 0
    assert math.isfinite(point.energy_mean)


def test_curve_variability_close_to_intrinsic(params):
    base = energy_ber_curve(params, [1e-4], 50000, seed=9, variability_mode=INTRINSIC_ONLY)
    varied = energy_ber_curve(
        params, [1e-4], 50000, seed=9, variability_mode=WITH_DEVICE_VARIATIONS
    )
    assert varied[0].energy_mean == pytest.approx(base[0].energy_mean, rel=0.10)
    # resistance spread widens the energy distribution
    assert varied[0].energy_std > base[0].energy_std


def test_curve_rejects_bad_bers(params):
    with pytest.raises(ValueError):
        energy_ber_curve(params, [], 100, 0)
    with pytest.raises(ValueError):
        energy_ber_curve(params, [0.5, 1.0], 100, 0)
    with pytest.raises(ValueError):
        energy_ber_curve(params, [0.0], 100, 0)


def test_curve_rejects_no_samples_before_any_pulse_solve(params, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("pulse solved for a curve of 0 samples")

    monkeypatch.setattr(mtj, "pulse_for_ber", fail)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        energy_ber_curve(params, [1e-3], 0, 0)


def test_curve_deterministic(params):
    a = energy_ber_curve(params, [1e-2, 1e-5], 2000, seed=10)
    b = energy_ber_curve(params, [1e-5, 1e-2], 2000, seed=10)  # order-insensitive
    assert a == b


def test_energies_in_femtojoule_decade(params):
    # with tau0 = 1 ns the per-bit write energies land in 10..1000 fJ
    points = energy_ber_curve(params, [1e-2, 1e-6], 5000, seed=11)
    for p in points:
        assert 10e-15 < p.energy_mean < 1000e-15


# Devices the model describes (finite, positive resistances and write power)
# whose write energies float64 holds, but not their moments: the squares
# overflow, the squared deviations underflow to 0, or every energy does.
OUT_OF_RANGE_DEVICES = {
    "tau0-1e300": "tau0_ns=1e300\n",
    "tau0-1.29e191": "tau0_ns=1.29e191\n",
    "vc-2.43e89": "vc_mv=2.43e89\n",
    "diameter-1e-140": "diameter_nm=1e-140\n",
    "all-energies-zero": "tau0_ns=1e-291\nra_ohm_um2=1e300\n",
}


@pytest.mark.parametrize("mode", [INTRINSIC_ONLY, WITH_DEVICE_VARIATIONS])
@pytest.mark.parametrize("config", OUT_OF_RANGE_DEVICES.values(), ids=OUT_OF_RANGE_DEVICES)
def test_curve_refuses_energies_whose_moments_leave_the_float_range(config, mode):
    params = parse_device_config(config)
    with pytest.raises(NumericError) as raised:
        energy_ber_curve(params, [1e-1, 1e-3, 1e-8], 200, 0, mode)
    message = str(raised.value)
    assert message.startswith("BER=0.1: write energies of ") and str(params) in message


# ---------------------------------------------------------------------------
# device config files
# ---------------------------------------------------------------------------


def test_config_defaults_match_nominal_device():
    params = parse_device_config("")
    nominal = MtjDeviceParams.nominal()
    assert params == nominal


def test_config_parses_units():
    text = """
    # a smaller, slower junction
    diameter_nm = 40
    vc_mv = 250
    v_over_vc = 1.8
    tau0_ns = 2.5
    gamma_k = 9
    """
    p = parse_device_config(text)
    assert p.diameter_nm == 40
    assert p.v_c == pytest.approx(0.250)
    assert p.v_write == pytest.approx(0.450)
    assert p.tau_0 == pytest.approx(2.5e-9)
    assert p.k == 9
    assert p.tmr == 1.5  # default retained


def test_config_unknown_key_names_it():
    with pytest.raises(FormatError, match="unknown key 'vc_volts'"):
        parse_device_config("vc_volts=0.2")


def test_config_duplicate_key():
    with pytest.raises(FormatError, match="duplicate"):
        parse_device_config("tmr=1.5\ntmr=1.2")


def test_config_bad_number():
    with pytest.raises(FormatError, match="not a number"):
        parse_device_config("tmr=lots")


def test_config_bad_line():
    with pytest.raises(FormatError, match="key=value"):
        parse_device_config("tmr: 1.5")


def test_bisection_budget_is_sufficient(params, monkeypatch):
    # extreme but representable targets still converge within the 200-iteration cap
    for target in (1 - 1e-9, 1e-300):
        t = pulse_for_ber(params, target)
        assert t >= 0
    monkeypatch.setattr(mtj, "PULSE_REL_TOL", 0.0)  # unreachable tolerance
    with pytest.raises(NumericError):
        pulse_for_ber(params, 1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field",
    ["diameter_nm", "ra_ohm_um2", "tmr", "v_c", "tau_0", "k", "v_write",
     "sigma_tmr_rel", "sigma_rp_rel"],
)
def test_params_reject_non_finite_fields(params, field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MtjDeviceParams(**{**vars(params), field: bad})


@pytest.mark.parametrize("text", ["tmr=nan", "diameter_nm=inf", "sigma_rp_rel=-inf"])
def test_config_non_finite_value_names_key(text):
    key = text.split("=")[0]
    with pytest.raises(FormatError, match=f"'{key}' is not finite"):
        parse_device_config(text)


def test_config_nonphysical_device_is_format_error():
    with pytest.raises(FormatError, match="v_write"):
        parse_device_config("v_over_vc=0.5")
