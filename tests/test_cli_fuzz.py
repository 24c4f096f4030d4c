"""Property test of the energy-curve command: any device file exits 0, 3 or 4.

Device files set 1-3 keys, each value log-uniform over [1e-300, 1e300]
(gamma_k a small integer), and run through cli.main in process, in both
modes, at 1-3 target BERs that reach 1e-300 and 1 - 2^-53. A device the
model cannot describe is bad data (exit 3) and one whose pulse or energies
float64 cannot hold is a numeric error (exit 4); neither writes any output
and each prints one `error:` line. A run that exits 0 writes only finite
numbers, a positive pulse and energy mean, and a non-negative std: the std
is exactly 0 when a tmr below 2^-53 makes R_AP equal R_P. The project's
pytest filter turns any RuntimeWarning that escapes into a failure.
"""

import contextlib
import io
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from bitflip_bnn.cli import main
from bitflip_bnn.mtj import _CONFIG_DEFAULTS

_LOG_UNIFORM = st.integers(-300, 300).map(lambda e: 10.0**e)
_ENTRY = st.sampled_from(sorted(_CONFIG_DEFAULTS)).flatmap(
    lambda key: st.tuples(
        st.just(key), st.integers(1, 32) if key == "gamma_k" else _LOG_UNIFORM
    )
)
_DEVICE = st.lists(_ENTRY, min_size=1, max_size=3, unique_by=lambda entry: entry[0])
_BER = st.one_of(
    st.sampled_from([1e-300, 0.9999999999999999]),
    st.floats(-300, -1e-9).map(lambda e: 10.0**e),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    device=_DEVICE,
    bers=st.lists(_BER, min_size=1, max_size=3, unique=True),
    samples=st.integers(1, 500),
    mode=st.sampled_from(["intrinsic", "variations"]),
)
def test_energy_curve_device_file_exits_0_3_or_4(tmp_path_factory, device, bers, samples, mode):
    tmp = tmp_path_factory.mktemp("energy")
    cfg = tmp / "dev.cfg"
    cfg.write_text("".join(f"{key}={value!r}\n" for key, value in device))
    out = tmp / "x.csv"
    args = ["energy-curve", "--device", str(cfg), "--bers", ",".join(map(repr, bers)),
            "--samples", str(samples), "--mode", mode, "--out", str(out)]
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        # a v_write close to v_c only warns; a RuntimeWarning stays an error
        warnings.filterwarnings("ignore", "v_write=", UserWarning)
        code = main(args)
    err = stderr.getvalue()
    assert code in (0, 3, 4), err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp.iterdir()) == [cfg]
        return
    header, *rows = out.read_text().splitlines()
    assert header == "ber,t_pulse_ns,energy_mean_fj,energy_std_fj,mode"
    assert len(rows) == len(bers)
    for row in rows:
        ber, t_pulse, mean, std = map(float, row.split(",")[:4])
        assert all(math.isfinite(v) for v in (ber, t_pulse, mean, std)), row
        assert t_pulse > 0 and mean > 0 and std >= 0, row
