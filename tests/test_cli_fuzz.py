"""Property tests of the commands: any input exits 0 or with one `error:` line.

Each command runs through cli.main in process, on derandomized draws, and
the project's pytest filter turns any RuntimeWarning that escapes into a
failure. A run that fails writes no output.

energy-curve: device files set 1-3 keys, each value log-uniform over
[1e-300, 1e300] (gamma_k a small integer), in both modes, at 1-3 target
BERs that reach 1e-300 and 1 - 2^-53. A device the model cannot describe is
bad data (exit 3) and one whose pulse or energies float64 cannot hold is a
numeric error (exit 4). A run that exits 0 writes only finite numbers, a
positive pulse and energy mean, and a non-negative std: the std is exactly
0 when a tmr below 2^-53 makes R_AP equal R_P.

train: a learning rate of any whole decade in [1e-300, 1e300], on 20
images, either trains (exit 0, a log of finite numbers) or diverges (exit 4).

ber-sweep and eval: mutated BNN1 files of a 784-input model either load and
score accuracies in [0, 1] (exit 0) or are bad data (exit 3).
"""

import contextlib
import io
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from bitflip_bnn.cli import main
from bitflip_bnn.mtj import _CONFIG_DEFAULTS
from tests.test_format_properties import _model_bytes, _mutations

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


def _run(args) -> tuple[int, list[str]]:
    """cli.main's exit code and stderr lines, stdout discarded."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    return code, stderr.getvalue().splitlines()


@settings(derandomize=True, max_examples=8, deadline=None)
@given(
    lr=st.integers(-300, 300).map(lambda e: f"1e{e}"),
    batch=st.integers(1, 40),
    epochs=st.integers(1, 2),
)
def test_train_exits_0_or_4(tmp_path_factory, synth_data_dir, lr, batch, epochs):
    tmp = tmp_path_factory.mktemp("train")
    out = tmp / "m.bnn"
    code, err = _run(["train", "--data-dir", str(synth_data_dir), "--out", str(out),
                      "--limit", "20", "--lr", lr, "--batch", str(batch),
                      "--epochs", str(epochs)])
    assert code in (0, 4), err
    if code:
        # epoch progress, then the one error line
        assert [line for line in err if not line.startswith("epoch ")] == err[-1:]
        assert err[-1].startswith("error: ") and list(tmp.iterdir()) == []
        return
    header, *rows = (tmp / "m.bnn.log.csv").read_text().splitlines()
    assert header == "epoch,train_loss,test_accuracy" and len(rows) == epochs
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row.split(",")), row


MODEL, MODEL_HEADERS = _model_bytes(784)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=_mutations(MODEL, MODEL_HEADERS))
def test_sweep_and_eval_of_a_mutated_model_exit_0_or_3(tmp_path_factory, synth_data_dir, data):
    tmp = tmp_path_factory.mktemp("model")
    model = tmp / "m.bnn"
    model.write_bytes(data)
    out = tmp / "s.csv"
    # 0 and 1e-4 are scored incrementally, 0.2 by the dense forward
    code, err = _run(["ber-sweep", "--model", str(model), "--data-dir", str(synth_data_dir),
                      "--bers", "0,1e-4,0.2", "--trials", "2", "--out", str(out)])
    assert code in (0, 3), err
    if code:
        assert len(err) == 1 and err[0].startswith("error: ")
        assert list(tmp.iterdir()) == [model]
    else:
        _, *rows = (tmp / "s_trials.csv").read_text().splitlines()
        assert len(rows) == 6
        assert all(0 <= float(row.split(",")[2]) <= 1 for row in rows), rows
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        eval_code = main(["eval", "--model", str(model), "--data-dir", str(synth_data_dir)])
    assert eval_code == code
    if not code:
        (line,) = stdout.getvalue().splitlines()
        assert 0 <= float(line.removeprefix("accuracy=")) <= 1
