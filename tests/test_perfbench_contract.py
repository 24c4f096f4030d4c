"""The package functions the traced benchmark wraps keep the parameters its hooks read.

`perfbench/spans.py` replaces package functions by traced wrappers that bind
each call's arguments by name. A renamed function or parameter makes the
traced benchmark crash, so this test runs its `instrument` (and `restore`)
and checks every wrapped function's signature. The benchmark files are only
imported, never changed.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from bitflip_bnn import bitcore, cli, faultsim, mtj, trainer

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
LAYER_SIZES = (784, 1024, 1024, 10)

# parameters the hooks and metric names read from the bound arguments
HOOKED_PARAMETERS = {
    (bitcore, "linear_forward"): {"layer", "x"},
    (faultsim, "flip_bits"): {"model"},
    (faultsim, "_run_trial"): {"args"},
    (mtj, "pulse_for_ber"): {"target_ber"},
    (mtj, "write_energy_mc"): {"samples", "t_pulse"},
}


def _load_spans():
    if not SPANS.exists():
        pytest.skip("perfbench/spans.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_existing_functions_and_restores_them():
    spans = _load_spans()
    modules = (bitcore, cli, faultsim, mtj, trainer)
    before = {m: dict(vars(m)) for m in modules}
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer, LAYER_SIZES, {})
        wrapped = [(module, attr) for module, attr, _ in tracer._patches]
        assert wrapped, "instrument wrapped nothing"
        for module, attr in wrapped:
            assert getattr(module, attr) is not before[module][attr]
    finally:
        tracer.restore()
    for module in modules:
        for attr, value in before[module].items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr} not restored"

    for (module, attr), names in HOOKED_PARAMETERS.items():
        assert (module, attr) in wrapped, f"{module.__name__}.{attr} is no longer wrapped"
        params = set(inspect.signature(before[module][attr]).parameters)
        assert names <= params, f"{module.__name__}.{attr} lacks {sorted(names - params)}"
