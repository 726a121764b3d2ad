"""perfbench's tracer rebinds package functions by the names the modules
hold them under.  A rename or a dropped import in the package must fail
here, not in the next traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores():
    dec = importlib.import_module("orlicz4d.decompose")
    names = ("CubicSpline", "subtract_bubble", "estimate_A0", "bubble_values")
    before = {n: getattr(dec, n) for n in names}
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert all(getattr(dec, n) is not before[n] for n in names)
    finally:
        tracer.uninstall()
    assert all(getattr(dec, n) is before[n] for n in names)
