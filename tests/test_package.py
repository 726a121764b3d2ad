import importlib
import json
import re
import runpy
import types
from pathlib import Path

import numpy as np
import pytest

import orlicz4d
from orlicz4d.cli import EXIT_VALIDATION, main
from orlicz4d.decompose import (ScaleSeq, SequenceFamily, detect_scale, orthogonality_check,
                                synthesize_family)
from orlicz4d.gridfn import (LogGrid, LogRadialFunction, compose_segments, from_radius_samples,
                             integrate_samples, uniform_grid)
from orlicz4d.orlicz import OrliczConfig, orlicz_functional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orlicz4d"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_names_resolve_once_and_are_not_modules():
    names = orlicz4d.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(orlicz4d, name), types.ModuleType), name


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_scipy_integrate_only_in_the_tracer_hook():
    # closed forms use gridfn's graded Gauss-Legendre rule; concentration
    # imports quad only in its module __getattr__, as the name perfbench's
    # tracer rebinds, so importing the package does not load scipy.integrate
    pattern = re.compile(r"scipy\.integrate|from scipy import .*integrate|\bquad\(")
    hits = [(p.name, line) for p in sorted(SRC.glob("*.py"))
            for line in p.read_text().splitlines() if pattern.search(line)]
    assert len(hits) == 1, hits
    name, line = hits[0]
    assert name == "concentration.py"
    assert line.startswith("        from scipy.integrate import quad  #") and "tracer" in line
    conc = importlib.import_module("orlicz4d.concentration")
    assert conc.__getattr__("quad") is importlib.import_module("scipy.integrate").quad
    with pytest.raises(AttributeError):
        conc.no_such_name


def test_no_module_reads_the_environment():
    # results and artifacts depend on arguments and the command line alone
    pattern = re.compile(r"\benviron\b|getenv")
    hits = [(p.name, line) for p in sorted(SRC.glob("*.py"))
            for line in p.read_text().splitlines() if pattern.search(line)]
    assert not hits, hits


_F = from_radius_samples([0.5, 0.2, 0.05, 0.01], [1.0, 2.0, 3.0, 4.0])
_SEQ = ScaleSeq([1.0, 2.0, 3.0])


def _cli_exit(argv, payload):
    # main(argv) with IN a JSON file of payload and OUT a path beside it
    def run(tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        files = {"IN": str(path), "OUT": str(tmp_path / "out.json")}
        return main([files.get(a, a) for a in argv])
    return run


# each call trips one validation raise: the library ones raise ValueError,
# the serialize ones exit 2 from the CLI with the message on stderr
VALIDATION_CASES = {
    "family members": (lambda _: SequenceFamily(indices=[1, 2, 3], members=[_F] * 2),
                       "one member per index required"),
    "scale seq": (lambda _: ScaleSeq([1.0, 0.0]), "scales must be positive finite"),
    "detect A0": (lambda _: detect_scale(_F, 0.0), "A0 must be positive"),
    "orthogonality sizes": (lambda _: orthogonality_check(_SEQ, ScaleSeq([1.0, 2.0])),
                            "scale sequences must share the index set"),
    "synthesize empty": (lambda _: synthesize_family([1, 2, 3], lambda n: []),
                         "each index needs at least one bubble"),
    "grid non-finite": (lambda _: LogGrid(np.array([0.0, np.nan])),
                        "grid nodes must be finite"),
    "uniform span": (lambda _: uniform_grid(1.0, 1.0, 8), "need s_min < s_max"),
    "segments": (lambda _: compose_segments([(0.0, 0.0, 8)]),
                 "segment endpoints must increase"),
    "values length": (lambda _: LogRadialFunction(_F.grid, np.zeros(3)),
                      "values length must equal grid length"),
    "values finite": (lambda _: LogRadialFunction(_F.grid, np.full(4, np.inf)),
                      "values must be finite"),
    "derivative order": (lambda _: _F.derivative(3), "order must be 1 or 2"),
    "quadrature lengths": (lambda _: integrate_samples(np.arange(4.0), np.zeros(3)),
                           "nodes/samples length mismatch"),
    "radius shapes": (lambda _: from_radius_samples([0.5, 0.2], [1.0]),
                      "need matching 1D radius/value arrays"),
    "lambda_tol": (lambda _: OrliczConfig(lambda_tol=0.5), "lambda_tol must lie in (0, 1e-2)"),
    "lambda": (lambda _: orlicz_functional(_F, 0.0), "lambda must be positive"),
    "profile JSON": (_cli_exit(["gen-bubble", "--alpha", "24", "--profile", "IN",
                                "--out", "OUT"], {"s": [0.0, 1.0]}),
                     "malformed profile JSON: missing 'psi'"),
    "family JSON": (_cli_exit(["decompose", "--in", "IN", "--out", "OUT"],
                              {"indices": [1, 2, 3]}),
                    "malformed family JSON: missing 'members'"),
}


@pytest.mark.parametrize("call, message", VALIDATION_CASES.values(), ids=VALIDATION_CASES)
def test_validation_raises(call, message, tmp_path, capsys):
    try:
        code = call(tmp_path)
    except ValueError as exc:
        assert str(exc) == message
    else:
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"
