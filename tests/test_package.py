import importlib
import re
import runpy
import types
from pathlib import Path

import pytest

import orlicz4d

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
