import runpy
import types
from pathlib import Path

import pytest

import orlicz4d

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_names_resolve_once_and_are_not_modules():
    names = orlicz4d.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(orlicz4d, name), types.ModuleType), name


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
