"""Each demo loads: a package name it imports that was renamed or removed
fails here. Every demo runs only under ``__main__``, so loading one trains
nothing. Demo 01 trains nothing at all and also runs, so a call into a
changed package signature fails here too."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("[0-9][0-9]_*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seven_demos():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_loads_without_running(path):
    assert callable(_load(path).main)


def test_demo_01_runs(capsys):
    _load(DEMOS[0]).main()
    out = capsys.readouterr().out
    assert "vs its 7-ReLU expansion" in out and "ReLU net: max |difference|" in out
