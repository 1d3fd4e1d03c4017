"""Each demo loads: a package name it imports that was renamed or removed
fails here. Every demo runs only under ``__main__``, so loading one trains
nothing."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("[0-9][0-9]_*.py"))


def test_seven_demos():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_loads_without_running(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
