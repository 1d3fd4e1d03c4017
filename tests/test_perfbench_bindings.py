"""The benchmark's bindings into the package, checked without running it.

``perfbench/tracing.py`` wraps every function its ``FUNCTIONS`` table
names, in each ``bwinr`` module that binds it, and wraps
``RadonTransform.__init__``; ``perfbench/child.py`` times the ``bwinr.cli``
attributes its ``COMPUTE_CALLS`` names; ``perfbench/checks.py`` reads back
the CSVs of ``conditioning`` and every file of a training run, checkpoint
included. These files are read here, not changed, so a rename, a schema
change or a file format the benchmark cannot read fails these tests
instead of a benchmark run.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import bwinr.cli
import bwinr.diagnostics
import bwinr.operators
import bwinr.training

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing_functions():
    return _perfbench_module("tracing").FUNCTIONS


def _compute_calls():
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["COMPUTE_CALLS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/child.py assigns no COMPUTE_CALLS")


def _bwinr_modules():
    return [
        mod for name, mod in sys.modules.items()
        if mod is not None and (name == "bwinr" or name.startswith("bwinr."))
    ]


@pytest.mark.parametrize(
    "module, attr", [entry[:2] for entry in _tracing_functions()],
    ids=lambda value: value,
)
def test_traced_function_is_bound_in_the_package(module, attr):
    fn = getattr(importlib.import_module(f"bwinr.{module}"), attr)
    assert callable(fn)
    assert any(value is fn for mod in _bwinr_modules() for value in vars(mod).values())


def test_radon_build_is_wrappable():
    assert "__init__" in vars(bwinr.operators.RadonTransform)


def test_compute_calls_are_the_library_functions():
    library = {
        "train": bwinr.training.train,
        "build_dyadic_gram": bwinr.diagnostics.build_dyadic_gram,
        "build_relu_gram": bwinr.diagnostics.build_relu_gram,
    }
    named = {name for names in _compute_calls().values() for name in names}
    assert named == set(library)
    for name, fn in library.items():
        assert getattr(bwinr.cli, name) is fn


def test_default_conditioning_passes_the_benchmarks_output_check(tmp_path):
    checks = _perfbench_module("checks")
    assert bwinr.cli.main(["conditioning", "--out", str(tmp_path)]) == 0
    dyadic, relu = checks.check_conditioning(tmp_path)
    assert len(dyadic) == len(checks.DYADIC_J) and len(relu) == len(checks.RELU_K)


def test_ct_workload_passes_the_benchmarks_training_check(tmp_path):
    workload = _perfbench_module("workloads").WORKLOADS["ct-bwrelu-cond"]
    checks = _perfbench_module("checks")
    argv = [*workload.cli_args, "--seed", "1", "--out", str(tmp_path)]
    assert bwinr.cli.main(argv) == 0
    final = checks.check_training(tmp_path, workload, 1)
    assert final.epoch == workload.epochs
