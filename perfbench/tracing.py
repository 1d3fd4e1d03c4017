"""Spans recorded from outside the package, by wrapping its public functions.

Nothing in ``src/`` knows about tracing. ``install`` replaces each traced
function with a wrapper in every ``bwinr`` module that imported it by
name, so a call through any binding (``cli.train``, ``training.forward``,
``network.apply`` ...) lands in the same span. A name that no longer
exists raises ``AttributeError``, so a rename in the package fails the
traced run instead of silently dropping its layer.

Each span is ``[name, start, end, parent, run_id, count]``: times from
``time.perf_counter`` (seconds), ``parent`` the index of the enclosing
span (-1 at the root), and ``count`` a dict of flops or bytes computed
from the arrays seen at the call, or None. Spans stay in memory until
the run ends.
"""

import functools
import importlib
import os
import sys
import time


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(args, result)`` sizes it."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   self.run_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                rec[5] = count(args, result)
            return result

        return spanned


def _rebind(original, replacement):
    """Point every ``bwinr`` module-level name bound to ``original`` at ``replacement``."""
    found = False
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "bwinr" or mod_name.startswith("bwinr.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                found = True
    if not found:
        raise AttributeError(f"{original!r} is bound in no bwinr module")


# Computed counts: derived from the shapes of the arrays passed to or
# returned by the wrapped call, never read from the program.

def _forward_flops(params, n):
    return sum(2 * n * w.shape[0] * w.shape[1] for w in params.weights)


def _backward_flops(params, n):
    # dW = delta^T a for every layer; delta W to propagate below layer 0.
    return sum(
        2 * n * w.shape[0] * w.shape[1] * (2 if layer else 1)
        for layer, w in enumerate(params.weights)
    )


def _nbytes(value):
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0


def _count_forward(args, result):
    params, X = args[0], args[1]
    trace = result[1]
    return {
        "flops": _forward_flops(params, len(X)),
        "trace_bytes": sum(_nbytes(v) for v in vars(trace).values()),
    }


def _count_backward(args, result):
    params, dY = args[0], args[2]
    return {"flops": _backward_flops(params, len(dY))}


def _count_activation(args, result):
    return {"out_bytes": _nbytes(result)}


def _count_checkpoint(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _count_radon(args, result):
    matrix = args[0].matrix
    if matrix is None:
        return {"nnz": 0, "matrix_bytes": 0}
    return {
        "nnz": int(matrix.nnz),
        "matrix_bytes": _nbytes([matrix.data, matrix.indices, matrix.indptr]),
    }


# (module, attribute, span name, count). Every binding of the attribute in
# the package is replaced, so one entry covers all of its callers.
FUNCTIONS = [
    ("cli", "main", "cli.main", None),
    ("cli", "write_table", "cli.write_table", None),
    ("assets", "shepp_logan", "assets.image", None),
    ("assets", "synthetic_scene", "assets.image", None),
    ("images", "save_image", "images.save_image", None),
    ("operators", "make_task", "operators.make_task", None),
    ("training", "train", "training.train", None),
    ("training", "adam_step", "training.adam_step", None),
    ("network", "forward", "network.forward", _count_forward),
    ("network", "backward", "network.backward", _count_backward),
    ("network", "save_checkpoint", "network.save_checkpoint", _count_checkpoint),
    ("activations", "apply", "activations.apply", _count_activation),
    ("diagnostics", "psnr", "diagnostics.psnr", None),
    ("diagnostics", "variation_norm_deep", "diagnostics.variation_norm_deep", None),
    ("diagnostics", "feature_gram_condition", "diagnostics.feature_gram_condition", None),
    ("diagnostics", "build_dyadic_gram", "diagnostics.build_dyadic_gram", None),
    ("diagnostics", "build_relu_gram", "diagnostics.build_relu_gram", None),
    ("linalg", "condition_number", "linalg.condition_number", None),
    ("linalg", "sym_eigvals", "linalg.sym_eigvals", None),
]


def install(tracer):
    """Wrap every traced function of the ``bwinr`` package."""
    for module, attr, name, count in FUNCTIONS:
        mod = importlib.import_module(f"bwinr.{module}")
        original = getattr(mod, attr)
        _rebind(original, tracer.wrap(name, original, count))

    operators = importlib.import_module("bwinr.operators")
    radon = operators.RadonTransform
    radon.__init__ = tracer.wrap("operators.radon_build", radon.__init__, _count_radon)

    # The task's operator is reached through ForwardTask.operator, so its
    # apply/vjp are wrapped on the instance make_task returns.
    make_task = operators.make_task

    @functools.wraps(make_task)
    def make_task_spanned(*args, **kwargs):
        task = make_task(*args, **kwargs)
        op = task.operator
        op.apply = tracer.wrap("operators.apply", op.apply)
        op.vjp = tracer.wrap("operators.vjp", op.vjp)
        return task

    _rebind(make_task, make_task_spanned)
