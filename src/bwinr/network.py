"""Coordinate MLP with hand-rolled reverse-mode gradients.

The model is a fixed-topology fully connected network: every hidden layer
applies one activation kind (with its scale) and the output layer is
linear. Forward passes record the per-layer tensors needed for an exact
backward pass; ``training.grad_check`` validates the gradients against
finite differences of the training loss.

Checkpoints use a versioned plain-text format (header ``BWINR1``) that
round-trips float64 values exactly; see ``save_checkpoint``.
"""

from dataclasses import dataclass

import numpy as np

from .activations import WAVELET_SHIFTS, Activation, apply, times_derivative
from .errors import ConfigurationError, InvalidInputError, ShapeError

CHECKPOINT_MAGIC = "BWINR1"

# Activation-argument value at the center of the wavelet bump (1.5), used
# to anchor wavelet supports inside the data domain at initialization.
_WAVELET_CENTER = WAVELET_SHIFTS[-1] / 2

# Second entropy word of the initialization stream (ASCII "init"). Mixing
# it into ``SeedSequence([seed, _INIT_TAG])`` keeps the init draws off the
# stream ``np.random.default_rng(seed)`` yields; it must be nonzero, since
# SeedSequence pads short entropy with zero words.
_INIT_TAG = 0x696E6974


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: Activation

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ConfigurationError(
                f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}"
            )


def mlp_specs(sizes, activation):
    """Hidden layers with ``activation``, linear output layer.

    ``sizes`` lists the layer widths input-first, e.g. [2, 300, 300, 300, 1].
    """
    if len(sizes) < 2:
        raise ConfigurationError("need at least an input and an output size")
    specs = [
        LayerSpec(sizes[i], sizes[i + 1], activation)
        for i in range(len(sizes) - 2)
    ]
    specs.append(LayerSpec(sizes[-2], sizes[-1], Activation("identity")))
    return specs


@dataclass
class NetworkParams:
    """All weights/biases plus the layer specs and the seed that built them.

    ``weights[l]`` has shape (out, in); row k is neuron k's input weight.
    ``biases[l]`` has shape (out,). Treated as immutable during training:
    optimizer steps produce fresh arrays.
    """

    specs: tuple
    weights: list
    biases: list
    seed: int

    def copy(self):
        return NetworkParams(
            specs=self.specs,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            seed=self.seed,
        )


@dataclass
class Gradients:
    weights: list
    biases: list


@dataclass
class ForwardTrace:
    """Per-layer tensors captured by ``forward`` for use in ``backward``.

    Every ``post`` buffer is feature-major (Fortran order), and so are the
    derivative codes and dense derivatives that ``apply`` derives from it.

    ``backward`` consumes the trace: it writes each hidden layer's
    cotangent into that layer's ``post`` buffer once nothing reads it
    again, so afterwards ``post[:-1]`` hold scratch values. ``post[-1]``
    (the network output) and every ``deriv`` are left unchanged.
    """

    inputs: np.ndarray           # (n, in_dim) batch fed to the first layer
    post: list                   # (n, out_l) post-activations per layer, F order
    deriv: list                  # (n, out_l) derivatives: arrays or CodedDerivative


def _validate_specs(specs):
    specs = tuple(specs)
    if not specs:
        raise ConfigurationError("empty layer spec list")
    for prev, cur in zip(specs, specs[1:]):
        if prev.out_dim != cur.in_dim:
            raise ConfigurationError(
                f"layer dims do not chain: {prev.out_dim} -> {cur.in_dim}"
            )
    return specs


def init_network(specs, seed):
    """Deterministic initialization from ``seed``.

    Weights are uniform on +-sqrt(6/in_dim). Hidden biases are uniform on
    [-1, 1], except for wavelet layers where each neuron's bias is chosen
    so the center of its compact support is attained at an anchor point
    drawn uniformly from [-1, 1]^in: with uniform biases a sizable
    fraction of wavelet neurons would never activate on the data domain
    (their support misses it entirely) and stay dead through training.
    Output biases start at zero.

    The draws come from ``SeedSequence([seed, _INIT_TAG])``, never from
    ``default_rng(seed)`` itself: a caller who samples data from
    ``default_rng(seed)`` and initializes with the same seed would
    otherwise get inputs equal to the wavelet anchors, each of which sits
    on the kink of psi at its center.
    """
    specs = _validate_specs(specs)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _INIT_TAG]))
    weights, biases = [], []
    last = len(specs) - 1
    for idx, spec in enumerate(specs):
        bound = np.sqrt(6.0 / spec.in_dim)
        w = rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim))
        kind = spec.activation.kind
        if idx == last or kind == "identity":
            b = np.zeros(spec.out_dim)
        elif kind == "bwrelu":
            anchors = rng.uniform(-1.0, 1.0, size=(spec.out_dim, spec.in_dim))
            b = _WAVELET_CENTER / spec.activation.scale - np.sum(
                w * anchors, axis=1
            )
        else:
            b = rng.uniform(-1.0, 1.0, size=spec.out_dim)
        weights.append(w)
        biases.append(b)
    return NetworkParams(specs=specs, weights=weights, biases=biases, seed=seed)


def forward(params, X):
    """Network output and the trace needed to backpropagate through it.

    Each layer's pre-activation goes into a fresh (n, width) buffer in
    Fortran order, which the activation then overwrites in place. Feature
    major, the batch is the M dimension of every GEMM, so OpenBLAS packs
    only the (width, width) weight, never the n-row batch.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"input batch must be 2-D, got ndim={X.ndim}")
    if X.shape[1] != params.specs[0].in_dim:
        raise ShapeError(
            f"input dim {X.shape[1]} != first layer in_dim "
            f"{params.specs[0].in_dim}"
        )
    a = X
    post, deriv = [], []
    for spec, w, b in zip(params.specs, params.weights, params.biases):
        z = np.empty((X.shape[0], spec.out_dim), order="F")
        np.matmul(a, w.T, out=z)
        z += b
        a, d = apply(spec.activation, z, out=z)
        post.append(a)
        deriv.append(d)
    return a, ForwardTrace(inputs=X, post=post, deriv=deriv)


def backward(params, trace, dY):
    """Gradients of sum(dY * Y) w.r.t. every weight and bias.

    ``trace`` must come from a ``forward`` call on the same architecture
    and batch; mismatched shapes raise InvalidInputError. The trace's
    hidden ``post`` buffers are reused as cotangent storage, so after
    this call ``trace.post[:-1]`` hold scratch values (see ForwardTrace).
    A one-unit layer's cotangent ``delta @ W`` has K = 1, so it is the
    broadcast product ``delta * W`` (bitwise the GEMM's value, without a
    GEMM into a Fortran-ordered buffer).
    """
    dY = np.asarray(dY, dtype=float)
    n_layers = len(params.weights)
    if len(trace.post) != n_layers or len(trace.deriv) != n_layers:
        raise InvalidInputError("trace layer count does not match params")
    for spec, a in zip(params.specs, trace.post):
        if a.shape != (trace.inputs.shape[0], spec.out_dim):
            raise InvalidInputError("trace shapes do not match params")
    if dY.shape != trace.post[-1].shape:
        raise InvalidInputError(
            f"cotangent shape {dY.shape} != output shape {trace.post[-1].shape}"
        )
    d_weights = [None] * n_layers
    d_biases = [None] * n_layers
    delta = times_derivative(dY.copy(), trace.deriv[-1])
    for l in range(n_layers - 1, -1, -1):
        a_in = trace.inputs if l == 0 else trace.post[l - 1]
        d_weights[l] = delta.T @ a_in
        d_biases[l] = delta.sum(axis=0)
        if l > 0:
            # Nothing reads a_in after d_weights[l]; it takes the product.
            w = params.weights[l]
            product = np.multiply if w.shape[0] == 1 else np.matmul
            delta = product(delta, w, out=a_in)
            delta = times_derivative(delta, trace.deriv[l - 1])
    return Gradients(weights=d_weights, biases=d_biases)


def _format_scale(activation):
    return "-" if activation.scale is None else repr(float(activation.scale))


def save_checkpoint(params, path):
    """Write params as versioned text; float64 values round-trip exactly."""
    lines = [CHECKPOINT_MAGIC, f"seed {params.seed}", f"layers {len(params.specs)}"]
    for spec in params.specs:
        lines.append(
            f"layer {spec.in_dim} {spec.out_dim} "
            f"{spec.activation.kind} {_format_scale(spec.activation)}"
        )
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        lines.append(f"tensor W{l}")
        lines.extend(" ".join(repr(v) for v in row) for row in w.tolist())
        lines.append(f"tensor b{l}")
        lines.append(" ".join(repr(v) for v in b.tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _fields(lines, pos, tag):
    """Tokens after ``tag`` on line ``pos``."""
    tokens = lines[pos].split() if pos < len(lines) else []
    if tokens[:1] != [tag]:
        raise InvalidInputError(f"expected {tag!r} at line {pos + 1}")
    return tokens[1:]


def _tensor(lines, pos, name, shape):
    """The finite ``shape`` array headed by 'tensor <name>' on line ``pos``."""
    if _fields(lines, pos, "tensor") != [name]:
        raise InvalidInputError(f"expected 'tensor {name}' at line {pos + 1}")
    rows = lines[pos + 1:pos + 1 + shape[0]]
    arr = np.array([[float(v) for v in row.split()] for row in rows])
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"tensor {name}: expected {shape} finite values")
    return arr


def _parse_checkpoint(lines):
    if lines[:1] != [CHECKPOINT_MAGIC]:
        raise InvalidInputError(f"not a {CHECKPOINT_MAGIC} checkpoint")
    (seed,) = _fields(lines, 1, "seed")
    (n_layers,) = _fields(lines, 2, "layers")
    specs = []
    for i in range(int(n_layers)):
        in_dim, out_dim, kind, scale = _fields(lines, 3 + i, "layer")
        scale = None if scale == "-" else float(scale)
        if scale is not None and not np.isfinite(scale):
            raise InvalidInputError(f"non-finite scale at line {4 + i}")
        specs.append(LayerSpec(int(in_dim), int(out_dim), Activation(kind, scale)))
    specs = _validate_specs(specs)
    pos = 3 + len(specs)
    weights, biases = [], []
    for l, spec in enumerate(specs):
        weights.append(_tensor(lines, pos, f"W{l}", (spec.out_dim, spec.in_dim)))
        pos += 1 + spec.out_dim
        biases.append(_tensor(lines, pos, f"b{l}", (1, spec.out_dim))[0])
        pos += 2
    if pos != len(lines):
        raise InvalidInputError(f"unexpected content at line {pos + 1}")
    return NetworkParams(specs=specs, weights=weights, biases=biases, seed=int(seed))


def load_checkpoint(path):
    """Read a ``save_checkpoint`` file; malformed content is InvalidInputError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return _parse_checkpoint(fh.read().splitlines())
    except ValueError as exc:  # also ConfigurationError, UnicodeDecodeError
        raise InvalidInputError(f"{path}: {exc}") from exc
