"""Coordinate MLP with hand-rolled reverse-mode gradients.

The model is a fixed-topology fully connected network: every hidden layer
applies one activation kind (with its scale) and the output layer is
linear. Forward passes record the per-layer tensors needed for an exact
backward pass; ``training.grad_check`` validates the gradients against
finite differences of the training loss.

Checkpoints are versioned text (header ``BWINR2``): one line per layer
spec, then every value as base64 float64 on one ``data`` line, so they
round-trip exactly; see ``save_checkpoint``.
"""

import base64
import reprlib
from dataclasses import dataclass

import numpy as np

from .activations import WAVELET_COEFFS, WAVELET_SHIFTS, Activation, apply, times_derivative
from .errors import ConfigurationError, InvalidInputError, ShapeError, read_file, write_file
from .errors import UnsupportedActivationError

CHECKPOINT_MAGIC = "BWINR2"

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

    ``specs`` are the layer specs of the net that made the trace; with the
    batch size they fix the shape of every buffer, so ``backward`` checks
    them, not the buffers, against its own params. Every ``post`` buffer is
    feature-major (Fortran order), and so are the derivative codes and
    dense derivatives that ``apply`` derives from it.

    When hidden layer 2 has layer 0's width (every net of three or more
    uniform hidden layers), ``post[0]`` and ``deriv[0]`` are None:
    ``forward`` drops them once layer 1 has read them, and ``backward``
    rebuilds them, bit for bit, in ``post[2]`` after that buffer is spent.

    ``backward`` consumes the trace: it writes each hidden layer's
    cotangent into that layer's ``post`` buffer once nothing reads it
    again, so afterwards ``post[:-1]`` hold scratch values. ``post[-1]``
    (the network output) and every ``deriv`` the trace holds are left
    unchanged.
    """

    specs: tuple                 # layer specs of the net that made the trace
    inputs: np.ndarray           # (n, in_dim) batch fed to the first layer
    post: list                   # (n, out_l) post-activations per layer, F order, or None
    deriv: list                  # (n, out_l) derivatives: arrays or CodedDerivative, or None


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


def _layer(spec, w, b, a, z):
    """One layer evaluated into ``z``: ``a @ w.T + b``, then ``apply``."""
    np.matmul(a, w.T, out=z)
    z += b
    return apply(spec.activation, z)


def forward(params, X):
    """Network output and the trace needed to backpropagate through it.

    Each layer's pre-activation goes into a fresh (n, width) buffer in
    Fortran order, which the activation then overwrites in place. Feature
    major, the batch is the M dimension of every GEMM, so OpenBLAS packs
    only the (width, width) weight, never the n-row batch. Hidden layer 0
    leaves the trace once layer 1 has read it if ``backward`` can rebuild
    it (see ForwardTrace), so two hidden-sized arrays are alive at most.
    """
    X = np.asarray(X, dtype=float)
    specs = params.specs
    if X.ndim != 2:
        raise ShapeError(f"input batch must be 2-D, got ndim={X.ndim}")
    if X.shape[1] != specs[0].in_dim:
        raise ShapeError(f"input dim {X.shape[1]} != first layer in_dim {specs[0].in_dim}")
    # backward can rebuild hidden layer 0 in hidden layer 2's spent buffer.
    drop_first = len(specs) > 3 and specs[2].out_dim == specs[0].out_dim
    a = X
    post, deriv = [], []
    for spec, w, b in zip(specs, params.weights, params.biases):
        z = np.empty((X.shape[0], spec.out_dim), order="F")
        a, d = _layer(spec, w, b, a, z)
        if len(post) == 1 and drop_first:
            post[0] = deriv[0] = None  # layer 1 has read it; backward rebuilds it
        post.append(a)
        deriv.append(d)
    return a, ForwardTrace(specs=specs, inputs=X, post=post, deriv=deriv)


def backward(params, trace, dY):
    """Gradients of sum(dY * Y) w.r.t. every weight and bias.

    ``trace`` must come from a ``forward`` call on a net of the same specs
    (layer sizes, activations and scales) and ``dY`` must have the output's
    shape; anything else is an InvalidInputError. The trace's
    hidden ``post`` buffers are reused as cotangent storage, so after
    this call ``trace.post[:-1]`` hold scratch values (see ForwardTrace).
    A hidden layer 0 the trace lacks is re-evaluated by ``forward``'s
    step into the spent ``post[2]``, so no hidden-sized array is allocated.
    A one-unit layer's cotangent ``delta @ W`` has K = 1, so it is the
    broadcast product ``delta * W`` (bitwise the GEMM's value, without a
    GEMM into a Fortran-ordered buffer).
    """
    dY = np.asarray(dY, dtype=float)
    if trace.specs != params.specs:
        raise InvalidInputError("trace comes from a net of other layer specs")
    if dY.shape != trace.post[-1].shape:
        raise InvalidInputError(
            f"cotangent shape {dY.shape} != output shape {trace.post[-1].shape}"
        )
    n_layers = len(params.weights)
    d_weights = [None] * n_layers
    d_biases = [None] * n_layers
    deriv = list(trace.deriv)
    delta = times_derivative(dY.copy(), deriv[-1])
    for l in range(n_layers - 1, -1, -1):
        if l == 1 and trace.post[0] is None:
            # post[2] held the cotangent that has just moved to post[1].
            a_in, deriv[0] = _layer(
                params.specs[0], params.weights[0], params.biases[0],
                trace.inputs, trace.post[2],
            )
        else:
            a_in = trace.inputs if l == 0 else trace.post[l - 1]
        d_weights[l] = delta.T @ a_in
        d_biases[l] = delta.sum(axis=0)
        if l > 0:
            # Nothing reads a_in after d_weights[l]; it takes the product.
            w = params.weights[l]
            product = np.multiply if w.shape[0] == 1 else np.matmul
            delta = product(delta, w, out=a_in)
            delta = times_derivative(delta, deriv[l - 1])
    return Gradients(weights=d_weights, biases=d_biases)


def expand_to_relus(params):
    """The plain-ReLU net, sharing no array with ``params``, that computes
    what ``params``'s net computes. A bwrelu layer of width w and scale c
    becomes a relu layer of width 7w, neuron-major: atom j of neuron k is
    relu(c*z_k - s_j), and the next layer's weights ``kron(W, WAVELET_COEFFS)``
    sum the atoms into psi(c*z_k). relu and identity layers pass through;
    other kinds, and a bwrelu output layer, are UnsupportedActivationError."""
    if params.specs[-1].activation.kind == "bwrelu":
        raise UnsupportedActivationError("a bwrelu output layer has no layer to sum its atoms")
    specs, weights, biases = [], [], []
    absorb = False  # the previous layer was bwrelu
    for spec, w, b in zip(params.specs, params.weights, params.biases):
        act = spec.activation
        if act.kind not in ("relu", "bwrelu", "identity"):
            raise UnsupportedActivationError(f"a {act.kind} layer has no ReLU expansion")
        w = np.kron(w, WAVELET_COEFFS[None, :]) if absorb else w.copy()
        absorb = act.kind == "bwrelu"
        if absorb:
            w, b = np.repeat(act.scale * w, 7, axis=0), act.scale * b[:, None] - WAVELET_SHIFTS
            act = Activation("relu")
        specs.append(LayerSpec(w.shape[1], w.shape[0], act))
        weights.append(w)
        biases.append(b.ravel().copy())
    return NetworkParams(tuple(specs), weights, biases, params.seed)


def _format_scale(activation):
    return "-" if activation.scale is None else repr(float(activation.scale))


def save_checkpoint(params, path):
    """Write the header lines, then one ``data`` line: the base64 of every
    weight, then every bias, in layer order as little-endian float64. The
    values round-trip exactly, and equal params write equal bytes."""
    lines = [CHECKPOINT_MAGIC, f"seed {params.seed}", f"layers {len(params.specs)}"]
    for spec in params.specs:
        lines.append(
            f"layer {spec.in_dim} {spec.out_dim} "
            f"{spec.activation.kind} {_format_scale(spec.activation)}"
        )
    values = np.concatenate([a.ravel() for a in params.weights + params.biases])
    lines.append("data " + base64.b64encode(values.astype("<f8").tobytes()).decode("ascii"))
    write_file(path, ("\n".join(lines) + "\n").encode("ascii"))


def _fields(lines, pos, tag):
    """Tokens after ``tag`` on line ``pos``."""
    tokens = lines[pos].split() if pos < len(lines) else []
    if tokens[:1] != [tag]:
        raise InvalidInputError(f"expected {tag!r} at line {pos + 1}")
    return tokens[1:]


def _number(token, kind=int):
    """``kind(token)``, if ``token`` is in the form ``save_checkpoint`` writes:
    the value's ``repr``, plain ASCII digits for an int, and at most 640
    characters (``int`` converts 640 digits under any limit setting)."""
    value = kind(token) if len(token) <= 640 else None
    if repr(value) != token or kind is int and not token.isdigit():
        raise InvalidInputError(f"malformed number {reprlib.repr(token)}")
    return value


def _parse_checkpoint(data):
    lines = data.decode("ascii").splitlines()
    if lines[:1] != [CHECKPOINT_MAGIC]:
        raise InvalidInputError(f"not a {CHECKPOINT_MAGIC} checkpoint")
    (seed,) = _fields(lines, 1, "seed")
    (n_layers,) = _fields(lines, 2, "layers")
    specs = []
    for i in range(_number(n_layers)):
        in_dim, out_dim, kind, scale = _fields(lines, 3 + i, "layer")
        scale = None if scale == "-" else _number(scale, float)
        specs.append(LayerSpec(_number(in_dim), _number(out_dim), Activation(kind, scale)))
    specs = _validate_specs(specs)
    pos = 3 + len(specs)
    (data,) = _fields(lines, pos, "data")
    if pos + 1 != len(lines):
        raise InvalidInputError(f"unexpected content at line {pos + 2}")
    shapes = [(s.out_dim, s.in_dim) for s in specs] + [(s.out_dim,) for s in specs]
    ends = np.cumsum([np.prod(shape) for shape in shapes])
    raw = base64.b64decode(data, validate=True)
    values = np.frombuffer(raw, "<f8", count=len(raw) // 8).astype(float)
    if len(raw) != 8 * ends[-1] or not np.all(np.isfinite(values)):
        raise InvalidInputError(f"data: expected {ends[-1]} finite float64 values")
    arrays = [v.reshape(shape) for v, shape in zip(np.split(values, ends[:-1]), shapes)]
    n = len(specs)
    return NetworkParams(specs, arrays[:n], arrays[n:], _number(seed))


def load_checkpoint(path):
    """Read a ``save_checkpoint`` file: an unreadable file is ImageIOError,
    malformed content InvalidInputError naming the path. ``Activation`` is
    the one check on a layer's kind and scale; its ConfigurationError, like
    a UnicodeDecodeError or binascii.Error, is a ValueError that
    ``read_file`` reports as InvalidInputError."""
    return read_file(path, _parse_checkpoint, InvalidInputError)
