"""Conditioning and regularity diagnostics.

Two exact Gram constructions quantify why wavelet networks optimize so
much better than plain ReLU ones on low-dimensional fits:

* ``build_relu_gram``: pairwise L2 inner products of ReLU neurons with
  evenly spaced biases on [-1, 1], in closed form (cubic antiderivative).
  With h = 2/K, neuron j is sum_k h(k-j)_+ phi_k in the hat basis phi_k,
  whose Gram has eigenvalues Theta(h); the coefficient matrix has singular
  values from Theta(h) to Theta(K). So lambda_min ~ K^-3, lambda_max ~ K
  and the condition number grows like K^4 (above the Omega(K^3) bound).
* ``build_dyadic_gram``: the Gram of the L2-normalized dyadic wavelet
  system on [-1, 1]. Wavelets at different scales are exactly orthogonal
  and same-scale overlaps decay fast, so the matrix is a small
  perturbation of (1/6) I and its condition number stays O(1).

Entries of the dyadic Gram are integrated exactly: both factors are
piecewise linear, so per-subinterval Simpson quadrature on the merged
breakpoint grid has zero truncation error.

The variation norm measures the regularity of the learned function
directly from the weights: each wavelet neuron contributes
16 * c * ||v||_2 * ||w||_2 (the absolute slope coefficients of its seven
ReLU atoms sum to 16). Deep networks are scored as a composition of
shallow ones, where hidden layers past the first use the identity-input
convention (unit input norm per neuron).
"""

import math
from dataclasses import dataclass

import numpy as np

from .activations import psi
from .errors import (
    ConfigurationError,
    InvalidInputError,
    ShapeError,
    UnsupportedActivationError,
)
from .linalg import ConditionNumber, condition_number, gershgorin_discs, sym_eigvals

VNORM_ATOM_FACTOR = 16.0  # sum of |slope coefficients| of the wavelet's atoms


@dataclass(frozen=True)
class GramReport:
    matrix: np.ndarray
    eigenvalues: np.ndarray       # ascending
    condition: ConditionNumber
    gershgorin: list
    tag: str


@dataclass(frozen=True)
class VariationReport:
    """Per-hidden-layer variation norms and their sum."""

    layers: tuple
    total: float
    scale: float


def variation_norm_shallow(input_weights, output_weights, activation):
    """Variation norm of one shallow layer pair.

    Neuron k has input weight row ``input_weights[k, :]`` and output
    weight column ``output_weights[:, k]``. Defined for relu
    (sum ||v_k|| ||w_k||) and bwrelu (16 c times that); other kinds have
    no variation-norm formula.
    """
    w = np.atleast_2d(np.asarray(input_weights, dtype=float))
    v = np.atleast_2d(np.asarray(output_weights, dtype=float))
    if w.shape[0] != v.shape[1]:
        raise ShapeError(
            f"neuron counts differ: {w.shape[0]} input rows vs "
            f"{v.shape[1]} output columns"
        )
    base = float(np.sum(
        np.linalg.norm(w, axis=1) * np.linalg.norm(v, axis=0)
    ))
    if activation.kind == "relu":
        return base
    if activation.kind == "bwrelu":
        return VNORM_ATOM_FACTOR * activation.scale * base
    raise UnsupportedActivationError(
        f"variation norm undefined for {activation.kind!r}"
    )


def variation_norm_deep(params):
    """Total variation norm of a wavelet network, layer by layer.

    The first hidden layer pairs its input-weight rows with the second
    weight matrix's columns; every deeper hidden layer contributes the
    column norms of its outgoing weights (identity-input convention).
    """
    hidden = params.specs[:-1]
    if not hidden:
        raise UnsupportedActivationError("network has no hidden layer")
    kinds = {spec.activation for spec in hidden}
    if len(kinds) != 1 or hidden[0].activation.kind != "bwrelu":
        raise UnsupportedActivationError(
            "deep variation norm requires uniform bwrelu hidden layers"
        )
    c = hidden[0].activation.scale
    w = params.weights
    layers = [
        VNORM_ATOM_FACTOR * c * float(np.sum(
            np.linalg.norm(w[0], axis=1) * np.linalg.norm(w[1], axis=0)
        ))
    ]
    for l in range(2, len(w)):
        layers.append(
            VNORM_ATOM_FACTOR * c * float(np.sum(np.linalg.norm(w[l], axis=0)))
        )
    return VariationReport(layers=tuple(layers), total=sum(layers), scale=c)


def check_relu_gram_size(K):
    """Raise ConfigurationError unless ``build_relu_gram`` accepts ``K``."""
    if not 2 <= K <= 512:
        raise ConfigurationError(f"K must be in [2, 512], got {K}")


def build_relu_gram(K):
    """Gram of ReLU neurons with biases -1 + 2(j-1)/K over [-1, 1].

    Entry (i, j) is the integral of (x - b_i)(x - b_j) from max(b_i, b_j)
    to 1, evaluated in closed form.
    """
    check_relu_gram_size(K)
    b = -1.0 + 2.0 * np.arange(K) / K
    s = np.add.outer(b, b)
    p = np.multiply.outer(b, b)
    m = np.maximum.outer(b, b)

    def antideriv(x):
        return x**3 / 3.0 - s * x**2 / 2.0 + p * x

    gram = antideriv(1.0) - antideriv(m)
    gram = (gram + gram.T) / 2.0
    return GramReport(
        matrix=gram,
        eigenvalues=sym_eigvals(gram),
        condition=condition_number(gram),
        gershgorin=gershgorin_discs(gram),
        tag="relu-even",
    )


def dyadic_system(J):
    """(scale j, shift k) index pairs of the dyadic wavelet system.

    Scale j contributes 2^j shifts, j = 0..J-1, for 2^J - 1 wavelets total.
    """
    return [(j, k) for j in range(J) for k in range(2**j)]


def _wavelet_breakpoints(j, k):
    # Kinks of x -> psi(2^j * (3/2) * (x + 1) - k) at half-integer arguments.
    return -1.0 + (2.0 / 3.0) * (k + 0.5 * np.arange(7)) / 2**j


def _wavelet_values(j, k, x):
    return 2.0 ** (j / 2.0) * psi(2**j * 1.5 * (x + 1.0) - k)


def _pairwise_integral(bp_a, eval_a, bp_b, eval_b):
    lo = max(bp_a[0], bp_b[0])
    hi = min(bp_a[-1], bp_b[-1])
    if hi <= lo:
        return 0.0
    pts = np.unique(np.clip(np.concatenate([bp_a, bp_b]), lo, hi))
    left, right = pts[:-1], pts[1:]
    mid = 0.5 * (left + right)
    # Simpson is exact here: products of piecewise-linear factors are
    # quadratic on every subinterval of the merged breakpoint grid.
    def prod(x):
        return eval_a(x) * eval_b(x)

    return float(np.sum(
        (right - left) / 6.0 * (prod(left) + 4.0 * prod(mid) + prod(right))
    ))


def check_dyadic_levels(J):
    """Raise ConfigurationError unless ``build_dyadic_gram`` accepts ``J``."""
    if not 1 <= J <= 10:
        raise ConfigurationError(f"J must be in [1, 10], got {J}")


def build_dyadic_gram(J):
    """Exact Gram of the L2-normalized dyadic wavelet system on [-1, 1]."""
    check_dyadic_levels(J)
    system = dyadic_system(J)
    K = len(system)
    breaks = [_wavelet_breakpoints(j, k) for j, k in system]
    lo = np.array([bp[0] for bp in breaks])
    hi = np.array([bp[-1] for bp in breaks])
    gram = np.zeros((K, K))
    # Only pairs with overlapping supports can have nonzero entries.
    overlap = (lo[:, None] < hi[None, :]) & (lo[None, :] < hi[:, None])
    for a, b in zip(*np.nonzero(np.triu(overlap))):
        ja, ka = system[a]
        jb, kb = system[b]
        val = _pairwise_integral(
            breaks[a],
            lambda x, j=ja, k=ka: _wavelet_values(j, k, x),
            breaks[b],
            lambda x, j=jb, k=kb: _wavelet_values(j, k, x),
        )
        gram[a, b] = val
        gram[b, a] = val
    return GramReport(
        matrix=gram,
        eigenvalues=sym_eigvals(gram),
        condition=condition_number(gram),
        gershgorin=gershgorin_discs(gram),
        tag="bspline-dyadic",
    )


def feature_gram_condition(trace, layer):
    """Condition number of the layer's empirical feature Gram (1/N) Phi Phi^T.

    ``trace`` is the ``ForwardTrace`` of a forward pass over the batch of
    interest (training passes its own step's trace, so no second forward
    runs); ``layer`` indexes a hidden layer, and row k of Phi holds neuron
    k's post-activations ``trace.post[layer][:, k]``. The 1/N
    normalization makes the result invariant to the sample count.
    """
    n_hidden = len(trace.post) - 1
    if not 0 <= layer < n_hidden:
        raise InvalidInputError(
            f"layer {layer} is not a hidden layer (0..{n_hidden - 1})"
        )
    feats = trace.post[layer]
    gram = feats.T @ feats / feats.shape[0]
    return condition_number(gram)


def psnr(reference, estimate):
    """Peak signal-to-noise ratio in dB with peak fixed at 1.

    Identical inputs give float('inf').
    """
    ref = reference.pixels if hasattr(reference, "pixels") else np.asarray(reference, dtype=float)
    est = estimate.pixels if hasattr(estimate, "pixels") else np.asarray(estimate, dtype=float)
    if ref.shape != est.shape:
        raise ShapeError(f"shape mismatch: {ref.shape} vs {est.shape}")
    if ref.min() < 0.0 or ref.max() > 1.0:
        raise InvalidInputError("reference intensities must lie in [0, 1]")
    mse = float(np.mean((ref - est) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)
