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
  system with shifts k = 0..2^j - 1 at scale j. It does not tile
  [-1, 1]: at scale j >= 1 the supports end at -1/3 + 4/(3 * 2^j).
  Wavelets at different scales are exactly orthogonal
  and same-scale overlaps decay fast, so the matrix is a small
  perturbation of (1/6) I and its condition number stays O(1).

Entries of the dyadic Gram are integrated exactly from one table of
overlap integrals per scale gap, computed once per process: both factors
are linear on every cell of the table's grid, so per-cell Simpson
quadrature is exact. The eigensolve is most of a spectrum's cost.

The variation norm measures the regularity of the learned function
directly from the weights: each wavelet neuron contributes
16 * c * ||v||_2 * ||w||_2 (the absolute slope coefficients of its seven
ReLU atoms sum to 16). Deep networks are scored as a composition of
shallow ones, where hidden layers past the first use the identity-input
convention (unit input norm per neuron).
"""

import functools
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
from .linalg import ConditionNumber, condition_number, sym_eigvals

VNORM_ATOM_FACTOR = 16.0  # sum of |slope coefficients| of the wavelet's atoms


@dataclass(frozen=True)
class GramReport:
    matrix: np.ndarray
    eigenvalues: np.ndarray       # ascending
    condition: ConditionNumber


@dataclass(frozen=True)
class VariationReport:
    """Per-hidden-layer variation norms and their sum."""

    layers: tuple
    total: float


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
    layers = [variation_norm_shallow(w[0], w[1], hidden[0].activation)]
    for l in range(2, len(w)):
        layers.append(
            VNORM_ATOM_FACTOR * c * float(np.sum(np.linalg.norm(w[l], axis=0)))
        )
    return VariationReport(layers=tuple(layers), total=sum(layers))


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
    # Entry (i, j) is F(1) - F(max(b_i, b_j)), F(x) = x^3/3 - s x^2/2 + p x.
    # b ascends, so max(b_i, b_j) = b_j on and above the diagonal; s and p
    # are symmetric bitwise (IEEE + and * commute), so mirroring is exact.
    gram = s * b**2
    gram /= 2.0
    np.subtract(b**3 / 3.0, gram, out=gram)
    s /= 2.0
    np.subtract(1.0 / 3.0, s, out=s)
    s += p
    p *= b
    gram += p
    np.subtract(s, gram, out=gram)
    np.copyto(gram, gram.T, where=np.tri(K, k=-1, dtype=bool))
    eigs = sym_eigvals(gram)
    return GramReport(
        matrix=gram,
        eigenvalues=eigs,
        condition=condition_number(eigs),
    )


def dyadic_system(J):
    """(scale j, shift k) index pairs of the dyadic wavelet system.

    Scale j contributes 2^j shifts, j = 0..J-1, for 2^J - 1 wavelets total.
    Wavelet (j, k) is 2^(j/2) psi(2^j * 1.5 * (x + 1) - k), supported on
    -1 + (2/3)(k, k + 3) / 2^j, so only scale 0 spans [-1, 1]; at scale
    j >= 1 the supports end at -1/3 + 4/(3 * 2^j).
    """
    return [(j, k) for j in range(J) for k in range(2**j)]


@functools.lru_cache(maxsize=None)
def _overlap_table(d):
    """Shifts m and entries (2/3) 2^(d/2) I(d, m) of scale gap d, read-only.

    I(d, m) = integral of psi(s) psi(2^d s - m) ds. Its second factor lives
    on the six cells [i, i + 1] * h, i = 2m..2m+5, of width h = 2^-(d+1).
    psi's kinks sit at half-integers, which are multiples of h, so both
    factors are linear on every cell and Simpson's rule on each cell is
    exact. The d = 0 blocks are symmetric, so that table keeps m >= 0.
    """
    m = np.arange(-2 if d else 0, 3 * 2**d)
    h = 0.5 ** (d + 1)
    # Ends and midpoints of the six cells: s = (2m + t/2) h, t = 0..12.
    s = (2.0 * m[:, None] + 0.5 * np.arange(13)) * h
    prod = psi(s) * psi(2**d * s - m[:, None])
    table = (2.0 / 3.0) * 2.0 ** (d / 2.0) * (h / 6.0 * np.sum(
        prod[:, 0:12:2] + 4.0 * prod[:, 1:12:2] + prod[:, 2:13:2], axis=1
    ))
    m.flags.writeable = table.flags.writeable = False
    return m, table


def check_dyadic_levels(J):
    """Raise ConfigurationError unless ``build_dyadic_gram`` accepts ``J``."""
    if not 1 <= J <= 10:
        raise ConfigurationError(f"J must be in [1, 10], got {J}")


def build_dyadic_gram(J):
    """Exact Gram of the L2-normalized wavelets of ``dyadic_system(J)``.

    Only scale 0 spans [-1, 1]; see ``dyadic_system``. Substituting
    s = 2^ja * 1.5 (x + 1) - ka turns entry (ja, ka), (jb, kb) into
    (2/3) 2^(d/2) I(d, m) with d = jb - ja and m = kb - 2^d ka, which is
    nonzero only for m = -2..3 * 2^d - 1.
    """
    check_dyadic_levels(J)
    K = 2**J - 1
    gram = np.zeros((K, K))
    for d in range(J):
        m, table = _overlap_table(d)
        # Row a of kb: shifts at scale ja + d met by wavelet a = (ja, ka).
        ja = np.repeat(np.arange(J - d), 2 ** np.arange(J - d))
        kb = 2**d * (np.arange(ja.size) + 1 - 2**ja)[:, None] + m
        a, i = np.nonzero((kb >= 0) & (kb < 2 ** (ja + d)[:, None]))
        b = 2 ** (ja[a] + d) - 1 + kb[a, i]
        gram[a, b] = gram[b, a] = table[i]
    eigs = sym_eigvals(gram)
    return GramReport(
        matrix=gram,
        eigenvalues=eigs,
        condition=condition_number(eigs),
    )


def feature_gram_condition(trace, layer):
    """Condition number of the layer's empirical feature Gram (1/N) Phi Phi^T.

    ``trace`` is the ``ForwardTrace`` of a forward pass over the batch of
    interest, read before ``backward`` turns its hidden ``post`` into
    scratch (training passes its own step's trace, so no second forward
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
    return condition_number(sym_eigvals(gram))


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
