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
  The linear-spline wavelet is semi-orthogonal (Chui & Wang 1992), so
  wavelets at different scales are exactly orthogonal and the matrix is
  block diagonal by scale. Each block is the same symmetric band:
  1/6 on the diagonal, 5/162 at shift distance 1, -1/324 at distance 2
  and 0 beyond, so the matrix is a small perturbation of (1/6) I and its
  condition number stays O(1).

Both Grams are filled from their closed forms, each entry rounded once,
so the eigensolve is most of a spectrum's cost; ``_spectrum`` runs it
once per Gram, the feature Gram's included. Each builder is the one
check on its own size: ``build_relu_gram`` takes K in [2, 512] and
``build_dyadic_gram`` J in [1, 10]; anything else is a ConfigurationError,
raised before any work.

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

from .errors import (
    ConfigurationError,
    InvalidInputError,
    ShapeError,
    UnsupportedActivationError,
)
from .linalg import COND_FLOOR_REL, ConditionNumber, condition_number, sym_eigvals

VNORM_ATOM_FACTOR = 16.0  # sum of |slope coefficients| of the wavelet's atoms


@dataclass(frozen=True)
class GramReport:
    matrix: np.ndarray
    eigenvalues: np.ndarray       # ascending
    condition: ConditionNumber


def _spectrum(gram):
    """GramReport of a symmetric PSD ``gram`` from one ``sym_eigvals`` call.
    An all-zero Gram (a dead layer's) has no lambda_max to scale a floor by,
    so it reads the flagged floor 1 / COND_FLOOR_REL, as singular Grams do."""
    eigs = sym_eigvals(gram)
    if eigs[-1] <= 0.0:
        return GramReport(gram, eigs, ConditionNumber(1.0 / COND_FLOOR_REL, True))
    return GramReport(gram, eigs, condition_number(eigs))


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


def build_relu_gram(K):
    """Gram of ReLU neurons with biases -1 + 2(j-1)/K over [-1, 1].

    Entry (i, j) is the integral of (x - b_i)(x - b_j) from max(b_i, b_j)
    to 1: 4 (K - hi)^2 (2K + hi - 3 lo) / (3 K^3) with hi = max(i, j) and
    lo = min(i, j), counting from 0. Numerator and denominator are integers
    below 2^53, so each entry is the exact integral rounded once. A K
    outside [2, 512] is a ConfigurationError, raised before any work.
    """
    if not 2 <= K <= 512:
        raise ConfigurationError(f"K must be in [2, 512], got {K}")
    n = np.arange(K, dtype=float)
    # On and above the diagonal hi = j (the column) and lo = i (the row).
    gram = (2.0 * K + n) - 3.0 * n[:, None]
    gram *= 4.0 * (K - n) ** 2
    gram /= 3.0 * K**3
    np.copyto(gram, gram.T, where=np.tri(K, k=-1, dtype=bool))
    return _spectrum(gram)


def dyadic_system(J):
    """(scale j, shift k) index pairs of the dyadic wavelet system.

    Scale j contributes 2^j shifts, j = 0..J-1, for 2^J - 1 wavelets total.
    Wavelet (j, k) is 2^(j/2) psi(2^j * 1.5 * (x + 1) - k), supported on
    -1 + (2/3)(k, k + 3) / 2^j, so only scale 0 spans [-1, 1]; at scale
    j >= 1 the supports end at -1/3 + 4/(3 * 2^j).
    """
    return [(j, k) for j in range(J) for k in range(2**j)]


def build_dyadic_gram(J):
    """Exact Gram of the L2-normalized wavelets of ``dyadic_system(J)``.

    Only scale 0 spans [-1, 1]; see ``dyadic_system``. Substituting
    s = 2^ja * 1.5 (x + 1) - ka turns entry (ja, ka), (jb, kb) into
    (2/3) 2^(d/2) I(d, m) with d = jb - ja and m = kb - 2^d ka, where
    I(d, m) is the integral of psi(s) psi(2^d s - m). It vanishes for
    every d >= 1, and I(0, m) is 1/4, 5/108 and -1/216 at |m| = 0, 1, 2
    and 0 beyond. A J outside [1, 10] is a ConfigurationError, raised
    before any work.
    """
    if not 1 <= J <= 10:
        raise ConfigurationError(f"J must be in [1, 10], got {J}")
    K = 2**J - 1
    scale = np.repeat(np.arange(J), 2 ** np.arange(J))
    gram = np.zeros((K, K))
    np.fill_diagonal(gram, 1 / 6)
    for gap, entry in ((1, 5 / 162), (2, -1 / 324)):
        i = np.flatnonzero(scale[:-gap] == scale[gap:])
        gram[i, i + gap] = gram[i + gap, i] = entry
    return _spectrum(gram)


def feature_gram_condition(features):
    """Condition number of the empirical feature Gram (1/N) Phi Phi^T.

    Row k of Phi is column k of the (N, K) array ``features``: a hidden
    layer's post-activations, or any subset of their columns. The 1/N
    normalization makes the result invariant to N. All-zero features (a
    dead layer) read the flagged floor 1 / COND_FLOOR_REL. Anything but a
    2-D array, None included, is a ShapeError.
    """
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2:
        raise ShapeError(f"features must be an (N, K) array, got shape {feats.shape}")
    return _spectrum(feats.T @ feats / feats.shape[0]).condition


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
