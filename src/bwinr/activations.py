"""Activation functions for coordinate networks.

The centerpiece is the second-order B-spline wavelet ``psi``: a fixed
linear combination of seven shifted ReLUs, compactly supported on (0, 3).
Networks built on it therefore remain exactly representable as constrained
ReLU networks (seven ReLU neurons per wavelet neuron), which is what
``expand_to_relus`` materializes.

Baselines: plain ReLU, sine, real Gaussian, plus identity for output
layers and Fourier positional encoding for the ReLU+PE baseline.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Slope coefficients and shifts of the seven ReLU atoms whose sum is psi.
# The coefficients sum to zero and their shift-weighted sum is zero, so the
# sum vanishes identically outside (0, 3); absolute coefficients sum to 16,
# the wavelet's variation-norm multiplier.
WAVELET_COEFFS = np.array(
    [1 / 6, -8 / 6, 23 / 6, -16 / 3, 23 / 6, -8 / 6, 1 / 6]
)
WAVELET_SHIFTS = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])

KINDS = ("relu", "bwrelu", "sine", "gaussian", "identity")
_SCALED_KINDS = ("bwrelu", "sine", "gaussian")

# Per-segment slope/intercept of psi on [i/2, (i+1)/2), i = 0..5, padded
# with zero rows for the regions outside the support. Expanding the atom
# sum gives slope = cumsum(coeffs) and intercept = -cumsum(coeffs*shifts)
# on each segment, so this table evaluates the identical piecewise-linear
# function in two gathers instead of seven ReLU passes.
_SEG_SLOPE = np.concatenate(([0.0], np.cumsum(WAVELET_COEFFS[:-1]), [0.0, 0.0]))
_SEG_INTERCEPT = np.concatenate(
    ([0.0], -np.cumsum((WAVELET_COEFFS * WAVELET_SHIFTS)[:-1]), [0.0, 0.0])
)


def _wavelet_fast(u):
    """(psi(u), psi'(u)) via the segment table; right-derivative at kinks."""
    seg = np.floor(2.0 * u).astype(np.intp)
    np.clip(seg, -1, 6, out=seg)
    seg += 1
    slope = _SEG_SLOPE[seg]
    val = slope * u
    val += _SEG_INTERCEPT[seg]
    return val, slope


# Elements per pass of ``_wavelet_scaled``: small enough that the pass's
# temporaries stay in cache instead of streaming a layer-sized array each.
_BLOCK = 16384


def _wavelet_scaled(z, c):
    """(psi(c*z), c*psi'(c*z)), evaluated over flat blocks of ``_BLOCK``."""
    val = np.empty(z.shape)
    der = np.empty(z.shape)
    flat_z, flat_val, flat_der = z.reshape(-1), val.reshape(-1), der.reshape(-1)
    for lo in range(0, flat_z.size, _BLOCK):
        hi = lo + _BLOCK
        flat_val[lo:hi], slope = _wavelet_fast(c * flat_z[lo:hi])
        np.multiply(c, slope, out=flat_der[lo:hi])
    return val, der


@dataclass(frozen=True)
class Activation:
    """Activation kind plus its scale parameter.

    ``bwrelu``, ``sine`` and ``gaussian`` require ``scale`` > 0 (the c,
    omega_0, sigma_0 knobs); ``relu`` and ``identity`` carry none.
    """

    kind: str
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown activation kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.kind in _SCALED_KINDS:
            if self.scale is None or not self.scale > 0:
                raise ConfigurationError(
                    f"{self.kind} requires a positive scale, got {self.scale!r}"
                )
        elif self.scale is not None:
            raise ConfigurationError(
                f"{self.kind} takes no scale parameter, got {self.scale!r}"
            )


def psi(x):
    """Second-order B-spline wavelet: sum of the seven weighted ReLU atoms.

    Exactly zero outside (0, 3); the explicit support mask removes the
    ~1e-16 float residue the atom sum would otherwise leave on the tails.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros_like(x)
    for coeff, shift in zip(WAVELET_COEFFS, WAVELET_SHIFTS):
        out += coeff * np.maximum(x - shift, 0.0)
    out[(x <= 0.0) | (x >= 3.0)] = 0.0
    return float(out[0]) if scalar else out


def psi_prime(x):
    """Piecewise-constant derivative of ``psi`` (right-derivative at kinks)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros_like(x)
    for coeff, shift in zip(WAVELET_COEFFS, WAVELET_SHIFTS):
        out += coeff * (x >= shift)
    out[(x < 0.0) | (x >= 3.0)] = 0.0
    return float(out[0]) if scalar else out


def apply(activation, z):
    """Evaluate ``activation`` elementwise on ``z`` with its derivative.

    For scaled kinds the function is zeta(c*z) and the returned derivative
    is d/dz zeta(c*z), i.e. the chain factor c is already included. ReLU
    is positively homogeneous, so it ignores any scale; identity passes
    through. The ReLU derivative at 0 follows the right-derivative
    convention (1), matching ``psi_prime`` at its kinks.
    """
    z = np.asarray(z, dtype=float)
    kind = activation.kind
    if kind == "identity":
        return z, np.ones_like(z)
    if kind == "relu":
        return np.maximum(z, 0.0), (z >= 0.0).astype(float)
    c = activation.scale
    if kind == "bwrelu":
        return _wavelet_scaled(z, c)
    u = c * z
    if kind == "sine":
        return np.sin(u), c * np.cos(u)
    if kind == "gaussian":
        g = np.exp(-(u * u))
        return g, -2.0 * c * u * g
    raise ConfigurationError(f"unknown activation kind {kind!r}")


@dataclass(frozen=True)
class ReluNeuron:
    """One ReLU atom of an expanded wavelet neuron: output * relu(w.x - b)."""

    weight: np.ndarray
    bias: float
    output: np.ndarray


def expand_to_relus(w, b, v, c):
    """Expand one wavelet neuron v * psi(c*(w.x - b)) into 7 ReLU neurons.

    Atom i computes coeff_i * v * relu((c*w).x - (c*b + shift_i)); the sum
    of the seven atoms reproduces the wavelet neuron for every x.
    """
    if not c > 0:
        raise ConfigurationError(f"scale must be positive, got {c!r}")
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    return [
        ReluNeuron(weight=c * w, bias=c * b + shift, output=coeff * v)
        for coeff, shift in zip(WAVELET_COEFFS, WAVELET_SHIFTS)
    ]


def positional_encoding(x, levels):
    """Fourier features (sin, cos) of 2^j * pi * x for j = 0..levels-1.

    ``x`` has shape (n, d) with coordinates in [-1, 1]; the result has
    shape (n, 2 * d * levels), ordered dimension-major with (sin, cos)
    pairs per frequency level.
    """
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1, got {levels}")
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x)
    n, d = x.shape
    freqs = np.pi * np.exp2(np.arange(levels))
    # (n, d, levels) phase tensor -> interleave sin/cos on the last axis
    phase = x[:, :, None] * freqs
    out = np.empty((n, d, levels, 2))
    out[..., 0] = np.sin(phase)
    out[..., 1] = np.cos(phase)
    out = out.reshape(n, 2 * d * levels)
    return out[0] if squeeze else out
