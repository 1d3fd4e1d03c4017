"""Activation functions for coordinate networks.

The centerpiece is the second-order B-spline wavelet ``psi``: a fixed
linear combination of seven shifted ReLUs, compactly supported on (0, 3).
A whole network on it is exactly a constrained ReLU network, seven ReLU
neurons per wavelet neuron, which ``network.expand_to_relus`` builds for
``network.forward`` to run. ``psi``, ``psi_prime`` and the BW-ReLU
layers all run one segment-table kernel, so they agree bitwise.

Baselines: plain ReLU, sine, real Gaussian, plus identity for output
layers and Fourier positional encoding for the ReLU+PE baseline.
"""

import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError

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
# with a zero row on each side for the regions outside the support.
# Expanding the atom sum gives slope = cumsum(coeffs) and intercept =
# -cumsum(coeffs*shifts) on each segment, so this table evaluates the
# identical piecewise-linear function in two gathers instead of seven ReLU
# passes.
_SEG_SLOPE = np.concatenate(([0.0], np.cumsum(WAVELET_COEFFS[:-1]), [0.0]))
_SEG_INTERCEPT = np.concatenate(
    ([0.0], -np.cumsum((WAVELET_COEFFS * WAVELET_SHIFTS)[:-1]), [0.0])
)
_RELU_SLOPE = np.array([0.0, 1.0])

# Elements per pass of the blocked kernels: small enough that a pass's
# temporaries stay in cache instead of streaming a layer-sized array each.
_BLOCK = 16384


@dataclass(frozen=True, eq=False)
class CodedDerivative:
    """Derivative of a piecewise-linear activation, one byte per element.

    ``codes`` (int8, shaped like the activation's input) index ``table``,
    the derivative's distinct values. ``np.asarray`` gives the dense
    derivative; ``nbytes`` counts the codes, the part that scales with the
    batch.
    """

    codes: np.ndarray
    table: np.ndarray

    @property
    def nbytes(self):
        return self.codes.nbytes

    def __array__(self, dtype=None, copy=None):
        dense = np.asarray(np.take(self.table, self.codes))  # 0-d codes: a scalar
        return dense if dtype is None else dense.astype(dtype, copy=False)


def _same_order(a, b):
    """Same shape, both contiguous in one memory order (C or Fortran)."""
    return a.shape == b.shape and (
        (a.flags.c_contiguous and b.flags.c_contiguous)
        or (a.flags.f_contiguous and b.flags.f_contiguous)
    )


def times_derivative(x, deriv):
    """``x *= deriv`` in place, for either form of derivative ``apply`` returns.

    A ``CodedDerivative`` is gathered block by block in memory order, so
    ``x`` must then have the codes' shape and memory order (C or Fortran);
    each product is the same IEEE product as with the dense derivative.
    """
    if not isinstance(deriv, CodedDerivative):
        x *= deriv
        return x
    if not _same_order(x, deriv.codes):
        raise ShapeError(f"expected shape {deriv.codes.shape} in the codes' order")
    flat_x, flat_codes = x.ravel(order="K"), deriv.codes.ravel(order="K")
    for lo in range(0, flat_x.size, _BLOCK):
        hi = lo + _BLOCK
        flat_x[lo:hi] *= np.take(deriv.table, flat_codes[lo:hi])
    return x


def _wavelet_scaled(z, c):
    """psi(c*z) into ``z``, c*psi'(c*z) as segment codes, by flat blocks.

    The blocks walk memory order; the codes share ``z``'s. The codes take
    the right-derivative at kinks.
    """
    codes = np.empty_like(z, dtype=np.int8)
    flat_z, flat_codes = z.ravel(order="K"), codes.ravel(order="K")
    # NaN, inf or huge u cast to an undefined index, which the clip sends to a
    # tail. c*z and the table's c*slope may overflow to inf.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, flat_z.size, _BLOCK):
            hi = lo + _BLOCK
            val = flat_z[lo:hi]
            u = c * val
            seg = np.floor(2.0 * u).astype(np.intp)
            np.clip(seg, -1, 6, out=seg)
            seg += 1
            np.multiply(_SEG_SLOPE[seg], u, out=val)
            val += _SEG_INTERCEPT[seg]
            flat_codes[lo:hi] = seg
        return CodedDerivative(codes, c * _SEG_SLOPE)


@dataclass(frozen=True)
class Activation:
    """Activation kind plus its scale parameter.

    ``bwrelu``, ``sine`` and ``gaussian`` require a finite ``scale`` > 0
    (the c, omega_0, sigma_0 knobs); ``relu`` and ``identity`` carry none.
    """

    kind: str
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown activation kind {reprlib.repr(self.kind)}; expected one of {KINDS}"
            )
        if self.kind in _SCALED_KINDS:
            if self.scale is None or not 0 < self.scale < np.inf:
                raise ConfigurationError(
                    f"{self.kind} requires a finite positive scale, got {self.scale!r}"
                )
        elif self.scale is not None:
            raise ConfigurationError(
                f"{self.kind} takes no scale parameter, got {self.scale!r}"
            )


def _unit_wavelet(x):
    """psi(x) and its coded derivative by the layer kernel at c = 1.

    Clamped to [-1, 4], where both vanish, with NaN sent to -1 by ``fmax``:
    no infinite, huge or NaN input reaches the kernel's integer segment index.
    """
    z = np.array(x, dtype=float)
    np.fmin(np.fmax(z, -1.0, out=z), 4.0, out=z)
    return z, _wavelet_scaled(z, 1.0)


def psi(x):
    """Second-order B-spline wavelet, exactly zero outside (0, 3); NaN stays NaN."""
    vals = np.where(np.isnan(x), np.nan, _unit_wavelet(x)[0])
    return float(vals) if vals.ndim == 0 else vals


def psi_prime(x):
    """Piecewise-constant derivative of ``psi`` (right-derivative at kinks)."""
    slopes = np.asarray(_unit_wavelet(x)[1])
    return float(slopes) if slopes.ndim == 0 else slopes


def apply(activation, z):
    """Evaluate ``activation`` elementwise on ``z`` in place, with its derivative.

    For scaled kinds the function is zeta(c*z) and the returned derivative
    is d/dz zeta(c*z), i.e. the chain factor c is already included. ReLU
    and identity carry no scale (``Activation`` rejects one); identity
    passes through. The ReLU derivative at 0 follows the right-derivative
    convention (1), matching ``psi_prime`` at its kinks.

    ``z``, a C- or Fortran-contiguous float64 array (else ShapeError), is
    overwritten with the values and returned with the derivative, in its
    memory order. The bwrelu and relu derivatives are ``CodedDerivative``
    objects (``np.asarray`` makes them dense); the others are arrays.
    """
    if not isinstance(z, np.ndarray) or z.dtype != np.float64 or not z.flags.forc:
        raise ShapeError("z must be a C- or Fortran-contiguous float64 array")
    kind = activation.kind
    if kind == "identity":
        return z, np.ones_like(z)
    if kind == "relu":
        codes = (z >= 0.0).view(np.int8)
        return np.maximum(z, 0.0, out=z), CodedDerivative(codes, _RELU_SLOPE)
    c = activation.scale
    if kind == "bwrelu":
        return z, _wavelet_scaled(z, c)
    u = c * z
    if kind == "sine":
        return np.sin(u, out=z), c * np.cos(u)
    g = np.exp(-(u * u), out=z)  # gaussian, the last kind Activation admits
    return g, -2.0 * c * u * g


# Largest level count whose top frequency pi * 2^(levels - 1) is finite.
MAX_PE_LEVELS = 1023


def check_pe_levels(levels):
    """Raise ConfigurationError unless ``positional_encoding`` accepts ``levels``."""
    if not 1 <= levels <= MAX_PE_LEVELS:
        raise ConfigurationError(
            f"positional-encoding levels must be in [1, {MAX_PE_LEVELS}], "
            f"got {levels}"
        )


def positional_encoding(x, levels):
    """Fourier features (sin, cos) of 2^j * pi * x for j = 0..levels-1.

    ``x`` has shape (n, d) with coordinates in [-1, 1]; the result has
    shape (n, 2 * d * levels), ordered dimension-major with (sin, cos)
    pairs per frequency level.
    """
    check_pe_levels(levels)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected an (n, d) batch, got shape {x.shape}")
    n, d = x.shape
    freqs = np.pi * np.exp2(np.arange(levels))
    # (n, d, levels) phase tensor -> interleave sin/cos on the last axis
    phase = x[:, :, None] * freqs
    out = np.empty((n, d, levels, 2))
    out[..., 0] = np.sin(phase)
    out[..., 1] = np.cos(phase)
    return out.reshape(n, 2 * d * levels)
