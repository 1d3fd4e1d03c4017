"""The B-spline wavelet activation and its ReLU anatomy.

The activation psi is a fixed linear combination of seven shifted ReLUs,
supported on (0, 3). This script evaluates it, checks the two structural
identities that make wavelet networks "still ReLU networks":

* expanding a wavelet network yields a plain ReLU network, seven ReLU
  neurons per wavelet neuron, that ``forward`` runs to the same outputs,
  for one neuron and for a deep net alike;
* 24 * psi(x/4) equals relu(x) on [-1, 1], so nothing representable by a
  ReLU net on the box is lost.

It also shows where the variation-norm factor 16 comes from: the absolute
slope coefficients of the seven atoms.
"""

import numpy as np

from bwinr import (
    WAVELET_COEFFS,
    WAVELET_SHIFTS,
    Activation,
    LayerSpec,
    NetworkParams,
    expand_to_relus,
    forward,
    init_network,
    mlp_specs,
    psi,
    psi_prime,
)


def main():
    print("psi on a few points:")
    for x in (-1.0, 0.5, 1.0, 1.5, 2.5, 3.5):
        print(f"  psi({x:4.1f}) = {psi(x):+.6f}   psi'({x:4.1f}) = {psi_prime(x):+.6f}")

    print("\nseven ReLU atoms (slope coefficient, shift):")
    for coeff, shift in zip(WAVELET_COEFFS, WAVELET_SHIFTS):
        print(f"  {coeff:+.6f} * relu(x - {shift})")
    print(f"  sum of coefficients:          {WAVELET_COEFFS.sum():+.1e} (tails cancel)")
    print(f"  sum of |coefficients|:        {np.abs(WAVELET_COEFFS).sum():.1f} (variation-norm factor)")

    rng = np.random.default_rng(0)
    w, b, v, c = rng.standard_normal(2), 0.3, rng.standard_normal(1), 2.0
    specs = (LayerSpec(2, 1, Activation("bwrelu", c)), LayerSpec(1, 1, Activation("identity")))
    neuron = NetworkParams(specs, [w[None, :], v[:, None]], [np.array([-b]), np.zeros(1)], 0)
    X = rng.uniform(-1, 1, (2000, 2))
    direct = v[0] * psi(c * (X @ w - b))
    relus, _ = forward(expand_to_relus(neuron), X)
    print(f"\nwavelet neuron vs its 7-ReLU expansion:    "
          f"max |difference| = {np.abs(relus[:, 0] - direct).max():.2e}")
    deep = init_network(mlp_specs([2, 16, 16, 16, 1], Activation("bwrelu", 3.0)), 0)
    expanded = expand_to_relus(deep)
    widths = [spec.out_dim for spec in expanded.specs[:-1]]
    diff = np.abs(forward(deep, X)[0] - forward(expanded, X)[0]).max()
    print(f"16x3 wavelet net (c = 3) vs its {widths} ReLU net: max |difference| = {diff:.2e}")

    x = np.linspace(-1, 1, 10001)
    err = np.abs(24.0 * psi(x / 4.0) - np.maximum(x, 0.0)).max()
    print(f"24*psi(x/4) vs relu(x) on [-1,1]:          max |difference| = {err:.2e}")


if __name__ == "__main__":
    main()
