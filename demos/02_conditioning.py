"""Why plain ReLU fits stall: Gram-matrix conditioning.

Gradient descent on a shallow net's output weights is a least-squares
problem whose difficulty is the condition number of the neuron Gram
matrix. Evenly spaced ReLU neurons on [-1, 1] produce a Gram whose
condition number explodes polynomially with width; the dyadic wavelet
system stays uniformly well conditioned (all eigenvalues within a fixed
Gershgorin band around 1/6).
"""

import numpy as np

from bwinr import build_dyadic_gram, build_relu_gram, gershgorin_discs


def main():
    print("ReLU neuron Gram, evenly spaced biases:")
    print(f"  {'K':>4} {'lambda_min':>12} {'lambda_max':>12} {'kappa':>12}")
    ks = [8, 16, 32, 64, 128, 256]
    kappas = []
    for K in ks:
        r = build_relu_gram(K)
        kappas.append(r.condition.value)
        print(f"  {K:>4} {r.eigenvalues[0]:>12.3e} {r.eigenvalues[-1]:>12.3e} "
              f"{r.condition.value:>12.3e}")
    slope = np.polyfit(np.log(ks), np.log(kappas), 1)[0]
    print(f"  log-log slope of kappa vs K: {slope:.2f} (polynomial blow-up)")

    print("\nDyadic wavelet Gram (normalized, scales j = 0..J-1):")
    print(f"  {'J':>3} {'K':>5} {'lambda_min':>12} {'lambda_max':>12} {'kappa':>8}")
    for J in range(1, 9):
        r = build_dyadic_gram(J)
        print(f"  {J:>3} {len(r.eigenvalues):>5} {r.eigenvalues[0]:>12.6f} "
              f"{r.eigenvalues[-1]:>12.6f} {r.condition.value:>8.4f}")
    radius = max(rad for _, rad in gershgorin_discs(r.matrix))
    print(f"  widest Gershgorin radius at J=8: {radius:.7f} "
          f"(two |k-p|=1 overlaps of 5/162 plus two |k-p|=2 of 1/324 = {11 / 162:.7f})")
    print("  kappa stays below (1/6 + r)/(1/6 - r) = 38/16 = 2.375 at every size.")


if __name__ == "__main__":
    main()
