"""First-order rounding bound on |forward(params) - forward(expand_to_relus(params))|.

Both nets approximate one exact real-arithmetic net. The bound adds a bound
on each net's output error, in unit roundoff u = 2**-53, from these maxima
over the sample and the neurons: the row-sum norms ||W_l||_inf, the scales
c_l, the widths, the largest exact pre-activation |z_l| (read from the
computed one, which differs at second order), sum|a_j| = 16, max|psi'| = 8/3
and max|psi| = 5/6. CHANGES.md gives the derivation; the steps are:

* An affine layer reading inputs r of magnitude sum_i |V_ki||r_i| <= w*R and
  propagated error |sum_i V_ki dr_i| <= w*E, by a dot product of length m
  (any order, FMA or not: gamma_m ~ m*u) with weights stored after rho
  roundings, then ``+ b`` (one rounding of about |z|), is off by
  D = w*E + u*((m + rho)*w*R + M).
* relu and identity are exact and 1-Lipschitz: next E = D, R = M.
* The BW-ReLU kernel rounds c*z (u*c*M) and evaluates slope*t + intercept
  on |t| <= 3 from tables rounded by at most 30u (slopes) and 73u
  (intercepts), with two more roundings (8u, 5u/6): next E =
  8/3*(c*D + u*c*M) + KERNEL*u, R = 5/6.
* An expanded layer stores fl(c*V) (rho + 1 roundings) and biases
  fl(fl(c*b) - s_j), |b| <= M + w*R. Its atom pre-activations c*z_k - s_j
  (|.| <= T = c*M + 3) are off by a part common to the seven atoms of
  neuron k, |c V_k.dr| <= c*w*E, which the atom sum passes on times
  max|psi'|, plus roundings of at most
  eta = u*((m + rho + 3)*c*w*R + 3*c*M + 6), passed on times sum|a_j|:
  next E = 8/3*c*w*E + 16*eta, R = 16*T, m = 7*width, rho = 2 (the stored
  coefficient and the kron product).
"""

import numpy as np

from bwinr import apply

U = 2.0**-53
COEFF_ABS_SUM = 16.0    # sum_j |a_j|
PSI_LIPSCHITZ = 8 / 3   # max |psi'|
PSI_MAX = 5 / 6         # max |psi| = psi(3/2)
# 3 * 30 (slope table, |t| <= 3) + 73 (intercept table) + 8 + 5/6, rounded up
KERNEL = 172.0


def pre_activation_maxima(params, X):
    """max |z_l| over the sample, per layer, of the net ``params`` on ``X``."""
    a, maxima = X, []
    for spec, w, b in zip(params.specs, params.weights, params.biases):
        z = a @ w.T + b
        maxima.append(float(np.abs(z).max()))
        a, _ = apply(spec.activation, z)
    return maxima


def _affine(w, R, E, m, rho, M):
    return w * E + U * ((m + rho) * w * R + M)


def expansion_error_bound(params, X):
    """The bound above for ``params`` (relu, bwrelu and identity layers) on ``X``."""
    maxima = pre_activation_maxima(params, X)
    A0 = float(np.abs(X).max())
    n0 = params.specs[0].in_dim
    bw = dict(R=A0, E=0.0, m=n0, rho=0)   # the BW-ReLU net's input state
    ex = dict(R=A0, E=0.0, m=n0, rho=0)   # the expanded net's
    for spec, W, M in zip(params.specs, params.weights, maxima):
        w = float(np.abs(W).sum(axis=1).max())
        width = spec.out_dim
        D = _affine(w, M=M, **bw)
        if spec.activation.kind == "bwrelu":
            c = spec.activation.scale
            bw = dict(R=PSI_MAX, E=PSI_LIPSCHITZ * (c * D + U * c * M) + KERNEL * U,
                      m=width, rho=0)
            eta = U * ((ex["m"] + ex["rho"] + 3) * c * w * ex["R"] + 3 * c * M + 6)
            ex = dict(R=COEFF_ABS_SUM * (c * M + 3),
                      E=PSI_LIPSCHITZ * c * w * ex["E"] + COEFF_ABS_SUM * eta,
                      m=7 * width, rho=2)
        else:
            bw = dict(R=M, E=D, m=width, rho=0)
            ex = dict(R=M, E=_affine(w, M=M, **ex), m=width, rho=0)
    return bw["E"] + ex["E"]
