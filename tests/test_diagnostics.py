import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import bwinr
from bwinr import (
    Activation,
    ImageGrid,
    InvalidInputError,
    LayerSpec,
    NetworkParams,
    ShapeError,
    UnsupportedActivationError,
    build_dyadic_gram,
    build_relu_gram,
    dyadic_system,
    expand_to_relus,
    feature_gram_condition,
    forward,
    init_network,
    mlp_specs,
    psi,
    psnr,
    variation_norm_deep,
    variation_norm_shallow,
)
from bwinr.linalg import COND_FLOOR_REL

# Same-scale wavelet overlap integrals (2/3) * int psi(t) psi(t - k) dt.
C1 = 0.030864
C2 = -0.0030864
GERSH_RADIUS = 2 * (abs(C1) + abs(C2))
# Unit roundoff of float64; the frozen float forms' error bounds count it.
U = 2.0**-53


class TestVariationNormShallow:
    def test_unit_wavelet_neuron(self):
        w = np.array([[1.0]])
        v = np.array([[1.0]])
        assert variation_norm_shallow(w, v, Activation("bwrelu", 1.0)) == pytest.approx(16.0)

    def test_scaled_neuron(self):
        w = np.array([[0.5]])
        v = np.array([[2.0]])
        assert variation_norm_shallow(w, v, Activation("bwrelu", 3.0)) == pytest.approx(48.0)

    def test_zero_weights(self):
        w = np.zeros((4, 2))
        v = np.zeros((1, 4))
        assert variation_norm_shallow(w, v, Activation("bwrelu", 2.0)) == 0.0

    def test_relu_formula(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((5, 3))
        v = rng.standard_normal((2, 5))
        expected = sum(
            np.linalg.norm(w[k]) * np.linalg.norm(v[:, k]) for k in range(5)
        )
        assert variation_norm_shallow(w, v, Activation("relu")) == pytest.approx(expected)

    def test_mismatched_neuron_counts_rejected(self):
        with pytest.raises(ShapeError):
            variation_norm_shallow(np.ones((3, 2)), np.ones((1, 4)), Activation("bwrelu", 1.0))

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedActivationError):
            variation_norm_shallow(
                np.ones((1, 1)), np.ones((1, 1)), Activation("sine", 1.0)
            )

    def test_factor_16_emerges_from_atom_expansion(self):
        # the wavelet neuron's ReLU atoms carry input weight c*w and output
        # weights coeff*v; summing their plain-ReLU variation norms must
        # reproduce 16*c*|v||w|
        rng = np.random.default_rng(1)
        w = rng.standard_normal(3)
        v = rng.standard_normal(2)
        c = 2.7
        specs = (LayerSpec(3, 1, Activation("bwrelu", c)), LayerSpec(1, 2, Activation("identity")))
        expanded = expand_to_relus(
            NetworkParams(specs, [w[None, :], v[:, None]], [np.array([-0.3]), np.zeros(2)], 0)
        )
        atom_total = variation_norm_shallow(
            expanded.weights[0], expanded.weights[1], Activation("relu")
        )
        direct = variation_norm_shallow(
            w[None, :], v[:, None], Activation("bwrelu", c)
        )
        assert atom_total == pytest.approx(direct, rel=1e-12)


class TestVariationNormDeep:
    def test_single_hidden_layer_matches_shallow(self):
        p = init_network(mlp_specs([2, 7, 1], Activation("bwrelu", 3.0)), 0)
        report = variation_norm_deep(p)
        shallow = variation_norm_shallow(
            p.weights[0], p.weights[1], Activation("bwrelu", 3.0)
        )
        assert report.total == pytest.approx(shallow)
        assert len(report.layers) == 1

    def test_hand_built_two_hidden_layers(self):
        # unit rows and columns everywhere -> 16 * (2 + 2)
        p = init_network(mlp_specs([2, 2, 2, 1], Activation("bwrelu", 1.0)), 0)
        p.weights[0] = np.array([[1.0, 0.0], [0.0, 1.0]])
        p.weights[1] = np.array([[1.0, 0.0], [0.0, 1.0]])
        p.weights[2] = np.array([[1.0, 1.0]])
        report = variation_norm_deep(p)
        assert report.layers == (32.0, 32.0)
        assert report.total == pytest.approx(16.0 * 4.0)

    def test_three_hidden_layer_formula(self):
        c = 2.0
        p = init_network(mlp_specs([2, 5, 5, 5, 1], Activation("bwrelu", c)), 3)
        w = p.weights
        expected = 16 * c * (
            np.sum(np.linalg.norm(w[0], axis=1) * np.linalg.norm(w[1], axis=0))
            + np.sum(np.linalg.norm(w[2], axis=0))
            + np.sum(np.linalg.norm(w[3], axis=0))
        )
        assert variation_norm_deep(p).total == pytest.approx(expected)

    def test_non_wavelet_net_rejected(self):
        p = init_network(mlp_specs([2, 4, 1], Activation("relu")), 0)
        with pytest.raises(UnsupportedActivationError):
            variation_norm_deep(p)

    def test_net_without_hidden_layer_rejected(self):
        p = init_network(mlp_specs([2, 1], Activation("bwrelu", 1.0)), 0)
        with pytest.raises(UnsupportedActivationError):
            variation_norm_deep(p)


class TestReluGram:
    def test_hand_integrals_k2(self):
        # biases {-1, 0}: entries int (x+1)^2, int_0^1 (x+1)x, int_0^1 x^2
        gram = build_relu_gram(2).matrix
        expected = np.array([[8 / 3, 5 / 6], [5 / 6, 1 / 3]])
        assert np.allclose(gram, expected, atol=1e-14)

    def test_matches_quadrature(self):
        K = 6
        report = build_relu_gram(K)
        b = -1.0 + 2.0 * np.arange(K) / K
        for i in range(K):
            for j in range(K):
                ref, _ = quad(
                    lambda x: max(x - b[i], 0.0) * max(x - b[j], 0.0), -1, 1
                )
                assert report.matrix[i, j] == pytest.approx(ref, abs=1e-12)

    def test_symmetric_psd(self):
        report = build_relu_gram(32)
        assert np.array_equal(report.matrix, report.matrix.T)
        assert report.eigenvalues[0] >= -1e-12

    def test_condition_grows_at_least_cubically(self):
        # Zhang's bound is a lower bound; the fitted slope for this
        # construction comes out near 4 (lam_max ~ K, lam_min ~ K^-3).
        ks = np.array([8, 16, 32, 64, 128, 256])
        kappas = [build_relu_gram(K).condition.value for K in ks]
        slope = np.polyfit(np.log(ks), np.log(kappas), 1)[0]
        assert slope >= 2.9
        assert slope <= 4.5

    def test_k_bounds(self):
        with pytest.raises(Exception):
            build_relu_gram(1)

    @staticmethod
    def _antideriv_gram(K):
        # Frozen copy of the float closed form evaluated on the full
        # max(b_i, b_j) matrix, the form the build computed before.
        b = -1.0 + 2.0 * np.arange(K) / K
        s = np.add.outer(b, b)
        p = np.multiply.outer(b, b)
        m = np.maximum.outer(b, b)

        def antideriv(x):
            return x**3 / 3.0 - s * x**2 / 2.0 + p * x

        return antideriv(1.0) - antideriv(m)

    @staticmethod
    def _exact_full_matrix_form(K):
        # The same form F(1) - F(max(b_i, b_j)) in integers: with
        # B = K b = 2i - K, 3 K^3 F(X / K) = X^3 - 3 (S/2) X^2 + 3 P X for
        # S = B_i + B_j (even) and P = B_i B_j. Both operands of the one
        # division are exact in float64, so the quotient is rounded once.
        B = 2 * np.arange(K, dtype=np.int64) - K
        half_s = np.add.outer(B, B) // 2
        p = np.multiply.outer(B, B)

        def scaled(x):
            return x**3 - 3 * half_s * x**2 + 3 * p * x

        return (scaled(K) - scaled(np.maximum.outer(B, B))) / (3 * K**3)

    @pytest.mark.parametrize("K", [2, 3, 8, 255, 256, 300, 512])
    def test_bitwise_equal_to_full_matrix_form(self, K):
        gram = build_relu_gram(K).matrix
        expected = self._exact_full_matrix_form(K)
        assert np.array_equal(gram.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("K", [2, 3, 8, 17, 64])
    def test_bitwise_equal_to_exact_integrals(self, K):
        # With u = 1 - max(b_i, b_j) and e = |b_i - b_j| the integral is
        # u^3/3 + e u^2/2, here in rationals and rounded once by float().
        def integral(bi, bj):
            u, e = 1 - max(bi, bj), abs(bi - bj)
            return float(u**3 / 3 + e * u**2 / 2)

        b = [Fraction(2 * i, K) - 1 for i in range(K)]
        expected = np.array([[integral(bi, bj) for bj in b] for bi in b])
        gram = build_relu_gram(K).matrix
        assert np.array_equal(gram.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("K", [2, 3, 8, 255, 256, 300, 512])
    def test_float_form_within_its_rounding(self, K):
        # First-order rounding bound of the frozen float form: biases off
        # by 3U, times sensitivity 2 per bias (12U); 4U in F(1), 7.7U in
        # F(max), 2.7U in the difference; 3U through s and p.
        gap = np.abs(build_relu_gram(K).matrix - self._antideriv_gram(K)).max()
        assert gap <= 30 * U


class TestDyadicGram:
    def test_system_enumeration(self):
        assert dyadic_system(3) == [
            (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3)
        ]

    def test_j1_single_entry(self):
        report = build_dyadic_gram(1)
        assert report.matrix.shape == (1, 1)
        assert report.matrix[0, 0] == pytest.approx(1 / 6, abs=1e-12)

    def test_diagonal_sixth(self):
        report = build_dyadic_gram(4)
        assert np.allclose(np.diag(report.matrix), 1 / 6, atol=1e-12)

    def test_same_scale_overlap_constants(self):
        report = build_dyadic_gram(3)
        system = dyadic_system(3)
        gram = report.matrix
        for a, (ja, ka) in enumerate(system):
            for b, (jb, kb) in enumerate(system):
                if ja == jb and abs(ka - kb) == 1:
                    assert gram[a, b] == pytest.approx(C1, abs=1e-6)
                if ja == jb and abs(ka - kb) == 2:
                    assert gram[a, b] == pytest.approx(C2, abs=1e-6)
                if ja == jb and abs(ka - kb) >= 3:
                    assert gram[a, b] == pytest.approx(0.0, abs=1e-12)

    def test_cross_scale_orthogonality(self):
        report = build_dyadic_gram(4)
        system = dyadic_system(4)
        for a, (ja, _) in enumerate(system):
            for b, (jb, _) in enumerate(system):
                if ja != jb:
                    assert abs(report.matrix[a, b]) <= 1e-10

    def test_entries_match_adaptive_quadrature(self):
        report = build_dyadic_gram(3)
        system = dyadic_system(3)

        def wavelet(j, k, x):
            return 2.0 ** (j / 2.0) * psi(2**j * 1.5 * (x + 1.0) - k)

        def kinks(j, k):
            return -1.0 + (2.0 / 3.0) * (k + 0.5 * np.arange(7)) / 2**j

        pairs = [(0, 0), (1, 2), (3, 4), (3, 5), (2, 6)]
        for a, b in pairs:
            ja, ka = system[a]
            jb, kb = system[b]
            ref, _ = quad(
                lambda x: wavelet(ja, ka, x) * wavelet(jb, kb, x),
                -1.0, 1.0, limit=500,
                points=np.concatenate([kinks(ja, ka), kinks(jb, kb)]),
            )
            assert report.matrix[a, b] == pytest.approx(ref, abs=1e-10)

    def test_eigenvalues_in_gershgorin_band(self):
        for J in range(1, 9):
            report = build_dyadic_gram(J)
            assert np.all(np.abs(report.eigenvalues - 1 / 6) <= GERSH_RADIUS + 1e-9)

    def test_condition_bounded_uniformly(self):
        bound = (1 / 6 + GERSH_RADIUS) / (1 / 6 - GERSH_RADIUS)
        kappas = [build_dyadic_gram(J).condition.value for J in range(1, 9)]
        assert max(kappas) <= bound
        assert max(kappas) <= 2.38


# Six times psi's atom coefficients, integers.
ATOMS6 = np.array([1, -8, 23, -32, 23, -8, 1])


def _psi_scaled(n, q):
    """6 * 2^q * psi(n / 2^q) for integer arrays n, exactly in int64."""
    return np.maximum(n[..., None] - np.arange(7) * 2 ** (q - 1), 0) @ ATOMS6


def _exact_overlaps(d):
    """Shifts m and I(d, m) = integral of psi(s) psi(2^d s - m) ds, as Fractions.

    Simpson's rule on the six cells of width h = 2^-(d+1) that carry the
    second factor is exact (both factors are linear on every cell), and
    the cell ends and midpoints s = (4m + t) / 2^(d+2), t = 0..12, are
    dyadic, so the weighted sum is one integer.
    """
    q = d + 2
    m = np.arange(-2 if d else 0, 3 * 2**d)
    t = np.arange(13)
    first = _psi_scaled(4 * m[:, None] + t, q)
    second = _psi_scaled(np.broadcast_to(2**d * t, first.shape), q)
    weights = np.array([1] + [4, 2] * 5 + [4, 1])
    total = (first * second) @ weights
    scale = 6 * 2 ** (d + 1) * 36 * 4**q  # h/6 times the two 6 * 2^q factors
    return m, [Fraction(int(v), scale) for v in total]


class TestDyadicGramTable:
    """The closed-form Gram against the quadrature builds it replaced."""

    @staticmethod
    def _pair_loop_gram(J):
        # Frozen copy of the per-pair Gram: merged breakpoints of each
        # overlapping pair in x, Simpson on every subinterval.
        system = dyadic_system(J)

        def breakpoints(j, k):
            return -1.0 + (2.0 / 3.0) * (k + 0.5 * np.arange(7)) / 2**j

        def values(j, k, x):
            return 2.0 ** (j / 2.0) * psi(2**j * 1.5 * (x + 1.0) - k)

        breaks = [breakpoints(j, k) for j, k in system]
        lo = np.array([bp[0] for bp in breaks])
        hi = np.array([bp[-1] for bp in breaks])
        gram = np.zeros((len(system), len(system)))
        overlap = (lo[:, None] < hi[None, :]) & (lo[None, :] < hi[:, None])
        for a, b in zip(*np.nonzero(np.triu(overlap))):
            (ja, ka), (jb, kb) = system[a], system[b]
            left_end = max(breaks[a][0], breaks[b][0])
            right_end = min(breaks[a][-1], breaks[b][-1])
            if right_end <= left_end:
                continue
            pts = np.unique(np.clip(
                np.concatenate([breaks[a], breaks[b]]), left_end, right_end
            ))
            left, right = pts[:-1], pts[1:]
            mid = 0.5 * (left + right)

            def prod(x):
                return values(ja, ka, x) * values(jb, kb, x)

            gram[a, b] = gram[b, a] = float(np.sum(
                (right - left) / 6.0 * (prod(left) + 4.0 * prod(mid) + prod(right))
            ))
        return gram

    @staticmethod
    def _simpson_table(d):
        # Frozen copy of the float overlap table: entries (2/3) 2^(d/2) I(d, m)
        # by per-cell Simpson on psi's float values.
        m = np.arange(-2 if d else 0, 3 * 2**d)
        h = 0.5 ** (d + 1)
        s = (2.0 * m[:, None] + 0.5 * np.arange(13)) * h
        prod = psi(s) * psi(2**d * s - m[:, None])
        return m, (2.0 / 3.0) * 2.0 ** (d / 2.0) * (h / 6.0 * np.sum(
            prod[:, 0:12:2] + 4.0 * prod[:, 1:12:2] + prod[:, 2:13:2], axis=1
        ))

    @staticmethod
    def _exact_table(d):
        # (2/3) I(d, m) rounded once; I(d, m) = 0 for d >= 1
        # (test_overlap_integrals), so the irrational 2^(d/2) scales only zeros.
        m, overlaps = _exact_overlaps(d)
        values = np.array([float(Fraction(2, 3) * v) for v in overlaps])
        return m, values * 2.0 ** (d / 2.0)

    @staticmethod
    def _scale_loop_gram(J, table):
        # Frozen copy of the table build, one pass per scale pair (d, ja):
        # entry (ja, ka), (jb, kb) is table entry m = kb - 2^d ka of gap d.
        gram = np.zeros((2**J - 1, 2**J - 1))
        for d in range(J):
            m, values = table(d)
            for ja in range(J - d):
                jb = ja + d
                kb = 2**d * np.arange(2**ja)[:, None] + m
                ka, i = np.nonzero((kb >= 0) & (kb < 2**jb))
                a = 2**ja - 1 + ka
                b = 2**jb - 1 + kb[ka, i]
                gram[a, b] = gram[b, a] = values[i]
        return gram

    def test_overlap_integrals(self):
        # Semi-orthogonality: wavelets at different scales are orthogonal.
        m, overlaps = _exact_overlaps(0)
        assert dict(zip(m.tolist(), overlaps)) == {
            0: Fraction(1, 4), 1: Fraction(5, 108), 2: Fraction(-1, 216)
        }
        for d in range(1, 10):
            assert not any(_exact_overlaps(d)[1])

    @pytest.mark.parametrize("J", range(1, 11))
    def test_bitwise_equal_to_scale_loop(self, J):
        # The table build with exact tables, each entry rounded once.
        gram = build_dyadic_gram(J).matrix
        expected = self._scale_loop_gram(J, self._exact_table)
        assert np.array_equal(gram.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("J", range(1, 11))
    def test_float_tables_within_their_rounding(self, J):
        # First-order rounding bound of the frozen float tables: psi's float
        # values are off by at most 31U (segment tables plus one multiply-add
        # at the exact grid points), a product of two by 2 * (5/6) * 31U + U;
        # Simpson's weights and prefactor carry that to at most 4 * 52.4U,
        # and summation and the final scalings add 20.3U.
        gram = build_dyadic_gram(J).matrix
        gap = np.abs(gram - self._scale_loop_gram(J, self._simpson_table)).max()
        assert gap <= 230 * U

    @pytest.mark.parametrize("J", range(1, 10))
    def test_leading_block_of_next_level(self, J):
        # Scales 0..J-1 come first in dyadic_system(J + 1).
        K = 2**J - 1
        small = build_dyadic_gram(J).matrix
        large = build_dyadic_gram(J + 1).matrix
        assert np.array_equal(small.view(np.int64), large[:K, :K].view(np.int64))

    def test_builds_return_separate_matrices(self):
        first = build_dyadic_gram(4)
        expected = first.matrix.copy()
        first.matrix[...] = 0.0
        second = build_dyadic_gram(4)
        assert second.matrix is not first.matrix
        assert np.array_equal(second.matrix, expected)

    @pytest.mark.parametrize("J", range(1, 7))
    def test_matches_pair_loop(self, J):
        gram = build_dyadic_gram(J).matrix
        assert np.array_equal(gram, gram.T)
        assert np.abs(gram - self._pair_loop_gram(J)).max() <= 1e-14

    @pytest.mark.parametrize("J", range(1, 9))
    def test_constants_to_rounding(self, J):
        gram = build_dyadic_gram(J).matrix
        scale, shift = np.array(dyadic_system(J)).T
        same = scale[:, None] == scale[None, :]
        gap = np.abs(shift[:, None] - shift[None, :])
        assert np.abs(np.diag(gram) - 1 / 6).max() <= 1e-15
        assert np.all(np.abs(gram[same & (gap == 1)] - 5 / 162) <= 1e-15)
        assert np.all(np.abs(gram[same & (gap == 2)] + 1 / 324) <= 1e-15)
        assert np.all(gram[same & (gap >= 3)] == 0.0)
        assert np.all(np.abs(gram[~same]) <= 1e-15)

    def test_largest_level(self):
        report = build_dyadic_gram(10)
        assert report.matrix.shape == (1023, 1023)
        assert not report.condition.floored
        assert report.condition.value <= 2.38


class TestSingleDecomposition:
    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    def test_relu_gram(self, eigvalsh_calls):
        build_relu_gram(16)
        assert eigvalsh_calls == [(16, 16)]

    def test_dyadic_gram(self, eigvalsh_calls):
        build_dyadic_gram(4)
        assert eigvalsh_calls == [(15, 15)]

    def test_feature_gram(self, eigvalsh_calls):
        p = init_network(mlp_specs([1, 6, 1], Activation("bwrelu", 1.0)), 0)
        trace = forward(p, np.linspace(-1, 1, 50).reshape(-1, 1))[1]
        feature_gram_condition(trace.post[0])
        assert eigvalsh_calls == [(6, 6)]


class TestFeatureGram:
    def test_orthonormal_features(self):
        # identity hidden layer passing through orthonormal columns
        p = init_network(
            [LayerSpec(4, 4, Activation("identity")),
             LayerSpec(4, 1, Activation("identity"))], 0
        )
        p.weights[0] = np.eye(4)
        p.biases[0] = np.zeros(4)
        n = 400
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((n, 4)))
        cond = feature_gram_condition(forward(p, q * np.sqrt(n))[1].post[0])
        assert cond.value == pytest.approx(1.0, rel=1e-9)
        assert not cond.floored

    def test_duplicate_rows_floored(self):
        p = init_network(mlp_specs([1, 4, 1], Activation("bwrelu", 1.0)), 0)
        # duplicate neurons -> rank-deficient feature gram
        p.weights[0][:] = 1.0
        p.biases[0][:] = 0.0
        X = np.linspace(-1, 1, 200).reshape(-1, 1)
        cond = feature_gram_condition(forward(p, X)[1].post[0])
        assert cond.floored

    def test_dyadic_network_matches_integral_gram(self):
        # hidden layer 1 realizes the raw wavelets; an identity second layer
        # applies the 2^(j/2) normalization so its post-activations are the
        # normalized system. The empirical gram over a dense grid then
        # Riemann-converges to the exact integral gram.
        J = 4
        system = dyadic_system(J)
        K = len(system)
        specs = [
            LayerSpec(1, K, Activation("bwrelu", 1.0)),
            LayerSpec(K, K, Activation("identity")),
            LayerSpec(K, 1, Activation("identity")),
        ]
        p = init_network(specs, 0)
        for idx, (j, k) in enumerate(system):
            p.weights[0][idx, 0] = 2**j * 1.5
            p.biases[0][idx] = 2**j * 1.5 - k
        p.weights[1] = np.diag([2.0 ** (j / 2.0) for j, _ in system])
        p.biases[1] = np.zeros(K)
        X = np.linspace(-1.0, 1.0, 8001).reshape(-1, 1)
        cond = feature_gram_condition(forward(p, X)[1].post[1])
        exact = build_dyadic_gram(J).condition.value
        assert cond.value == pytest.approx(exact, rel=0.10)

    def test_dead_layer_reads_the_floor(self):
        # Every relu neuron is off on every sample: the Gram is all zero.
        p = init_network(mlp_specs([1, 3, 1], Activation("relu")), 0)
        p.weights[0][:] = 0.0
        p.biases[0][:] = -1.0
        cond = feature_gram_condition(forward(p, np.linspace(-1, 1, 9)[:, None])[1].post[0])
        assert cond == (1.0 / COND_FLOOR_REL, True)

    def test_dropped_layer_and_vector_are_shape_errors(self):
        # With three uniform hidden layers forward drops layer 0 (None in
        # the trace; backward rebuilds it); the later layers are held.
        p = init_network(mlp_specs([1, 4, 4, 4, 1], Activation("bwrelu", 1.0)), 0)
        trace = forward(p, np.linspace(-1, 1, 20)[:, None])[1]
        for features in (trace.post[0], trace.post[2][:, 0]):
            with pytest.raises(ShapeError, match="features must be an"):
                feature_gram_condition(features)
        feature_gram_condition(trace.post[2])

    def test_column_subset(self):
        # A caller reads live columns by slicing: dropping a dead column
        # lifts the floor.
        X = np.linspace(-1, 1, 50)[:, None]
        feats = np.hstack([X, X**2, np.zeros_like(X)])
        assert feature_gram_condition(feats).floored
        cond = feature_gram_condition(feats[:, :2])
        assert not cond.floored and cond.value > 1.0


class TestPsnr:
    def test_identical_images(self):
        img = ImageGrid(np.random.default_rng(0).uniform(0, 1, (8, 8)))
        assert psnr(img, img) == math.inf

    def test_mse_to_db(self):
        ref = ImageGrid(np.zeros((10, 10)))
        est = ImageGrid(np.full((10, 10), 0.1))  # mse = 0.01
        assert psnr(ref, est) == pytest.approx(20.0)

    def test_inverted_binary(self):
        ref = ImageGrid((np.indices((8, 8)).sum(axis=0) % 2).astype(float))
        est = ImageGrid(1.0 - ref.pixels)
        assert psnr(ref, est) == pytest.approx(0.0)

    def test_symmetry_in_range(self):
        rng = np.random.default_rng(3)
        a = ImageGrid(rng.uniform(0, 1, (6, 6)))
        b = ImageGrid(rng.uniform(0, 1, (6, 6)))
        assert psnr(a, b) == pytest.approx(psnr(b, a))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(ImageGrid(np.zeros((2, 2))), ImageGrid(np.zeros((3, 3))))

    def test_reference_range_enforced(self):
        with pytest.raises(InvalidInputError):
            psnr(ImageGrid(np.full((2, 2), 1.5)), ImageGrid(np.zeros((2, 2))))


def _trace_reads(path):
    """Lines of every ``.post`` or ``.deriv`` attribute in ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("post", "deriv")]


def test_diagnostics_reads_no_trace_layout():
    # network owns the trace's layout; diagnostics takes feature arrays.
    assert _trace_reads(Path(bwinr.__file__).parent / "diagnostics.py") == []


def test_trace_guard_sees_a_read():
    # training reads the trace (and hands the last hidden layer's features
    # over), so an empty result above is not a scan that finds nothing.
    assert _trace_reads(Path(bwinr.__file__).parent / "training.py")
