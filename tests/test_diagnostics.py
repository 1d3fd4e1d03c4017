import math

import numpy as np
import pytest
from scipy.integrate import quad

from bwinr import (
    Activation,
    ImageGrid,
    InvalidInputError,
    LayerSpec,
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
from bwinr.diagnostics import _overlap_table

# Same-scale wavelet overlap integrals (2/3) * int psi(t) psi(t - k) dt.
C1 = 0.030864
C2 = -0.0030864
GERSH_RADIUS = 2 * (abs(C1) + abs(C2))


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
        atoms = expand_to_relus(w, 0.3, v, c)
        atom_total = sum(
            np.linalg.norm(a.output) * np.linalg.norm(a.weight) for a in atoms
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
        # Frozen copy of the closed form evaluated on the full max(b_i, b_j)
        # matrix, which the upper-triangle build must match bit for bit.
        b = -1.0 + 2.0 * np.arange(K) / K
        s = np.add.outer(b, b)
        p = np.multiply.outer(b, b)
        m = np.maximum.outer(b, b)

        def antideriv(x):
            return x**3 / 3.0 - s * x**2 / 2.0 + p * x

        return antideriv(1.0) - antideriv(m)

    @pytest.mark.parametrize("K", [2, 3, 8, 255, 256, 300, 512])
    def test_bitwise_equal_to_full_matrix_form(self, K):
        gram = build_relu_gram(K).matrix
        expected = self._antideriv_gram(K)
        assert np.array_equal(gram.view(np.int64), expected.view(np.int64))


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


class TestDyadicGramTable:
    """The overlap-table Gram against the pair loop it replaced."""

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
    def _scale_loop_gram(J):
        # Frozen copy of the table build with a fresh table per call and
        # one pass per scale pair (d, ja), which the cached one-pass-per-gap
        # build must match bit for bit.
        gram = np.zeros((2**J - 1, 2**J - 1))
        for d in range(J):
            m = np.arange(-2 if d else 0, 3 * 2**d)
            h = 0.5 ** (d + 1)
            s = (2.0 * m[:, None] + 0.5 * np.arange(13)) * h
            prod = psi(s) * psi(2**d * s - m[:, None])
            table = (2.0 / 3.0) * 2.0 ** (d / 2.0) * (h / 6.0 * np.sum(
                prod[:, 0:12:2] + 4.0 * prod[:, 1:12:2] + prod[:, 2:13:2], axis=1
            ))
            for ja in range(J - d):
                jb = ja + d
                kb = 2**d * np.arange(2**ja)[:, None] + m
                ka, i = np.nonzero((kb >= 0) & (kb < 2**jb))
                a = 2**ja - 1 + ka
                b = 2**jb - 1 + kb[ka, i]
                gram[a, b] = gram[b, a] = table[i]
        return gram

    @pytest.mark.parametrize("J", range(1, 11))
    def test_bitwise_equal_to_scale_loop(self, J):
        gram = build_dyadic_gram(J).matrix
        expected = self._scale_loop_gram(J)
        assert np.array_equal(gram.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("J", range(1, 10))
    def test_leading_block_of_next_level(self, J):
        # Scales 0..J-1 come first in dyadic_system(J + 1).
        K = 2**J - 1
        small = build_dyadic_gram(J).matrix
        large = build_dyadic_gram(J + 1).matrix
        assert np.array_equal(small.view(np.int64), large[:K, :K].view(np.int64))

    def test_cached_tables_are_read_only(self):
        build_dyadic_gram(3)
        for d in range(3):
            m, table = _overlap_table(d)
            with pytest.raises(ValueError):
                table[0] = 1.0
            with pytest.raises(ValueError):
                m[0] = 0

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
        feature_gram_condition(trace, 0)
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
        cond = feature_gram_condition(forward(p, q * np.sqrt(n))[1], 0)
        assert cond.value == pytest.approx(1.0, rel=1e-9)
        assert not cond.floored

    def test_duplicate_rows_floored(self):
        p = init_network(mlp_specs([1, 4, 1], Activation("bwrelu", 1.0)), 0)
        # duplicate neurons -> rank-deficient feature gram
        p.weights[0][:] = 1.0
        p.biases[0][:] = 0.0
        X = np.linspace(-1, 1, 200).reshape(-1, 1)
        cond = feature_gram_condition(forward(p, X)[1], 0)
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
        cond = feature_gram_condition(forward(p, X)[1], 1)
        exact = build_dyadic_gram(J).condition.value
        assert cond.value == pytest.approx(exact, rel=0.10)

    def test_output_layer_rejected(self):
        p = init_network(mlp_specs([1, 4, 1], Activation("bwrelu", 1.0)), 0)
        with pytest.raises(InvalidInputError):
            feature_gram_condition(forward(p, np.zeros((3, 1)))[1], 1)


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
