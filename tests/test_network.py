import sys
import tracemalloc

import numpy as np
import pytest

import bwinr.network
from bwinr import (
    Activation,
    ConfigurationError,
    InvalidInputError,
    LayerSpec,
    ShapeError,
    backward,
    expand_to_relus,
    forward,
    grad_check,
    init_network,
    load_checkpoint,
    make_signal_task,
    mlp_specs,
    save_checkpoint,
)
from bwinr.activations import WAVELET_COEFFS, WAVELET_SHIFTS, positional_encoding

BW3 = Activation("bwrelu", 3.0)


class TestInit:
    def test_experiment_architecture_shapes(self):
        p = init_network(mlp_specs([2, 300, 300, 300, 1], BW3), 0)
        assert [w.shape for w in p.weights] == [
            (300, 2), (300, 300), (300, 300), (1, 300)
        ]
        assert [b.shape for b in p.biases] == [(300,), (300,), (300,), (1,)]

    def test_deterministic(self):
        a = init_network(mlp_specs([2, 16, 1], BW3), 42)
        b = init_network(mlp_specs([2, 16, 1], BW3), 42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_weight_range(self):
        p = init_network(mlp_specs([3, 50, 50, 1], Activation("relu")), 1)
        for w, spec in zip(p.weights, p.specs):
            assert np.abs(w).max() <= np.sqrt(6.0 / spec.in_dim)

    def test_final_bias_zero(self):
        p = init_network(mlp_specs([2, 8, 1], BW3), 3)
        assert np.all(p.biases[-1] == 0.0)

    def test_wavelet_neurons_cover_domain(self):
        # every wavelet neuron's support center is attained inside [-1,1]^d
        p = init_network(mlp_specs([2, 64, 1], BW3), 11)
        w, b = p.weights[0], p.biases[0]
        corners = np.array([[sx, sy] for sx in (-1, 1) for sy in (-1, 1)])
        arg_range = corners @ w.T + b  # (4, 64) activation args / scale
        lo = 3.0 * arg_range.min(axis=0)
        hi = 3.0 * arg_range.max(axis=0)
        assert np.all(lo < 1.5)
        assert np.all(hi > 1.5)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
    def test_init_stream_is_not_callers_default_rng(self, seed):
        # a caller drawing data from default_rng(seed) must not get the
        # weights or the wavelet anchors (samples at psi's center) back
        specs = mlp_specs([2, 8, 1], BW3)
        p = init_network(specs, seed)
        w, b = p.weights[0], p.biases[0]
        bound = np.sqrt(3.0)
        replay = np.random.default_rng(seed).uniform(-bound, bound, 64)
        assert not np.isin(w, replay).any()
        draws = np.random.default_rng(seed).uniform(-1.0, 1.0, (64, 2))
        centered = np.isclose(3.0 * (draws @ w.T + b), 1.5, rtol=0, atol=1e-12)
        assert not centered.any()

    def test_gradient_check_data_avoids_kinks(self):
        # the acceptance gradient check (data and init both seeded with 0)
        # needs every pre-activation off psi's kinks by more than the
        # finite-difference step can move it (c * h * max|x| = 3e-5)
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (20, 2))
        p = init_network(mlp_specs([2, 8, 1], BW3), 0)
        u = 3.0 * (X @ p.weights[0].T + p.biases[0])
        assert np.abs(u[..., None] - WAVELET_SHIFTS).min() > 1e-4

    @pytest.mark.parametrize("build", [
        lambda: LayerSpec(0, 4, BW3),
        lambda: LayerSpec(2, 0, BW3),
        lambda: mlp_specs([3], BW3),
        lambda: init_network([], 0),
    ], ids=["zero-in-dim", "zero-out-dim", "one-size", "no-layers"])
    def test_degenerate_architecture_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_mismatched_chain_rejected(self):
        bad = [
            LayerSpec(2, 8, BW3),
            LayerSpec(9, 1, Activation("identity")),
        ]
        with pytest.raises(ConfigurationError):
            init_network(bad, 0)


class TestForward:
    def test_identity_layer(self):
        p = init_network([LayerSpec(3, 3, Activation("identity"))], 0)
        p.weights[0] = np.eye(3)
        p.biases[0] = np.zeros(3)
        X = np.random.default_rng(0).standard_normal((7, 3))
        Y, _ = forward(p, X)
        assert np.allclose(Y, X)

    def test_single_wavelet_neuron(self):
        specs = mlp_specs([1, 1, 1], Activation("bwrelu", 1.0))
        p = init_network(specs, 0)
        p.weights[0][:] = 1.0
        p.biases[0][:] = 0.0
        p.weights[1][:] = 1.0
        p.biases[1][:] = 0.0
        Y, _ = forward(p, np.array([[1.5]]))
        assert Y[0, 0] == pytest.approx(5 / 6)

    def test_wavelet_net_equals_expanded_relu_net(self):
        rng = np.random.default_rng(4)
        c = 2.0
        specs = mlp_specs([2, 5, 1], Activation("bwrelu", c))
        p = init_network(specs, 8)
        xs = np.linspace(-1, 1, 21)
        X = np.array([[a, b] for a in xs for b in xs])
        Y, _ = forward(p, X)
        # layer convention z = w.x + b, so the neuron form w.x - (-b)
        total = np.full(X.shape[0], p.biases[1][0])
        for k in range(5):
            atoms = expand_to_relus(
                p.weights[0][k], -p.biases[0][k], p.weights[1][:, k], c
            )
            for atom in atoms:
                total += atom.output[0] * np.maximum(
                    X @ atom.weight - atom.bias, 0.0
                )
        assert np.abs(total - Y[:, 0]).max() <= 1e-10

    def test_batch_order_invariance(self):
        p = init_network(mlp_specs([2, 12, 1], BW3), 2)
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (40, 2))
        perm = rng.permutation(40)
        Y, _ = forward(p, X)
        Yp, _ = forward(p, X[perm])
        assert np.array_equal(Y[perm], Yp)

    def test_shape_mismatch(self):
        p = init_network(mlp_specs([2, 4, 1], BW3), 0)
        with pytest.raises(Exception):
            forward(p, np.zeros((3, 5)))

    def test_one_dimensional_batch_rejected(self):
        p = init_network(mlp_specs([2, 4, 1], BW3), 0)
        with pytest.raises(ShapeError):
            forward(p, np.zeros(2))


class TestBackward:
    def test_linear_layer_hand_gradients(self):
        p = init_network([LayerSpec(3, 1, Activation("identity"))], 0)
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        _, trace = forward(p, X)
        g = backward(p, trace, np.ones((2, 1)))
        assert np.allclose(g.weights[0], X.sum(axis=0, keepdims=True))
        assert np.allclose(g.biases[0], [2.0])

    def test_zero_cotangent(self):
        p = init_network(mlp_specs([2, 6, 1], BW3), 1)
        X = np.random.default_rng(0).uniform(-1, 1, (10, 2))
        _, trace = forward(p, X)
        g = backward(p, trace, np.zeros((10, 1)))
        assert all(np.all(gw == 0.0) for gw in g.weights)
        assert all(np.all(gb == 0.0) for gb in g.biases)

    def test_mismatched_trace_rejected(self):
        p = init_network(mlp_specs([2, 6, 1], BW3), 1)
        other = init_network(mlp_specs([2, 7, 1], BW3), 1)
        X = np.zeros((4, 2))
        _, trace = forward(other, X)
        with pytest.raises(InvalidInputError):
            backward(p, trace, np.zeros((4, 1)))

    def test_trace_of_another_depth_rejected(self):
        p = init_network(mlp_specs([2, 6, 1], BW3), 1)
        deeper = init_network(mlp_specs([2, 6, 6, 1], BW3), 1)
        _, trace = forward(deeper, np.zeros((4, 2)))
        with pytest.raises(InvalidInputError):
            backward(p, trace, np.zeros((4, 1)))

    def test_wrong_cotangent_shape_rejected(self):
        p = init_network(mlp_specs([2, 6, 1], BW3), 1)
        _, trace = forward(p, np.zeros((4, 2)))
        with pytest.raises(InvalidInputError):
            backward(p, trace, np.zeros((5, 1)))

    def test_allocates_no_hidden_sized_array(self):
        # The hidden cotangents go into the trace's spent post buffers, so
        # backward's peak stays below one (n, width) float64 array.
        p = init_network(mlp_specs([2, 64, 64, 64, 1], BW3), 0)
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (4096, 2))
        dY = rng.standard_normal((4096, 1))
        _, trace = forward(p, X)
        tracemalloc.start()
        try:
            backward(p, trace, dY)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 64 * 8

    def test_output_and_derivatives_survive(self):
        p = init_network(mlp_specs([2, 16, 16, 1], BW3), 2)
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (300, 2))
        Y, trace = forward(p, X)
        Y_before = Y.copy()
        derivs_before = [np.asarray(d).copy() for d in trace.deriv]
        backward(p, trace, rng.standard_normal((300, 1)))
        assert trace.post[-1] is Y
        assert np.array_equal(Y, Y_before)
        for d, before in zip(trace.deriv, derivs_before):
            assert np.array_equal(np.asarray(d), before)


# Frozen reference: the dense per-layer loop that stores every derivative
# as a float64 array (segment-table wavelet, right-derivative at kinks).
_REF_SLOPE = np.concatenate(([0.0], np.cumsum(WAVELET_COEFFS[:-1]), [0.0]))
_REF_INTERCEPT = np.concatenate(
    ([0.0], -np.cumsum((WAVELET_COEFFS * WAVELET_SHIFTS)[:-1]), [0.0])
)


def _reference_apply(act, z):
    c = act.scale
    if act.kind == "identity":
        return z, np.ones_like(z)
    if act.kind == "relu":
        return np.maximum(z, 0.0), (z >= 0.0).astype(float)
    u = c * z
    if act.kind == "sine":
        return np.sin(u), c * np.cos(u)
    seg = np.clip(np.floor(2.0 * u).astype(np.intp), -1, 6) + 1
    slope = _REF_SLOPE[seg]
    return slope * u + _REF_INTERCEPT[seg], c * slope


def _feature_major_matmul(a, b):
    # The GEMM the network runs: the product lands in a Fortran-ordered
    # (n, width) buffer.
    return np.matmul(a, b, out=np.empty((a.shape[0], b.shape[1]), order="F"))


def _reference_forward_backward(params, X, dY):
    a, post, deriv = X, [], []
    for spec, w, b in zip(params.specs, params.weights, params.biases):
        a, d = _reference_apply(spec.activation, _feature_major_matmul(a, w.T) + b)
        post.append(a)
        deriv.append(d)
    delta = dY * deriv[-1]
    d_weights, d_biases = [], []
    for l in range(len(params.weights) - 1, -1, -1):
        d_weights.insert(0, delta.T @ (X if l == 0 else post[l - 1]))
        d_biases.insert(0, delta.sum(axis=0))
        if l > 0:
            delta = _feature_major_matmul(delta, params.weights[l]) * deriv[l - 1]
    return a, post, deriv, d_weights, d_biases


class TestLeanLayers:
    # Three output units take backward's GEMM branch for the output layer;
    # one unit takes the broadcast product.
    @pytest.mark.parametrize("act, pe, outputs", [
        (BW3, None, 1), (Activation("relu"), 4, 1),
        (Activation("sine", 5.0), None, 1), (BW3, None, 3),
    ], ids=["bwrelu", "relu-pe", "sine", "bwrelu-3-outputs"])
    def test_matches_dense_reference_bitwise(self, act, pe, outputs):
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, (800, 2))
        if pe is not None:
            X = positional_encoding(X, pe)
        p = init_network(mlp_specs([X.shape[1], 24, 24, outputs], act), 5)
        dY = rng.standard_normal((800, outputs))
        Y, trace = forward(p, X)
        ref_Y, ref_post, ref_deriv, ref_dw, ref_db = _reference_forward_backward(
            p, X, dY
        )
        assert np.array_equal(Y, ref_Y)
        # backward reuses post[:-1] as scratch, so check them before it runs.
        for a, ref in zip(trace.post, ref_post):
            assert np.array_equal(a, ref)
        g = backward(p, trace, dY)
        for d, ref in zip(trace.deriv, ref_deriv):
            assert np.array_equal(np.asarray(d), ref)
        for got, ref in zip(g.weights + g.biases, ref_dw + ref_db):
            assert np.array_equal(got, ref)

    def test_forward_calls_apply_once_per_layer_through_network(self, monkeypatch):
        # The traced benchmark wraps every binding of activations.apply and
        # expects one span per layer from network.forward.
        real = bwinr.network.apply
        calls = []

        def counted(name):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "bwinr" and getattr(module, "apply", None) is real:
                monkeypatch.setattr(module, "apply", counted(name))
        p = init_network(mlp_specs([2, 6, 6, 6, 1], BW3), 0)
        forward(p, np.zeros((5, 2)))
        assert calls == ["bwinr.network"] * len(p.specs)

    @pytest.mark.parametrize("act", [BW3, Activation("relu")], ids=["bwrelu", "relu"])
    def test_hidden_buffers_and_codes_are_feature_major(self, act):
        p = init_network(mlp_specs([2, 16, 16, 1], act), 0)
        X = np.random.default_rng(1).uniform(-1, 1, (50, 2))
        _, trace = forward(p, X)
        for a, d in zip(trace.post[:-1], trace.deriv[:-1]):
            assert a.flags.f_contiguous and not a.flags.c_contiguous
            assert d.codes.flags.f_contiguous and not d.codes.flags.c_contiguous

    def test_bwrelu_trace_bytes(self):
        # Post-activations at 8 B/element, hidden derivative codes at
        # 1 B/element, plus the inputs and the dense identity derivative.
        n, sizes = 50, [2, 30, 20, 10, 1]
        p = init_network(mlp_specs(sizes, BW3), 0)
        _, trace = forward(p, np.zeros((n, 2)))
        traced = trace.inputs.nbytes + sum(
            v.nbytes for v in trace.post + trace.deriv
        )
        post = 8 * n * sum(sizes[1:])
        codes = 1 * n * sum(sizes[1:-1])
        assert traced == 8 * n * sizes[0] + post + codes + 8 * n * sizes[-1]


class TestGradCheck:
    def test_bwrelu(self):
        p = init_network(mlp_specs([2, 8, 1], BW3), 0)
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (20, 2))
        T = rng.standard_normal((20, 1))
        assert grad_check(p, X, make_signal_task(X, T)) <= 1e-5

    def test_bwrelu_three_outputs(self):
        # The output layer's cotangent runs through the GEMM branch.
        p = init_network(mlp_specs([2, 8, 8, 3], BW3), 0)
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (20, 2))
        T = rng.standard_normal((20, 3))
        assert grad_check(p, X, make_signal_task(X, T)) <= 1e-5

    def test_sine(self):
        p = init_network(mlp_specs([2, 8, 1], Activation("sine", 2.0)), 0)
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (20, 2))
        T = rng.standard_normal((20, 1))
        assert grad_check(p, X, make_signal_task(X, T)) <= 1e-6

    def test_gaussian(self):
        p = init_network(mlp_specs([2, 8, 1], Activation("gaussian", 2.0)), 0)
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (20, 2))
        T = rng.standard_normal((20, 1))
        assert grad_check(p, X, make_signal_task(X, T)) <= 1e-5

    def test_relu_away_from_kinks(self):
        p = init_network(mlp_specs([2, 8, 1], Activation("relu")), 4)
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (200, 2))
        clear = np.all(np.abs(X @ p.weights[0].T + p.biases[0]) > 1e-3, axis=1)
        X = X[clear][:40]
        T = np.random.default_rng(6).standard_normal((X.shape[0], 1))
        assert grad_check(p, X, make_signal_task(X, T)) <= 1e-5


class TestNetworkProperties:
    def test_relu_homogeneity(self):
        # scaling all hidden weights by c multiplies the output by c^H
        c, hidden = 2.0, 3
        p = init_network(
            mlp_specs([2] + [10] * hidden + [1], Activation("relu")), 7
        )
        for b in p.biases:
            b[:] = 0.0
        X = np.random.default_rng(8).uniform(-1, 1, (30, 2))
        Y, _ = forward(p, X)
        scaled = p.copy()
        for l in range(hidden):
            scaled.weights[l] = c * scaled.weights[l]
        Yc, _ = forward(scaled, X)
        assert np.allclose(Yc, c**hidden * Y, rtol=1e-12)

    @pytest.mark.parametrize("kind,scale", [("bwrelu", 3.0), ("sine", 2.5), ("gaussian", 1.5)])
    def test_scale_absorption_objective_identity(self, kind, scale):
        # loss(theta; scale c) + wd*(|v|^2+|w|^2) ==
        # loss(theta'; scale 1) + wd*(|v|^2 + |w'|^2/c^2), w' = c*w, b' = c*b
        rng = np.random.default_rng(10)
        lam = 0.01
        for _ in range(20):
            w = rng.standard_normal((6, 2))
            b = rng.standard_normal(6)
            v = rng.standard_normal((1, 6))
            X = rng.uniform(-1, 1, (25, 2))
            T = rng.standard_normal((25, 1))

            scaled = init_network(mlp_specs([2, 6, 1], Activation(kind, scale)), 0)
            scaled.weights[0], scaled.biases[0] = w, b
            scaled.weights[1], scaled.biases[1] = v, np.zeros(1)
            Y1, _ = forward(scaled, X)
            obj1 = np.mean((Y1 - T) ** 2) + lam * (np.sum(v**2) + np.sum(w**2))

            absorbed = init_network(mlp_specs([2, 6, 1], Activation(kind, 1.0)), 0)
            absorbed.weights[0], absorbed.biases[0] = scale * w, scale * b
            absorbed.weights[1], absorbed.biases[1] = v, np.zeros(1)
            Y2, _ = forward(absorbed, X)
            obj2 = np.mean((Y2 - T) ** 2) + lam * (
                np.sum(v**2) + np.sum((scale * w) ** 2) / scale**2
            )
            assert abs(obj1 - obj2) <= 1e-12 * max(abs(obj1), 1.0)


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        p = init_network(mlp_specs([2, 9, 4, 1], BW3), 13)
        path = tmp_path / "net.txt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert q.seed == p.seed
        assert q.specs == p.specs
        for a, b in zip(p.weights + p.biases, q.weights + q.biases):
            assert np.array_equal(a, b)

    def test_header_versioned(self, tmp_path):
        p = init_network(mlp_specs([1, 2, 1], Activation("relu")), 0)
        path = tmp_path / "net.txt"
        save_checkpoint(p, path)
        assert path.read_text().startswith("BWINR1\n")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOTBWINR\n")
        with pytest.raises(InvalidInputError):
            load_checkpoint(path)

    def test_truncated_after_layers_line_rejected(self, tmp_path):
        path = tmp_path / "cut.txt"
        path.write_text("BWINR1\nseed 0\nlayers 2\n")
        with pytest.raises(InvalidInputError):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "x"])
    def test_bad_weight_rejected(self, tmp_path, bad):
        p = init_network(mlp_specs([2, 3, 1], BW3), 0)
        path = tmp_path / "net.txt"
        save_checkpoint(p, path)
        lines = path.read_text().splitlines()
        row = lines.index("tensor W0") + 1
        lines[row] = " ".join([bad] + lines[row].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError):
            load_checkpoint(path)

    @pytest.mark.parametrize("line, bad", [
        ("layer 2 3 bwrelu 3.0", "layer 2 3 bwrelu inf"),
        ("tensor b0", "tensor W9"),
    ], ids=["scale-inf", "tensor-tag"])
    def test_bad_structure_line_rejected(self, tmp_path, line, bad):
        p = init_network(mlp_specs([2, 3, 1], BW3), 0)
        path = tmp_path / "net.txt"
        save_checkpoint(p, path)
        lines = path.read_text().splitlines()
        lines[lines.index(line)] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError):
            load_checkpoint(path)

    def test_trailing_content_rejected(self, tmp_path):
        p = init_network(mlp_specs([1, 2, 1], BW3), 0)
        path = tmp_path / "net.txt"
        save_checkpoint(p, path)
        path.write_text(path.read_text() + "1.0\n")
        with pytest.raises(InvalidInputError):
            load_checkpoint(path)
