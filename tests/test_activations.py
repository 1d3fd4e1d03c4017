import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from bwinr import (
    Activation,
    ConfigurationError,
    LayerSpec,
    NetworkParams,
    ShapeError,
    UnsupportedActivationError,
    WAVELET_COEFFS,
    WAVELET_SHIFTS,
    apply,
    expand_to_relus,
    forward,
    positional_encoding,
    psi,
    psi_prime,
)
from bwinr.activations import times_derivative


def atoms_sum(x):
    # Reference: the raw seven-ReLU linear combination.
    x = np.asarray(x, dtype=float)
    return np.maximum(x[..., None] - WAVELET_SHIFTS, 0.0) @ WAVELET_COEFFS


def atoms_slope(x):
    # Reference derivative: the atoms' step slopes summed in atom order,
    # zero outside [0, 3), so the right-derivative at every kink.
    x = np.asarray(x, dtype=float)
    slope = np.zeros_like(x)
    for coeff, shift in zip(WAVELET_COEFFS, WAVELET_SHIFTS):
        slope = slope + coeff * (x >= shift)
    return np.where((x >= 0.0) & (x < 3.0), slope, 0.0)


class TestPsi:
    def test_inactive_left(self):
        assert psi(-1.0) == 0.0

    def test_hand_value_at_peak(self):
        # shifts 0, 0.5, 1 active: 1.5/6 - 8/6 + 0.5*23/6 = 5/6
        assert psi(1.5) == pytest.approx(5 / 6, abs=1e-15)

    def test_zero_beyond_support(self):
        # slope coefficients cancel: the atom sum is ~1e-15 there, psi is 0.
        assert psi(4.0) == 0.0
        assert abs(atoms_sum(4.0)) < 1e-13

    def test_compact_support_exact(self):
        x = np.concatenate([
            np.linspace(-5, 0, 301), np.linspace(3, 8, 301)
        ])
        assert np.all(psi(x) == 0.0)

    def test_matches_atom_sum_inside_support(self):
        x = np.linspace(0.0, 3.0, 4001)
        assert np.abs(psi(x) - atoms_sum(x)).max() < 1e-14

    def test_squared_norm_quarter(self):
        val, _ = quad(lambda t: psi(t) ** 2, 0.0, 3.0, limit=200)
        assert val == pytest.approx(0.25, abs=1e-8)

    def test_lipschitz_bound(self):
        # max absolute slope over the support is 16/3
        x = np.linspace(-0.5, 3.5, 20001)
        diffs = np.abs(np.diff(psi(x)))
        h = x[1] - x[0]
        assert diffs.max() <= (16 / 3) * h + 1e-12

    def test_proposition_identity_relu_from_wavelet(self):
        x = np.linspace(-1.0, 1.0, 10001)
        assert np.abs(24.0 * psi(x / 4.0) - np.maximum(x, 0.0)).max() <= 1e-12


class TestPsiPrime:
    def test_inactive(self):
        assert psi_prime(-0.5) == 0.0

    def test_first_atom_only(self):
        assert psi_prime(0.25) == pytest.approx(1 / 6, abs=1e-15)

    def test_three_atoms(self):
        # 1/6 - 8/6 + 23/6 = 8/3
        assert psi_prime(1.25) == pytest.approx(8 / 3, abs=1e-14)

    def test_right_derivative_at_kinks(self):
        assert psi_prime(0.0) == pytest.approx(1 / 6)
        assert psi_prime(3.0) == 0.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 3.5, 4000)
        # keep clear of the half-integer kinks
        x = x[np.abs(x * 2 - np.round(x * 2)) > 1e-3]
        h = 1e-6
        fd = (psi(x + h) - psi(x - h)) / (2 * h)
        d = psi_prime(x)
        rel = np.abs(d - fd) / np.maximum(np.abs(d), 1e-8)
        assert rel.max() <= 1e-7

    def test_equals_atom_slope_sum_on_kinks(self):
        z = kink_inputs(1.0)
        assert np.array_equal(psi_prime(z), atoms_slope(z))


class TestApply:
    def test_relu(self):
        vals, derivs = apply(Activation("relu"), np.array([-1.0, 2.0]))
        assert np.array_equal(vals, [0.0, 2.0])
        assert np.array_equal(derivs, [0.0, 1.0])

    def test_bwrelu_scale_one(self):
        vals, _ = apply(Activation("bwrelu", 1.0), np.array([1.5]))
        assert vals[0] == pytest.approx(5 / 6)

    def test_bwrelu_non_finite_and_huge_inputs_do_not_warn(self):
        # The segment index's float->int cast sees NaN, inf and 3e300;
        # c*z overflows to inf at 1e308.
        z = np.array([np.nan, np.inf, -np.inf, 1e308, 1e300, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, derivs = apply(Activation("bwrelu", 3.0), z)
        assert np.isnan(vals[:4]).all()
        assert vals[4] == 0.0
        assert vals[5] == psi(1.5)
        assert np.asarray(derivs)[5] == 3.0 * psi_prime(1.5)

    def test_bwrelu_huge_scale_does_not_warn(self):
        # c * slope overflows in the derivative table.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, derivs = apply(Activation("bwrelu", 1e308), np.array([-1.0, 0.0]))
        assert np.array_equal(vals, [0.0, 0.0])
        assert np.isinf(derivs.table).any()

    def test_sine_chain_factor(self):
        vals, derivs = apply(Activation("sine", 2.0), np.array([0.0]))
        assert vals[0] == 0.0
        assert derivs[0] == pytest.approx(2.0)

    def test_gaussian(self):
        c = 1.5
        z = np.array([0.7])
        vals, derivs = apply(Activation("gaussian", c), z)
        assert vals[0] == pytest.approx(np.exp(-(c * 0.7) ** 2))
        h = 1e-7
        fd = (np.exp(-(c * (0.7 + h)) ** 2) - np.exp(-(c * (0.7 - h)) ** 2)) / (2 * h)
        assert derivs[0] == pytest.approx(fd, rel=1e-6)

    def test_bwrelu_scale_dilates(self):
        c = 3.0
        z = np.linspace(-1, 2, 401)
        vals, derivs = apply(Activation("bwrelu", c), z.copy())
        assert np.allclose(vals, atoms_sum(c * z))
        assert np.array_equal(np.asarray(derivs), c * atoms_slope(c * z))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Activation("softplus")

    def test_scale_validation(self):
        with pytest.raises(ConfigurationError):
            Activation("bwrelu")
        with pytest.raises(ConfigurationError):
            Activation("sine", -1.0)
        with pytest.raises(ConfigurationError):
            Activation("relu", 2.0)
        for kind in ("bwrelu", "sine", "gaussian"):
            for scale in (0.0, np.inf, np.nan):
                with pytest.raises(ConfigurationError, match="finite positive scale"):
                    Activation(kind, scale)


KINDS_UNDER_TEST = [
    Activation("relu"),
    Activation("bwrelu", 3.0),
    Activation("sine", 2.0),
    Activation("gaussian", 1.5),
    Activation("identity"),
]


def kink_inputs(c):
    """Points on every kink of psi(c*z) and of relu, their float neighbours,
    the tails, and enough random fill to span several kernel blocks."""
    kinks = np.concatenate(([-0.0], np.arange(7) / (2.0 * c)))
    near = np.concatenate([
        kinks, np.nextafter(kinks, -np.inf), np.nextafter(kinks, np.inf),
        [-5.0, 5.0],
    ])
    fill = np.random.default_rng(7).uniform(-0.5, 4.0 / c, 20000 - near.size)
    return np.concatenate([near, fill]).reshape(200, 100)


def fresh_reference(act, z):
    """Values and dense derivative of ``act`` at ``z``, evaluated out of
    place in the same IEEE operations as ``apply``'s in-place ones."""
    c = act.scale
    if act.kind == "identity":
        return z.copy(), np.ones_like(z)
    if act.kind == "relu":
        return np.maximum(z, 0.0), (z >= 0.0).astype(float)
    if act.kind == "bwrelu":
        return psi(c * z), c * psi_prime(c * z)
    u = c * z
    if act.kind == "sine":
        return np.sin(u), c * np.cos(u)
    g = np.exp(-(u * u))
    return g, -2.0 * c * u * g


class TestApplyInPlace:
    @pytest.mark.parametrize("act", KINDS_UNDER_TEST, ids=lambda a: a.kind)
    def test_out_is_z_matches_fresh_output(self, act):
        z = kink_inputs(2.0)
        vals, derivs = apply(act, z.copy())
        ref_vals, ref_derivs = fresh_reference(act, z)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(np.asarray(derivs), ref_derivs)

    @pytest.mark.parametrize("act", KINDS_UNDER_TEST, ids=lambda a: a.kind)
    def test_fortran_order_matches_c_order(self, act):
        z = kink_inputs(2.0)
        vals, derivs = apply(act, z.copy())
        z_f = np.asfortranarray(z)
        vals_f, derivs_f = apply(act, z_f)
        assert vals_f is z_f
        assert np.array_equal(vals_f, vals)
        assert np.array_equal(np.asarray(derivs_f), np.asarray(derivs))

    @pytest.mark.parametrize("act", KINDS_UNDER_TEST, ids=lambda a: a.kind)
    def test_returns_z_holding_the_values(self, act):
        z = kink_inputs(2.0)
        expected, _ = fresh_reference(act, z)
        vals, _ = apply(act, z)
        assert vals is z
        assert np.array_equal(z, expected)

    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
    def test_bwrelu_codes_equal_dense_derivative(self, c):
        z = kink_inputs(c)
        _, derivs = apply(Activation("bwrelu", c), z.copy())
        assert derivs.codes.dtype == np.int8
        assert derivs.nbytes == z.size
        assert np.array_equal(np.asarray(derivs), c * atoms_slope(c * z))

    def test_relu_codes_equal_dense_derivative(self):
        z = kink_inputs(1.0)
        _, derivs = apply(Activation("relu"), z.copy())
        assert derivs.codes.dtype == np.int8
        assert np.array_equal(np.asarray(derivs), (z >= 0.0).astype(float))

    def test_bad_z_rejected(self):
        # A strided slice would be copied by the kernel's flat view, losing
        # the values; a Fortran array such as a C array's transpose is valid.
        for z in ([0.0, 1.0], np.zeros((4, 3), dtype=np.float32),
                  np.zeros((4, 3), dtype=int), np.zeros((4, 6))[:, ::2]):
            with pytest.raises(ShapeError):
                apply(Activation("bwrelu", 1.0), z)
        z_t = np.full((3, 4), 0.5).T
        vals, _ = apply(Activation("bwrelu", 1.0), z_t)
        assert vals is z_t and np.all(z_t == psi(0.5))

    def test_times_derivative_needs_matching_contiguous_array(self):
        _, derivs = apply(Activation("relu"), np.zeros((4, 3)))
        for x in (np.zeros((3, 4)), np.zeros((3, 4)).T):
            with pytest.raises(ShapeError):
                times_derivative(x, derivs)

    def test_times_derivative_rejects_c_array_against_fortran_codes(self):
        _, derivs = apply(Activation("relu"), np.zeros((4, 3), order="F"))
        assert derivs.codes.flags.f_contiguous
        with pytest.raises(ShapeError):
            times_derivative(np.zeros((4, 3)), derivs)


class TestOneEvaluationPath:
    def test_psi_is_the_layer_kernel_at_scale_one(self):
        z = kink_inputs(1.0)
        vals, _ = apply(Activation("bwrelu", 1.0), z.copy())
        assert np.array_equal(psi(z), vals)

    def test_infinities_give_zero(self):
        for x in (np.inf, -np.inf):
            assert psi(x) == 0.0 and psi_prime(x) == 0.0
        assert np.array_equal(psi(np.array([np.inf, -np.inf])), [0.0, 0.0])

    def test_nan_gives_nan_value_and_zero_slope(self):
        # NaN never reaches the kernel's integer cast, which would warn
        # (an error under the test settings) and pick a platform's segment.
        assert np.isnan(psi(np.nan)) and psi_prime(np.nan) == 0.0
        x = np.array([np.nan, 1.25])
        assert np.array_equal(psi(x), [np.nan, psi(1.25)], equal_nan=True)
        assert np.array_equal(psi_prime(x), [0.0, atoms_slope(1.25)])

    def test_scalar_in_float_out(self):
        assert type(psi(1.5)) is float and type(psi_prime(1.5)) is float

    @pytest.mark.parametrize("act", [Activation("relu"), Activation("bwrelu", 3.0)],
                             ids=lambda a: a.kind)
    def test_coded_derivative_of_a_scalar_is_dense(self, act):
        _, derivs = apply(act, np.array(0.5))
        dense = np.asarray(derivs)
        assert dense.shape == ()
        assert dense == np.take(derivs.table, derivs.codes)


def one_neuron(w, b, v, c):
    """The net x -> v * psi(c*(w.x - b)): one bwrelu neuron, identity output."""
    w, v = np.asarray(w, dtype=float), np.asarray(v, dtype=float)
    specs = (LayerSpec(w.size, 1, Activation("bwrelu", c)),
             LayerSpec(1, v.size, Activation("identity")))
    return NetworkParams(specs, [w[None, :], v[:, None]], [np.array([-b]), np.zeros(v.size)], 0)


class TestExpandToRelus:
    def test_reproduces_wavelet_neuron(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(3)
        b = 0.4
        v = rng.standard_normal(2)
        c = 2.5
        expanded = expand_to_relus(one_neuron(w, b, v, c))
        assert expanded.specs[0].out_dim == 7
        X = rng.uniform(-2, 2, (1000, 3))
        expected = v[None, :] * psi(c * (X @ w - b))[:, None]
        total, _ = forward(expanded, X)
        assert np.abs(total - expected).max() <= 1e-12

    def test_zero_output_weight(self):
        expanded = expand_to_relus(one_neuron([1.0], 0.0, [0.0], 1.0))
        assert np.all(expanded.weights[1] == 0.0)

    def test_relu_representation_on_bounded_domain(self):
        # 24 psi(x/4) = relu(x) on [-1, 1], realized through the atoms
        expanded = expand_to_relus(one_neuron([1.0], 0.0, [24.0], 0.25))
        x = np.linspace(-1.0, 1.0, 2001)
        total, _ = forward(expanded, x[:, None])
        assert np.abs(total[:, 0] - np.maximum(x, 0.0)).max() <= 1e-12

    def test_matches_apply(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal(2)
        b = -0.3
        v = np.array([1.7])
        c = 4.0
        expanded = expand_to_relus(one_neuron(w, b, v, c))
        X = rng.uniform(-1, 1, (500, 2))
        vals, _ = apply(Activation("bwrelu", c), X @ w - b)
        expected = v[0] * vals
        total, _ = forward(expanded, X)
        assert np.abs(total[:, 0] - expected).max() <= 1e-12

    def test_bwrelu_output_layer_is_unsupported(self):
        # No layer follows to take the atom coefficients.
        p = NetworkParams((LayerSpec(2, 3, Activation("bwrelu", 1.0)),),
                          [np.ones((3, 2))], [np.zeros(3)], 0)
        with pytest.raises(UnsupportedActivationError, match="output layer"):
            expand_to_relus(p)


class TestPositionalEncoding:
    def test_zero_input(self):
        out = positional_encoding(np.zeros((1, 1)), 2)
        assert np.allclose(out, [[0.0, 1.0, 0.0, 1.0]])

    def test_output_dimension(self):
        out = positional_encoding(np.zeros((5, 2)), 10)
        assert out.shape == (5, 40)

    def test_endpoint(self):
        out = positional_encoding(np.array([[1.0]]), 1)
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(-1.0)

    def test_level_ordering(self):
        x = np.array([[0.3, -0.7]])
        out = positional_encoding(x, 3)
        k = 0
        for d in range(2):
            for j in range(3):
                arg = 2.0**j * np.pi * x[0, d]
                assert out[0, k] == pytest.approx(np.sin(arg))
                assert out[0, k + 1] == pytest.approx(np.cos(arg))
                k += 2

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ShapeError):
            positional_encoding(np.zeros(2), 3)

    def test_bad_levels(self):
        with pytest.raises(ConfigurationError):
            positional_encoding(np.zeros((1, 1)), 0)

    def test_levels_bounded_by_a_finite_top_frequency(self):
        # pi * 2^(levels - 1) is finite up to 1023 levels and overflows at 1024.
        x = np.linspace(-1.0, 1.0, 5)[:, None]
        assert np.isfinite(positional_encoding(x, 1023)).all()
        with pytest.raises(ConfigurationError, match=r"\[1, 1023\], got 1024"):
            positional_encoding(x, 1024)
