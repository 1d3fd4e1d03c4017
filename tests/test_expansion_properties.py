"""Property tests for ``expand_to_relus`` (skipped where hypothesis is absent)."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bwinr import (  # noqa: E402
    Activation,
    LayerSpec,
    UnsupportedActivationError,
    expand_to_relus,
    forward,
    init_network,
)
from expansion_bound import expansion_error_bound  # noqa: E402

_SETTINGS = settings(max_examples=25, deadline=None)
_SCALE = st.floats(0.25, 5.0)
_EXPANDABLE = st.one_of(
    st.just(Activation("relu")),
    st.just(Activation("identity")),
    _SCALE.map(lambda c: Activation("bwrelu", c)),
)


@st.composite
def nets(draw, hidden=_EXPANDABLE):
    """init_network of 1-3 hidden layers of width 1-6 drawn from ``hidden``,
    with an identity output layer."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=3, max_size=5))
    acts = [draw(hidden) for _ in sizes[2:]] + [Activation("identity")]
    specs = [LayerSpec(n, m, act) for n, m, act in zip(sizes, sizes[1:], acts)]
    return init_network(specs, draw(st.integers(0, 2**32)))


def _same_bits(arrays, others):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(arrays, others))


def _arrays(params):
    return params.weights + params.biases


@_SETTINGS
@given(params=nets())
def test_expansion_is_within_the_bound_and_leaves_params_unchanged(params):
    before = [a.copy() for a in _arrays(params)]
    X = np.random.default_rng(0).uniform(-1.0, 1.0, (64, params.specs[0].in_dim))
    expanded = expand_to_relus(params)
    err = np.abs(forward(params, X)[0] - forward(expanded, X)[0]).max()
    assert err <= expansion_error_bound(params, X)
    assert _same_bits(_arrays(params), before)


@_SETTINGS
@given(params=nets(hidden=st.just(Activation("relu"))))
def test_relu_net_expands_to_bitwise_equal_arrays(params):
    expanded = expand_to_relus(params)
    assert expanded.specs == params.specs
    assert _same_bits(_arrays(expanded), _arrays(params))


_UNSUPPORTED = st.one_of(
    _SCALE.map(lambda c: Activation("sine", c)),
    _SCALE.map(lambda c: Activation("gaussian", c)),
)


@_SETTINGS
@given(
    params=nets(hidden=st.one_of(_EXPANDABLE, _UNSUPPORTED)).filter(
        lambda p: any(s.activation.kind in ("sine", "gaussian") for s in p.specs)
    ),
)
def test_sine_or_gaussian_layer_is_unsupported(params):
    with pytest.raises(UnsupportedActivationError):
        expand_to_relus(params)
