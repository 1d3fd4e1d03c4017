"""Property tests for checkpoint loading (skipped where hypothesis is absent)."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bwinr import (  # noqa: E402
    Activation,
    InvalidInputError,
    init_network,
    load_checkpoint,
    mlp_specs,
    save_checkpoint,
)


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    activation=st.sampled_from(
        [Activation("bwrelu", 3.0), Activation("relu"), Activation("sine", 30.0)]
    ),
    seed=st.integers(0, 2**40),
)
def test_every_line_prefix_loads_equal_or_is_rejected(
    tmp_path, sizes, activation, seed
):
    p = init_network(mlp_specs(sizes, activation), seed)
    path = tmp_path / "net.txt"
    save_checkpoint(p, path)
    lines = path.read_text().splitlines(keepends=True)
    for k in range(len(lines) + 1):
        path.write_text("".join(lines[:k]))
        try:
            q = load_checkpoint(path)
        except InvalidInputError:
            assert k < len(lines)
            continue
        assert k == len(lines)
        assert (q.seed, q.specs) == (p.seed, p.specs)
        for a, b in zip(p.weights + p.biases, q.weights + q.biases):
            assert np.array_equal(a, b)
