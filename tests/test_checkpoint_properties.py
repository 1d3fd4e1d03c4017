"""Property tests for checkpoint loading (skipped where hypothesis is absent)."""
import string

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


BASE64_ALPHABET = string.ascii_letters + string.digits + "+/"


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    seed=st.integers(0, 2**40),
    cut=st.booleans(),
    data=st.data(),
)
def test_mutated_data_line_loads_close_or_is_rejected(tmp_path, sizes, seed, cut, data):
    # One base64 character holds 6 bits, which fall in at most two float64
    # values; a line cut short never holds the specs' count of values.
    p = init_network(mlp_specs(sizes, Activation("bwrelu", 3.0)), seed)
    path = tmp_path / "net.txt"
    save_checkpoint(p, path)
    *header, line = path.read_text().splitlines(keepends=True)
    line = line.rstrip("\n")
    if cut:
        line = line[:data.draw(st.integers(0, len(line) - 1), label="length")]
    else:
        pos = data.draw(st.integers(len("data "), len(line.rstrip("=")) - 1), label="pos")
        char = data.draw(st.sampled_from(BASE64_ALPHABET + "=!-_ "), label="char")
        line = line[:pos] + char + line[pos + 1:]
    path.write_text("".join(header) + line + "\n")
    try:
        q = load_checkpoint(path)
    except InvalidInputError:
        return
    assert not cut and char in BASE64_ALPHABET
    assert (q.seed, q.specs) == (p.seed, p.specs)
    changed = sum(
        int(np.sum(a != b)) for a, b in zip(p.weights + p.biases, q.weights + q.biases)
    )
    assert changed <= 2
