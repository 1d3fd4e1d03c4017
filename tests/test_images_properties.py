"""Property tests for PGM loading (skipped where hypothesis is absent)."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from bwinr import ImageGrid, ImageIOError, load_image, save_image  # noqa: E402

_SETTINGS = settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_IMAGES = st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda shape: arrays(np.uint8, shape)
)


@_SETTINGS
@given(quantized=_IMAGES)
def test_save_load_round_trip(tmp_path, quantized):
    path = tmp_path / "img.pgm"
    save_image(ImageGrid(quantized / 255.0), path)
    img = load_image(path)
    assert np.array_equal(img.pixels, quantized / 255.0)


@_SETTINGS
@given(quantized=_IMAGES)
def test_every_byte_prefix_loads_equal_or_is_rejected(tmp_path, quantized):
    path = tmp_path / "img.pgm"
    save_image(ImageGrid(quantized / 255.0), path)
    data = path.read_bytes()
    for k in range(len(data) + 1):
        path.write_bytes(data[:k])
        try:
            img = load_image(path)
        except ImageIOError:
            assert k < len(data)
            continue
        assert k == len(data)
        assert np.array_equal(img.pixels, quantized / 255.0)


@_SETTINGS
@given(header=st.binary(max_size=24), payload=st.binary(max_size=64))
def test_arbitrary_header_loads_or_is_rejected(tmp_path, header, payload):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5" + header + payload)
    try:
        img = load_image(path)
    except ImageIOError:
        return
    assert img.height >= 1 and img.width >= 1


@_SETTINGS
@given(
    width=st.integers(-3, 6), height=st.integers(-3, 6),
    maxval=st.sampled_from([0, 255, 65535]), payload=st.binary(max_size=40),
)
def test_any_header_numbers_load_or_are_rejected(
    tmp_path, width, height, maxval, payload
):
    path = tmp_path / "img.pgm"
    path.write_bytes(f"P5\n{width} {height}\n{maxval}\n".encode() + payload)
    try:
        img = load_image(path)
    except ImageIOError:
        return
    assert (img.height, img.width) == (height, width)
    assert maxval == 255 and len(payload) >= width * height >= 1
