"""Grayscale image file I/O.

Binary PGM (P5, 8-bit) is the one image format: write + read round-trips
exactly.
"""

import numpy as np

from .errors import ImageIOError, read_file, show_path, write_file
from .operators import ImageGrid


def _header_int(data, pos):
    """The header number after byte ``pos`` and the position past it,
    skipping whitespace and '#' comment lines before it."""
    n = len(data)
    while pos < n:
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError(f"truncated PGM header at byte {start}")
    try:
        return int(data[start:pos]), pos
    except ValueError as exc:
        raise ValueError(f"malformed PGM header near byte {start}: {exc}") from None


def _parse_pgm(data):
    """The (height, width) uint8 pixels of P5 ``data``; bad content is ValueError."""
    if data[:2] != b"P5":
        raise ValueError("not a binary PGM (missing P5 magic)")
    width, pos = _header_int(data, 2)
    height, pos = _header_int(data, pos)
    maxval, pos = _header_int(data, pos)
    if width < 1 or height < 1:
        raise ValueError(f"PGM dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported, maxval={maxval}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height
    payload = data[pos:pos + expected]
    if len(payload) != expected:
        raise ValueError(f"expected {expected} pixel bytes at byte {pos}, found {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def load_image(path):
    """Load an 8-bit grayscale binary PGM (P5), mapping bytes to [0, 1].
    Malformed content is ImageIOError naming the path by ``show_path``."""
    data = read_file(path)
    try:
        pixels = _parse_pgm(data)
    except ValueError as exc:
        raise ImageIOError(f"{show_path(path)}: {exc}") from exc
    return ImageGrid(pixels.astype(float) / 255.0)


def save_image(img, path):
    """Write an 8-bit binary PGM; pixels are clamped to [0, 1] first."""
    px = np.clip(img.pixels, 0.0, 1.0)
    quantized = np.floor(px * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    write_file(path, header + quantized.tobytes())
