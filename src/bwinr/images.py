"""Grayscale image file I/O.

Binary PGM (P5, 8-bit) is the one image format: write + read round-trips
exactly.
"""

import numpy as np

from .errors import ImageIOError, read_file, write_file
from .operators import ImageGrid


def _read_header_token(data, pos):
    # Skip whitespace and '#' comment lines between header tokens.
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
        raise ImageIOError(f"truncated PGM header at byte {start}")
    return data[start:pos], pos


def load_image(path):
    """Load an 8-bit grayscale binary PGM (P5), mapping bytes to [0, 1]."""
    data = read_file(path)
    if data[:2] != b"P5":
        raise ImageIOError(f"{path}: not a binary PGM (missing P5 magic)")
    pos = 2
    try:
        width_tok, pos = _read_header_token(data, pos)
        height_tok, pos = _read_header_token(data, pos)
        maxval_tok, pos = _read_header_token(data, pos)
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except ValueError as exc:
        raise ImageIOError(f"{path}: malformed PGM header near byte {pos}: {exc}")
    if width < 1 or height < 1:
        raise ImageIOError(f"{path}: PGM dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise ImageIOError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height
    payload = data[pos:pos + expected]
    if len(payload) != expected:
        raise ImageIOError(
            f"{path}: expected {expected} pixel bytes at byte {pos}, "
            f"found {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return ImageGrid(pixels.astype(float) / 255.0)


def save_image(img, path):
    """Write an 8-bit binary PGM; pixels are clamped to [0, 1] first."""
    px = np.clip(img.pixels, 0.0, 1.0)
    quantized = np.floor(px * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    write_file(path, header + quantized.tobytes())
