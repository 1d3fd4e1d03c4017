"""Grayscale image file I/O.

Binary PGM (P5, 8-bit) is the one image format: write + read round-trips
exactly.
"""

import re
import reprlib

import numpy as np

from .errors import ImageIOError, read_file, write_file
from .operators import ImageGrid


# P5, then width, height and maxval as 1-640 ASCII digits (int() converts 640
# under any limit), separated by whitespace and by '#' comments that end at a
# line break, so a run of '#' cannot backtrack exponentially, then one
# whitespace byte. The '-' only lets a negative size reach its own message.
_PGM_HEADER = re.compile(rb"(?:\s|#[^\r\n]*[\r\n])+".join(
    [rb"P5", rb"(-?[0-9]{1,640})", rb"(-?[0-9]{1,640})", rb"([0-9]{1,640})\s"]
))


def _parse_pgm(data):
    """The (height, width) uint8 pixels of P5 ``data``; bad content is ValueError."""
    if data[:2] != b"P5":
        raise ValueError("not a binary PGM (missing P5 magic)")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError("malformed PGM header")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise ValueError(f"PGM dimensions must be positive, got "
                         f"{reprlib.repr(width)}x{reprlib.repr(height)}")
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported, maxval={reprlib.repr(maxval)}")
    pos = header.end()
    expected = width * height
    payload = data[pos:pos + expected]
    if len(payload) != expected:
        raise ValueError(f"expected {reprlib.repr(expected)} pixel bytes at byte {pos}, "
                         f"found {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def load_image(path):
    """Load an 8-bit grayscale binary PGM (P5), mapping bytes to [0, 1].
    Malformed content is ImageIOError naming the path; the header grammar
    is ``_PGM_HEADER``."""
    return ImageGrid(read_file(path, _parse_pgm, ImageIOError).astype(float) / 255.0)


def save_image(img, path):
    """Write an 8-bit binary PGM; pixels are clamped to [0, 1] first."""
    px = np.clip(img.pixels, 0.0, 1.0)
    quantized = np.floor(px * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    write_file(path, header + quantized.tobytes())
