"""Synthetic test signals and images.

Everything here is generated from formulas, so the repo ships no binary
assets: the Shepp-Logan phantom (the classic CT test object), a mixed
smooth/edge/texture scene for image fitting, and the univariate benchmark
target used to expose the spectral bias of plain ReLU fits.
"""

import numpy as np

from .operators import ImageGrid, grid_coords

# Modified (high-contrast) Shepp-Logan ellipses:
# (amplitude, semi-axis a, semi-axis b, center x, center y, rotation deg)
_SHEPP_LOGAN_ELLIPSES = [
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
]


def shepp_logan(n):
    """n x n modified Shepp-Logan head phantom, intensities clipped to [0, 1]."""
    xx, yy = grid_coords(n, n).T.reshape(2, n, n)
    img = np.zeros((n, n))
    for amp, a, b, x0, y0, deg in _SHEPP_LOGAN_ELLIPSES:
        th = np.deg2rad(deg)
        xr = (xx - x0) * np.cos(th) + (yy - y0) * np.sin(th)
        yr = -(xx - x0) * np.sin(th) + (yy - y0) * np.cos(th)
        img += amp * ((xr / a) ** 2 + (yr / b) ** 2 <= 1.0)
    return ImageGrid(np.clip(img, 0.0, 1.0))


def synthetic_scene(n):
    """Deterministic n x n grayscale scene: smooth shading, edges, texture.

    Built to stress both ends of the frequency axis: a slow illumination
    gradient, hard-edged shapes, a radial chirp patch and a fine diagonal
    grating.
    """
    xx, yy = grid_coords(n, n).T.reshape(2, n, n)
    img = 0.35 + 0.25 * xx + 0.15 * yy

    # hard-edged disk and bar
    img = np.where((xx + 0.45) ** 2 + (yy + 0.40) ** 2 <= 0.08, 0.95, img)
    img = np.where(
        (np.abs(xx - 0.55) <= 0.12) & (np.abs(yy + 0.45) <= 0.35), 0.05, img
    )

    # radial chirp in the upper-left quadrant
    r2 = (xx + 0.45) ** 2 + (yy - 0.45) ** 2
    chirp_zone = r2 <= 0.16
    img = np.where(chirp_zone, 0.5 + 0.4 * np.sin(60.0 * r2), img)

    # fine diagonal grating in the lower-right quadrant
    grating_zone = (xx >= 0.1) & (yy >= 0.1)
    img = np.where(
        grating_zone, 0.5 + 0.35 * np.sin(24.0 * (xx + 0.7 * yy)), img
    )
    return ImageGrid(np.clip(img, 0.0, 1.0))


def univariate_target(x):
    """Benchmark target: low-frequency bump plus a high-frequency ripple."""
    x = np.asarray(x, dtype=float)
    return np.sin(4.0 * np.pi * x) * np.exp(-x * x) + 0.5 * np.sin(12.0 * np.pi * x)


def univariate_benchmark(n=512):
    """(x, y) samples of the univariate target on a uniform grid in [-1, 1]."""
    x = np.linspace(-1.0, 1.0, n)
    return x, univariate_target(x)
