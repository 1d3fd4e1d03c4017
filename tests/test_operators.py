import sys

import numpy as np
import pytest
from scipy import sparse

from bwinr import (
    ConfigurationError,
    Downsample,
    ImageGrid,
    RadonTransform,
    ShapeError,
    ct_angles,
    default_detectors,
    grid_coords,
    make_signal_task,
    make_task,
)


def _downsample(img, f):
    return Downsample(img.height, img.width, f).apply(img.pixels)


def _radon(img, angles, detectors):
    return RadonTransform(img.height, img.width, angles, detectors).apply(img.pixels)


class TestGridCoords:
    def test_single_pixel(self):
        assert np.array_equal(grid_coords(1, 1), [[0.0, 0.0]])

    def test_two_by_two_centers(self):
        coords = grid_coords(2, 2)
        assert np.allclose(
            coords, [[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5], [0.5, 0.5]]
        )

    def test_large_grid_range(self):
        coords = grid_coords(256, 256)
        assert coords.shape == (65536, 2)
        assert coords.min() >= -1.0 and coords.max() <= 1.0

    def test_row_major_matches_pixels(self):
        img = np.arange(6.0).reshape(2, 3)
        coords = grid_coords(2, 3)
        # row i, col j of the image sits at flat index i*3+j
        assert coords[1][0] == pytest.approx(0.0)      # col 1 of 3 -> x = 0
        assert coords[1][1] == pytest.approx(-0.5)     # row 0 of 2 -> y = -0.5
        assert img.ravel()[1] == img[0, 1]


class TestDownsample:
    def test_constant_image(self):
        img = ImageGrid(np.full((8, 8), 0.37))
        low = _downsample(img, 4)
        assert np.allclose(low, 0.37)

    def test_block_mean(self):
        img = ImageGrid(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert _downsample(img, 2)[0, 0] == pytest.approx(0.5)

    def test_factor_four_shape(self):
        img = ImageGrid(np.zeros((256, 256)))
        assert _downsample(img, 4).shape == (64, 64)

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            _downsample(ImageGrid(np.zeros((6, 6))), 4)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((16, 16))
        U = rng.standard_normal((4, 4))
        op = Downsample(16, 16, 4)
        lhs = np.sum(op.apply(X) * U)
        rhs = np.sum(X * op.vjp(U))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_nonpositive_factor_rejected(self):
        for f in (0, -2):
            with pytest.raises(ConfigurationError):
                Downsample(8, 8, f)


class TestRadon:
    def test_zero_image(self):
        sino = _radon(ImageGrid(np.zeros((16, 16))), ct_angles(10), 23)
        assert np.all(sino == 0.0)

    def test_central_chord_converges_to_two(self):
        # line integral of the unit square through the center has length 2;
        # refine the quadrature (via image size) and watch the error shrink
        angles = np.array([0.0])
        errors = []
        for n in (32, 128):
            img = ImageGrid(np.ones((n, n)))
            sino = _radon(img, angles, 65)  # odd count -> central offset 0
            errors.append(abs(sino[0, 32] - 2.0))
        assert errors[0] <= 4.0 / 32
        assert errors[1] <= 4.0 / 128
        assert errors[1] < errors[0]

    def test_linearity(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((24, 24))
        B = rng.standard_normal((24, 24))
        angles = ct_angles(12)
        det = default_detectors(24, 24)
        lhs = _radon(ImageGrid(2.0 * A + 3.0 * B), angles, det)
        rhs = (
            2.0 * _radon(ImageGrid(A), angles, det)
            + 3.0 * _radon(ImageGrid(B), angles, det)
        )
        scale = np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_adjoint_identity(self):
        rng = np.random.default_rng(2)
        h = w = 64
        angles = ct_angles(40)
        det = default_detectors(h, w)
        X = rng.standard_normal((h, w))
        U = rng.standard_normal((40, det))
        op = RadonTransform(h, w, angles, det)
        lhs = np.sum(op.apply(X) * U)
        rhs = np.sum(X * op.vjp(U))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_zero_cotangent(self):
        g = RadonTransform(16, 16, ct_angles(5), 23).vjp(np.zeros((5, 23)))
        assert np.all(g == 0.0)

    def test_no_angles_rejected(self):
        with pytest.raises(ConfigurationError):
            RadonTransform(16, 16, ct_angles(0), 23)

    def test_single_ray_cotangent_is_local(self):
        h = w = 32
        angles = np.array([0.0])
        det = 33
        cot = np.zeros((1, det))
        cot[0, 16] = 1.0  # central vertical ray, x = 0
        g = RadonTransform(h, w, angles, det).vjp(cot)
        cols = np.nonzero(np.abs(g).sum(axis=0))[0]
        x_cols = -1.0 + (2.0 * cols + 1.0) / w
        # bilinear reach: at most ~1.5 pixels from the line x=0
        assert np.abs(x_cols).max() <= 3.0 / w + 1e-12

    def test_mass_preservation_across_angles(self):
        # interior-supported blob: every projection sums to (total mass)/dt
        h = w = 48
        xx, yy = np.meshgrid(np.linspace(-1, 1, w), np.linspace(-1, 1, h))
        img = np.exp(-((xx / 0.3) ** 2 + (yy / 0.25) ** 2))
        img[np.sqrt(xx**2 + yy**2) > 0.7] = 0.0
        angles = ct_angles(24)
        sino = _radon(ImageGrid(img), angles, default_detectors(h, w))
        sums = sino.sum(axis=1)
        spread = (sums.max() - sums.min()) / sums.mean()
        assert spread <= 0.01


# Frozen reference: each angle's block compiled to CSR on its own, and the
# blocks stacked with scipy.sparse.vstack.
def _reference_radon_matrix(h, w, angles, detectors):
    half = np.sqrt(2.0)
    offsets = -half + (2.0 * np.arange(detectors) + 1.0) * half / detectors
    n_steps = int(np.ceil(2.0 * half / (2.0 / max(h, w))))
    dt = 2.0 * half / n_steps
    t = (-half + (np.arange(n_steps) + 0.5) * dt)[None, :]
    s = offsets[:, None]
    blocks = []
    for theta in angles:
        x = s * np.cos(theta) - t * np.sin(theta)
        y = s * np.sin(theta) + t * np.cos(theta)
        inside = (np.abs(x) <= 1.0) & (np.abs(y) <= 1.0)
        rows = np.broadcast_to(np.arange(detectors)[:, None], x.shape)[inside]
        u = (x[inside] + 1.0) * (w / 2.0) - 0.5
        v = (y[inside] + 1.0) * (h / 2.0) - 0.5
        j0 = np.clip(np.floor(u), 0, max(w - 2, 0)).astype(np.int64)
        i0 = np.clip(np.floor(v), 0, max(h - 2, 0)).astype(np.int64)
        fu = np.clip(u - j0, 0.0, 1.0) if w > 1 else np.zeros_like(u)
        fv = np.clip(v - i0, 0.0, 1.0) if h > 1 else np.zeros_like(v)
        j1 = np.minimum(j0 + 1, w - 1)
        i1 = np.minimum(i0 + 1, h - 1)
        cols = np.concatenate([i0 * w + j0, i0 * w + j1, i1 * w + j0, i1 * w + j1])
        weights = dt * np.concatenate([
            (1 - fv) * (1 - fu), (1 - fv) * fu, fv * (1 - fu), fv * fu,
        ])
        blocks.append(sparse.coo_matrix(
            (weights, (np.tile(rows, 4), cols)), shape=(detectors, h * w)
        ).tocsr())
    return sparse.vstack(blocks, format="csr")


class TestRadonMatrix:
    @pytest.mark.parametrize("h, w, n_angles", [
        (64, 64, 60), (32, 48, 17), (24, 24, 1), (1, 9, 5), (7, 1, 5),
    ])
    def test_bitwise_equal_to_stacked_blocks(self, h, w, n_angles):
        angles = ct_angles(n_angles)
        det = default_detectors(h, w)
        got = RadonTransform(h, w, angles, det).matrix
        ref = _reference_radon_matrix(h, w, angles, det)
        assert got.shape == ref.shape
        assert got.has_canonical_format
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_build_under_a_line_tracer(self):
        # A trace function (pdb, coverage, profilers) makes CPython copy the
        # frame's locals, adding references to the arrays the build shrinks.
        angles, det = ct_angles(5), default_detectors(8, 8)
        ref = RadonTransform(8, 8, angles, det).matrix

        def tracer(frame, event, arg):
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            got = RadonTransform(8, 8, angles, det).matrix
        finally:
            sys.settrace(previous)
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()


class TestMakeTask:
    def test_ct_task_shapes_paper_geometry(self):
        img = ImageGrid(np.random.default_rng(0).uniform(0, 1, (326, 435)))
        task = make_task("ct", img, n_angles=100)
        det = default_detectors(326, 435)
        assert task.target.shape == (100, det)
        assert task.operator.out_shape == (100, det)
        assert task.coords.shape == (326 * 435, 2)

    def test_ct_operator_is_the_radon_transform_of_its_target(self):
        img = ImageGrid(np.random.default_rng(3).uniform(0, 1, (20, 24)))
        task = make_task("ct", img, n_angles=9)
        assert isinstance(task.operator, RadonTransform)
        assert task.operator.out_shape == task.target.shape
        assert np.array_equal(task.operator.apply(img.pixels), task.target)

    def test_superres_task(self):
        img = ImageGrid(np.random.default_rng(1).uniform(0, 1, (256, 256)))
        task = make_task("superres", img, factor=4)
        assert task.target.shape == (64, 64)
        assert task.reference is img

    def test_sigrep_task(self):
        img = ImageGrid(np.random.default_rng(2).uniform(0, 1, (8, 8)))
        task = make_task("sigrep", img)
        assert np.array_equal(task.target, img.pixels)

    def test_unknown_task(self):
        with pytest.raises(ConfigurationError):
            make_task("nerf", ImageGrid(np.zeros((4, 4))))

    def test_signal_task(self):
        x = np.linspace(-1, 1, 11)
        task = make_signal_task(x, x**2)
        assert task.coords.shape == (11, 1)
        assert task.operator.apply(task.target).shape == (11,)
