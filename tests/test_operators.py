import sys

import numpy as np
import pytest
from scipy import sparse

from bwinr import (
    ConfigurationError,
    Downsample,
    ImageGrid,
    InvalidInputError,
    RadonTransform,
    ShapeError,
    grid_coords,
    make_signal_task,
    make_task,
)


def _downsample(img, f):
    return Downsample(img.height, img.width, f).apply(img.pixels)


def _radon(img, n_angles):
    return RadonTransform(img.height, img.width, n_angles).apply(img.pixels)


class TestImageGrid:
    @pytest.mark.parametrize("pixels, error", [
        (np.zeros(4), ShapeError),
        (np.array([[0.0, np.nan]]), InvalidInputError),
        (np.array([[np.inf, 0.0]]), InvalidInputError),
    ], ids=["1-d", "nan", "inf"])
    def test_bad_pixels_rejected(self, pixels, error):
        with pytest.raises(error):
            ImageGrid(pixels)


class TestGridCoords:
    @pytest.mark.parametrize("h, w", [(0, 3), (3, 0)])
    def test_empty_grid_rejected(self, h, w):
        with pytest.raises(ShapeError):
            grid_coords(h, w)

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
        sino = _radon(ImageGrid(np.zeros((16, 16))), 10)
        assert np.all(sino == 0.0)

    def test_central_chord_converges_to_two(self):
        # every vertical chord of the unit square (angle 0, offset |s| < 1)
        # has length 2; refine the quadrature (via image size) and watch the
        # error of the central detector's chord shrink
        errors = []
        for n in (32, 128):
            sino = _radon(ImageGrid(np.ones((n, n))), 1)
            errors.append(abs(sino[0, sino.shape[1] // 2] - 2.0))
        assert errors[0] <= 4.0 / 32
        assert errors[1] <= 4.0 / 128
        assert errors[1] < errors[0]

    def test_linearity(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((24, 24))
        B = rng.standard_normal((24, 24))
        lhs = _radon(ImageGrid(2.0 * A + 3.0 * B), 12)
        rhs = 2.0 * _radon(ImageGrid(A), 12) + 3.0 * _radon(ImageGrid(B), 12)
        scale = np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_adjoint_identity(self):
        rng = np.random.default_rng(2)
        h = w = 64
        op = RadonTransform(h, w, 40)
        X = rng.standard_normal((h, w))
        U = rng.standard_normal(op.out_shape)
        lhs = np.sum(op.apply(X) * U)
        rhs = np.sum(X * op.vjp(U))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_zero_cotangent(self):
        g = RadonTransform(16, 16, 5).vjp(np.zeros((5, 23)))
        assert np.all(g == 0.0)

    def test_wrong_shapes_rejected(self):
        op = RadonTransform(16, 16, 5)
        with pytest.raises(ShapeError):
            op.apply(np.zeros((16, 15)))
        with pytest.raises(ShapeError):
            op.vjp(np.zeros((23, 5)))

    def test_no_angles_rejected(self):
        with pytest.raises(ConfigurationError):
            RadonTransform(16, 16, 0)

    def test_single_ray_cotangent_is_local(self):
        h = w = 32
        op = RadonTransform(h, w, 1)  # angle 0: vertical rays x = offset
        cot = np.zeros(op.out_shape)
        cot[0, op.detectors // 2] = 1.0  # the ray just right of x = 0
        g = op.vjp(cot)
        cols = np.nonzero(np.abs(g).sum(axis=0))[0]
        x_cols = -1.0 + (2.0 * cols + 1.0) / w
        # bilinear reach: at most ~1.5 pixels from the line x = 0
        assert np.abs(x_cols).max() <= 3.0 / w + 1e-12

    def test_mass_preservation_across_angles(self):
        # interior-supported blob: every projection sums to (total mass)/dt
        h = w = 48
        xx, yy = np.meshgrid(np.linspace(-1, 1, w), np.linspace(-1, 1, h))
        img = np.exp(-((xx / 0.3) ** 2 + (yy / 0.25) ** 2))
        img[np.sqrt(xx**2 + yy**2) > 0.7] = 0.0
        sino = _radon(ImageGrid(img), 24)
        sums = sino.sum(axis=1)
        spread = (sums.max() - sums.min()) / sums.mean()
        assert spread <= 0.01


def _misshapes(shape):
    """Same-size shapes other than the 2-D ``shape``: transposed (unless
    square), flattened and regrouped."""
    (a, b), n = shape, shape[0] * shape[1]
    regrouped = (a // 2, 2 * b) if a % 2 == 0 else (1, n)
    return sorted({(b, a), (n,), regrouped} - {shape})


_OPERATORS = {
    "identity": lambda: make_task("sigrep", ImageGrid(np.zeros((6, 4)))).operator,
    "downsample": lambda: Downsample(16, 16, 4),
    "radon": lambda: RadonTransform(16, 16, 5),
}


@pytest.mark.parametrize("make_op", _OPERATORS.values(), ids=_OPERATORS.keys())
class TestOperatorContract:
    def test_maps_between_the_stated_shapes(self, make_op):
        op = make_op()
        rng = np.random.default_rng(4)
        out = op.apply(rng.standard_normal(op.in_shape))
        assert out.shape == op.out_shape
        back = op.vjp(np.ones(op.out_shape, dtype=int))
        assert back.shape == op.in_shape and back.dtype == np.float64

    def test_any_other_shape_is_a_shape_error(self, make_op):
        op = make_op()
        for method, shape in ((op.apply, op.in_shape), (op.vjp, op.out_shape)):
            bad_shapes = _misshapes(shape)
            assert len(bad_shapes) >= 2
            for bad in bad_shapes:
                with pytest.raises(ShapeError) as err:
                    method(np.ones(bad))
                assert str(shape) in str(err.value) and str(bad) in str(err.value)


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
        angles = np.arange(n_angles) * np.pi / n_angles
        det = int(np.ceil(np.hypot(h, w)))
        op = RadonTransform(h, w, n_angles)
        assert op.angles.tobytes() == angles.tobytes()
        assert op.detectors == det
        got = op.matrix
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
        ref = RadonTransform(8, 8, 5).matrix

        def tracer(frame, event, arg):
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            got = RadonTransform(8, 8, 5).matrix
        finally:
            sys.settrace(previous)
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()


class TestMakeTask:
    def test_ct_task_shapes_paper_geometry(self):
        img = ImageGrid(np.random.default_rng(0).uniform(0, 1, (326, 435)))
        task = make_task("ct", img, n_angles=100)
        det = int(np.ceil(np.hypot(326, 435)))
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

    def test_signal_task_lengths_must_match(self):
        with pytest.raises(ShapeError):
            make_signal_task(np.zeros(5), np.zeros(4))
        with pytest.raises(ShapeError):
            make_signal_task(np.zeros(8), np.zeros(4))
        with pytest.raises(ShapeError):
            make_signal_task(np.zeros((5, 2)), np.zeros((4, 3)))

    def test_unknown_task(self):
        with pytest.raises(ConfigurationError):
            make_task("nerf", ImageGrid(np.zeros((4, 4))))

    def test_signal_task(self):
        x = np.linspace(-1, 1, 11)
        task = make_signal_task(x, x**2)
        assert task.coords.shape == (11, 1)
        assert task.operator.apply(task.target).shape == (11,)

    def test_signal_task_batches(self):
        # (n, d) inputs and (n, k) targets keep their shapes.
        task = make_signal_task(np.zeros((20, 2)), np.zeros((20, 3)))
        assert task.coords.shape == (20, 2)
        assert task.target.shape == task.operator.in_shape == (20, 3)
        assert task.operator.out_shape == (20, 3)
