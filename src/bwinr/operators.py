"""Forward operators binding coordinate networks to imaging tasks.

All tasks share one coordinate convention: pixel centers of an h x w image
map affinely onto [-1, 1]^2 (x along columns, y along rows, both increasing
with index). The operators act on the discretized image the network renders
over that grid and are all linear, so their exact adjoints double as the
backprop rules.

The Radon transform is parallel-beam: for each angle theta in [0, pi) and
each detector offset s in [-sqrt(2), sqrt(2)], the line integral of the
bilinearly interpolated image along the ray through s*(cos t, sin t) with
direction (-sin t, cos t), discretized by a uniform-step quadrature of one
pixel spacing. The sampling pattern is assembled once into a sparse matrix,
which makes the adjoint exact by construction.

Every task operator is one object with the same protocol: ``apply`` maps
an ``in_shape`` rendering to ``out_shape`` measurements, ``vjp`` maps an
``out_shape`` cotangent back to ``in_shape`` (the exact adjoint of
``apply``), and any other shape, flattened or transposed, is a ShapeError.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, ShapeError


@dataclass(frozen=True)
class ImageGrid:
    """Grayscale image with intensities nominally in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2:
            raise ShapeError(f"image must be 2-D, got ndim={px.ndim}")
        if not np.all(np.isfinite(px)):
            raise InvalidInputError("image contains non-finite pixels")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]


def grid_coords(h, w):
    """Pixel-center coordinates in [-1, 1]^2, row-major, as an (h*w, 2) batch."""
    if h < 1 or w < 1:
        raise ShapeError(f"grid dims must be >= 1, got {h}x{w}")
    xs = -1.0 + (2.0 * np.arange(w) + 1.0) / w
    ys = -1.0 + (2.0 * np.arange(h) + 1.0) / h
    xx, yy = np.meshgrid(xs, ys)
    return np.column_stack([xx.ravel(), yy.ravel()])


def _checked(values, shape):
    """``values`` as a float64 array, which must have exactly ``shape``."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ShapeError(f"operator expects shape {shape}, got {arr.shape}")
    return arr


class Downsample:
    """f x f block averaging of an h x w image, as a task operator."""

    def __init__(self, h, w, f):
        if f < 1:
            raise ConfigurationError(f"downsampling factor must be >= 1, got {f}")
        if h % f or w % f:
            raise ShapeError(f"{h}x{w} image not divisible by factor {f}")
        self.f = f
        self.in_shape = (h, w)
        self.out_shape = (h // f, w // f)

    def apply(self, rendered):
        (h, w), f = self.out_shape, self.f
        blocks = _checked(rendered, self.in_shape).reshape(h, f, w, f)
        return blocks.mean(axis=(1, 3))

    def vjp(self, cotangent):
        """Spread each block mean's weight back out over its block."""
        cot = _checked(cotangent, self.out_shape)
        return np.kron(cot, np.full((self.f, self.f), 1.0 / (self.f * self.f)))


class RadonTransform:
    """Parallel-beam Radon operator of an h x w image, as a task operator.

    The geometry follows from the image size and ``n_angles``: ``angles``
    are ``n_angles`` equally spaced angles in [0, pi), and ``detectors``
    is the image diagonal in pixels, rounded up. ``apply`` integrates the
    bilinearly interpolated image along every (angle, offset) ray; ``vjp``
    is the exact transpose of that linear map; ``in_shape`` is (h, w) and
    ``out_shape`` is (n_angles, detectors). The sampling pattern is
    compiled once into the CSR ``matrix``.
    """

    def __init__(self, h, w, n_angles):
        if n_angles < 1:
            raise ConfigurationError(
                f"the Radon transform needs >= 1 angle, got {n_angles}"
            )
        self.h, self.w = self.in_shape = (int(h), int(w))
        self.angles = np.arange(n_angles) * np.pi / n_angles
        d = self.detectors = int(np.ceil(np.hypot(h, w)))
        self.out_shape = (n_angles, d)
        half = np.sqrt(2.0)
        self.offsets = -half + (2.0 * np.arange(d) + 1.0) * half / d
        step = 2.0 / max(self.h, self.w)  # one pixel spacing
        n_steps = int(np.ceil(2.0 * half / step))
        self.dt = 2.0 * half / n_steps
        self.t = -half + (np.arange(n_steps) + 0.5) * self.dt

        # One CSR, filled angle by angle into arrays allocated once; each
        # block still goes through scipy's COO -> CSR conversion, whose order
        # decides how duplicates are summed. Importing scipy here keeps it
        # out of the commands that build no Radon matrix.
        from scipy import sparse

        n_px = self.h * self.w
        # Capacity: 4 entries per sample inside the square. Those samples
        # lie in the disc |(s, t)| <= sqrt(2), plus one step for rounding.
        reach = np.sqrt(2.0 - self.offsets**2) + self.dt
        capacity = 4 * n_angles * int(
            np.count_nonzero(np.abs(self.t) <= reach[:, None])
        )
        index = np.int32 if max(capacity, n_px) < 2**31 else np.int64
        data = np.empty(capacity)
        indices = np.empty(capacity, dtype=index)
        indptr = np.zeros(n_angles * d + 1, dtype=index)
        nnz = 0
        for i in range(n_angles):
            weights, rows, cols = self._angle_block(i)
            block = sparse.coo_matrix((weights, (rows, cols)), shape=(d, n_px)).tocsr()
            end = nnz + block.nnz
            data[nnz:end] = block.data
            indices[nnz:end] = block.indices
            indptr[i * d + 1:(i + 1) * d + 1] = block.indptr[1:].astype(index) + nnz
            nnz = end
        # Shrink in place: the matrix owns exactly its bytes. No view of either
        # exists; a trace function's frame-locals copy would fail a refcheck.
        data.resize(nnz, refcheck=False)
        indices.resize(nnz, refcheck=False)
        self.matrix = sparse.csr_matrix(
            (data, indices, indptr), shape=(n_angles * d, n_px)
        )

    def _angle_block(self, idx):
        """One angle's rows of the matrix as COO (weights, rows, cols).

        Rows are detector indices; duplicate (row, col) pairs are summed by
        the CSR conversion.
        """
        h, w = self.h, self.w
        theta = self.angles[idx]
        cos, sin = np.cos(theta), np.sin(theta)
        s = self.offsets[:, None]
        t = self.t[None, :]
        # Ray point: s * normal + t * direction, normal = (cos, sin),
        # direction = (-sin, cos).
        x = s * cos - t * sin
        y = s * sin + t * cos
        inside = (np.abs(x) <= 1.0) & (np.abs(y) <= 1.0)
        rows = np.broadcast_to(
            np.arange(self.detectors)[:, None], x.shape
        )[inside]
        x = x[inside]
        y = y[inside]
        # Fractional pixel index; image values extend constantly from the
        # outermost pixel centers to the square boundary.
        u = (x + 1.0) * (w / 2.0) - 0.5
        v = (y + 1.0) * (h / 2.0) - 0.5
        j0 = np.clip(np.floor(u), 0, max(w - 2, 0)).astype(np.int64)
        i0 = np.clip(np.floor(v), 0, max(h - 2, 0)).astype(np.int64)
        fu = np.clip(u - j0, 0.0, 1.0) if w > 1 else np.zeros_like(u)
        fv = np.clip(v - i0, 0.0, 1.0) if h > 1 else np.zeros_like(v)
        j1 = np.minimum(j0 + 1, w - 1)
        i1 = np.minimum(i0 + 1, h - 1)
        cols = np.concatenate([
            i0 * w + j0, i0 * w + j1, i1 * w + j0, i1 * w + j1,
        ])
        weights = self.dt * np.concatenate([
            (1 - fv) * (1 - fu), (1 - fv) * fu, fv * (1 - fu), fv * fu,
        ])
        return weights, np.tile(rows, 4), cols

    def apply(self, pixels):
        flat = _checked(pixels, self.in_shape).ravel()
        return (self.matrix @ flat).reshape(self.out_shape)

    def vjp(self, cotangent):
        values = _checked(cotangent, self.out_shape).ravel()
        return (self.matrix.T @ values).reshape(self.in_shape)


class _IdentityOp:
    def __init__(self, shape):
        self.in_shape = self.out_shape = shape

    def apply(self, rendered):
        return _checked(rendered, self.in_shape)

    vjp = apply  # the identity is its own adjoint


@dataclass
class ForwardTask:
    """Everything the training loop needs to fit one signal.

    ``coords`` feed the network; its outputs are reshaped to the
    operator's ``in_shape`` and pushed through ``operator`` before the
    MSE against ``target`` (of its ``out_shape``). ``operator`` follows
    the module's protocol: ``apply``, ``vjp`` (its exact adjoint, the
    backprop rule), ``in_shape`` and ``out_shape``. ``reference`` (when
    present) is the ground-truth image used for PSNR logging.
    """

    coords: np.ndarray
    target: np.ndarray
    operator: object
    reference: ImageGrid | None = None


def make_task(name, image, factor=4, n_angles=100):
    """Bind an image to one of the three benchmark tasks.

    sigrep   -- fit the image directly on its own grid;
    superres -- fit block-downsampled measurements (factor ``f``);
    ct       -- fit ``n_angles`` equally spaced parallel-beam projections
                (see ``RadonTransform``).
    """
    h, w = image.height, image.width
    coords = grid_coords(h, w)
    if name == "sigrep":
        op = _IdentityOp((h, w))
    elif name == "superres":
        op = Downsample(h, w, factor)
    elif name == "ct":
        op = RadonTransform(h, w, n_angles)
    else:
        raise ConfigurationError(f"unknown task {name!r}")
    return ForwardTask(
        coords=coords,
        target=op.apply(image.pixels.copy()),  # the identity returns its input
        operator=op,
        reference=image,
    )


def make_signal_task(x, y):
    """Fit ``y`` ((n,) or (n, outputs)) at the rows of ``x`` ((n,) or (n, d),
    reshaped to (n, -1)), with no operator."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or x.shape[:1] != y.shape[:1]:
        raise ShapeError(f"x rows {x.shape[:1]} != y rows {y.shape[:1]}")
    return ForwardTask(
        coords=x.reshape(len(y), -1),
        target=y,
        operator=_IdentityOp(y.shape),
        reference=None,
    )
