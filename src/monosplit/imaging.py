"""Image-recovery instance builder: operators, regularizers, observations.

Implements the desk-scale multi-observation recovery model

    minimize over x in [lo, hi]^K :
        sum_k w_k/2 ||r_k - T_k x||^2 + gamma ||W x||_1
        + (alpha ||.||_{1,2} o grad) [inf-conv] (beta ||.||_{1,2} o grad2)(x)

with first/second-order forward differences under replicate (Neumann)
boundary, a single-level orthonormal Haar analysis operator, and dense blur
matrices.  The ||.||_{1,2} norm groups the derivative channels per pixel.

Boundary handling is replicate everywhere, which keeps the classical
``||grad|| <= sqrt(8)`` bound (Chambolle 2004), and so ``||grad2|| <= 8``
for the gradient applied twice; these and the Haar transform's norm 1 are
the operators' norm certificates.  Blur operators are materialized as
dense matrices so adjoints are exact transposes (desk scale only).

The difference and Haar kernels run on index plans built once, when the
operator is constructed, and read-only after that, so one operator may be
shared by threads.  A forward difference is one gather and one
subtraction; its adjoint is one gather, one sign and one ``np.bincount``,
which adds each pixel's terms from 0.0 in the order of the straightforward
evaluation (see :func:`_difference_plans`).  Every output is the same to
the bit as that evaluation's, signed zeros included; only a non-finite
pixel on the last row or column differs, giving NaN (``inf - inf``) in
place of its zero boundary difference.  The plans take under 112 bytes
per pixel for the gradient, under 176 for the second gradient and 16 for
the Haar transform's two permutations; the gradient's plans are shared by
every first and second gradient of the same image size.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, SpecificationError
from .linops import LinOp, certified, dense_op, identity_op
from .minimization import MinimizationSpec, quadratic_smooth
from .prox import make_function
from .system import SpaceLayout, _read_only

GRAD_NORM_BOUND = np.sqrt(8.0)


@dataclass(frozen=True)
class ImageGrid:
    """A grayscale image as a flat vector (row-major)."""

    height: int
    width: int
    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels",
                           np.asarray(self.pixels, dtype=float).ravel())
        if self.pixels.size != self.height * self.width:
            raise SpecificationError(
                f"pixel count {self.pixels.size} != "
                f"{self.height}x{self.width}"
            )

    def as_array(self):
        return self.pixels.reshape(self.height, self.width)


@dataclass(frozen=True)
class ObservationSet:
    """Degraded observations r_i = T_i x + noise with positive weights."""

    observations: list
    blur_ops: list
    weights: list

    def __post_init__(self):
        if not (len(self.observations) == len(self.blur_ops)
                == len(self.weights)):
            raise SpecificationError("observation entries must align")
        for r, op, w in zip(self.observations, self.blur_ops, self.weights):
            if np.asarray(r).size != op.out_dim:
                raise SpecificationError(
                    f"observation length {np.asarray(r).size} != "
                    f"operator out_dim {op.out_dim}"
                )
            if w <= 0:
                raise SpecificationError("weights must be > 0")


@lru_cache(maxsize=4)
def _difference_plans(height, width):
    """Gather plans of the forward differences and of their adjoint.

    ``plus`` (2, height*width) holds for each pixel the pixel one step down
    (row 0) and one step right (row 1), or the pixel itself on the last row,
    resp. column.  ``x.take(plus) - x`` is then the vertical and the
    horizontal differences, with the replicate boundary's zero as ``x - x``.

    The adjoint (negative divergence) gives each pixel ``(i, j)`` the sum,
    from 0.0 and in this order, of those of ``+v[i-1, j], -v[i, j],
    +h[i, j-1], -h[i, j]`` that exist.  ``src`` gathers these terms from
    the stacked (v, h) group by group in that order, ``sign`` negates the
    second and fourth groups and ``bins`` names each term's pixel.
    ``np.bincount`` adds weights into their bins from 0.0 in array order,
    and ``a + (-b)`` is ``a - b`` in IEEE arithmetic, so
    ``np.bincount(bins, y.take(src) * sign)`` rounds exactly as the
    straightforward evaluation does, signed zeros included.

    The four arrays take ``112 h w - 48 (h + w)`` bytes: ``plus`` 16 per
    pixel, the other three 8 per adjoint term, of which there are about
    four per pixel.  The arrays are read-only, so the plans of one image
    size are built once and shared by every operator of that size; the
    cache holds the last four sizes.
    """
    hw = height * width
    pixel = np.arange(hw, dtype=np.intp).reshape(height, width)
    down, right = pixel.copy(), pixel.copy()
    down[:-1] = pixel[1:]
    right[:, :-1] = pixel[:, 1:]
    plus = np.stack([down.ravel(), right.ravel()])
    vert, horz = pixel[:-1].ravel(), hw + pixel[:, :-1].ravel()
    src = np.concatenate([vert, vert, horz, horz])
    bins = np.concatenate([pixel[1:].ravel(), pixel[:-1].ravel(),
                           pixel[:, 1:].ravel(), pixel[:, :-1].ravel()])
    sign = np.repeat([1.0, -1.0, 1.0, -1.0],
                     [vert.size, vert.size, horz.size, horz.size])
    return tuple(_read_only(a) for a in (plus, src, bins, sign))


def gradient_op(height, width):
    """First-order forward differences with replicate boundary.

    Output stacks the vertical then the horizontal differences
    (2*height*width values); the adjoint is the matching negative
    divergence.  Both are gathers from the plans of
    :func:`_difference_plans`, built once per image size: ``112 h w -
    48 (h + w)`` bytes, under 112 per pixel.
    """
    if height < 2 or width < 2:
        raise ConfigurationError("gradient_op needs height, width >= 2")
    hw = height * width
    plus, src, bins, sign = _difference_plans(height, width)

    def apply(x):
        x = np.asarray(x, dtype=float).reshape(hw)
        out = x.take(plus)
        out -= x
        return out.ravel()

    def adjoint_apply(y):
        terms = np.asarray(y, dtype=float).reshape(2 * hw).take(src)
        terms *= sign
        return np.bincount(bins, terms, hw)

    norm = certified(GRAD_NORM_BOUND)
    return LinOp(hw, 2 * hw, apply, adjoint_apply, tag=f"grad{height}x{width}",
                 certificate=lambda: norm)


def second_gradient_op(height, width):
    """Second-order differences: the gradient applied to each channel again.

    Yields four channels (xx, xy, yx, yy) of length height*width each, with
    the same replicate boundary; the adjoint follows by composition.  The
    second step runs the gradient's plans over the two channels at once,
    and its adjoint needs one more array, the bins of both channels:
    ``176 h w - 80 (h + w)`` bytes in all, under 176 per pixel, of which
    the gradient's plans are shared.
    """
    if height < 3 or width < 3:
        raise ConfigurationError("second_gradient_op needs height, width >= 3")
    hw = height * width
    plus, src, bins, sign = _difference_plans(height, width)
    stack_bins = _read_only(np.concatenate([bins, bins + hw]))

    def apply(x):
        x = np.asarray(x, dtype=float).reshape(hw)
        grad = x.take(plus)
        grad -= x
        out = grad.take(plus, axis=1)
        out -= grad[:, None, :]
        return out.ravel()

    def adjoint_apply(y):
        y = np.asarray(y, dtype=float).reshape(2, 2 * hw)
        terms = y.take(src, axis=1)
        terms *= sign
        grad = np.bincount(stack_bins, terms.ravel(), 2 * hw)
        terms = grad.take(src)
        terms *= sign
        return np.bincount(bins, terms, hw)

    norm = certified(GRAD_NORM_BOUND ** 2)
    return LinOp(hw, 4 * hw, apply, adjoint_apply,
                 tag=f"grad2_{height}x{width}", certificate=lambda: norm)


def _haar_butterfly(a, b, c, d):
    """The 2x2 Haar butterfly, ``[a+b+c+d, a-b+c-d, a+b-c-d, a-b-c+d] / 2``.

    Each sum is evaluated left to right, from the shared ``a+b`` and
    ``a-b``.  The butterfly is symmetric and orthonormal, so it serves both
    the analysis and its adjoint.  The inputs are flat and contiguous:
    numpy runs a small op on them two to three times faster than on the
    strided 2-D views of the image, and faster than a stacked op that
    broadcasts a column of signs.
    """
    total, diff = a + b, a - b
    out = np.empty((4, a.size))
    ll, lh, hl, hh = out
    np.add(total, c, ll)
    ll += d
    np.add(diff, c, lh)
    lh -= d
    np.subtract(total, c, hl)
    hl -= d
    np.subtract(diff, c, hh)
    hh += d
    out /= 2.0
    return out


def haar_analysis_op(height, width):
    """Single-level orthonormal 2-D Haar analysis.

    Requires even dimensions.  Output stacks the four subbands (LL, LH, HL,
    HH), each of size (height/2)*(width/2); the adjoint is the inverse
    transform.  A permutation gather each way (16 bytes per pixel, built
    here once) sorts the pixels into the 2x2 blocks' corners and back.
    """
    if height % 2 or width % 2:
        raise ConfigurationError("haar_analysis_op needs even height and width")
    hw = height * width
    blocks = np.arange(hw, dtype=np.intp).reshape(height // 2, 2, width // 2, 2)
    to_corners = _read_only(blocks.transpose(1, 3, 0, 2).ravel())
    to_pixels = _read_only(np.argsort(to_corners))

    def apply(x):
        x = np.asarray(x, dtype=float).reshape(hw)
        return _haar_butterfly(*x.take(to_corners).reshape(4, -1)).ravel()

    def adjoint_apply(y):
        bands = np.asarray(y, dtype=float).reshape(4, hw // 4)
        return _haar_butterfly(*bands).ravel().take(to_pixels)

    norm = certified(1.0)
    return LinOp(hw, hw, apply, adjoint_apply, tag=f"haar{height}x{width}",
                 certificate=lambda: norm, kind="orthogonal")


def _stencil_matrix(height, width, kernel):
    """Dense matrix of a 2-D stencil with replicate boundary.

    Row ``i * width + j`` gathers ``kernel[di, dj]`` from pixel
    ``(i + di - kh // 2, j + dj - kw // 2)`` clamped into the grid.  One
    pass per kernel entry adds it to every row at once; a row meets each
    pass once, so entries that the boundary folds together are summed in
    kernel order.
    """
    kernel = np.asarray(kernel, dtype=float)
    kh, kw = kernel.shape
    hw = height * width
    mat = np.zeros((hw, hw))
    rows = np.arange(hw)
    i, j = np.divmod(rows, width)
    for di in range(kh):
        src_i = np.clip(i + di - kh // 2, 0, height - 1)
        for dj in range(kw):
            src_j = np.clip(j + dj - kw // 2, 0, width - 1)
            mat[rows, src_i * width + src_j] += kernel[di, dj]
    return mat


def _check_blur_grid(height, width):
    if height < 1 or width < 1:
        raise ConfigurationError("blur operators need height, width >= 1")


def box_blur_op(height, width, size=3):
    """Dense size x size box blur with replicate boundary."""
    _check_blur_grid(height, width)
    if size < 1 or size % 2 == 0:
        raise ConfigurationError("box blur size must be odd and >= 1")
    kernel = np.full((size, size), 1.0 / (size * size))
    return dense_op(_stencil_matrix(height, width, kernel),
                    tag=f"box{size}_{height}x{width}")


def gaussian_blur_op(height, width, sigma=1.0, radius=2):
    """Dense truncated-Gaussian blur with replicate boundary."""
    _check_blur_grid(height, width)
    if sigma <= 0 or radius < 0:
        raise ConfigurationError("need sigma > 0 and radius >= 0")
    ax = np.arange(-radius, radius + 1, dtype=float)
    g = np.exp(-0.5 * (ax / sigma) ** 2)
    kernel = np.outer(g, g)
    kernel /= kernel.sum()
    return dense_op(_stencil_matrix(height, width, kernel),
                    tag=f"gauss{sigma}_{height}x{width}")


def make_observations(truth, blur_ops, weights, noise_sigma=0.0, seed=0):
    """Blur the truth and add seeded Gaussian noise per observation."""
    rng = np.random.default_rng(seed)
    observations = []
    for op in blur_ops:
        clean = np.asarray(op.apply(truth.pixels))
        noise = noise_sigma * rng.standard_normal(op.out_dim) \
            if noise_sigma > 0 else 0.0
        observations.append(clean + noise)
    return ObservationSet(observations, list(blur_ops), list(weights))


def pixel_groups(height, width, channels):
    """Index blocks grouping the derivative channels of each pixel."""
    hw = height * width
    return (np.arange(hw)[:, None] + hw * np.arange(channels)).tolist()


def build_app1_instance(truth, obs, alpha, beta, gamma, box=(0.0, 1.0)):
    """MinimizationSpec for the composite image-recovery objective.

    ``alpha`` weights the first-order and ``beta`` the second-order grouped
    derivative norms (combined through infimal convolution), ``gamma`` the
    analysis-l1 term; ``box`` is the pixel-range constraint set.
    """
    if min(alpha, beta, gamma) <= 0:
        raise ConfigurationError("alpha, beta, gamma must be > 0")
    h, w = truth.height, truth.width
    hw = h * w
    layout = SpaceLayout(
        h_dims=(hw,),
        g_dims=(hw, hw),
        y_dims=(2 * hw, hw),
        x_dims=(4 * hw, hw),
    )

    terms = [
        {"op": op, "offset": np.asarray(r, dtype=float), "weight": float(wt)}
        for r, op, wt in zip(obs.observations, obs.blur_ops, obs.weights)
    ]
    phi = quadratic_smooth(terms, hw)

    f1 = make_function("indicator_box", {"lo": box[0], "hi": box[1]}, hw)
    g1 = make_function(
        "group_l12",
        {"blocks": pixel_groups(h, w, 2), "weight": alpha},
        2 * hw,
    )
    ell1 = make_function(
        "group_l12",
        {"blocks": pixel_groups(h, w, 4), "weight": beta},
        4 * hw,
    )
    g2 = make_function("l1", {"weight": gamma}, hw)
    ell2 = make_function("indicator_zero", {}, hw)

    return MinimizationSpec(
        layout=layout,
        f=[f1],
        phi=phi,
        g=[g1, g2],
        ell=[ell1, ell2],
        M=[gradient_op(h, w), haar_analysis_op(h, w)],
        N=[second_gradient_op(h, w), identity_op(hw)],
        L=[[identity_op(hw)], [identity_op(hw)]],
        z=[np.zeros(hw)],
        r=[np.zeros(hw), np.zeros(hw)],
    )


def write_pgm(path, grid):
    """Write an image as binary 8-bit PGM, mapping [0, 1] to 0..255."""
    data = np.clip(grid.pixels, 0.0, 1.0)
    raw = np.round(data * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii"))
        fh.write(raw.tobytes())


def read_pgm(path):
    """Read a binary 8-bit PGM into an ImageGrid with values in [0, 1].

    Raises :class:`ConfigurationError` for anything else, including a
    header that ends early or holds a field other than a positive integer,
    and pixel data shorter than ``width * height`` bytes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    parts = []
    pos = 0
    while len(parts) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ConfigurationError(f"{path}: PGM header ends early")
        parts.append(data[start:pos])
    if parts[0] != b"P5":
        raise ConfigurationError("only binary PGM (P5) is supported")
    for name, part in zip(("width", "height", "maxval"), parts[1:]):
        if not (part.isdigit() and int(part) > 0):
            raise ConfigurationError(
                f"{path}: PGM {name} must be a positive integer, got {part!r}")
    width, height, maxval = int(parts[1]), int(parts[2]), int(parts[3])
    if maxval != 255:
        raise ConfigurationError("only 8-bit PGM is supported")
    pos += 1  # single whitespace after maxval
    if len(data) - pos < width * height:
        raise ConfigurationError(
            f"{path}: PGM holds {max(len(data) - pos, 0)} pixel bytes, "
            f"expected {width * height}")
    raw = np.frombuffer(data, dtype=np.uint8, count=height * width, offset=pos)
    return ImageGrid(height, width, raw.astype(float) / 255.0)
