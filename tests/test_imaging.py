import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from monosplit import imaging
from monosplit.demos import deblur_demo
from monosplit.errors import ConfigurationError, NumericError
from monosplit.imaging import (
    GRAD_NORM_BOUND,
    ImageGrid,
    box_blur_op,
    build_app1_instance,
    gaussian_blur_op,
    gradient_op,
    haar_analysis_op,
    make_observations,
    read_pgm,
    second_gradient_op,
    write_pgm,
)
from monosplit.linops import adjoint_check, operator_norm
from monosplit.minimization import build_system
from monosplit.prox import soft_threshold
from monosplit.solver import IterateState, make_policy, solve
from monosplit.system import compute_beta, validate


def test_gradient_constant_image_is_zero():
    op = gradient_op(4, 5)
    assert np.all(op.apply(np.full(20, 3.7)) == 0.0)


def test_gradient_2x2_hand_case():
    # image (a, b; c, d): vertical diffs (c-a, d-b, 0, 0), horizontal
    # (b-a, 0, d-c, 0) under the replicate boundary
    a, b, c, d = 1.0, 2.0, 4.0, 7.0
    op = gradient_op(2, 2)
    out = op.apply(np.array([a, b, c, d]))
    np.testing.assert_allclose(out, [c - a, d - b, 0.0, 0.0,
                                     b - a, 0.0, d - c, 0.0], atol=0)


def test_gradient_adjoint_and_norm_bound():
    op = gradient_op(6, 7)
    assert adjoint_check(op, trials=100, seed=0) <= 1e-12
    est = operator_norm(op)
    assert est.value <= GRAD_NORM_BOUND * 1.01


def test_second_gradient_affine_image_vanishes_inside():
    h, w = 6, 5
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    # dyadic coefficients keep the differences exact in floating point
    img = 0.5 * yy + 0.25 * xx + 0.25
    op = second_gradient_op(h, w)
    out = op.apply(img.ravel()).reshape(4, h, w)
    # replicate boundary bends the last two rows/columns; the interior
    # second differences of an affine image are exactly zero
    assert np.all(out[:, :h - 2, :w - 2] == 0.0)


def test_second_gradient_delta_stencil():
    # delta at pixel (1, 1) of a 3x3 grid, evaluated by hand: forward
    # differencing twice anchors the (1, -2, 1) response at rows p-2..p
    # (the leading +1 falls off the grid) and the mixed channels carry the
    # (+1, -1; -1, +1) block
    op = second_gradient_op(3, 3)
    img = np.zeros((3, 3))
    img[1, 1] = 1.0
    out = op.apply(img.ravel()).reshape(4, 3, 3)
    xx_expected = np.array([[0.0, -2.0, 0.0],
                            [0.0, 1.0, 0.0],
                            [0.0, 0.0, 0.0]])
    cross_expected = np.array([[1.0, -1.0, 0.0],
                               [-1.0, 1.0, 0.0],
                               [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(out[0], xx_expected, atol=0)
    np.testing.assert_allclose(out[1], cross_expected, atol=0)
    np.testing.assert_allclose(out[2], cross_expected, atol=0)
    np.testing.assert_allclose(out[3], xx_expected.T, atol=0)


def test_second_gradient_adjoint():
    op = second_gradient_op(5, 6)
    assert adjoint_check(op, trials=100, seed=1) <= 1e-12


def test_haar_roundtrip_and_norm():
    op = haar_analysis_op(6, 4)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(24)
        np.testing.assert_allclose(op.adjoint_apply(op.apply(x)), x,
                                   atol=1e-12)
    # constant image has detail coefficients exactly zero
    coeffs = op.apply(np.full(24, 2.0)).reshape(4, -1)
    assert np.all(coeffs[1:] == 0.0)
    est = operator_norm(op)
    assert abs(est.value - 1.0) <= 1e-8


def test_haar_rejects_odd_dimensions():
    with pytest.raises(ConfigurationError):
        haar_analysis_op(3, 4)


def test_blur_ops_average_and_adjoint():
    op = box_blur_op(4, 4, 3)
    # averaging preserves constants under the replicate boundary
    np.testing.assert_allclose(op.apply(np.ones(16)), np.ones(16), atol=1e-12)
    assert adjoint_check(op, trials=100, seed=3) <= 1e-12
    gauss = gaussian_blur_op(4, 4, sigma=0.8, radius=1)
    np.testing.assert_allclose(gauss.apply(np.ones(16)), np.ones(16),
                               atol=1e-12)


def constant_truth(size, value=0.4):
    return ImageGrid(size, size, np.full(size * size, value))


def test_app1_constant_truth_recovered_exactly():
    # strong first/second-order regularizers and a vanishing analysis term:
    # a constant image is in the kernel of both derivative operators and
    # fits the identity observation exactly
    size = 8
    truth = constant_truth(size)
    from monosplit.linops import identity_op

    obs = make_observations(truth, [identity_op(size * size)], [1.0], 0.0)
    ms = build_app1_instance(truth, obs, alpha=5.0, beta=5.0, gamma=1e-6)
    system = build_system(ms)
    assert validate(system) == []
    policy = make_policy(compute_beta(system))
    final, _, status = solve(system, IterateState.zeros(system.layout),
                             policy, tol=1e-9, max_iter=20000)
    assert status == "converged"
    assert np.max(np.abs(final.x1[0] - truth.pixels)) <= 1e-4


def test_app1_dominant_analysis_term_matches_closed_form():
    # with negligible derivative terms the model reduces to
    # min 0.5||x - r||^2 + gamma ||Wx||_1 whose solution for orthonormal W
    # is W* soft(W r, gamma); the box is made inactive
    size = 8
    rng = np.random.default_rng(4)
    truth = ImageGrid(size, size,
                      np.clip(0.5 + 0.1 * rng.standard_normal(size * size),
                              0.2, 0.8))
    from monosplit.linops import identity_op

    obs = make_observations(truth, [identity_op(size * size)], [1.0], 0.0)
    gamma = 0.05
    ms = build_app1_instance(truth, obs, alpha=1e-6, beta=1e-6, gamma=gamma,
                             box=(-10.0, 10.0))
    system = build_system(ms)
    policy = make_policy(compute_beta(system))
    final, _, _ = solve(system, IterateState.zeros(system.layout),
                        policy, tol=1e-7, max_iter=15000)
    haar = haar_analysis_op(size, size)
    r = obs.observations[0]
    closed = haar.adjoint_apply(soft_threshold(haar.apply(r), gamma))
    assert np.max(np.abs(final.x1[0] - closed)) <= 1e-4


def test_app1_mapping_structure():
    # the composite recovery model maps onto the two-block layout with the
    # gradient/second-gradient pair on the first block and the analysis
    # operator with a plain l1 on the second
    size = 6
    truth = constant_truth(size)
    hw = size * size
    from monosplit.linops import identity_op

    obs = make_observations(truth, [identity_op(hw)], [2.0], 0.0)
    ms = build_app1_instance(truth, obs, alpha=0.3, beta=0.4, gamma=0.2,
                             box=(0.1, 0.9))
    layout = ms.layout
    assert layout.m == 1 and layout.s == 2
    assert layout.g_dims == (hw, hw)
    assert layout.y_dims == (2 * hw, hw)
    assert layout.x_dims == (4 * hw, hw)
    assert ms.f[0].tag == "indicator_box"
    assert ms.g[0].tag == "group_l12" and ms.ell[0].tag == "group_l12"
    assert ms.g[1].tag == "l1" and ms.ell[1].tag == "indicator_zero"
    # weights enter the function values
    y = np.zeros(2 * hw)
    y[0], y[hw] = 3.0, 4.0
    assert ms.g[0].value(y) == pytest.approx(0.3 * 5.0)
    e1 = np.zeros(hw)
    e1[0] = 1.0
    assert ms.g[1].value(e1) == pytest.approx(0.2)
    # operator wiring: M1 = gradient, N1 = second gradient, M2 = Haar
    # (orthonormal), N2 = L11 = L21 = identity
    np.testing.assert_allclose(
        ms.M[0].apply(truth.pixels), gradient_op(size, size).apply(truth.pixels),
        atol=0)
    np.testing.assert_allclose(
        ms.N[0].apply(truth.pixels),
        second_gradient_op(size, size).apply(truth.pixels), atol=0)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(hw)
    np.testing.assert_allclose(
        ms.M[1].apply(x), haar_analysis_op(size, size).apply(x), atol=0)
    for op in (ms.N[1], ms.L[0][0], ms.L[1][0]):
        np.testing.assert_allclose(op.apply(x), x, atol=0)
    # phi carries the weighted data term
    assert ms.phi.value(truth.pixels) == pytest.approx(0.0, abs=1e-20)
    assert ms.phi.value(np.zeros(hw)) == pytest.approx(
        0.5 * 2.0 * float(np.sum(obs.observations[0] ** 2)))
    assert all(np.all(z == 0.0) for z in ms.z)
    assert all(np.all(r == 0.0) for r in ms.r)


def test_group_l12_singleton_blocks_reduce_to_soft_threshold():
    from monosplit.prox import make_function

    op = make_function("group_l12", {"blocks": [[0], [1], [2]], "weight": 0.6},
                       3).operator
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.standard_normal(3)
        gamma = float(rng.uniform(0.1, 5.0))
        np.testing.assert_allclose(op.resolve(gamma, x),
                                   soft_threshold(x, gamma * 0.6), atol=1e-15)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    img = ImageGrid(5, 3, rng.uniform(0, 1, 15))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.height == 5 and back.width == 3
    assert np.max(np.abs(back.pixels - img.pixels)) <= 0.5 / 255 + 1e-12


@pytest.mark.parametrize("data, message", [
    (b"", "header ends early"),
    (b"P5\n5 3\n", "header ends early"),              # cut in the header
    (b"P5\n# a comment\n5", "header ends early"),
    (b"P5\n5 x\n255\n" + bytes(15), "height must be a positive integer"),
    (b"P5\n5 -3\n255\n" + bytes(15), "height must be a positive integer"),
    (b"P5\n0 3\n255\n", "width must be a positive integer"),
    (b"P5\n5 3\n255.0\n" + bytes(15), "maxval must be a positive integer"),
    (b"P5\n5 3\n255\n" + bytes(14), "holds 14 pixel bytes, expected 15"),
    (b"P5\n5 3\n255", "holds 0 pixel bytes, expected 15"),
])
def test_read_pgm_rejects_malformed_files(tmp_path, data, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(ConfigurationError, match=message):
        read_pgm(path)


def test_read_pgm_rejects_a_truncated_written_image(tmp_path):
    img = ImageGrid(4, 6, np.linspace(0, 1, 24))
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    whole = path.read_bytes()
    for cut in (3, 8, len(whole) - 24, len(whole) - 1):
        path.write_bytes(whole[:cut])
        with pytest.raises(ConfigurationError):
            read_pgm(path)


def stencil_matrix_by_loops(height, width, kernel):
    """The stencil matrix entry by entry, in kernel order: the oracle."""
    kernel = np.asarray(kernel, dtype=float)
    kh, kw = kernel.shape
    oh, ow = kh // 2, kw // 2
    hw = height * width
    mat = np.zeros((hw, hw))
    for i in range(height):
        for j in range(width):
            row = i * width + j
            for di in range(kh):
                for dj in range(kw):
                    src_i = min(max(i + di - oh, 0), height - 1)
                    src_j = min(max(j + dj - ow, 0), width - 1)
                    mat[row, src_i * width + src_j] += kernel[di, dj]
    return mat


def unfolded_gaussian(sigma, radius):
    ax = np.arange(-radius, radius + 1, dtype=float)
    g = np.exp(-0.5 * (ax / sigma) ** 2)
    kernel = np.outer(g, g)
    return kernel / kernel.sum()


def assert_matches_unfolded(op, height, width, kernel):
    """Bit for bit where the kernel fits the image; where the builder folds
    taps past the edge into the edge taps, only the order of the sums
    differs."""
    expected = stencil_matrix_by_loops(height, width, kernel)
    if len(kernel) // 2 < min(height, width):
        assert op.matrix.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(op.matrix, expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("height, width", [(1, 1), (3, 3), (6, 7), (16, 16)])
def test_stencil_matrix_matches_loop_oracle_bit_for_bit(height, width):
    for size in (1, 3, 5):
        op = box_blur_op(height, width, size)
        kernel = np.full((size, size), 1.0 / (size * size))
        assert_matches_unfolded(op, height, width, kernel)
    for radius in (0, 1, 2):
        op = gaussian_blur_op(height, width, sigma=0.8, radius=radius)
        assert_matches_unfolded(op, height, width,
                                unfolded_gaussian(0.8, radius))


def test_a_kernel_wider_than_the_image_is_folded_into_its_edge_taps():
    op = gaussian_blur_op(3, 3, sigma=2.0, radius=7)
    assert_matches_unfolded(op, 3, 3, unfolded_gaussian(2.0, 7))
    op = box_blur_op(3, 3, size=15)
    assert_matches_unfolded(op, 3, 3, np.full((15, 15), 1.0 / 225))


def test_a_huge_blur_radius_builds_in_image_time():
    # unfolded, a radius of 10**4 is 4 * 10**8 kernel taps; at 10**9 even
    # the 1-D taps would take 16 GB
    for radius in (10**4, 10**9):
        started = time.perf_counter()
        gauss = gaussian_blur_op(4, 4, sigma=1.0, radius=radius)
        box = box_blur_op(4, 4, size=2 * radius + 1)
        assert time.perf_counter() - started < 1.0
        # past radius 38 every Gaussian tap underflows to 0
        np.testing.assert_allclose(
            gauss.matrix, gaussian_blur_op(4, 4, sigma=1.0, radius=50).matrix,
            rtol=1e-15, atol=0)
        np.testing.assert_allclose(box.matrix.sum(axis=1), 1.0, rtol=1e-12)


def test_a_wide_gaussian_builds_in_bounded_memory():
    # the taps past the image edge are summed in chunks: unchunked, sigma =
    # 10**5 held 2 * 39 * 10**5 taps, 178.5 MB at the peak
    tracemalloc.start()
    try:
        gaussian_blur_op(4, 4, sigma=1e5, radius=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def chunked_gaussian_taps(n, sigma, radius):
    """The folded 1-D taps with every tail summed chunk by chunk."""
    reach = radius if not 39.0 * sigma < radius else int(np.ceil(39.0 * sigma))

    def gauss(lo, hi):
        return np.exp(-0.5 * (np.arange(lo, hi, dtype=float) / sigma) ** 2)

    def tail(lo, hi):
        return sum(gauss(start, min(start + imaging._TAIL_CHUNK, hi)).sum()
                   for start in range(lo, hi, imaging._TAIL_CHUNK))

    fit = min(reach, n - 1)
    g = gauss(-fit, fit + 1)
    if fit < reach:
        g[0] += tail(-reach, -fit)
        g[-1] += tail(fit + 1, reach + 1)
    return np.pad(g, min(radius, n - 1) - fit)


@pytest.mark.parametrize("height, width, sigma, radius", [
    (4, 4, 1e300, 10), (3, 5, 1e300, 3 * 10**5), (4, 4, 1e14, 10**5),
    (4, 4, 1e8, 10**5), (2, 6, 1.0, 10**5),
], ids=["all-ones", "all-ones-wide", "ones-at-the-reach", "falling",
        "underflowing"])
def test_a_tail_of_ones_is_its_count_bit_for_bit(height, width, sigma,
                                                  radius):
    kernel = np.outer(chunked_gaussian_taps(height, sigma, radius),
                      chunked_gaussian_taps(width, sigma, radius))
    kernel /= kernel.sum()
    expected = imaging._stencil_matrix(height, width, kernel)
    op = gaussian_blur_op(height, width, sigma=sigma, radius=radius)
    assert op.matrix.tobytes() == expected.tobytes()


def test_a_tail_of_ones_builds_at_once_at_any_radius():
    # summed tap by tap, radius 10**8 took 5.1 s
    started = time.perf_counter()
    op = gaussian_blur_op(4, 4, sigma=1e300, radius=10**9)
    assert time.perf_counter() - started < 1.0
    np.testing.assert_allclose(op.matrix.sum(axis=1), 1.0, rtol=1e-12)


@pytest.mark.parametrize("builder", [box_blur_op, gaussian_blur_op])
def test_blurs_reject_empty_grids(builder):
    with pytest.raises(ConfigurationError, match="height, width >= 1"):
        builder(-2, -2)


# ---------------------------------------------------------------------------
# The gather kernels against the straightforward evaluation, byte for byte


def grad_fwd_oracle(img):
    """Forward differences over the last two axes, from a zero array."""
    out = np.zeros(img.shape[:-2] + (2,) + img.shape[-2:])
    np.subtract(img[..., 1:, :], img[..., :-1, :], out=out[..., 0, :-1, :])
    np.subtract(img[..., :, 1:], img[..., :, :-1], out=out[..., 1, :, :-1])
    return out


def grad_adj_oracle(grad):
    """Negative divergence: from 0.0, +v[i-1], -v[i], +h[j-1], -h[j]."""
    vert, horz = grad[..., 0, :, :], grad[..., 1, :, :]
    out = np.zeros(vert.shape)
    out[..., 1:, :] += vert[..., :-1, :]
    out[..., :-1, :] -= vert[..., :-1, :]
    out[..., :, 1:] += horz[..., :, :-1]
    out[..., :, :-1] -= horz[..., :, :-1]
    return out


def haar_butterfly_oracle(a, b, c, d):
    """``[a+b+c+d, a-b+c-d, a+b-c-d, a-b-c+d] / 2`` as twelve ops on single
    rows, from the shared a+b and a-b: the kernel's former evaluation."""
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


def oracle_maps(name, h, w):
    """(apply, adjoint) of the straightforward kernels on flat vectors."""
    if name == "grad":
        return (lambda x: grad_fwd_oracle(x.reshape(h, w)).ravel(),
                lambda y: grad_adj_oracle(y.reshape(2, h, w)).ravel())
    if name == "grad2":
        return (lambda x: grad_fwd_oracle(grad_fwd_oracle(x.reshape(h, w))
                                          ).ravel(),
                lambda y: grad_adj_oracle(grad_adj_oracle(
                    y.reshape(2, 2, h, w))).ravel())

    def haar(x):
        quads = x.reshape(h // 2, 2, w // 2, 2).transpose(1, 3, 0, 2)
        return haar_butterfly_oracle(*quads.reshape(4, -1)).ravel()

    def haar_adjoint(y):
        out = haar_butterfly_oracle(*y.reshape(4, -1))
        return out.reshape(2, 2, h // 2, w // 2).transpose(2, 0, 3, 1).ravel()

    return haar, haar_adjoint


BUILDERS = {"grad": gradient_op, "grad2": second_gradient_op,
            "haar": haar_analysis_op}
KERNEL_CASES = [("grad", 2, 2), ("grad", 3, 3), ("grad", 5, 6),
                ("grad", 7, 3), ("grad", 6, 4), ("grad", 16, 16),
                ("grad2", 3, 3), ("grad2", 5, 6), ("grad2", 7, 3),
                ("grad2", 6, 4), ("grad2", 16, 16),
                ("haar", 2, 2), ("haar", 6, 4), ("haar", 16, 16)]


def signed_zero_inputs(rng, n, count):
    """Gaussian vectors and small-integer vectors, both with +0.0 and -0.0
    mixed in; the integers make differences and sums cancel exactly, so
    the sign of every zero result is exercised."""
    for k in range(count):
        if k % 2:
            x = rng.integers(-2, 3, n).astype(float)
        else:
            x = rng.standard_normal(n)
        u = rng.random(n)
        x[u < 0.2] = 0.0
        x[u > 0.8] = -0.0
        yield x


@pytest.mark.parametrize("name, h, w", KERNEL_CASES)
def test_kernels_match_straightforward_evaluation_bit_for_bit(name, h, w):
    op = BUILDERS[name](h, w)
    oracle, oracle_adjoint = oracle_maps(name, h, w)
    rng = np.random.default_rng(h * 100 + w)
    for x in signed_zero_inputs(rng, op.in_dim, 100):
        assert op.apply(x).tobytes() == oracle(x).tobytes()
    for y in signed_zero_inputs(rng, op.out_dim, 100):
        assert op.adjoint_apply(y).tobytes() == oracle_adjoint(y).tobytes()


@pytest.mark.parametrize("h, w", [(2, 2), (6, 4), (16, 16)])
def test_haar_matches_its_oracle_on_non_finite_inputs(h, w):
    op = haar_analysis_op(h, w)
    oracle, oracle_adjoint = oracle_maps("haar", h, w)
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                       1.0, -1.0, 2.5])
    rng = np.random.default_rng(h * w)
    with np.errstate(invalid="ignore"):
        for trial in range(50):
            x = rng.standard_normal(h * w)
            pick = rng.random(h * w) < (0.3 if trial % 2 else 1.0)
            x[pick] = rng.choice(values, pick.sum())
            assert op.apply(x).tobytes() == oracle(x).tobytes()
            assert op.adjoint_apply(x).tobytes() == \
                oracle_adjoint(x).tobytes()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_kernels_take_views_images_lists_and_ints(name):
    h, w = 6, 4
    op = BUILDERS[name](h, w)
    oracle, oracle_adjoint = oracle_maps(name, h, w)
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal(op.in_dim), rng.standard_normal(op.out_dim)
    strided = np.repeat(x, 2)[::2]
    assert not strided.flags.contiguous
    assert op.apply(strided).tobytes() == oracle(x).tobytes()
    assert op.apply(x.reshape(h, w)).tobytes() == oracle(x).tobytes()
    assert op.adjoint_apply(np.repeat(y, 2)[::2]).tobytes() == \
        oracle_adjoint(y).tobytes()
    ints = rng.integers(-3, 4, op.in_dim)
    for arg in (ints, ints.tolist()):
        out = op.apply(arg)
        assert out.dtype == np.float64
        assert out.tobytes() == oracle(ints.astype(float)).tobytes()
    out = op.adjoint_apply(rng.integers(-3, 4, op.out_dim).tolist())
    assert out.dtype == np.float64


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_kernels_reject_vectors_one_too_long_or_short(name):
    op = BUILDERS[name](4, 4)
    for fn, dim in ((op.apply, op.in_dim), (op.adjoint_apply, op.out_dim)):
        for n in (dim - 1, dim + 1):
            with pytest.raises(ValueError):
                fn(np.ones(n))


@pytest.mark.parametrize("name", ["grad", "grad2"])
def test_inf_at_a_boundary_pixel_stays_non_finite(name):
    # on the last row the difference is x - x: inf - inf is NaN where the
    # zero-started evaluation left 0, and the inner differences are inf
    h, w = 5, 4
    op = BUILDERS[name](h, w)
    for pixel in (0, w - 1, h * w - w, h * w - 1):
        x = np.ones(h * w)
        x[pixel] = np.inf
        with np.errstate(invalid="ignore"):
            assert not np.all(np.isfinite(op.apply(x)))


def test_solve_from_inf_boundary_pixel_raises_at_first_iteration():
    demo = deblur_demo(size=16, seed=2024)
    policy = make_policy(compute_beta(demo.system))
    init = demo.extras["init"].copy()
    init.x1[0][255] = np.inf
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="p11, block 0") as info:
        solve(demo.system, init, policy, max_iter=50)
    assert info.value.iteration == 0


def plan_arrays(op):
    """The arrays the operator's apply and adjoint hold between calls."""
    found = {}
    for fn in (op.apply, op.adjoint_apply):
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                found[id(value)] = value
    return list(found.values())


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_plans_are_read_only_and_bounded(name):
    op = BUILDERS[name](64, 64)
    plans = plan_arrays(op)
    assert plans
    assert all(not a.flags.writeable for a in plans)
    # at most eight float64 outputs' worth of index and sign data
    assert sum(a.nbytes for a in plans) <= 8 * op.out_dim * 8
    with pytest.raises(ValueError):
        plans[0][0] = 0


def test_gradients_of_one_size_share_their_difference_plans():
    grad_plans = plan_arrays(gradient_op(12, 9))
    grad2_plans = plan_arrays(second_gradient_op(12, 9))
    assert all(any(np.shares_memory(a, b) for b in grad2_plans)
               for a in grad_plans)
    assert not any(np.shares_memory(a, b) for a in grad_plans
                   for b in plan_arrays(gradient_op(9, 12)))
    cache = imaging._difference_plans
    for size in range(3, 10):
        second_gradient_op(size, size + 1)
    info = cache.cache_info()
    assert info.maxsize == 4
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_shared_operator_gives_serial_bytes_across_threads(name):
    op = BUILDERS[name](16, 16)
    rng = np.random.default_rng(21)
    inputs = [(rng.standard_normal(op.in_dim), rng.standard_normal(op.out_dim))
              for _ in range(16)]

    def run(pairs):
        return [(op.apply(x).tobytes(), op.adjoint_apply(y).tobytes())
                for _ in range(20) for x, y in pairs]

    expected = run(inputs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, inputs) for _ in range(4)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected for result in results)
