import tracemalloc

import numpy as np
import pytest

from monosplit.errors import NumericError, SpecificationError
from monosplit.imaging import (
    GRAD_NORM_BOUND,
    box_blur_op,
    gaussian_blur_op,
    gradient_op,
    haar_analysis_op,
    second_gradient_op,
)
from monosplit.linops import (
    LANCZOS_BASIS,
    NORM_SAFETY,
    POWER_MAX_ITER,
    POWER_SEED,
    POWER_TOL,
    LinOp,
    adjoint_check,
    compose,
    dense_op,
    identity_op,
    OpNormEstimate,
    materialize,
    operator_norm,
    scaled_identity_op,
    zero_op,
)
from monosplit.oracles import dense_svd_norm


def test_adjoint_check_identity_is_exact():
    assert adjoint_check(identity_op(4), trials=10, seed=0) == 0.0


def test_adjoint_check_dense_transpose():
    mat = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 4.0]])
    assert adjoint_check(dense_op(mat), trials=50, seed=1) <= 1e-12


def test_adjoint_check_detects_wrong_adjoint():
    # hand check with basis vectors: perturbing one adjoint entry by 1
    # produces <Lx,y> - <x,L*y> = -1 at (x,y) = (e2, e1), defect ~ 1/(1+2)
    mat = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 4.0]])
    wrong = mat.T.copy()
    wrong[1, 0] += 1.0
    x = np.array([0.0, 1.0])
    y = np.array([1.0, 0.0, 0.0])
    lhs = float(mat @ x @ y)
    rhs = float(x @ (wrong @ y))
    assert abs(lhs - rhs) / (1.0 + abs(lhs)) > 1e-3

    op = LinOp(2, 3, lambda v: mat @ v, lambda u: wrong @ u)
    assert adjoint_check(op, trials=100, seed=2) > 1e-3


def test_adjoint_check_dimension_mismatch_is_specification_error():
    bad = LinOp(2, 3, lambda x: np.zeros(3), lambda y: np.zeros(5))
    with pytest.raises(SpecificationError):
        adjoint_check(bad, trials=1, seed=0)


def test_operator_norm_identity():
    est = operator_norm(identity_op(5))
    assert abs(est.value - 1.0) <= 1e-9
    assert est.converged
    assert abs(est.upper_bound - 1.01) <= 1e-8


def test_operator_norm_diagonal():
    est = operator_norm(dense_op(np.diag([3.0, 1.0, 0.5])))
    assert abs(est.value - 3.0) <= 1e-8


def test_operator_norm_matches_svd_oracle():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((6, 4))
    est = operator_norm(dense_op(mat))
    ref = dense_svd_norm(mat)
    assert abs(est.value - ref) <= 1e-8
    # lower/upper bracket of the true norm
    assert est.value <= ref + 1e-8
    assert est.upper_bound >= ref


def test_operator_norm_zero_operator():
    est = operator_norm(zero_op(4, 3))
    assert est.value == 0.0
    assert est.upper_bound == 0.0
    assert est.converged


def reference_operator_norm(op):
    """The power iteration with an element-wise finiteness check of every
    forward and adjoint value, as :func:`operator_norm` once ran it."""
    rng = np.random.default_rng(POWER_SEED)
    x = rng.standard_normal(op.in_dim)
    x /= np.linalg.norm(x)
    prev_rayleigh = None
    rayleigh = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, POWER_MAX_ITER + 1):
        y = np.asarray(op.apply(x))
        if not np.all(np.isfinite(y)):
            raise NumericError("operator_norm: non-finite forward value",
                               iteration=iterations)
        rayleigh = float(np.dot(y, y))
        if rayleigh == 0.0:
            x = rng.standard_normal(op.in_dim)
            x /= np.linalg.norm(x)
            y = np.asarray(op.apply(x))
            rayleigh = float(np.dot(y, y))
            if rayleigh == 0.0:
                return OpNormEstimate(0.0, 0.0, iterations, True)
        z = np.asarray(op.adjoint_apply(y))
        if not np.all(np.isfinite(z)):
            raise NumericError("operator_norm: non-finite adjoint value",
                               iteration=iterations)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return OpNormEstimate(0.0, 0.0, iterations, True)
        x = z / nz
        if prev_rayleigh is not None:
            if abs(rayleigh - prev_rayleigh) < POWER_TOL * max(rayleigh, 1e-300):
                converged = True
                break
        prev_rayleigh = rayleigh
    value = float(np.sqrt(rayleigh))
    return OpNormEstimate(value, NORM_SAFETY * value, iterations, converged)


def opaque(mat):
    return LinOp(mat.shape[1], mat.shape[0], lambda x: mat @ x,
                 lambda y: mat.T @ y, tag="opaque")


def norm_cases():
    rng = np.random.default_rng(17)
    cases = {f"dense{n}x{n}": dense_op(rng.standard_normal((n, n)))
             for n in (4, 16, 64, 256)}
    cases["dense9x16"] = dense_op(rng.standard_normal((9, 16)))
    cases["box16"] = box_blur_op(16, 16, 3)
    cases["gaussian16"] = gaussian_blur_op(16, 16, 1.0, 2)
    cases["opaque"] = opaque(rng.standard_normal((12, 7)))
    # y @ y overflows while y is finite: the iteration goes on, and stops
    # at the adjoint, which is infinite
    cases["overflow"] = opaque(np.full((3, 3), 1e200))
    return cases


def outcome(norm, op):
    try:
        with np.errstate(over="ignore"):
            return norm(op)
    except NumericError as exc:
        return str(exc), exc.iteration


@pytest.mark.parametrize("name", sorted(norm_cases()))
def test_operator_norm_matches_the_elementwise_checked_loop(name):
    # the estimate lies at most 1e-9 (relative) below the SVD norm, and
    # within the checked loop's own tolerance of that loop's estimate; a
    # failure is the same failure, at the same product
    op = norm_cases()[name]
    got, want = outcome(operator_norm, op), outcome(reference_operator_norm, op)
    if not isinstance(want, OpNormEstimate):
        assert got == want
        return
    svd = np.linalg.norm(materialize(op), 2)
    assert svd * (1 - 1e-9) <= got.value <= svd + 1e-12
    assert got.upper_bound == NORM_SAFETY * got.value
    assert got.converged and want.converged
    assert got.method == "lanczos"
    assert abs(got.value - want.value) <= 1e-7 * want.value


def test_operator_norm_restarts_when_the_basis_is_full():
    # 100 top values within 1e-2 of each other: no basis of
    # LANCZOS_BASIS vectors separates them, so the iteration restarts
    dim = 5000
    diagonal = np.concatenate([2.0 - 1e-4 * np.arange(100),
                               np.linspace(1.0, 0.0, dim - 100)])
    op = LinOp(dim, dim, lambda x: diagonal * x, lambda y: diagonal * y)
    tracemalloc.start()
    try:
        est = operator_norm(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.converged and est.iterations_used > LANCZOS_BASIS
    assert 2.0 * (1 - 1e-7) <= est.value <= 2.0 * (1 + 1e-12)
    # the Krylov basis is the one array of its size
    assert peak <= 1.25 * LANCZOS_BASIS * dim * 8


def test_operator_norm_whose_squares_overflow_did_not_converge():
    # every value is finite, but ||L* L x||^2 overflows: there is no
    # estimate to give
    big = scaled_identity_op(100, 1e153)
    opaque_big = LinOp(100, 100, big.apply, big.adjoint_apply)
    with np.errstate(over="ignore"):
        est = operator_norm(opaque_big)
    assert not est.converged and est.value == np.inf
    assert est.iterations_used == 1


def test_operator_norm_of_the_box_blur_takes_few_products():
    # a count, free of timing noise: power iteration took 274
    assert operator_norm(box_blur_op(16, 16, 3)).iterations_used <= 40


def failing_at(call, side):
    """An opaque 4x4 diagonal map whose ``side`` value holds a NaN (or an
    inf) from its ``call``-th evaluation on."""
    calls = {"apply": 0, "adjoint": 0}
    diagonal = np.array([2.0, 1.9, 1.0, 0.5])

    def evaluate(which, v):
        calls[which] += 1
        out = diagonal * v
        if which == side and calls[which] >= call:
            out[2] = np.nan if call % 2 else np.inf
        return out

    return LinOp(4, 4, lambda x: evaluate("apply", x),
                 lambda y: evaluate("adjoint", y))


@pytest.mark.parametrize("side, message", [
    ("apply", "non-finite forward value"),
    ("adjoint", "non-finite adjoint value"),
])
@pytest.mark.parametrize("call", [1, 2, 3])
def test_operator_norm_reports_a_nonfinite_value_as_before(side, message, call):
    with pytest.raises(NumericError, match=message) as err:
        operator_norm(failing_at(call, side))
    assert err.value.iteration == call
    assert outcome(operator_norm, failing_at(call, side)) == \
        outcome(reference_operator_norm, failing_at(call, side))


def test_compose_identity_acts_like_original():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((5, 5))
    a = dense_op(mat)
    comp = compose(identity_op(5), a)
    for _ in range(10):
        x = rng.standard_normal(5)
        np.testing.assert_allclose(comp.apply(x), a.apply(x), rtol=0, atol=0)


def test_compose_matches_dense_product_on_basis():
    b_mat = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])
    a_mat = np.array([[2.0, 1.0], [0.0, 1.0], [1.0, -1.0]])
    comp = compose(dense_op(b_mat), dense_op(a_mat))
    prod = b_mat @ a_mat
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1.0
        np.testing.assert_allclose(comp.apply(e), prod[:, j], atol=1e-14)


def test_compose_adjoint_is_adjoint():
    rng = np.random.default_rng(5)
    comp = compose(dense_op(rng.standard_normal((2, 3))),
                   dense_op(rng.standard_normal((3, 2))))
    assert adjoint_check(comp, trials=100, seed=6) <= 1e-12


def test_compose_dimension_mismatch():
    with pytest.raises(SpecificationError):
        compose(dense_op(np.eye(2)), dense_op(np.eye(3)))


def test_shipped_operators_pass_adjoint_battery():
    rng = np.random.default_rng(10)
    ops = [
        identity_op(6),
        scaled_identity_op(4, -2.5),
        zero_op(3, 5),
        dense_op(rng.standard_normal((4, 6))),
    ]
    for op in ops:
        assert adjoint_check(op, trials=100, seed=11) <= 1e-10


def test_materialize_roundtrip():
    rng = np.random.default_rng(12)
    mat = rng.standard_normal((3, 4))
    np.testing.assert_allclose(materialize(dense_op(mat)), mat, atol=0)


# --- certified norms ---------------------------------------------------------

GRIDS = ((3, 3), (6, 7), (16, 16))


def shipped_operators(h, w):
    """One instance of every constructor on an h x w grid (n = h*w)."""
    n = h * w
    rng = np.random.default_rng(n)
    ops = {
        "identity": identity_op(n),
        "scaled_identity": scaled_identity_op(n, -2.5),
        "zero": zero_op(n, 2 * n),
        "dense": dense_op(rng.standard_normal((n + 1, n))),
        "gradient": gradient_op(h, w),
        "second_gradient": second_gradient_op(h, w),
        "box_blur": box_blur_op(h, w, 3),
        "gaussian_blur": gaussian_blur_op(h, w, 1.0, 2),
    }
    # the Haar transform needs even sides: take the even grid inside h x w
    ops["haar"] = haar_analysis_op(h - h % 2 or 2, w - w % 2 or 2)
    return ops


def svd_norm_less_roundoff(mat):
    """The SVD norm of ``mat`` less the SVD's own roundoff.

    LAPACK's value is off by a few ulps times the order: it reads
    1 + 1.6e-15 for the 256x256 Haar matrix, which is orthonormal to the
    last bit.  A certificate must reach the norm, not that error.
    """
    eps = np.finfo(float).eps
    return np.linalg.norm(mat, 2) * (1.0 - 8.0 * max(mat.shape) * eps)


@pytest.mark.parametrize("h, w", GRIDS)
def test_every_constructor_bound_is_sound(h, w):
    for name, op in shipped_operators(h, w).items():
        exact = svd_norm_less_roundoff(materialize(op))
        bound = op.certificate().upper_bound
        assert bound >= exact, (name, bound, exact)


def test_haar_matrix_is_orthonormal_to_the_last_bit():
    for h, w in ((2, 2), (6, 8), (16, 16)):
        mat = materialize(haar_analysis_op(h, w))
        assert np.array_equal(mat @ mat.T, np.eye(h * w))


def test_closed_form_certificates():
    for op, bound in ((identity_op(3), 1.0),
                      (scaled_identity_op(3, -2.5), 2.5),
                      (zero_op(3, 4), 0.0),
                      (haar_analysis_op(4, 6), 1.0),
                      (gradient_op(5, 4), GRAD_NORM_BOUND),
                      (second_gradient_op(5, 4), GRAD_NORM_BOUND ** 2)):
        assert op.certificate().upper_bound == bound, op.tag
    for op in (identity_op(3), gradient_op(5, 4), zero_op(2, 2)):
        est = op.certificate()
        assert (est.method, est.iterations_used, est.converged) \
            == ("certificate", 0, True)


def test_dense_bound_is_svd_norm_plus_margin():
    rng = np.random.default_rng(21)
    mat = rng.standard_normal((7, 5))
    est = dense_op(mat).certificate()
    svd = np.linalg.norm(mat, 2)
    assert est.method == "svd" and est.value == svd
    # the margin lies past the SVD's own roundoff, and no further than
    # a few hundred ulps
    assert svd * (1 + 8 * np.finfo(float).eps) < est.upper_bound
    assert est.upper_bound <= svd * (1 + 1e-12)
    assert est.upper_bound >= dense_svd_norm(mat)


def test_dense_bound_is_computed_once_on_first_read(monkeypatch):
    calls = []
    real_norm = np.linalg.norm

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(x.shape)
        return real_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    op = dense_op(np.arange(6.0).reshape(2, 3))
    assert calls == []
    first = op.certificate().upper_bound
    assert op.certificate().upper_bound == first and calls == [(2, 3)]


def test_compose_with_identity_is_the_other_map():
    a = dense_op(np.arange(6.0).reshape(2, 3))
    assert compose(identity_op(2), a) is a
    assert compose(a, identity_op(3)) is a


@pytest.mark.parametrize("h, w", GRIDS)
def test_compose_bounds_are_sound(h, w):
    n = h * w
    rng = np.random.default_rng(n + 1)
    dense = dense_op(rng.standard_normal((n, n)))
    blur = box_blur_op(h, w, 3)
    cases = {
        # dense o dense: the SVD of the product, as tight as the SVD
        "dense o dense": (compose(dense, blur), "svd"),
        # otherwise the product of the two bounds
        "gradient o dense": (compose(gradient_op(h, w), dense), "svd"),
        "grad2 o scaled": (compose(second_gradient_op(h, w),
                                   scaled_identity_op(n, 0.5)),
                           "certificate"),
        "zero o gradient": (compose(zero_op(2 * n, 3), gradient_op(h, w)),
                            "certificate"),
    }
    for name, (op, method) in cases.items():
        est = op.certificate()
        exact = svd_norm_less_roundoff(materialize(op))
        assert est.method == method, name
        assert est.upper_bound >= exact, (name, est.upper_bound, exact)
    product = compose(dense, blur).certificate()
    assert product.upper_bound <= np.linalg.norm(
        dense.matrix @ blur.matrix, 2) * (1 + 1e-12)


def test_compose_with_opaque_map_is_opaque():
    mat = np.arange(6.0).reshape(2, 3)
    opaque = LinOp(3, 2, lambda x: mat @ x, lambda y: mat.T @ y)
    assert opaque.certificate is None
    assert compose(dense_op(np.eye(2)), opaque).certificate is None
    assert compose(opaque, dense_op(np.eye(3))).certificate is None


def test_constructors_declare_their_kind():
    assert identity_op(3).kind == "identity"
    assert haar_analysis_op(4, 6).kind == "orthogonal"
    assert scaled_identity_op(3, -1.0).kind == "orthogonal"
    assert scaled_identity_op(3, 1.0).kind == "orthogonal"
    assert scaled_identity_op(3, 0.5).kind == "general"
    assert dense_op(np.eye(3)).kind == "general"
    assert zero_op(3, 3).kind == "general"
    assert gradient_op(4, 4).kind == "general"


def test_compose_keeps_orthogonal_only_from_two_orthogonal_maps():
    haar = haar_analysis_op(2, 2)
    flip = scaled_identity_op(4, -1.0)
    assert compose(haar, flip).kind == "orthogonal"
    assert compose(flip, haar).kind == "orthogonal"
    assert compose(haar, scaled_identity_op(4, 2.0)).kind == "general"
    assert compose(dense_op(np.eye(4)), haar).kind == "general"
