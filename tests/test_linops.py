import numpy as np
import pytest

from monosplit.errors import SpecificationError
from monosplit.linops import (
    LinOp,
    adjoint_check,
    compose,
    dense_op,
    identity_op,
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
