import numpy as np
import pytest

from monosplit.errors import InfeasibleError, OracleError
from monosplit.linops import dense_op, operator_norm
from monosplit.oracles import dense_svd_norm, grid_refine_minimize, kkt_quadratic_solve


def test_grid_quadratic_bowl():
    argmin, value = grid_refine_minimize(
        lambda x: float(np.sum((x - 0.3) ** 2)), lo=[-1.0], hi=[1.0], levels=6)
    assert abs(argmin[0] - 0.3) <= 1e-3
    assert value <= 1e-6


def test_grid_one_dim_lasso():
    # 0.5 (x-1)^2 + 0.4|x| has the soft-threshold solution 0.6
    argmin, _ = grid_refine_minimize(
        lambda x: 0.5 * (x[0] - 1.0) ** 2 + 0.4 * abs(x[0]),
        lo=[-2.0], hi=[2.0], levels=6)
    assert abs(argmin[0] - 0.6) <= 1e-3


def test_grid_respects_indicator():
    def objective(x):
        if not (0.0 <= x[0] <= 0.2):
            return np.inf
        return 0.5 * (x[0] - 1.0) ** 2

    argmin, _ = grid_refine_minimize(objective, lo=[-1.0], hi=[1.0], levels=6)
    assert abs(argmin[0] - 0.2) <= 1e-3


def test_grid_monotone_value_across_levels():
    values = []
    for levels in range(1, 7):
        _, v = grid_refine_minimize(
            lambda x: (x[0] - 0.123) ** 2 + abs(x[1]),
            lo=[-1.0, -1.0], hi=[1.0, 1.0], levels=levels)
        values.append(v)
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_grid_infeasible_everywhere():
    with pytest.raises(InfeasibleError):
        grid_refine_minimize(lambda x: np.inf, lo=[0.0], hi=[1.0], levels=2)


def test_kkt_unconstrained():
    x = kkt_quadratic_solve(np.eye(3), np.zeros(3))
    np.testing.assert_allclose(x, np.zeros(3), atol=0)


def test_kkt_line_projection():
    x = kkt_quadratic_solve(np.eye(2), np.zeros(2),
                            np.array([[1.0, 1.0]]), np.array([2.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)


def test_kkt_random_instance_residuals():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4))
    Q = g.T @ g + np.eye(4)
    c = rng.standard_normal(4)
    E = rng.standard_normal((2, 4))
    d = rng.standard_normal(2)
    x = kkt_quadratic_solve(Q, c, E, d)
    lam = np.linalg.lstsq(E.T, -(Q @ x + c), rcond=None)[0]
    assert np.linalg.norm(Q @ x + c + E.T @ lam) <= 1e-10
    assert np.linalg.norm(E @ x - d) <= 1e-10


def test_kkt_singular_raises():
    with pytest.raises(OracleError):
        kkt_quadratic_solve(np.zeros((2, 2)), np.ones(2))


def test_svd_norm_diagonal():
    assert dense_svd_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)


def test_svd_norm_rank_one():
    u = np.array([2.0, 0.0, 0.0])
    v = np.array([0.0, 5.0])
    assert dense_svd_norm(np.outer(u, v)) == pytest.approx(10.0, abs=1e-9)


def test_svd_norm_matches_the_lanczos_estimate():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((8, 5))
    ref = dense_svd_norm(mat)
    est = operator_norm(dense_op(mat))
    assert abs(ref - est.value) <= 1e-8


@pytest.mark.parametrize("n", (16, 64))
def test_svd_norm_matches_numpy_on_random_squares(n):
    # the seed-17 matrices of test_linops.norm_cases, drawn in its order;
    # the off-diagonal mass measured as a difference of two square sums
    # went negative here and warned in sqrt
    rng = np.random.default_rng(17)
    mats = {k: rng.standard_normal((k, k)) for k in (4, 16, 64)}
    want = np.linalg.norm(mats[n], 2)
    assert dense_svd_norm(mats[n]) == pytest.approx(want, rel=1e-12)
