import dataclasses

import numpy as np
import pytest

from monosplit.demos import lasso_demo, qp_demo
from monosplit.errors import NotComputableError, SpecificationError
from monosplit.imaging import haar_analysis_op
from monosplit.linops import LinOp, dense_op, identity_op
from monosplit.minimization import (
    MinimizationSpec,
    build_system,
    dual_surrogate,
    primal_surrogate,
    quadratic_smooth,
    smooth_coupling,
    zero_smooth,
)
from monosplit.oracles import grid_refine_minimize
from monosplit.prox import make_function
from monosplit.solver import IterateState, make_policy, solve
from monosplit.system import SpaceLayout, compute_beta

FD_STEP = 1e-5  # relative central-difference step for gradient spot checks


def smooth_gradient_defect(phi, trials=10, seed=2):
    """Largest relative central-difference defect of the gradient."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(phi.dim)
        grad = np.asarray(phi.gradient(x))
        fd = np.zeros(phi.dim)
        for j in range(phi.dim):
            h = FD_STEP * (1.0 + abs(x[j]))
            e = np.zeros(phi.dim)
            e[j] = h
            fd[j] = (phi.value(x + e) - phi.value(x - e)) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(fd - grad))
                    / (1.0 + float(np.linalg.norm(grad))))
    return worst


def all_zero_instance(n=2):
    """f = phi = 0, and the k-slot of the one-block demos (g = 0, ell = the
    indicator of 0, M = N = L = Id), which makes the composite term vanish."""
    return MinimizationSpec(
        layout=SpaceLayout((n,), (n,), (n,), (n,)),
        f=[make_function("zero_function", {}, n)],
        phi=zero_smooth(n),
        g=[make_function("zero_function", {}, n)],
        ell=[make_function("indicator_zero", {}, n)],
        M=[identity_op(n)], N=[identity_op(n)], L=[[identity_op(n)]],
        z=[np.zeros(n)], r=[np.zeros(n)],
    )


def one_dim_box_instance():
    """f = indicator of [0,1], phi = 0, g = |.|, ell = indicator of 0."""
    layout = SpaceLayout((1,), (1,), (1,), (1,))
    return MinimizationSpec(
        layout=layout,
        f=[make_function("indicator_box", {"lo": 0.0, "hi": 1.0}, 1)],
        phi=zero_smooth(1),
        g=[make_function("l1", {"weight": 1.0}, 1)],
        ell=[make_function("indicator_zero", {}, 1)],
        M=[identity_op(1)], N=[identity_op(1)], L=[[identity_op(1)]],
        z=[np.zeros(1)], r=[np.zeros(1)],
    )


def test_build_system_lasso_reproduces_oracle():
    demo = lasso_demo()
    system = build_system(demo.min_spec)
    policy = make_policy(compute_beta(system))
    final, _, status = solve(system, IterateState.zeros(system.layout),
                             policy, tol=1e-8, max_iter=20000)
    assert status == "converged"
    assert np.max(np.abs(final.x1[0] - demo.oracle_solution)) <= 1e-6


def test_all_zero_instance_fixed_immediately():
    system = build_system(all_zero_instance())
    policy = make_policy(compute_beta(system))
    init = IterateState.zeros(system.layout)
    init.x1 = [np.array([0.3, -0.7])]
    init.x2 = [init.x1[0].copy()]
    final, trace, status = solve(system, init, policy, tol=1e-12, max_iter=10)
    assert status == "converged"
    assert final.n == 1
    np.testing.assert_array_equal(final.x1[0], init.x1[0])


def test_primal_surrogate_zero_instance():
    ms = all_zero_instance()
    assert primal_surrogate(ms, [np.zeros(2)], [np.zeros(2)]) == 0.0


def test_primal_surrogate_lasso_collapses_to_objective():
    demo = lasso_demo()
    ms = demo.min_spec
    rng = np.random.default_rng(0)
    T = demo.extras["design"]
    b = demo.extras["observation"]
    w = demo.extras["weight"]
    for _ in range(5):
        x = rng.standard_normal(10)
        # split at y = x makes the vanishing tail exact: ell(N(x - y)) = 0
        val = primal_surrogate(ms, [x], [x])
        direct = w * np.sum(np.abs(x)) + 0.5 * np.sum((T @ x - b) ** 2)
        assert val == pytest.approx(direct, rel=1e-12)


def test_primal_surrogate_matches_grid_oracle_on_tiny_instance():
    # 1 variable, 1 block: true objective from a nested scan over (x, y)
    ms = one_dim_box_instance()

    def true_objective(x):
        # (ind0 o Id) inf-conv (|.| o Id) evaluated exactly: |x|
        return abs(float(x)) if 0.0 <= x <= 1.0 else np.inf

    # compare min over the split variable with the exact value
    for x in (0.0, 0.3, 0.9):
        argmin, val = grid_refine_minimize(
            lambda y: primal_surrogate(ms, [np.array([x])], [y]),
            lo=[-2.0], hi=[2.0], levels=6)
        assert val == pytest.approx(true_objective(x), abs=1e-4)

    # joint 2-D scan over (x, split) reaches the true minimum as well
    _, joint_val = grid_refine_minimize(
        lambda p: primal_surrogate(ms, [p[:1]], [p[1:]]),
        lo=[-2.0, -2.0], hi=[2.0, 2.0], levels=6)
    assert joint_val == pytest.approx(0.0, abs=1e-4)


def test_dual_surrogate_zero_points():
    ms = all_zero_instance()
    val = dual_surrogate(ms, [np.zeros(2)], [np.zeros(2)])
    assert val == 0.0

    ms1 = one_dim_box_instance()
    val = dual_surrogate(ms1, [np.zeros(1)], [np.zeros(1)])
    assert val == 0.0


def test_weak_duality_along_lasso_run():
    demo = lasso_demo()
    ms = demo.min_spec
    system = demo.system
    policy = make_policy(compute_beta(system))
    state = IterateState.zeros(system.layout)
    from monosplit.solver import step

    for it in range(300):
        state, _ = step(system, state, policy.gamma_at(it))
        if it % 25 == 0 or it == 299:
            x = [state.x1[0]]
            y = [state.x2[0]]
            v = [system.N[0].adjoint_apply(state.v1[0])]
            w = [ms.phi.gradient(state.x1[0])]
            p = primal_surrogate(ms, x, y)
            d = dual_surrogate(ms, v, w)
            if np.isfinite(p) and np.isfinite(d):
                assert p >= d - 1e-9


@pytest.mark.parametrize("demo_fn", [lasso_demo, qp_demo])
def test_gap_closes_at_converged_solution(demo_fn):
    demo = demo_fn()
    ms = demo.min_spec
    system = demo.system
    policy = make_policy(compute_beta(system))
    final, _, status = solve(system, IterateState.zeros(system.layout),
                             policy, tol=1e-10, max_iter=100000)
    assert status == "converged"
    x = [final.x1[0]]
    y = [final.x2[0]]
    v = [system.N[0].adjoint_apply(final.v1[0])]
    w = [ms.phi.gradient(final.x1[0])]
    p = primal_surrogate(ms, x, y)
    d = dual_surrogate(ms, v, w)
    assert np.isfinite(p) and np.isfinite(d)
    assert abs(p - d) <= 1e-5
    assert p >= d - 1e-9


def test_dual_surrogate_not_computable_for_general_map():
    rng = np.random.default_rng(1)
    n = 2
    layout = SpaceLayout((n,), (n,), (n,), (n,))
    ms = MinimizationSpec(
        layout=layout,
        f=[make_function("l1", {"weight": 1.0}, n)],
        phi=zero_smooth(n),
        g=[make_function("l1", {"weight": 1.0}, n)],
        ell=[make_function("indicator_zero", {}, n)],
        M=[dense_op(rng.standard_normal((n, n)))],
        N=[identity_op(n)], L=[[identity_op(n)]],
        z=[np.zeros(n)], r=[np.zeros(n)],
    )
    with pytest.raises(NotComputableError):
        dual_surrogate(ms, [np.zeros(n)], [np.zeros(n)])


def test_dual_surrogate_orthogonal_composition():
    # (g o Q)* = g* o Q for orthogonal Q: finite exactly on the pulled-back
    # dual ball
    haar = haar_analysis_op(2, 2)
    layout = SpaceLayout((4,), (4,), (4,), (4,))
    ms = MinimizationSpec(
        layout=layout,
        f=[make_function("l1", {"weight": 5.0}, 4)],  # wide dual box
        phi=zero_smooth(4),
        g=[make_function("l1", {"weight": 1.0}, 4)],
        ell=[make_function("indicator_zero", {}, 4)],
        M=[haar], N=[identity_op(4)], L=[[identity_op(4)]],
        z=[np.zeros(4)], r=[np.zeros(4)],
    )
    inside = np.asarray(haar.adjoint_apply(np.array([0.5, -0.5, 0.2, 0.0])))
    outside = np.asarray(haar.adjoint_apply(np.array([2.0, 0.0, 0.0, 0.0])))
    assert np.isfinite(dual_surrogate(ms, [inside], [np.zeros(4)]))
    assert dual_surrogate(ms, [outside], [np.zeros(4)]) == -np.inf


def composed_l1_instance(M):
    """g = |.| composed with M, on dims of 4, with a wide dual box for f."""
    layout = SpaceLayout((4,), (4,), (4,), (4,))
    return MinimizationSpec(
        layout=layout,
        f=[make_function("l1", {"weight": 5.0}, 4)],
        phi=zero_smooth(4),
        g=[make_function("l1", {"weight": 1.0}, 4)],
        ell=[make_function("indicator_zero", {}, 4)],
        M=[M], N=[identity_op(4)], L=[[identity_op(4)]],
        z=[np.zeros(4)], r=[np.zeros(4)],
    )


def test_dual_surrogate_dense_orthogonal_matrix():
    # a square dense map is tested on its matrix: Q from a QR is orthogonal
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
    ms = composed_l1_instance(dense_op(q))
    inside = q.T @ np.array([0.5, -0.5, 0.2, 0.0])
    outside = q.T @ np.array([2.0, 0.0, 0.0, 0.0])
    assert np.isfinite(dual_surrogate(ms, [inside], [np.zeros(4)]))
    assert dual_surrogate(ms, [outside], [np.zeros(4)]) == -np.inf


def test_dual_surrogate_not_computable_for_opaque_orthogonal_map():
    # an opaque map declares nothing, so its orthogonality is not assumed
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
    opaque = LinOp(4, 4, lambda x: q @ x, lambda y: q.T @ y, tag="opaque")
    assert opaque.kind == "general"
    with pytest.raises(NotComputableError, match="opaque"):
        dual_surrogate(composed_l1_instance(opaque), [np.zeros(4)],
                       [np.zeros(4)])


def test_smooth_gradient_defect_quadratic():
    rng = np.random.default_rng(2)
    T = rng.standard_normal((4, 3))
    phi = quadratic_smooth(
        [{"matrix": T, "offset": rng.standard_normal(4), "weight": 1.5}], 3)
    assert smooth_gradient_defect(phi) <= 1e-6


def test_quadratic_smooth_lipschitz_upper_bounds_hessian():
    rng = np.random.default_rng(3)
    T = rng.standard_normal((5, 4))
    phi = quadratic_smooth([{"matrix": T, "offset": np.zeros(5),
                             "weight": 2.0}], 4)
    hess_norm = 2.0 * np.linalg.norm(T, 2) ** 2
    assert phi.lipschitz >= hess_norm - 1e-9


def quadratic_phi(dim=3, seed=4):
    rng = np.random.default_rng(seed)
    return quadratic_smooth([{"matrix": rng.standard_normal((4, dim)),
                              "offset": rng.standard_normal(4)}], dim)


def test_smooth_coupling_applies_the_gradient_as_given():
    phi = quadratic_phi()
    c = smooth_coupling(phi, (1, 2))
    assert c.apply is phi.gradient
    assert c.block_dims == (1, 2) and c.total_dim == 3
    assert c.nu0 == phi.lipschitz and c.nu0_source is phi.lipschitz_source


@pytest.mark.parametrize("dims", [(2,), (2, 2)])
def test_smooth_coupling_rejects_blocks_that_miss_the_dim(dims):
    with pytest.raises(SpecificationError, match=f"sum to {sum(dims)}"):
        smooth_coupling(quadratic_phi(), dims)


@pytest.mark.parametrize("dim", [3, 11])
def test_build_system_rejects_a_phi_that_misses_the_layout(dim):
    # lasso's one primal block has dim 10
    min_spec = dataclasses.replace(lasso_demo().min_spec,
                                   phi=quadratic_phi(dim))
    with pytest.raises(SpecificationError, match=f"has dim {dim}.*sum to 10"):
        build_system(min_spec)
