import dataclasses

import numpy as np
import pytest

from monosplit.cli import _policy
from monosplit.demos import (deblur_demo, lasso_demo, lifted_solution_state,
                             qp_demo, separation_demo)
from monosplit.errors import (
    HypothesisError,
    SpecificationError,
    StepBoundError,
)
from monosplit.linops import (LinOp, dense_op, identity_op,
                              scaled_identity_op, zero_op)
from monosplit.prox import LipschitzCoupling, make_function, zero_coupling
from monosplit.solver import (BlockSteps, IterateState, _forward, make_policy,
                              solve, step)
from monosplit.system import (
    SpaceLayout,
    SystemSpec,
    compute_beta,
    extract_solution,
    fixed_point_residual,
    validate,
)
from test_acceptance import random_dense_system


def scalar_layout():
    return SpaceLayout((1,), (1,), (1,), (1,))


def zero_fn(dim):
    return make_function("zero_function", {}, dim)


def identity_system(nu0=0.0):
    """m = s = 1, L = M = N = Id on dim 1, trivial operators."""
    layout = scalar_layout()
    coupling = LipschitzCoupling((1,), lambda x: nu0 * x, nu0) if nu0 \
        else zero_coupling((1,))
    return SystemSpec(
        layout=layout,
        z=[np.zeros(1)], r=[np.zeros(1)],
        A=[zero_fn(1).operator], C=coupling,
        B=[zero_fn(1).operator], D=[zero_fn(1).operator],
        M=[identity_op(1)], N=[identity_op(1)],
        L=[[identity_op(1)]],
    )


def all_zero_system():
    layout = scalar_layout()
    return SystemSpec(
        layout=layout,
        z=[np.zeros(1)], r=[np.zeros(1)],
        A=[zero_fn(1).operator], C=zero_coupling((1,)),
        B=[zero_fn(1).operator], D=[zero_fn(1).operator],
        M=[zero_op(1, 1)], N=[zero_op(1, 1)],
        L=[[zero_op(1, 1)]],
    )


@pytest.mark.parametrize("dims", [(2.5,), (3.9,), (True,), (np.True_,)])
def test_layout_rejects_non_integral_dims(dims):
    with pytest.raises(SpecificationError, match="integers"):
        SpaceLayout(dims, (1,), (1,), (1,))
    with pytest.raises(SpecificationError, match="integers"):
        SpaceLayout((1,), (1,), (1,), dims)


def test_layout_accepts_integral_dims_of_any_type():
    layout = SpaceLayout((np.int64(2),), (3.0,), (np.uint8(1),), (1,))
    assert layout.h_dims == (2,) and layout.g_dims == (3,)
    assert all(type(d) is int for d in layout.h_dims + layout.g_dims
               + layout.y_dims + layout.x_dims)


def test_compute_beta_zero_system_is_hypothesis_error():
    with pytest.raises(HypothesisError):
        compute_beta(all_zero_system())


def test_compute_beta_identity_instance():
    beta = compute_beta(identity_system())
    exact = np.sqrt(1.0 + 2.0)
    assert exact - 1e-9 <= beta <= 1.01 * exact + 1e-9


def test_compute_beta_with_coupling_constant():
    beta = compute_beta(identity_system(nu0=2.0))
    exact = 2.0 + np.sqrt(3.0)
    assert exact - 1e-9 <= beta <= 2.0 + 1.01 * np.sqrt(3.0) + 1e-9


def test_compute_beta_rejects_a_power_estimate_that_did_not_converge():
    # an opaque map whose adjoint_apply is a rotation, not its adjoint:
    # "L* L" is then not symmetric, and the Rayleigh quotient ||L u||^2 of
    # the top Ritz vector never confirms the top Ritz value
    scale = np.diag([1.0, 2.0])
    turn = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    cycling = LinOp(2, 2, lambda x: scale @ x, lambda y: turn @ y)
    layout = SpaceLayout((2,), (2,), (2,), (2,))
    spec = SystemSpec(
        layout=layout, z=[np.zeros(2)], r=[np.zeros(2)],
        A=[zero_fn(2).operator], C=zero_coupling((2,)),
        B=[zero_fn(2).operator], D=[zero_fn(2).operator],
        M=[cycling], N=[identity_op(2)], L=[[identity_op(2)]],
    )
    with pytest.raises(HypothesisError, match="M\\[0\\].*did not converge"):
        compute_beta(spec)
    assert any("did not converge" in v for v in validate(spec))


def test_beta_report_names_each_term_and_its_source():
    spec = lasso_demo().system
    report = spec.beta_report
    assert [e["term"] for e in report] == ["C", "N[0]oL[0][0]", "N[0]",
                                           "M[0]"]
    # the identity maps are certified; the data term's Lipschitz constant
    # is a converged Lanczos estimate
    assert [e["method"] for e in report] == ["lanczos", "certificate",
                                             "certificate", "certificate"]
    assert report[0]["iterations"] > 0 and report[0]["value"] == spec.C.nu0
    assert all(e["converged"] for e in report)
    assert [e["iterations"] for e in report[1:]] == [0, 0, 0]
    assert compute_beta(spec) == spec.C.nu0 + np.sqrt(1.0 + (1.0 + 1.0))


def test_beta_report_of_an_opaque_map_is_a_lanczos_estimate():
    mat = np.array([[2.0, 0.0], [0.0, 0.5]])
    opaque = LinOp(2, 2, lambda x: mat @ x, lambda y: mat.T @ y)
    layout = SpaceLayout((2,), (2,), (2,), (2,))
    spec = SystemSpec(
        layout=layout, z=[np.zeros(2)], r=[np.zeros(2)],
        A=[zero_fn(2).operator], C=LipschitzCoupling((2,), lambda x: x, 1.0),
        B=[zero_fn(2).operator], D=[zero_fn(2).operator],
        M=[opaque], N=[identity_op(2)], L=[[identity_op(2)]],
    )
    by_term = {e["term"]: e for e in spec.beta_report}
    assert by_term["C"]["method"] == "asserted"
    assert by_term["M[0]"]["method"] == "lanczos"
    assert by_term["M[0]"]["converged"] and by_term["M[0]"]["iterations"] > 0
    assert 2.0 <= by_term["M[0]"]["value"] <= 2.0 * 1.01 + 1e-9


def test_validate_lasso_demo_clean():
    assert validate(lasso_demo().system) == []


def test_validate_flags_transposed_coupling_block():
    demo = lasso_demo()
    spec = demo.system
    with pytest.raises(SpecificationError, match=r"L\[0\]\[0\]"):
        SystemSpec(
            layout=spec.layout, z=spec.z, r=spec.r, A=spec.A, C=spec.C,
            B=spec.B, D=spec.D, M=spec.M, N=spec.N,
            L=[[dense_op(np.zeros((3, spec.layout.g_dims[0])))]],
        )


def two_by_one(**changes):
    """The families of an m = 2, s = 1 system on H = (2, 3), G = 4, Y = 5,
    X = 6, with ``changes`` in place of the named ones."""
    families = dict(
        layout=SpaceLayout((2, 3), (4,), (5,), (6,)),
        z=[np.zeros(2), np.zeros(3)], r=[np.zeros(4)],
        A=[zero_fn(2).operator, zero_fn(3).operator],
        C=zero_coupling((2, 3)),
        B=[zero_fn(5).operator], D=[zero_fn(6).operator],
        M=[zero_op(4, 5)], N=[zero_op(4, 6)],
        L=[[zero_op(2, 4), zero_op(3, 4)]],
    )
    families.update(changes)
    return families


@pytest.mark.parametrize("changes, message", [
    (dict(A=[zero_fn(2).operator]), "A: expected 2 entries, got 1"),
    (dict(z=[np.zeros(2)]), "z: expected 2 entries, got 1"),
    (dict(L=[[zero_op(2, 4)]]), "L[0]: expected 2 entries, got 1"),
    (dict(B=[zero_fn(5).operator] * 2), "B: expected 1 entries, got 2"),
    (dict(D=[zero_fn(5).operator]), "D[0]: expected 6, got 5"),
    (dict(r=[np.zeros(3)]), "r[0]: expected (4,), got (3,)"),
    (dict(M=[zero_op(5, 4)]), "M[0]: expected (4, 5), got (5, 4)"),
    (dict(L=[[zero_op(2, 4), zero_op(4, 3)]]),
     "L[0][1]: expected (3, 4), got (4, 3)"),
    (dict(C=zero_coupling((5,))), "C: expected block dims (2, 3), got (5,)"),
    (dict(A=[identity_op(2), zero_fn(3).operator]),
     "A[0]: a LinOp has no dim"),
    (dict(M=[zero_fn(4).operator]),
     "M[0]: a ResolventOp has no in_dim/out_dim"),
    (dict(C=identity_op(5)), "C: a LinOp has no block_dims"),
], ids=["A-short", "z-short", "L-row-short", "B-long", "D-dim", "r-length",
        "M-dims", "L01-dims", "C-block-dims", "A-a-linop", "M-a-resolvent",
        "C-a-linop"])
def test_a_system_that_misses_its_layout_is_not_built(changes, message):
    SystemSpec(**two_by_one())
    with pytest.raises(SpecificationError) as err:
        SystemSpec(**two_by_one(**changes))
    assert message in str(err.value)


def test_one_error_lists_every_misfit():
    with pytest.raises(SpecificationError) as err:
        SystemSpec(**two_by_one(A=[zero_fn(2).operator],
                                D=[zero_fn(5).operator]))
    assert "A: expected 2 entries, got 1" in str(err.value)
    assert "D[0]: expected 6, got 5" in str(err.value)


def test_a_built_system_cannot_go_stale():
    demo = lasso_demo().system
    z = [np.ones(d) for d in demo.layout.h_dims]
    r = [np.ones(d) for d in demo.layout.g_dims]
    spec = dataclasses.replace(demo, z=z, r=r)
    spec.plan, spec.beta_report  # fill the caches a change would leave stale
    with pytest.raises(TypeError):
        spec.A[0] = zero_fn(spec.layout.h_dims[0]).operator
    with pytest.raises(TypeError):
        spec.N[0] = dense_op(2.0 * np.eye(spec.layout.g_dims[0]))
    with pytest.raises(ValueError):
        spec.z[0][0] = 1.0
    for mine, held in zip(z + r, spec.z + spec.r):
        assert mine.flags.writeable
        assert not np.shares_memory(mine, held)


def test_validate_flags_false_lipschitz_constant():
    # identity coupling advertising nu0 = 0.1: random pairs expose ratio 1
    layout = scalar_layout()
    lying = LipschitzCoupling((1,), lambda x: x, 0.1)
    spec = SystemSpec(
        layout=layout, z=[np.zeros(1)], r=[np.zeros(1)],
        A=[zero_fn(1).operator], C=lying,
        B=[zero_fn(1).operator], D=[zero_fn(1).operator],
        M=[identity_op(1)], N=[identity_op(1)], L=[[identity_op(1)]],
    )
    violations = validate(spec)
    assert any("Lipschitz" in v for v in violations)


@pytest.mark.parametrize("apply, shape", [
    (lambda x: np.zeros(3), (3,)),
    (lambda x: np.zeros(1), (1,)),
    (lambda x: 0.0, ()),
], ids=["long", "short", "scalar"])
def test_validate_reports_a_misshaped_coupling(apply, shape):
    spec = SystemSpec(
        layout=SpaceLayout((2,), (2,), (2,), (2,)),
        z=[np.zeros(2)], r=[np.zeros(2)],
        A=[zero_fn(2).operator], C=LipschitzCoupling((2,), apply, 1.0, "bad"),
        B=[zero_fn(2).operator], D=[zero_fn(2).operator],
        M=[identity_op(2)], N=[identity_op(2)], L=[[identity_op(2)]],
    )
    assert validate(spec) == [
        f"C: coupling 'bad': apply returned shape {shape}, expected (2,)"]


def test_validate_lists_misshaped_maps_instead_of_raising():
    # a 4->4 map whose apply returns length 3, as M and N of the qp demo
    bad = LinOp(4, 4, lambda x: x[:3], lambda y: y, tag="bad")
    spec = dataclasses.replace(qp_demo().system, M=[bad], N=[bad])
    assert validate(spec) == [
        "M[0]: operator 'bad': apply returned shape (3,), expected (4,)",
        "N[0]: operator 'bad': apply returned shape (3,), expected (4,)",
    ]


@pytest.mark.parametrize("apply, adjoint, message", [
    (lambda x: x[:3], lambda y: y,
     "apply returned shape (3,), expected (4,)"),
    (lambda x: x, lambda y: np.append(y, 0.0),
     "adjoint_apply returned shape (5,), expected (4,)"),
], ids=["apply-short", "adjoint-long"])
def test_validate_skips_beta_after_a_misshaped_map(apply, adjoint, message):
    # a dense N would fail on the short vector while computing beta, so
    # beta is not computed once a map is listed
    bad = LinOp(4, 4, apply, adjoint, tag="bad")
    spec = dataclasses.replace(qp_demo().system,
                               N=[dense_op(2.0 * np.eye(4))], L=[[bad]])
    assert validate(spec) == [f"L[0][0]: operator 'bad': {message}"]


def test_fixed_point_residual_trivial_zero_system():
    # A, B, D all zero functions, identity couplings, zero state
    spec = identity_system()
    state = IterateState.zeros(spec.layout)
    assert fixed_point_residual(spec, state, 0.25) <= 1e-12


def test_fixed_point_residual_lasso_oracle_solution():
    demo = lasso_demo()
    state = lifted_solution_state(demo)
    assert fixed_point_residual(demo.system, state, 0.25) <= 1e-6


def test_fixed_point_residual_zero_state_not_solution():
    demo = lasso_demo()
    state = IterateState.zeros(demo.system.layout)
    assert fixed_point_residual(demo.system, state, 0.25) > 1e-2


def test_fixed_point_residual_takes_the_step_the_cli_takes():
    # monosplit demo lasso steps its blocks at 0.509 to 0.728 under the
    # metric, past the (1 - eps)/beta = 0.36 of the paper's beta; the scale
    # 0.728 is past the (1 - eps)/step_bound = 0.524 of one scalar step
    demo = lasso_demo()
    layout = demo.system.layout
    state = IterateState.zeros(layout)
    policy = _policy(demo.system)
    assert min(policy.steps(layout).per_block) > 0.99 / compute_beta(demo.system)
    assert policy.gamma_const > 0.99 / demo.system.bounds.step_bound
    residual = fixed_point_residual(demo.system, state, policy.gamma_const)
    assert residual > 1e-2
    _, record = step(demo.system, state, policy.steps(layout))
    assert residual == record.displacement


def test_fixed_point_residual_rejects_out_of_range_gamma():
    demo = lasso_demo()
    state = IterateState.zeros(demo.system.layout)
    with pytest.raises(StepBoundError):
        fixed_point_residual(demo.system, state, 10.0)
    # make_policy's range is [eps, (1 - eps)/beta], with eps = 0.01 here
    with pytest.raises(StepBoundError, match=r"outside \[0\.01, "):
        fixed_point_residual(demo.system, state, 0.005)


def test_extract_solution_identity_and_scaled():
    spec = identity_system()
    state = IterateState.zeros(spec.layout)
    state.v1 = [np.array([3.0])]
    sol = extract_solution(state, spec)
    np.testing.assert_allclose(sol.vbar[0], [3.0], atol=0)

    scaled = SystemSpec(
        layout=spec.layout, z=spec.z, r=spec.r, A=spec.A, C=spec.C,
        B=spec.B, D=spec.D, M=spec.M,
        N=[dense_op(np.array([[2.0]]))], L=spec.L,
    )
    sol = extract_solution(state, scaled)
    np.testing.assert_allclose(sol.vbar[0], [6.0], atol=0)


def test_extract_solution_deblur_roundtrip(deblur_run):
    # at convergence the extracted solution, re-lifted into a full state
    # with the converged auxiliary blocks, passes the fixed-point
    # membership test
    demo = deblur_run["demo"]
    state = deblur_run["final"]
    sol = extract_solution(state, demo.system)
    relifted = IterateState(
        x1=[b.copy() for b in sol.xbar],
        x2=[b.copy() for b in state.x2],
        v1=[b.copy() for b in state.v1],
        v2=[b.copy() for b in state.v2],
    )
    residual = fixed_point_residual(demo.system, relifted, 0.05)
    assert residual <= 1e-5


def test_transversality_defect_bounded_by_tolerance_at_exit():
    demo = lasso_demo()
    beta = compute_beta(demo.system)
    policy = make_policy(beta)
    tol = 1e-8
    final, trace, status = solve(demo.system, IterateState.zeros(demo.system.layout),
                                 policy, tol=tol, max_iter=20000)
    assert status == "converged"
    assert trace[-1].transversality_defect <= 10 * tol


def test_fixed_point_residual_invariant_under_block_permutation():
    # two k-blocks with different data; swapping them (and the matching
    # state blocks) leaves the one-step displacement unchanged
    rng = np.random.default_rng(0)
    n = 3
    layout = SpaceLayout((n,), (n, n), (n, n), (n, n))
    l1 = make_function("l1", {"weight": 0.5}, n)
    box = make_function("indicator_box", {"lo": -1.0, "hi": 1.0}, n)
    quad = make_function(
        "quadratic_fidelity",
        {"terms": [{"matrix": np.eye(n), "offset": np.zeros(n),
                    "weight": 1.0}]}, n)
    m1 = dense_op(rng.standard_normal((n, n)) / 2, tag="m1")
    m2 = dense_op(rng.standard_normal((n, n)) / 2, tag="m2")
    n1 = dense_op(rng.standard_normal((n, n)) / 2, tag="n1")
    n2 = dense_op(rng.standard_normal((n, n)) / 2, tag="n2")
    l_1 = dense_op(rng.standard_normal((n, n)) / 2, tag="l1")
    l_2 = dense_op(rng.standard_normal((n, n)) / 2, tag="l2")
    r1, r2 = rng.standard_normal(n), rng.standard_normal(n)

    def build(order):
        blocks = {
            "B": {0: box.operator, 1: l1.operator},
            "D": {0: quad.operator, 1: zero_fn(n).operator},
            "M": {0: m1, 1: m2}, "N": {0: n1, 1: n2},
            "L": {0: l_1, 1: l_2}, "r": {0: r1, 1: r2},
        }
        return SystemSpec(
            layout=layout, z=[np.zeros(n)],
            r=[blocks["r"][k] for k in order],
            A=[l1.operator], C=zero_coupling((n,)),
            B=[blocks["B"][k] for k in order],
            D=[blocks["D"][k] for k in order],
            M=[blocks["M"][k] for k in order],
            N=[blocks["N"][k] for k in order],
            L=[[blocks["L"][k]] for k in order],
        )

    state = IterateState(
        x1=[rng.standard_normal(n)],
        x2=[rng.standard_normal(n) for _ in range(2)],
        v1=[rng.standard_normal(n) for _ in range(2)],
        v2=[rng.standard_normal(n) for _ in range(2)],
    )
    swapped = IterateState(
        x1=[state.x1[0].copy()],
        x2=[state.x2[1].copy(), state.x2[0].copy()],
        v1=[state.v1[1].copy(), state.v1[0].copy()],
        v2=[state.v2[1].copy(), state.v2[0].copy()],
    )
    gamma = 0.05
    r_a = fixed_point_residual(build([0, 1]), state, gamma)
    r_b = fixed_point_residual(build([1, 0]), swapped, gamma)
    assert r_a == pytest.approx(r_b, rel=1e-12)


def test_blockwise_product_resolvent_matches_per_block():
    # the k-loop applies each resolvent to its own block only: check by
    # comparing one step of a two-block system against two one-block systems
    rng = np.random.default_rng(1)
    n = 2
    l1 = make_function("l1", {"weight": 0.7}, n)
    box = make_function("indicator_box", {"lo": 0.0, "hi": 1.0}, n)

    def one_block(b_fn):
        return SystemSpec(
            layout=SpaceLayout((n,), (n,), (n,), (n,)),
            z=[np.zeros(n)], r=[np.zeros(n)],
            A=[zero_fn(n).operator], C=zero_coupling((n,)),
            B=[b_fn.operator], D=[zero_fn(n).operator],
            M=[identity_op(n)], N=[identity_op(n)], L=[[zero_op(n, n)]],
        )

    two = SystemSpec(
        layout=SpaceLayout((n,), (n, n), (n, n), (n, n)),
        z=[np.zeros(n)], r=[np.zeros(n), np.zeros(n)],
        A=[zero_fn(n).operator], C=zero_coupling((n,)),
        B=[l1.operator, box.operator],
        D=[zero_fn(n).operator, zero_fn(n).operator],
        M=[identity_op(n), identity_op(n)],
        N=[identity_op(n), identity_op(n)],
        L=[[zero_op(n, n)], [zero_op(n, n)]],
    )
    x2 = [rng.standard_normal(n) for _ in range(2)]
    v1 = [rng.standard_normal(n) for _ in range(2)]
    v2 = [rng.standard_normal(n) for _ in range(2)]
    joint = IterateState(x1=[np.zeros(n)], x2=[b.copy() for b in x2],
                         v1=[b.copy() for b in v1], v2=[b.copy() for b in v2])
    gamma = 0.2
    out_joint, _ = step(two, joint, gamma)
    for k, fn in enumerate((l1, box)):
        single = IterateState(x1=[np.zeros(n)], x2=[x2[k].copy()],
                              v1=[v1[k].copy()], v2=[v2[k].copy()])
        out_single, _ = step(one_block(fn), single, gamma)
        np.testing.assert_array_equal(out_joint.x2[k], out_single.x2[0])
        np.testing.assert_array_equal(out_joint.v1[k], out_single.v1[0])
        np.testing.assert_array_equal(out_joint.v2[k], out_single.v2[0])


def dense_forward(spec):
    """The linear part of the step's operator F as a dense matrix, one
    column per unit vector e: ``F(e) - F(0)``."""
    plan = spec.plan
    size = plan.blocks[-1][-1].stop
    origin = _forward(plan, np.zeros(size))
    return np.column_stack([_forward(plan, e) - origin
                            for e in np.eye(size)])


def two_primal_blocks_system():
    """m = 2, s = 1 on dim 1: C = 0, L = N = M = Id.  F's linear part has
    norm sqrt(2 + sqrt(2)), which W attains only with its x1-v1 entry
    sqrt(||N L_0||^2 + ||N L_1||^2) = sqrt(2); beta is 2."""
    layout = SpaceLayout((1, 1), (1,), (1,), (1,))
    return SystemSpec(
        layout=layout, z=[np.zeros(1)] * 2, r=[np.zeros(1)],
        A=[zero_fn(1).operator] * 2, C=zero_coupling((1, 1)),
        B=[zero_fn(1).operator], D=[zero_fn(1).operator],
        M=[identity_op(1)], N=[identity_op(1)],
        L=[[identity_op(1), identity_op(1)]],
    )


STEP_BOUND_CASES = {
    **{f"random-dense-{seed}": lambda seed=seed: random_dense_system(seed)
       for seed in range(5)},
    "lasso": lambda: lasso_demo().system,
    "qp": lambda: qp_demo().system,
    "separation": lambda: separation_demo().system,
    "two-primal-blocks": two_primal_blocks_system,
}


@pytest.mark.parametrize("case", STEP_BOUND_CASES)
def test_step_bound_lies_between_the_norm_of_F_and_beta(case):
    # separation's L is 0, so its W is reducible
    spec = STEP_BOUND_CASES[case]()
    norm = np.linalg.norm(dense_forward(spec), 2)
    assert norm <= spec.bounds.step_bound <= compute_beta(spec)


METRIC_CASES = [*STEP_BOUND_CASES,
                pytest.param("deblur", marks=pytest.mark.slow)]


@pytest.mark.parametrize("case", METRIC_CASES)
def test_the_metric_bound_certifies_the_rescaled_operator(case):
    # D^1/2 F D^1/2 scales F's row and column of each element by the root
    # of its block's weight
    spec = {**STEP_BOUND_CASES,
            "deblur": lambda: deblur_demo().system}[case]()
    bounds = spec.bounds
    root = np.sqrt(BlockSteps.of(spec.layout.blocks, 1.0, bounds.metric).flat)
    scaled = root[:, None] * dense_forward(spec) * root
    assert np.linalg.norm(scaled, 2) <= bounds.metric_bound


def test_step_bound_sums_the_cross_couplings_of_a_k_block():
    # the max over i of ||N L_ki|| = 1 would give the golden ratio, below
    # ||F||; their sum 2 would give sqrt(3 + sqrt(5)), above beta = 2
    spec = two_primal_blocks_system()
    assert compute_beta(spec) == 2.0
    assert spec.bounds.step_bound == pytest.approx(
        np.sqrt(2.0 + np.sqrt(2.0)), rel=1e-14)


def test_the_bounds_refuse_an_infinite_beta():
    spec = dataclasses.replace(identity_system(),
                               M=[scaled_identity_op(1, 1e200)])
    assert compute_beta(spec) == np.inf
    message = ("beta is infinite: squaring the norm bound overflows at "
               "M[0] = 1e+200")
    with pytest.raises(HypothesisError) as caught:
        spec.bounds
    assert str(caught.value) == message
    assert validate(spec) == [message]


def test_the_bounds_name_squares_that_overflow_only_in_their_sum():
    # each N L term squares to 1e308, below the largest double; two of them
    # sum past it
    spec = dataclasses.replace(
        two_primal_blocks_system(), L=[[scaled_identity_op(1, 1e154)] * 2])
    assert compute_beta(spec) == np.inf
    with pytest.raises(HypothesisError, match="beta is infinite: the squares "
                       "of the norm bounds sum past the largest double"):
        spec.bounds


def test_the_bounds_are_built_once_per_spec():
    spec = lasso_demo().system
    bounds = spec.bounds
    assert spec.bounds is bounds
    assert bounds.beta == compute_beta(spec)
    assert bounds.step_bound < bounds.beta
