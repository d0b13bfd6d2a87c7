import copy
import csv
import dataclasses
import math
import pickle
import random
import sys
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import error_blocks, error_record
from monosplit.demos import (
    DEMO_NAMES,
    deblur_demo,
    get_demo,
    lasso_demo,
    lifted_solution_state,
    qp_demo,
    separation_demo,
)
from monosplit.errors import NumericError, SpecificationError, StepBoundError
from monosplit import cli, solver
from monosplit.linops import dense_op, zero_op
from monosplit.minimization import MinimizationSpec, build_system
from monosplit.prox import (
    ConvexFunction,
    LipschitzCoupling,
    ResolventOp,
    make_function,
    soft_threshold,
    zero_coupling,
)
from monosplit.solver import (
    ERROR_FAMILIES,
    BlockSteps,
    ErrorSchedule,
    IterateState,
    TraceRecord,
    geometric_schedule,
    make_policy,
    solve,
    step,
    transversality_defect,
    zero_schedule,
)
from monosplit.system import SpaceLayout, SystemSpec, compute_beta


def test_make_policy_default_constant():
    pol = make_policy(2.0, epsilon=0.1)
    assert pol.gamma_const == pytest.approx(0.45)


def test_make_policy_rejects_large_epsilon():
    with pytest.raises(StepBoundError):
        make_policy(2.0, epsilon=0.4)  # 0.4 >= 1/(2+1)


def test_make_policy_accepts_valid_constant():
    pol = make_policy(np.sqrt(3.0), epsilon=0.01, gamma_const=0.5)
    assert pol.gamma_const == 0.5


def test_make_policy_rejects_gamma_outside_interval():
    with pytest.raises(StepBoundError):
        make_policy(2.0, epsilon=0.1, gamma_const=0.46)
    with pytest.raises(StepBoundError):
        make_policy(2.0, epsilon=0.1, gamma_const=0.05)


def trivial_quadratic_system():
    """Everything zero except A = subgradient of half the squared norm."""
    quad = make_function(
        "quadratic_fidelity",
        {"terms": [{"matrix": np.eye(1), "offset": [0.0], "weight": 1.0}]}, 1)
    zero_fn = make_function("zero_function", {}, 1)
    return SystemSpec(
        layout=SpaceLayout((1,), (1,), (1,), (1,)),
        z=[np.zeros(1)], r=[np.zeros(1)],
        A=[quad.operator], C=zero_coupling((1,)),
        B=[zero_fn.operator], D=[zero_fn.operator],
        M=[zero_op(1, 1)], N=[zero_op(1, 1)], L=[[zero_op(1, 1)]],
    )


def test_step_hand_computed_trivial_case():
    # x1 = 1, gamma = 0.5: s11 = 1, p11 = 1/1.5 = 2/3, q11 = 2/3,
    # x1+ = 1 - 1 + 2/3 = 2/3
    spec = trivial_quadratic_system()
    state = IterateState.zeros(spec.layout)
    state.x1 = [np.array([1.0])]
    new, rec = step(spec, state, 0.5)
    np.testing.assert_allclose(new.x1[0], [2.0 / 3.0], atol=1e-15)
    assert rec.displacement == pytest.approx(1.0 / 3.0)
    assert new.n == 1


def test_step_zero_state_stays_zero():
    spec = trivial_quadratic_system()
    state = IterateState.zeros(spec.layout)
    for _ in range(5):
        state, rec = step(spec, state, 0.5)
        assert rec.displacement == 0.0
    for fam in (state.x1, state.x2, state.v1, state.v2):
        for b in fam:
            assert np.all(b == 0.0)


def test_step_at_solution_is_fixed_point():
    demo = lasso_demo()
    state = lifted_solution_state(demo)
    _, rec = step(demo.system, state, 0.3)
    assert rec.displacement <= 1e-12


def test_step_rejects_nonpositive_gamma():
    spec = trivial_quadratic_system()
    with pytest.raises(ValueError):
        step(spec, IterateState.zeros(spec.layout), 0.0)


def test_step_reports_nonfinite_block():
    spec = trivial_quadratic_system()
    bad = ResolventOp(1, lambda gamma, x: np.array([np.nan]), "bad")
    broken = SystemSpec(
        layout=spec.layout, z=spec.z, r=spec.r,
        A=[bad], C=spec.C, B=spec.B, D=spec.D,
        M=spec.M, N=spec.N, L=spec.L,
    )
    with pytest.raises(NumericError) as err:
        step(broken, IterateState.zeros(spec.layout), 0.5)
    assert "p11" in str(err.value)


def test_solve_lasso_matches_oracle():
    demo = lasso_demo()
    policy = make_policy(compute_beta(demo.system))
    final, trace, status = solve(demo.system, IterateState.zeros(demo.system.layout),
                                 policy, tol=1e-8, max_iter=20000)
    assert status == "converged"
    assert np.max(np.abs(final.x1[0] - demo.oracle_solution)) <= 1e-6


def test_solve_qp_matches_kkt_oracle():
    demo = qp_demo()
    policy = make_policy(compute_beta(demo.system))
    final, trace, status = solve(demo.system, IterateState.zeros(demo.system.layout),
                                 policy, tol=1e-8, max_iter=50000)
    assert status == "converged"
    assert np.max(np.abs(final.x1[0] - demo.oracle_solution)) <= 1e-6


def test_solve_zero_budget_returns_init():
    demo = lasso_demo()
    policy = make_policy(compute_beta(demo.system))
    init = IterateState.zeros(demo.system.layout)
    init.x1 = [np.ones(10)]
    final, trace, status = solve(demo.system, init, policy, max_iter=0)
    assert status == "max_iter"
    assert final.n == 0
    np.testing.assert_array_equal(final.x1[0], init.x1[0])
    assert trace == []


def test_solve_propagates_numeric_error_with_iteration():
    demo = lasso_demo()
    spec = demo.system
    blow_after = 3
    calls = {"n": 0}

    def unstable(gamma, x):
        calls["n"] += 1
        if calls["n"] > blow_after:
            return np.full_like(x, np.inf)
        return soft_threshold(x, gamma * 0.5)

    broken = SystemSpec(
        layout=spec.layout, z=spec.z, r=spec.r,
        A=[ResolventOp(10, unstable, "unstable")], C=spec.C,
        B=spec.B, D=spec.D, M=spec.M, N=spec.N, L=spec.L,
    )
    policy = make_policy(compute_beta(spec))
    with pytest.raises(NumericError) as err:
        solve(broken, IterateState.zeros(spec.layout), policy, max_iter=100)
    assert err.value.iteration == blow_after


def test_solve_continued_from_a_state_takes_the_steps_of_one_run():
    # solve counts on from the state's n, so the second half of a split run
    # adds the errors of iterations 10..18, as one 19-iteration run does;
    # a continued run starts a new extrapolation history, so both runs stay
    # below AA_PERIOD steps, where none extrapolates
    assert 19 < solver.AA_PERIOD
    demo = lasso_demo()
    policy = make_policy(compute_beta(demo.system))
    errors = geometric_schedule(0.9, 0.1, seed=3)

    def run(init, count):
        return solve(demo.system, init, policy, errors=errors, tol=0.0,
                     max_iter=count, trace_every=1)

    zeros = IterateState.zeros(demo.system.layout)
    half, _, _ = run(zeros, 10)
    continued, second, _ = run(half, 9)
    whole, trace, _ = run(zeros, 19)
    assert continued.n == whole.n == 19
    for a, b in zip(continued.x1 + continued.x2 + continued.v1 + continued.v2,
                    whole.x1 + whole.x2 + whole.v1 + whole.v2):
        assert a.tobytes() == b.tobytes()
    assert [(r.n, r.displacement, r.block_displacements) for r in second] \
        == [(r.n, r.displacement, r.block_displacements) for r in trace[10:]]

    # a numeric failure names the counter of the state it stepped from
    broken = half.copy()
    broken.x1[0][0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
        run(broken, 9)
    assert err.value.iteration == 10


def test_trace_partial_sums_nondecreasing():
    demo = lasso_demo()
    policy = make_policy(compute_beta(demo.system))
    _, trace, _ = solve(demo.system, IterateState.zeros(demo.system.layout),
                        policy, tol=1e-10, max_iter=2000, trace_every=1)
    for fam in range(4):
        sums = [rec.partial_sums[fam] for rec in trace]
        assert all(b >= a for a, b in zip(sums, sums[1:]))


@pytest.mark.parametrize("kwargs", [
    {"tol": float("nan")}, {"tol": -1e-8}, {"tol": -math.inf},
    {"max_iter": -1}, {"trace_every": 0}, {"max_iter": 2.5},
    {"max_iter": 50.0}, {"max_iter": True}, {"max_iter": "50"},
    {"trace_every": 2.5}, {"trace_every": np.float64(2.0)},
    {"trace_every": True}, {"trace_every": None},
], ids=["tol-nan", "tol-negative", "tol-minus-inf", "max_iter-negative",
        "trace_every-zero", "max_iter-fraction", "max_iter-float",
        "max_iter-bool", "max_iter-str", "trace_every-fraction",
        "trace_every-numpy-float", "trace_every-bool", "trace_every-none"])
def test_solve_rejects_bad_arguments(kwargs):
    demo = qp_demo()
    policy = make_policy(compute_beta(demo.system))
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        solve(demo.system, IterateState.zeros(demo.system.layout), policy,
              **{"max_iter": 50, **kwargs})


def test_zero_tol_runs_the_whole_budget():
    demo = qp_demo()
    policy = make_policy(compute_beta(demo.system))
    final, trace, status = solve(demo.system,
                                 IterateState.zeros(demo.system.layout),
                                 policy, tol=0.0, max_iter=50)
    assert (final.n, trace[-1].n, status) == (50, 49, "max_iter")


@pytest.mark.parametrize("trace_every, max_iter, stop", [
    (1, 12, None), (3, 12, None),   # 11 is off the grid of 3: needs the defect
    (3, 40, 10), (3, 40, 9),        # converged off and on the grid
    (1, 40, 37),                    # errors realized in runs: stop mid-run
    (5, 37, None),                  # and a last run shorter than the rest
])
def test_kept_records_are_step_records_with_running_sums(trace_every,
                                                         max_iter, stop,
                                                         monkeypatch):
    # a run of more than AA_PERIOD steps is compared under a zero budget,
    # which refuses every extrapolation (see
    # test_a_zero_budget_solve_is_repeated_step)
    if max_iter > solver.AA_PERIOD:
        monkeypatch.setattr(solver, "AA_BUDGET", 0.0)
    spec = dense_two_by_two()
    init = random_state(spec.layout)
    policy = make_policy(compute_beta(spec))
    errors = geometric_schedule(0.8, 0.05, seed=6)
    expected, state, sums = [], init, (0.0, 0.0, 0.0, 0.0)
    for it in range(stop + 1 if stop is not None else max_iter):
        state, rec = step(spec, state, policy.gamma_at(it),
                          error_record(errors, it, spec.layout))
        sums = tuple(a + b for a, b in zip(sums, rec.partial_sums))
        expected.append(rec._replace(
            partial_sums=sums,
            transversality_defect=transversality_defect(spec, state)))
    # the displacement of iteration stop, if no earlier one reached it,
    # stops the run there
    tol = 0.0 if stop is None else expected[-1].displacement
    assert all(rec.displacement > tol for rec in expected[:-1])
    final, trace, status = solve(spec, init, policy, errors=errors, tol=tol,
                                 max_iter=max_iter, trace_every=trace_every)
    kept = [rec for rec in expected
            if rec.n % trace_every == 0 or rec is expected[-1]]
    # one refused attempt every AA_PERIOD steps, none after the last step
    assert [(rec.aa_accepted, rec.aa_refused) for rec in trace] \
        == [(0, (min(rec.n, max_iter - 2) + 1) // solver.AA_PERIOD)
            for rec in kept]
    assert [rec._replace(aa_refused=0) for rec in trace] == kept
    assert status == ("max_iter" if stop is None else "converged")
    assert_states_equal(final, state)


@pytest.mark.parametrize("max_iter", [1, 16, 17, 37])
def test_solve_calls_a_generator_below_max_iter_only(max_iter, monkeypatch):
    if max_iter > solver.AA_PERIOD:  # compared with repeated step below
        monkeypatch.setattr(solver, "AA_BUDGET", 0.0)
    spec = dense_two_by_two()
    layout = spec.layout
    init = random_state(layout)
    policy = make_policy(compute_beta(spec))
    calls = []

    def generator(n, family, index, dim):
        calls.append((n, family, index))
        # two iterations in three are exact: -0.0 rows of their run
        e = b21_only(n, family, index, dim)
        return None if e is None or n % 3 else 1e-3 * e

    sched = ErrorSchedule(generator)
    final, _, status = solve(spec, init, policy, errors=sched, tol=0.0,
                             max_iter=max_iter)
    assert status == "max_iter"
    blocks = [(family, index) for family in ERROR_FAMILIES
              for index, _ in enumerate(family_dims(layout, family))]
    assert sorted(calls) == [(n, *block) for n in range(max_iter)
                             for block in sorted(blocks)]
    state = init
    for it in range(max_iter):
        state, _ = step(spec, state, policy.gamma_at(it),
                        error_record(sched, it, layout))
    assert_states_equal(final, state)


def test_solve_surfaces_a_generator_error():
    spec = dense_two_by_two()
    init = random_state(spec.layout)
    policy = make_policy(compute_beta(spec))
    sched = ErrorSchedule(
        lambda n, family, index, dim: np.zeros(dim + (n == 20)))
    with pytest.raises(SpecificationError, match="family a11 block 0"):
        solve(spec, init, policy, errors=sched, tol=0.0, max_iter=40)
    # a budget that ends before iteration 20 never realizes it
    final, _, _ = solve(spec, init, policy, errors=sched, tol=0.0,
                        max_iter=20)
    assert final.n == 20


def test_solve_deterministic_repeat_is_bitwise_identical():
    demo = lasso_demo()
    policy = make_policy(compute_beta(demo.system))
    errors = geometric_schedule(0.8, 0.05, seed=9)

    def run():
        return solve(demo.system, IterateState.zeros(demo.system.layout),
                     policy, errors=errors, tol=1e-9, max_iter=3000,
                     trace_every=7)

    fin_a, tr_a, st_a = run()
    fin_b, tr_b, st_b = run()
    assert st_a == st_b
    assert [r.displacement for r in tr_a] == [r.displacement for r in tr_b]
    for a, b in zip(fin_a.x1 + fin_a.x2 + fin_a.v1 + fin_a.v2,
                    fin_b.x1 + fin_b.x2 + fin_b.v1 + fin_b.v2):
        assert a.tobytes() == b.tobytes()


def test_geometric_schedule_is_summable_and_reproducible():
    sched = geometric_schedule(0.9, 0.1, seed=4)
    layout = SpaceLayout((3,), (2,), (2,), (2,))
    total = 0.0
    for n in range(200):
        errs = error_blocks(error_record(sched, n, layout), layout)
        for family in ERROR_FAMILIES:
            for block in errs[family]:
                total += float(np.linalg.norm(block))
                assert np.linalg.norm(block) <= 0.1 * 0.9**n + 1e-15
    # geometric bound on the whole tail
    assert total <= 0.1 * len(ERROR_FAMILIES) / (1 - 0.9) + 1e-9
    again = error_blocks(error_record(sched, 7, layout), layout)
    errs = error_blocks(error_record(sched, 7, layout), layout)
    for family in ERROR_FAMILIES:
        for a, b in zip(again[family], errs[family]):
            np.testing.assert_array_equal(a, b)


def test_error_robustness_geometric_schedule_on_lasso():
    demo = lasso_demo()
    policy = make_policy(compute_beta(demo.system))
    exact, _, status_a = solve(demo.system, IterateState.zeros(demo.system.layout),
                               policy, tol=1e-10, max_iter=30000)
    noisy, _, status_b = solve(demo.system, IterateState.zeros(demo.system.layout),
                               policy, errors=geometric_schedule(0.9, 0.1, seed=0),
                               tol=1e-6, max_iter=30000)
    assert status_a == "converged" and status_b == "converged"
    assert np.max(np.abs(noisy.x1[0] - exact.x1[0])) <= 1e-5


def separation_runs(errors=None, iters=150, policy=None):
    # each system steps at the joint policy's steps: the metric's block
    # steps fit every half, as all three have one block per family
    demo = separation_demo()
    if policy is None:
        policy = make_policy(compute_beta(demo.system))
    systems = {
        "joint": demo.system,
        "primal": demo.extras["primal_only"],
        "dual": demo.extras["dual_only"],
    }
    out = {}
    for name, system in systems.items():
        sched = errors if errors is not None else zero_schedule()
        state = IterateState.zeros(system.layout)
        states = []
        gamma = policy.steps(system.layout)
        for it in range(iters):
            errs = error_record(sched, it, system.layout)
            state, _ = step(system, state, gamma, errs)
            states.append(state)
        out[name] = states
    return out


def assert_separated(runs):
    for js, ps in zip(runs["joint"], runs["primal"]):
        for a, b in zip(js.x1, ps.x1):
            assert a.tobytes() == b.tobytes()
    for js, ds in zip(runs["joint"], runs["dual"]):
        for fam in ("x2", "v1", "v2"):
            for a, b in zip(getattr(js, fam), getattr(ds, fam)):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("errors", [None, geometric_schedule(0.9, 0.05, seed=3)])
def test_separation_property_bitwise(errors):
    assert_separated(separation_runs(errors))


@pytest.mark.parametrize("errors", [None, geometric_schedule(0.9, 0.05, seed=11)])
def test_the_metric_keeps_separation_bitwise(errors):
    # the joint run under the CLI's metric against each half stepped at the
    # joint's block steps; d_b reads only row b of W, so each half's own
    # metric agrees with the joint's on the blocks compared
    demo = separation_demo()
    joint = demo.system.bounds.metric
    primal = demo.extras["primal_only"].bounds.metric
    dual = demo.extras["dual_only"].bounds.metric
    assert primal[0] == joint[0] and dual[1:] == joint[1:]
    # a zero row of W, such as each half's dummy blocks, takes weight 1
    assert primal[1:] == (1.0,) * 3 and dual[0] == 1.0
    assert_separated(separation_runs(errors,
                                     policy=cli._policy(demo.system)))


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_a_uniform_metric_is_the_scalar_step(name):
    # every block at gamma: the bytes of the policy without a metric, over
    # 50 steps
    demo = get_demo(name)
    spec = demo.system
    init = demo.extras.get("init") or IterateState.zeros(spec.layout)
    scalar = make_policy(spec.bounds.step_bound)
    blocks = sum(map(len, spec.layout.blocks))
    uniform = make_policy(spec.bounds.step_bound, metric=(1.0,) * blocks)
    assert uniform.steps(spec.layout).per_block \
        == scalar.steps(spec.layout).per_block == (scalar.gamma_const,) * blocks
    for errors in (zero_schedule(), geometric_schedule(0.9, 0.05, seed=11)):
        (a, trace_a, _), (b, trace_b, _) = (
            solve(spec, init, policy, errors=errors, tol=0.0, max_iter=50,
                  trace_every=1) for policy in (scalar, uniform))
        assert trace_a == trace_b
        for fam in ("x1", "x2", "v1", "v2"):
            for x, y in zip(getattr(a, fam), getattr(b, fam)):
                assert x.tobytes() == y.tobytes()


def test_block_steps_must_fit_the_layout():
    spec = separation_demo().system
    with pytest.raises(SpecificationError, match="expected 4 block weights"):
        BlockSteps.of(spec.layout.blocks, 0.5, (1.0, 1.0))
    with pytest.raises(ValueError, match="positive and finite"):
        BlockSteps.of(spec.layout.blocks, 0.5, (1.0, 1.0, 0.0, 1.0))
    other = separation_demo().extras["primal_only"]
    steps = BlockSteps.of(other.layout.blocks, 0.5, (1.0,) * 4)
    with pytest.raises(SpecificationError, match="another layout"):
        step(spec, IterateState.zeros(spec.layout), steps)
    with pytest.raises(StepBoundError, match="metric weights"):
        make_policy(2.0, metric=(1.0, -1.0))


def augmented_lasso(mu=0.1):
    """LASSO with an extra mu||x||^2, making the primal block uniformly convex."""
    demo = lasso_demo()
    weight = demo.extras["weight"]
    n = 10

    def value(x):
        return weight * float(np.sum(np.abs(x))) + mu * float(np.sum(x * x))

    def resolve(gamma, x):
        return soft_threshold(x, gamma * weight) / (1.0 + 2.0 * gamma * mu)

    strong = ConvexFunction(n, value, ResolventOp(n, resolve, "l1+ridge"),
                            None, tag="l1_ridge")
    ms = demo.min_spec
    aug = MinimizationSpec(layout=ms.layout, f=[strong], phi=ms.phi,
                           g=ms.g, ell=ms.ell, M=ms.M, N=ms.N, L=ms.L,
                           z=ms.z, r=ms.r)
    c = demo.extras["design"].T @ demo.extras["observation"]
    oracle = soft_threshold(c, weight) / (1.0 + 2.0 * mu)
    return build_system(aug), oracle


def test_uniform_convexity_accelerates_primal_block():
    system, oracle = augmented_lasso()
    policy = make_policy(compute_beta(system))
    final, _, status = solve(system, IterateState.zeros(system.layout),
                             policy, tol=1e-12, max_iter=5000)
    assert np.linalg.norm(final.x1[0] - oracle) <= 1e-5


# ---------------------------------------------------------------------------
# the flat step against the per-block step it replaced


def _maybe_add(vec, errs, family, index):
    if errs is None:
        return vec
    e = errs[family][index]
    return vec if e is None else vec + e


def _ref_check_finite(name, index, n, block):
    if not np.isfinite(block).all():
        raise NumericError(f"non-finite value in {name}, block {index}",
                           iteration=n)


def _ref_sqnorm(blocks):
    """The squared norm of ``blocks`` laid end to end, as one dot."""
    d = np.concatenate(blocks)
    return float(d.dot(d))


def reference_step(spec, state, gamma, errors_at_n=None):
    """The per-block step, line for line, with its update lines in order."""
    m = len(state.x1)
    s = len(state.x2)
    g = float(gamma)
    n = state.n
    errs = errors_at_n

    x1, x2, v1, v2 = state.x1, state.x2, state.v1, state.v2

    if m == 1:
        cuts = None
        cx = [np.asarray(spec.C.apply(x1[0]))]
    else:
        cuts = np.cumsum([b.size for b in x1])[:-1]
        cx = np.split(spec.C.apply(np.concatenate(x1)), cuts)

    nstar_v1 = [spec.N[k].adjoint_apply(v1[k]) for k in range(s)]

    s11, p11 = [], []
    for i in range(m):
        acc = np.zeros(x1[i].size)
        for k in range(s):
            acc = acc + spec.L[k][i].adjoint_apply(nstar_v1[k])
        fwd = _maybe_add(cx[i] + acc, errs, "a11", i)
        s11_i = x1[i] - g * fwd
        p11_i = np.asarray(spec.A[i].resolve(g, s11_i + g * spec.z[i]))
        p11_i = _maybe_add(p11_i, errs, "b11", i)
        _ref_check_finite("p11", i, n, p11_i)
        s11.append(s11_i)
        p11.append(p11_i)

    nr = [np.asarray(spec.N[k].apply(spec.r[k])) for k in range(s)]
    p12, p21, p22, nstar_p21 = [], [], [], []
    x2_new, v1_new, v2_new = [], [], []
    for k in range(s):
        Nk, Mk, Dk, Bk = spec.N[k], spec.M[k], spec.D[k], spec.B[k]

        p12_k = x2[k] + g * _maybe_add(
            nstar_v1[k] - Mk.adjoint_apply(v2[k]), errs, "a12", k)

        l_x1 = spec.L[k][0].apply(x1[0])
        for i in range(1, m):
            l_x1 = l_x1 + spec.L[k][i].apply(x1[i])
        s21_k = v1[k] + g * _maybe_add(
            Nk.apply(l_x1) - Nk.apply(x2[k]), errs, "a21", k)

        nr_k = nr[k]
        jd = np.asarray(Dk.resolve(1.0 / g, s21_k / g - nr_k))
        p21_k = s21_k - g * _maybe_add(nr_k + jd, errs, "b21", k)

        l_p11 = spec.L[k][0].apply(p11[0])
        for i in range(1, m):
            l_p11 = l_p11 + spec.L[k][i].apply(p11[i])
        q21_k = p21_k + g * _maybe_add(
            Nk.apply(l_p11) - Nk.apply(p12_k), errs, "c21", k)
        v1_new_k = v1[k] - s21_k + q21_k

        s22_k = v2[k] + g * _maybe_add(Mk.apply(x2[k]), errs, "a22", k)
        jb = np.asarray(Bk.resolve(1.0 / g, s22_k / g))
        p22_k = s22_k - g * _maybe_add(jb, errs, "b22", k)
        q22_k = p22_k + g * _maybe_add(Mk.apply(p12_k), errs, "c22", k)
        v2_new_k = v2[k] - s22_k + q22_k

        nstar_p21_k = Nk.adjoint_apply(p21_k)
        q12_k = p12_k + g * _maybe_add(
            nstar_p21_k - Mk.adjoint_apply(p22_k), errs, "c12", k)
        x2_new_k = x2[k] - p12_k + q12_k

        _ref_check_finite("v1", k, n, v1_new_k)
        _ref_check_finite("v2", k, n, v2_new_k)
        _ref_check_finite("x2", k, n, x2_new_k)
        p12.append(p12_k)
        p21.append(p21_k)
        p22.append(p22_k)
        nstar_p21.append(nstar_p21_k)
        x2_new.append(x2_new_k)
        v1_new.append(v1_new_k)
        v2_new.append(v2_new_k)

    if m == 1:
        cp = [np.asarray(spec.C.apply(p11[0]))]
    else:
        cp = np.split(spec.C.apply(np.concatenate(p11)), cuts)
    x1_new = []
    for i in range(m):
        acc = np.zeros(x1[i].size)
        for k in range(s):
            acc = acc + spec.L[k][i].adjoint_apply(nstar_p21[k])
        q11_i = p11[i] - g * _maybe_add(cp[i] + acc, errs, "c11", i)
        x1_new_i = x1[i] - s11[i] + q11_i
        _ref_check_finite("x1", i, n, x1_new_i)
        x1_new.append(x1_new_i)

    new_state = IterateState(x1_new, x2_new, v1_new, v2_new, n + 1)

    # one reduction per family of the block differences, and one of the
    # whole state's
    dx1, dx2, dv1, dv2 = (
        _ref_sqnorm([a - b for a, b in zip(old, mid)])
        for old, mid in ((x1, p11), (x2, p12), (v1, p21), (v2, p22)))
    move = _ref_sqnorm([
        b - a for old, new in ((x1, x1_new), (x2, x2_new), (v1, v1_new),
                               (v2, v2_new))
        for a, b in zip(old, new)])

    record = TraceRecord(
        n=n,
        gamma=g,
        displacement=float(np.sqrt(move)),
        block_displacements=(float(np.sqrt(dx1)), float(np.sqrt(dx2)),
                             float(np.sqrt(dv1)), float(np.sqrt(dv2))),
        partial_sums=(dx1, dx2, dv1, dv2),
        transversality_defect=None,
    )
    return new_state, record


def dense_two_by_two(seed=21):
    """A random system with m = 2, s = 2, uneven block sizes and every map
    dense, so every loop of the per-block step runs more than once."""
    rng = np.random.default_rng(seed)
    h, gd, yd, xd = (3, 4), (5, 2), (4, 3), (2, 5)
    layout = SpaceLayout(h, gd, yd, xd)

    def dense(rows, cols, tag):
        return dense_op(rng.standard_normal((rows, cols)) / 2, tag=tag)

    q = rng.standard_normal((7, 7))
    hess = q.T @ q / 7 + np.eye(7)
    coupling = LipschitzCoupling(h, lambda x: hess @ x - 0.3,
                                 float(np.linalg.norm(hess, 2)))
    quad = make_function("quadratic_fidelity", {"terms": [
        {"matrix": rng.standard_normal((3, 2)), "offset": rng.standard_normal(3)}
    ]}, 2)
    return SystemSpec(
        layout=layout,
        z=[rng.standard_normal(d) for d in h],
        r=[rng.standard_normal(d) for d in gd],
        A=[make_function("l1", {"weight": 0.4}, 3).operator,
           make_function("indicator_box", {"lo": -0.5, "hi": 0.5}, 4).operator],
        C=coupling,
        B=[make_function("group_l12", {"blocks": [[0, 2], [1, 3]],
                                       "weight": 0.3}, 4).operator,
           make_function("l1", {"weight": 0.2}, 3).operator],
        D=[quad.operator, make_function("indicator_zero", {}, 5).operator],
        M=[dense(yd[k], gd[k], f"m{k}") for k in range(2)],
        N=[dense(xd[k], gd[k], f"n{k}") for k in range(2)],
        L=[[dense(gd[k], h[i], f"l{k}{i}") for i in range(2)]
           for k in range(2)],
    )


def random_state(layout, seed=5):
    rng = np.random.default_rng(seed)
    return IterateState(
        x1=[rng.standard_normal(d) for d in layout.h_dims],
        x2=[rng.standard_normal(d) for d in layout.g_dims],
        v1=[rng.standard_normal(d) for d in layout.x_dims],
        v2=[rng.standard_normal(d) for d in layout.y_dims],
    )


def assert_states_equal(a, b):
    assert a.n == b.n
    for fam in ("x1", "x2", "v1", "v2"):
        blocks_a, blocks_b = getattr(a, fam), getattr(b, fam)
        assert len(blocks_a) == len(blocks_b)
        for x, y in zip(blocks_a, blocks_b):
            assert np.array_equal(x, y), fam


def with_offsets(spec, offsets):
    """``spec`` with only its z offsets (``"z_only"``) or only its r offsets
    (``"r_only"``) nonzero, drawn at random."""
    rng = np.random.default_rng(31)
    z = [rng.standard_normal(zi.size) for zi in spec.z]
    r = [rng.standard_normal(rk.size) for rk in spec.r]
    if offsets == "z_only":
        r = [np.zeros(rk.size) for rk in r]
    else:
        z = [np.zeros(zi.size) for zi in z]
    return dataclasses.replace(spec, z=z, r=r)


def exactness_case(name):
    if name == "deblur16":
        demo = deblur_demo()
        return demo.system, demo.extras["init"], None
    if name.startswith("lasso"):
        system = lasso_demo().system
        if name != "lasso_geometric":
            system = with_offsets(system, name[len("lasso_"):])
        return (system, IterateState.zeros(system.layout),
                geometric_schedule(0.9, 0.1))
    if name == "qp_demo":
        demo = qp_demo()
        return demo.system, IterateState.zeros(demo.system.layout), None
    spec = dense_two_by_two()
    if name in ("dense_z_only", "dense_r_only"):
        spec = with_offsets(spec, name[len("dense_"):])
    errors = geometric_schedule(0.8, 0.05, seed=2) if name == "dense_noisy" \
        else None
    return spec, random_state(spec.layout), errors


@pytest.mark.parametrize("name", ["deblur16", "lasso_geometric", "qp_demo",
                                  "dense", "dense_noisy", "dense_z_only",
                                  "dense_r_only", "lasso_z_only",
                                  "lasso_r_only"])
def test_flat_step_matches_per_block_step_exactly(name):
    spec, init, errors = exactness_case(name)
    gamma = make_policy(compute_beta(spec)).gamma_at(0)
    flat, ref = init.copy(), init.copy()
    for it in range(50):
        errs = error_record(errors, it, spec.layout) if errors else None
        flat, rec = step(spec, flat, gamma, errs)
        ref, ref_rec = reference_step(
            spec, ref, gamma,
            None if errs is None else error_blocks(errs, spec.layout))
        assert_states_equal(flat, ref)
        assert rec == ref_rec


@pytest.mark.parametrize("family, index, name", [
    ("b11", 1, "p11"), ("c11", 1, "x1"), ("c12", 1, "x2"),
    ("c21", 1, "v1"), ("c22", 0, "v2"),
])
def test_nonfinite_value_names_line_and_block(family, index, name):
    spec = dense_two_by_two()
    state = random_state(spec.layout)
    record = np.full((3, spec.plan.blocks[-1][-1].stop), -0.0)
    errs = error_blocks(record, spec.layout)
    errs[family][index][-1] = np.inf
    expected = f"non-finite value in {name}, block {index}"
    for run, given in ((step, record), (reference_step, errs)):
        with pytest.raises(NumericError) as err:
            run(spec, state.copy(), 0.05, given)
        assert expected in str(err.value)


def test_reassigned_blocks_are_repacked():
    spec = dense_two_by_two()
    gamma = 0.05
    state, _ = step(spec, random_state(spec.layout), gamma)
    rng = np.random.default_rng(8)
    state.x1 = [rng.standard_normal(3), state.x1[1]]   # a new list
    state.v2[1] = rng.standard_normal(3)               # a block replaced
    state.x2[0][:] = 2.5                               # written through
    flat, rec = step(spec, state, gamma)
    ref, ref_rec = reference_step(spec, state, gamma)
    assert_states_equal(flat, ref)
    assert rec == ref_rec


def test_deep_copied_state_is_not_read_from_a_stale_buffer():
    spec = dense_two_by_two()
    state, _ = step(spec, random_state(spec.layout), 0.05)
    for twin in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        twin.v1[0][:] = -1.5                            # only the copied block
        flat, rec = step(spec, twin, 0.05)
        ref, ref_rec = reference_step(spec, twin, 0.05)
        assert_states_equal(flat, ref)
        assert rec == ref_rec


def test_state_not_matching_layout_is_rejected():
    spec = dense_two_by_two()
    state = random_state(spec.layout)
    state.v1 = [state.v1[0]]
    with pytest.raises(SpecificationError, match="family v1 "):
        step(spec, state, 0.05)


def swap_the_x1_blocks(state):
    state.x1 = state.x1[::-1]           # lengths 4, 3: the total still fits


def make_an_x2_block_a_column(state):
    state.x2[0] = state.x2[0].reshape(-1, 1)


def make_a_v2_block_0d(state):
    state.v2[0] = np.array(1.0)


def move_an_x1_block_into_x2(state):
    state.x1, state.x2 = state.x1[:1], state.x1[1:] + state.x2


@pytest.mark.parametrize("mismatch, family", [
    (swap_the_x1_blocks, "x1"),
    (make_an_x2_block_a_column, "x2"),
    (make_a_v2_block_0d, "v2"),
    (move_an_x1_block_into_x2, "x1"),
])
def test_state_with_misshapen_blocks_is_rejected(mismatch, family):
    spec = dense_two_by_two()
    state = random_state(spec.layout)
    mismatch(state)
    with pytest.raises(SpecificationError, match=f"family {family} "):
        step(spec, state, 0.05)


def test_one_step_applies_each_n_four_times():
    """F is one map at z and at p: each evaluation applies N_k twice, to
    the L-sum and to x2, and its adjoint once; the step itself evaluates no
    transversality defect."""
    spec = dense_two_by_two()
    applies, adjoints = [0, 0], [0, 0]

    def counted(k, N):
        def apply(x):
            applies[k] += 1
            return N.apply(x)

        def adjoint_apply(y):
            adjoints[k] += 1
            return N.adjoint_apply(y)
        return dataclasses.replace(N, apply=apply, adjoint_apply=adjoint_apply)

    spec = dataclasses.replace(
        spec, N=[counted(k, N) for k, N in enumerate(spec.N)])
    spec.plan  # applies each N_k to r_k once
    applies[:] = adjoints[:] = [0, 0]
    step(spec, random_state(spec.layout), 0.05)
    assert applies == [4, 4]
    assert adjoints == [2, 2]


def test_states_never_alias_input_or_each_other():
    spec = dense_two_by_two()
    gamma = 0.05
    init = random_state(spec.layout)
    state = IterateState.zeros(spec.layout)
    state.x1 = [b.copy() for b in init.x1]
    states, snapshots = [state], []
    for _ in range(200):
        state, _ = step(spec, state, gamma)
        states.append(state)
        snapshots.append(state.copy())
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            for fam in ("x1", "x2", "v1", "v2"):
                for x, y in zip(getattr(a, fam), getattr(b, fam)):
                    assert not np.may_share_memory(x, y)
    for kept, snap in zip(states[1:], snapshots):
        assert_states_equal(kept, snap)


def test_copy_is_independent_of_original():
    spec = dense_two_by_two()
    state, _ = step(spec, random_state(spec.layout), 0.05)
    twin = state.copy()
    state.x2[1][:] = 7.0
    assert not np.any(twin.x2[1] == 7.0)
    assert_states_equal(step(spec, twin, 0.05)[0],
                        reference_step(spec, twin, 0.05)[0])


def blocks_of(state):
    return [b for fam in (state.x1, state.x2, state.v1, state.v2) for b in fam]


def state_bytes(state):
    """The counter and the bytes of every block, family by family."""
    return state.n, [np.asarray(b, dtype=float).tobytes()
                     for b in blocks_of(state)]


def test_plain_list_blocks_step_like_arrays():
    spec = dense_two_by_two()
    state = random_state(spec.layout)
    listed = IterateState(*([b.tolist() for b in family] for family in (
        state.x1, state.x2, state.v1, state.v2)))
    flat, rec = step(spec, state, 0.05)
    from_lists, list_rec = step(spec, listed, 0.05)
    assert state_bytes(from_lists) == state_bytes(flat)
    assert list_rec == rec
    listed.x2[0] = [[v] for v in listed.x2[0]]
    with pytest.raises(SpecificationError, match="family x2 "):
        step(spec, listed, 0.05)


def test_block_of_strings_raises_what_laying_it_out_raises():
    spec = dense_two_by_two()
    state = random_state(spec.layout)
    state.x1[1] = np.array(["a"] * 4)   # the right shape, not numbers
    with pytest.raises(TypeError, match="Cannot cast array data"):
        step(spec, state, 0.05)


def test_overflowing_displacement_is_no_numeric_error():
    """z+ is finite but |z+ - z|^2 overflows: the step reports an infinite
    displacement, and a non-finite z+ is still named by its block.  Which
    overflow warnings numpy emits on the way is not part of the contract."""
    spec = dense_two_by_two()
    state = IterateState.zeros(spec.layout)
    state.x1[1] = np.full(4, 1e160)     # the box resolvent pulls it to 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        new, rec = step(spec, state, 1e-10)
        assert rec.displacement == math.inf
        assert all(np.isfinite(b).all() for b in blocks_of(new))
        record = np.full((3, spec.plan.blocks[-1][-1].stop), -0.0)
        record[2, spec.plan.blocks[3][0]] = np.inf
        with pytest.raises(NumericError, match="value in v2, block 0"):
            step(spec, state, 1e-10, record)


def test_finite_block_whose_square_overflows_is_not_named():
    """p11's and z+'s square sums overflow, but every entry is finite: the
    step goes on and reports an infinite displacement, as the per-block
    step does.  Which overflow warnings numpy emits is not tested."""
    spec = dense_two_by_two()
    state = IterateState.zeros(spec.layout)
    state.x1[1] = np.full(4, 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        new, rec = step(spec, state, 0.05)
        ref, ref_rec = reference_step(spec, state, 0.05)
    assert rec.displacement == math.inf
    assert all(np.isfinite(b).all() for b in blocks_of(new))
    assert state_bytes(new) == state_bytes(ref)
    assert rec == ref_rec


def test_step_reads_a_system_only_through_its_plan():
    spec, state, errors = exactness_case("dense_noisy")
    errs = error_record(errors, 0, spec.layout)
    only_plan = types.SimpleNamespace(plan=spec.plan)
    new, rec = step(only_plan, state, 0.05, errs)
    expected, expected_rec = step(spec, state, 0.05, errs)
    assert state_bytes(new) == state_bytes(expected)
    assert rec == expected_rec


def test_transversality_defect_reads_a_system_only_through_its_plan():
    spec, state, _ = exactness_case("dense")
    expected = math.sqrt(sum(
        np.sum((M.adjoint_apply(v2) - N.adjoint_apply(v1)) ** 2)
        for M, N, v1, v2 in zip(spec.M, spec.N, state.v1, state.v2)))
    assert transversality_defect(spec, state) == expected
    only_plan = types.SimpleNamespace(plan=spec.plan)
    assert transversality_defect(only_plan, state) == expected


def test_step_is_pure():
    """Two calls with the same arguments give the same bytes and records,
    and neither writes into the state or the error record it was given."""
    spec, state, errors = exactness_case("dense_noisy")
    errs = error_record(errors, 0, spec.layout)
    given = state_bytes(state), errs.tobytes()
    first, first_rec = step(spec, state, 0.05, errs)
    second, second_rec = step(spec, state, 0.05, errs)
    assert state_bytes(first) == state_bytes(second)
    assert first_rec == second_rec
    assert (state_bytes(state), errs.tobytes()) == given


# ---------------------------------------------------------------------------
# the batched geometric draws against a block-by-block keyed hash


MASK = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15     # splitmix64's increment
N_STRIDE = 0xD1B54A32D192ED03   # n's odd multiplier


def splitmix64(x):
    """splitmix64's finalizer on one Python int below 2**64."""
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 & MASK
    x ^= x >> 27
    x = x * 0x94D049BB133111EB & MASK
    return x ^ x >> 31


def seed_key(seed):
    """splitmix64 folded over the 64-bit words of ``seed``, low word
    first."""
    key = 0
    while True:
        key = splitmix64((key ^ seed & MASK) + GOLDEN & MASK)
        seed >>= 64
        if not seed:
            return key


def reference_geometric_block(rho, amplitude, seed, n, family, index, dim):
    """One block of ``geometric_schedule`` computed on its own: element j
    hashes its key (seed, n, family, index, j) in Python ints, and
    Box–Muller turns the two words into a normal."""
    code = ERROR_FAMILIES.index(family)
    states = [((code << 60 | index << 32 | j) ^ seed_key(seed))
              + n * N_STRIDE & MASK for j in range(dim)]
    u, u_angle = (
        np.array([(splitmix64(s + k * GOLDEN & MASK) >> 12) + 0.5
                  for s in states]) * 2.0**-52
        for k in (1, 2))
    v = np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * u_angle)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return np.full(dim, -0.0)  # an exact block
    return v * (amplitude * rho**n / norm)


LASSO_LAYOUT = SpaceLayout((10,), (10,), (10,), (10,))
UNEVEN_LAYOUT = SpaceLayout((3, 7), (5, 2), (4, 1), (2, 6))


def family_dims(layout, family):
    return {"11": layout.h_dims, "12": layout.g_dims,
            "21": layout.x_dims, "22": layout.y_dims}[family[1:]]


def is_exact(block):
    """Whether ``block`` is -0.0 throughout, which adds as no error."""
    return not block.any() and bool(np.signbit(block).all())


def assert_blocks_equal(errs, expected):
    assert list(errs) == list(ERROR_FAMILIES)
    for family in ERROR_FAMILIES:
        assert len(errs[family]) == len(expected[family])
        for got, want in zip(errs[family], expected[family]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), family


def assert_records_equal(a, b, layout):
    assert a.shape == b.shape == (3, layout.blocks[-1][-1].stop)
    assert_blocks_equal(error_blocks(a, layout), error_blocks(b, layout))


@pytest.mark.parametrize("layout", [LASSO_LAYOUT, UNEVEN_LAYOUT],
                         ids=["lasso", "uneven"])
@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**32, 2**40 + 5, 2**600 + 3])
def test_geometric_blocks_equal_the_keyed_reference(layout, seed):
    # rho**n stays near 1 up to n = 2**33, so the draws there are checked
    # whole; past 2**64 the envelope is 0 and only their signs remain
    rho = 1.0 - 2.0**-40
    sched = geometric_schedule(rho, 0.1, seed=seed)
    for n in (0, 1, 255, 2**32 - 1, 2**32, 2**32 + 1,
              2**64 - 1, 2**64, 2**64 + 1):
        expected = {
            family: [reference_geometric_block(rho, 0.1, seed, n, family,
                                               index, dim)
                     for index, dim in enumerate(family_dims(layout, family))]
            for family in ERROR_FAMILIES
        }
        record = error_record(sched, n, layout)
        assert_blocks_equal(error_blocks(record, layout), expected)
        # the x2 part of the b row, where no error enters, is -0.0
        assert is_exact(record[1][layout.blocks[1][0].start:
                                  layout.blocks[1][-1].stop])


def test_geometric_blocks_of_a_many_block_layout_equal_the_reference():
    # 2403 blocks: the last block of each family has a large index
    s = 300
    layout = SpaceLayout((2,), (2,) * s, (2,) * s, (2,) * s)
    sched = geometric_schedule(0.9, 0.1, seed=3)
    for n in (0, 9):
        errs = error_blocks(error_record(sched, n, layout), layout)
        for family in ERROR_FAMILIES:
            index = len(errs[family]) - 1
            assert errs[family][-1].tobytes() == reference_geometric_block(
                0.9, 0.1, 3, n, family, index, 2).tobytes(), family


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**64 + 9])
def test_geometric_seed_words_above_64_bits_change_the_draws(seed):
    # blocks of 10, as a block of one is scaled to +-amplitude * rho**n
    a, b = (error_blocks(error_record(geometric_schedule(0.9, 0.1, seed=s),
                                      3, LASSO_LAYOUT), LASSO_LAYOUT)
            for s in (seed, seed + 2**64))
    for family in ERROR_FAMILIES:
        assert a[family][0].tobytes() != b[family][0].tobytes(), family


def test_geometric_draws_are_standard_normal(monkeypatch):
    # the raw normals, before each block is scaled to the envelope
    drawn = []

    def kept(*args):
        out = normals(*args)
        drawn.append(out.copy())
        return out

    normals = solver._normals
    monkeypatch.setattr(solver, "_normals", kept)
    layout = SpaceLayout((1000,) * 2, (500,), (500,), (500,))
    sched = geometric_schedule(0.9, 0.1, seed=2024)
    for n in (0, 1):
        error_record(sched, n, layout)
    first, second = drawn
    x = first
    size = x.size
    assert size >= 10_000
    assert abs(x.mean()) < 4.0 / math.sqrt(size)
    assert abs(x.var() - 1.0) < 4.0 * math.sqrt(2.0 / size)
    # Kolmogorov–Smirnov distance to the normal cdf, against its 1%
    # critical value
    x = np.sort(x)
    cdf = 0.5 * (1.0 + np.array([math.erf(t / math.sqrt(2.0)) for t in x]))
    ranks = np.arange(1, size + 1) / size
    distance = max((ranks - cdf).max(), (cdf - (ranks - 1.0 / size)).max())
    assert distance < 1.628 / math.sqrt(size)
    # neighbouring iterations and neighbouring elements are uncorrelated
    for a, b in ((first, second), (first[:-1], first[1:])):
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / math.sqrt(a.size)


def test_geometric_block_draw_ignores_other_blocks_dims():
    # criterion 10 runs a joint system and its decoupled halves under one
    # schedule: a block must get the same draw whatever the other blocks are
    sched = geometric_schedule(0.9, 0.1, seed=12)
    base = SpaceLayout((3, 7), (5, 2), (4, 1), (2, 6))
    others = [
        SpaceLayout((3, 7), (9, 1, 4), (2, 2, 2), (8, 3, 5)),  # H kept
        SpaceLayout((6,), (5, 2), (4, 1), (2, 6)),             # G, Y, X kept
        SpaceLayout((3, 1), (5, 8), (4, 9), (2, 3)),           # index 0 kept
    ]
    for n in (0, 5, 300):
        a = error_blocks(error_record(sched, n, base), base)
        for other in others:
            b = error_blocks(error_record(sched, n, other), other)
            shared = 0
            for family in ERROR_FAMILIES:
                for x, y in zip(a[family], b[family]):
                    if x.shape == y.shape:
                        assert x.tobytes() == y.tobytes(), family
                        shared += 1
            assert shared >= 3


def test_realize_out_of_order_repeats_blocks():
    sched = geometric_schedule(0.9, 0.1, seed=4)
    first = error_record(sched, 7, UNEVEN_LAYOUT)
    error_record(sched, 3, UNEVEN_LAYOUT)
    again = error_record(sched, 7, UNEVEN_LAYOUT)
    assert_records_equal(again, first, UNEVEN_LAYOUT)
    # each record is fresh: writing one changes no later one
    again[:] = 1.0
    assert_records_equal(error_record(sched, 7, UNEVEN_LAYOUT), first,
                         UNEVEN_LAYOUT)


@pytest.fixture(scope="module")
def deblur16_layout():
    return deblur_demo().system.layout


@pytest.mark.parametrize("name", ["lasso", "uneven", "deblur16"])
def test_realize_run_rows_are_the_records_of_their_iterations(name, request):
    layout = {"lasso": LASSO_LAYOUT, "uneven": UNEVEN_LAYOUT}.get(name) \
        or request.getfixturevalue("deblur16_layout")
    size = layout.blocks[-1][-1].stop
    # rho**n stays near 1 up to n = 2**33; from 2**64 on the envelope is 0
    # and only the signs of the draws remain
    sched = geometric_schedule(1.0 - 2.0**-40, 0.1, seed=11)
    for n, count in ((0, 1), (0, 16), (9, 7), (2**32 - 2, 5),
                     (2**64 - 3, 6)):
        run = sched.realize(n, layout, count)
        assert run.shape == (count, 3, size)
        for j, record in enumerate(run):
            assert record.tobytes() == error_record(
                sched, n + j, layout).tobytes(), (n, j)
    # each run is fresh: writing one changes no later one
    again = sched.realize(n, layout, np.int64(count))
    assert again.tobytes() == run.tobytes()
    run[:] = 1.0
    assert sched.realize(n, layout, count).tobytes() == again.tobytes()


def test_generator_run_rows_are_the_records_of_their_iterations():
    sched = ErrorSchedule(lambda n, family, index, dim: b21_only(
        n, family, index, dim) if n % 3 == 1 else None)
    run = sched.realize(0, UNEVEN_LAYOUT, 6)
    for j, record in enumerate(run):
        single = error_record(sched, j, UNEVEN_LAYOUT)
        if single is None:  # an exact iteration is a row of -0.0
            assert is_exact(record)
        else:
            assert record.tobytes() == single.tobytes()
    assert sched.realize(2, UNEVEN_LAYOUT, 2) is None  # n = 2, 3: exact


def test_zero_norm_draw_in_a_run_is_an_exact_block(monkeypatch):
    # c12, block 0 of the lasso layout (elements 10 to 19 of the record's
    # row c), draws zeros at n = 4
    at_4 = 4 * solver._N_STRIDE % 2**64

    def zero_c12_at_4(counters, key, offsets):
        out = normals(counters, key, offsets)
        out.reshape(len(offsets), -1)[offsets == at_4, 90:100] = 0.0
        return out

    normals = solver._normals
    monkeypatch.setattr(solver, "_normals", zero_c12_at_4)
    sched = geometric_schedule(0.9, 0.1, seed=1)
    run = sched.realize(3, LASSO_LAYOUT, 3)
    for j, record in enumerate(run):
        assert record.tobytes() == error_record(
            sched, 3 + j, LASSO_LAYOUT).tobytes(), j
        c12 = error_blocks(record, LASSO_LAYOUT)["c12"][0]
        assert is_exact(c12) == (j == 1), j


@pytest.mark.parametrize("count", [0, -1, 2.0, 1.5, True, np.float64(3.0),
                                   "3"])
def test_realize_rejects_a_bad_count_by_name(count):
    for sched in (geometric_schedule(0.9, 0.1), ErrorSchedule(b21_only)):
        with pytest.raises(ValueError,
                           match=r"^count must be a positive integer, got "):
            sched.realize(0, LASSO_LAYOUT, count)


def test_geometric_schedule_is_safe_to_share_across_threads():
    sched = geometric_schedule(0.9, 0.1, seed=5)
    layouts = [LASSO_LAYOUT, UNEVEN_LAYOUT]
    ns = range(151)
    longest_run = 16

    def run(offset):
        order = list(ns)
        random.Random(offset).shuffle(order)
        singles, runs = {}, {}
        for n in order:
            layout = layouts[(n + offset) % 2]
            singles[n] = error_record(sched, n, layout)
            # runs of 1 to 16 records between the single realizations
            if n % 5 == offset % 5:
                runs[n] = sched.realize(n, layout, 1 + n % longest_run)
        return singles, runs

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, k) for k in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    alone = geometric_schedule(0.9, 0.1, seed=5)
    expected = [{n: error_record(alone, n, layout)
                 for n in range(ns.stop + longest_run)} for layout in layouts]
    for offset, (singles, runs) in enumerate(results):
        assert sorted(singles) == list(ns)
        for n, errs in singles.items():
            which = (n + offset) % 2
            assert_records_equal(errs, expected[which][n], layouts[which])
        assert sorted(runs) == [n for n in ns if n % 5 == offset % 5]
        for n, records in runs.items():
            which = (n + offset) % 2
            assert len(records) == 1 + n % longest_run
            for j, errs in enumerate(records):
                assert_records_equal(errs, expected[which][n + j],
                                     layouts[which])


def test_zero_norm_draw_is_an_exact_block(monkeypatch):
    # c12, block 0 of the lasso layout (elements 10 to 19 of the record's
    # row c), draws zeros
    calls = []

    def zero_c12(*args):
        out = normals(*args)
        calls.append(out)
        out[90:100] = 0.0
        return out

    normals = solver._normals
    monkeypatch.setattr(solver, "_normals", zero_c12)
    n = 3
    record = error_record(geometric_schedule(0.9, 0.1, seed=1), n,
                          LASSO_LAYOUT)
    assert len(calls) == 1  # one draw of the whole record
    errs = error_blocks(record, LASSO_LAYOUT)
    for family in ERROR_FAMILIES:
        block = errs[family][0]
        if family == "c12":
            assert is_exact(block)
        else:
            assert block.tobytes() == reference_geometric_block(
                0.9, 0.1, 1, n, family, 0, 10).tobytes(), family


@pytest.mark.parametrize("layout", [LASSO_LAYOUT, UNEVEN_LAYOUT],
                         ids=["lasso", "uneven"])
def test_lanes_place_each_block_once_and_are_read_only(layout):
    lanes = solver._lanes(layout)
    size = layout.blocks[-1][-1].stop
    assert [key[:2] for key in lanes.keys] == [
        (family, index) for family in ERROR_FAMILIES
        for index in range(len(family_dims(layout, family)))]
    # each error block fills its row and slice once, and only the x2 part
    # of row b is left over
    placed = np.zeros((3, size), int)
    for family, index, row, sl in lanes.keys:
        assert row == "abc".index(family[0])
        assert sl.stop - sl.start == family_dims(layout, family)[index]
        placed[row, sl] += 1
    assert lanes.x2 == slice(layout.blocks[1][0].start,
                             layout.blocks[1][-1].stop)
    placed[1, lanes.x2] += 1
    assert (placed == 1).all()
    # one counter per element of the record, the x2 part of row b included
    assert lanes.counters.shape == (3, size)
    assert len(set(lanes.counters.ravel().tolist())) == 3 * size
    assert not lanes.counters.flags.writeable
    with pytest.raises(ValueError):
        lanes.counters[0, 0] = 0


@pytest.mark.parametrize("kwargs", [
    {"seed": -1}, {"seed": 2.5}, {"seed": 2.0}, {"seed": True},
    {"amplitude": float("nan")}, {"amplitude": float("inf")},
    {"amplitude": -0.1}, {"rho": 1.0}, {"rho": float("nan")},
    {"rho": True}, {"rho": False}, {"amplitude": True}, {"rho": "0.9"},
    {"amplitude": "0.1"}, {"amplitude": None}, {"rho": 0.5j},
    {"amplitude": np.bool_(True)},
])
def test_geometric_schedule_rejects_bad_arguments(kwargs):
    args = {"rho": 0.9, "amplitude": 0.1, "seed": 0, **kwargs}
    with pytest.raises(ValueError):
        geometric_schedule(**args)


def test_geometric_schedule_accepts_numpy_floats():
    a = error_record(geometric_schedule(np.float64(0.9), np.float64(0.1)),
                     3, LASSO_LAYOUT)
    b = error_record(geometric_schedule(0.9, 0.1), 3, LASSO_LAYOUT)
    assert_records_equal(a, b, LASSO_LAYOUT)


def test_geometric_schedule_accepts_numpy_integer_seed():
    a = error_record(geometric_schedule(0.9, 0.1, seed=np.uint64(7)), 2,
                     LASSO_LAYOUT)
    b = error_record(geometric_schedule(0.9, 0.1, seed=7), 2, LASSO_LAYOUT)
    assert_records_equal(a, b, LASSO_LAYOUT)


def b21_only(n, family, index, dim):
    return np.full(dim, float(index + 1)) if family == "b21" else None


def test_custom_per_block_generator_is_read_block_by_block():
    calls = []

    def generator(n, family, index, dim):
        calls.append((n, family, index, dim))
        return b21_only(n, family, index, dim)

    sched = ErrorSchedule(generator)
    errs = error_blocks(error_record(sched, 4, UNEVEN_LAYOUT), UNEVEN_LAYOUT)
    assert [c[1:] for c in calls] == [
        (family, index, dim) for family in ERROR_FAMILIES
        for index, dim in enumerate(family_dims(UNEVEN_LAYOUT, family))]
    assert all(c[0] == 4 for c in calls)
    assert [list(b) for b in errs["b21"]] == [[1.0] * 2, [2.0] * 6]
    assert all(is_exact(e) for family in ERROR_FAMILIES if family != "b21"
               for e in errs[family])
    assert ErrorSchedule(lambda *key: None).realize(0, LASSO_LAYOUT, 1) \
        is None
    wrong = ErrorSchedule(lambda n, family, index, dim: np.zeros(dim + 1))
    with pytest.raises(SpecificationError, match="family a11 block 0"):
        wrong.realize(0, LASSO_LAYOUT, 1)


@pytest.mark.parametrize("value", [1j, "1", True, object()],
                         ids=["complex", "str", "bool", "object"])
def test_generator_non_real_block_is_an_error(value):
    sched = ErrorSchedule(
        lambda n, family, index, dim: np.full(dim, value)
        if family == "b21" else None)
    with pytest.raises(SpecificationError,
                       match="family b21 block 0 returned .* real numbers"):
        sched.realize(0, UNEVEN_LAYOUT, 1)


def test_generator_integer_blocks_are_read_as_floats():
    sched = ErrorSchedule(lambda n, family, index, dim: np.arange(
        dim, dtype=np.uint8 if index else np.int64))
    errs = error_blocks(error_record(sched, 0, UNEVEN_LAYOUT), UNEVEN_LAYOUT)
    assert [b.tolist() for b in errs["b21"]] == [[0.0, 1.0],
                                                 [0.0, 1.0, 2.0, 3.0, 4.0,
                                                  5.0]]


@pytest.mark.parametrize("n", [-1, -2**70, 2.0, 1.5, True, np.float64(3.0),
                               "3", None])
def test_realize_rejects_a_bad_n_by_name(n):
    for sched in (geometric_schedule(0.9, 0.1), ErrorSchedule(b21_only)):
        with pytest.raises(ValueError,
                           match=r"^n must be a non-negative integer, got "):
            sched.realize(n, LASSO_LAYOUT, 1)


def test_realize_takes_any_non_negative_integer_n():
    sched = geometric_schedule(0.9, 0.1, seed=3)
    for n, same in ((np.int64(5), 5), (np.uint64(2**63 + 1), 2**63 + 1),
                    (2**1100, 2**64)):  # n enters mod 2**64
        assert_records_equal(error_record(sched, n, UNEVEN_LAYOUT),
                             error_record(sched, same, UNEVEN_LAYOUT),
                             UNEVEN_LAYOUT)


def test_exact_blocks_keep_signed_zeros_bit_for_bit():
    # from a state of -0.0, the lines of the exact blocks must come out as
    # they do when nothing is added to them
    spec = dense_two_by_two()
    layout = spec.layout
    state = IterateState.zeros(layout)
    for block in state.x1 + state.x2 + state.v1 + state.v2:
        block[:] = -0.0
    sched = ErrorSchedule(b21_only)
    ref = state.copy()
    for n in range(3):
        record = error_record(sched, n, layout)
        state, rec = step(spec, state, 0.05, record)
        # the per-block step reads None, not -0.0, for the exact blocks
        ref, ref_rec = reference_step(spec, ref, 0.05, {
            family: [b21_only(n, family, index, dim)
                     for index, dim in enumerate(family_dims(layout, family))]
            for family in ERROR_FAMILIES})
        for x, y in zip(state.x1 + state.x2 + state.v1 + state.v2,
                        ref.x1 + ref.x2 + ref.v1 + ref.v2):
            assert x.tobytes() == y.tobytes()
        assert rec == ref_rec


@pytest.mark.parametrize("record", [
    np.full((3, 39), -0.0), np.full((2, 40), -0.0), np.full((3, 41), -0.0),
    np.full(120, -0.0), [[-0.0] * 40] * 3,
    {family: [None] for family in ERROR_FAMILIES},
], ids=["short", "family-missing", "long", "flat", "list", "per-block"])
def test_step_rejects_an_error_record_of_the_wrong_shape(record):
    demo = lasso_demo()
    state = IterateState.zeros(demo.system.layout)
    with pytest.raises(SpecificationError, match=r"shape \(3, 40\)"):
        step(demo.system, state, 0.1, record)


def test_error_schedule_takes_a_generator_or_nothing():
    assert [f.name for f in dataclasses.fields(ErrorSchedule)
            if f.init and not f.kw_only] == ["generator"]
    assert zero_schedule() == ErrorSchedule()
    with pytest.raises(TypeError):
        ErrorSchedule(b21_only, "b21 only")


@pytest.mark.parametrize("schedule", [zero_schedule(), ErrorSchedule()],
                         ids=["zero_schedule", "no-generator"])
def test_exact_schedules_realize_without_looking_up_lanes(monkeypatch,
                                                          schedule):
    def no_lanes(layout):
        raise AssertionError("an exact schedule looked up its lanes")

    monkeypatch.setattr(solver, "_lanes", no_lanes)
    for n, layout in ((0, LASSO_LAYOUT), (12345, UNEVEN_LAYOUT)):
        assert schedule.realize(n, layout, 1) is None
        assert schedule.realize(n, layout, 16) is None


def test_trace_csv_bytes_are_what_csv_writer_writes(tmp_path):
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
              1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e22, 123456789.0]
    rng = random.Random(13)

    def pick():
        return rng.choice(values) if rng.random() < 0.7 \
            else rng.uniform(-1e3, 1e3)

    trace = [TraceRecord(n, pick(), pick(), tuple(pick() for _ in range(4)),
                         tuple(pick() for _ in range(4)), pick(),
                         rng.randrange(n + 1), rng.randrange(n + 1))
             for n in (0, 1, 9, 10, 99999, 10**12)
             for _ in range(40)]
    solver.write_trace_csv(trace, tmp_path / "trace.csv")
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(solver.TRACE_COLUMNS)
        for rec in trace:
            writer.writerow([rec.n, *map(repr, (
                rec.gamma, rec.displacement, *rec.block_displacements,
                *rec.partial_sums, rec.transversality_defect)),
                rec.aa_accepted, rec.aa_refused])
    got = (tmp_path / "trace.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()
    assert got.count(b"\r\n") == len(trace) + 1


# --- Anderson extrapolation in solve ----------------------------------------


def flat_state(state):
    return np.concatenate(state.x1 + state.x2 + state.v1 + state.v2)


def recorded_steps(monkeypatch):
    """Patch the step ``solve`` calls to record ``(point, image)`` per call:
    the flat state it stepped from and the state it returned."""
    calls = []

    def recording(spec, state, gamma, errors_at_n=None):
        new, rec = step(spec, state, gamma, errors_at_n)
        calls.append((flat_state(state), new))
        return new, rec

    monkeypatch.setattr(solver, "step", recording)
    return calls


AA_RUNS = {
    # the lasso demo under noise, at its scalar step
    "lasso_geometric": lambda: (
        lasso_demo().system, make_policy(compute_beta(lasso_demo().system)),
        geometric_schedule(0.9, 0.1, seed=4)),
    # the qp demo at the metric step the CLI takes
    "qp_metric": lambda: (qp_demo().system, cli._policy(qp_demo().system),
                          None),
}


@pytest.mark.parametrize("case", AA_RUNS)
def test_a_zero_budget_solve_is_repeated_step(case, monkeypatch):
    # a zero budget refuses every extrapolation, so solve is the plain
    # iteration bit for bit, one refusal every AA_PERIOD steps
    monkeypatch.setattr(solver, "AA_BUDGET", 0.0)
    spec, policy, errors = AA_RUNS[case]()
    errors = errors or zero_schedule()
    max_iter = 5 * solver.AA_PERIOD + 3
    init = IterateState.zeros(spec.layout)
    final, trace, status = solve(spec, init, policy, errors=errors, tol=0.0,
                                 max_iter=max_iter, trace_every=1)
    state, sums, expected = init, (0.0,) * 4, []
    gamma = policy.steps(spec.layout)
    for it in range(max_iter):
        state, rec = step(spec, state, gamma,
                          error_record(errors, it, spec.layout))
        sums = tuple(a + b for a, b in zip(sums, rec.partial_sums))
        expected.append(rec._replace(
            partial_sums=sums,
            transversality_defect=transversality_defect(spec, state)))
    assert status == "max_iter"
    assert_states_equal(final, state)
    assert [rec._replace(aa_refused=0) for rec in trace] == expected
    assert [rec.aa_refused for rec in trace] == [
        (rec.n + 1) // solver.AA_PERIOD for rec in trace]


@pytest.mark.parametrize("case", AA_RUNS)
def test_an_extrapolation_stays_inside_its_summable_budget(case, monkeypatch):
    spec, policy, errors = AA_RUNS[case]()
    calls = recorded_steps(monkeypatch)
    final, trace, status = solve(spec, IterateState.zeros(spec.layout),
                                 policy, errors=errors, tol=1e-8,
                                 trace_every=1)
    assert status == "converged" and final is calls[-1][1]
    first = trace[0].displacement
    jumps = []
    for j in range(1, len(calls)):
        image = flat_state(calls[j - 1][1])
        point = calls[j][0]
        if point.tobytes() != image.tobytes():
            # the extrapolation made after iteration j - 1; the budget
            # decays with the extrapolated points stepped from before it
            budget = solver.AA_BUDGET * first * (
                len(jumps) + 1) ** -solver.AA_DECAY
            jumps.append(np.linalg.norm(point - image) / budget)
    assert jumps and max(jumps) <= 1.0
    assert (trace[-1].aa_accepted, trace[-1].aa_refused) == (len(jumps), 0)


def test_no_extrapolation_follows_the_last_iteration(monkeypatch):
    # an attempt falls due after iterations AA_PERIOD - 1 and 2 AA_PERIOD - 1;
    # the second is the last, so the run returns that step's image
    demo = qp_demo()
    calls = recorded_steps(monkeypatch)
    max_iter = 2 * solver.AA_PERIOD
    final, trace, status = solve(demo.system,
                                 IterateState.zeros(demo.system.layout),
                                 cli._policy(demo.system), tol=1e-12,
                                 max_iter=max_iter, trace_every=1)
    assert status == "max_iter" and len(calls) == max_iter
    assert final is calls[-1][1]
    assert trace[-1].n == final.n - 1 == max_iter - 1
    assert (trace[-1].aa_accepted, trace[-1].aa_refused) == (1, 0)
    assert trace[-1].transversality_defect \
        == transversality_defect(demo.system, final)


def test_a_far_extrapolation_is_stepped_from_and_the_run_converges(
        monkeypatch):
    # the first extrapolation, at the shipped AA_PERIOD, is replaced by a
    # far point: the run steps from it, counts it as accepted, starts a new
    # history from it and still converges
    real = solver._extrapolate
    lengths = []

    def far_first(chain, budget):
        lengths.append(len(chain))
        return chain[-1] + 10.0 if len(lengths) == 1 else real(chain, budget)

    monkeypatch.setattr(solver, "_extrapolate", far_first)
    calls = recorded_steps(monkeypatch)
    demo = qp_demo()
    final, trace, status = solve(demo.system,
                                 IterateState.zeros(demo.system.layout),
                                 cli._policy(demo.system), tol=1e-8,
                                 trace_every=1)
    assert status == "converged" and final is calls[-1][1]
    far = solver.AA_PERIOD  # the step from the far point
    assert calls[far][0].tobytes() \
        == (flat_state(calls[far - 1][1]) + 10.0).tobytes()
    assert (trace[far].aa_accepted, trace[far].aa_refused) == (1, 0)
    # every attempt, the first after the far point too, sees a full chain
    assert len(lengths) > 1
    assert set(lengths) == {solver.AA_MEMORY + 2}


def test_extrapolate_refuses_a_degenerate_least_squares():
    rng = np.random.default_rng(8)
    chain = [rng.standard_normal(6) for _ in range(5)]
    point = solver._extrapolate(chain, math.inf)
    assert point.shape == (6,) and np.isfinite(point).all()
    # beyond the budget
    assert solver._extrapolate(chain, 0.0) is None
    # two points, one displacement: no difference to mix, a zero Gram trace
    assert solver._extrapolate(chain[:2], math.inf) is None
    # equal displacements: a zero Gram trace
    steady = [np.full(6, 0.5 * i) for i in range(5)]
    assert solver._extrapolate(steady, math.inf) is None
    # a trace that overflows, and a NaN
    for bad in (1e300, math.nan):
        broken = list(chain)
        broken[2] = np.full(6, bad)
        assert solver._extrapolate(broken, math.inf) is None


def test_a_bare_step_record_reads_no_extrapolations():
    demo = lasso_demo()
    _, rec = step(demo.system, IterateState.zeros(demo.system.layout), 0.3)
    assert (rec.aa_accepted, rec.aa_refused) == (0, 0)


def test_a_numeric_error_carries_the_run_so_far():
    # the offsets of 1e300 stall the state; solve raises once the
    # displacement meets tol with an infinite defect
    demo = lasso_demo()
    spec = dataclasses.replace(demo.system, r=[np.full(10, 1e300)])
    with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
        solve(spec, IterateState.zeros(spec.layout), cli._policy(spec),
              trace_every=1)
    exc = err.value
    assert exc.state.n == exc.iteration + 1 == len(exc.trace) > 0
    assert exc.trace[-1].n == exc.iteration


def test_a_failed_step_off_the_trace_grid_leaves_the_last_state_a_record(
        monkeypatch):
    # the step of iteration 13 fails; at the default trace_every the last
    # kept record was iteration 10's, so the error adds one for the state
    # iteration 12 returned, with the sums and the defect of that state
    demo = lasso_demo()
    spec, policy = demo.system, cli._policy(demo.system)
    init = IterateState.zeros(spec.layout)
    plain, _, _ = solve(spec, init, policy, tol=0.0, max_iter=13)

    def failing(spec, state, gamma, errors_at_n=None):
        if state.n == 13:
            raise NumericError("injected", iteration=13)
        return step(spec, state, gamma, errors_at_n)

    monkeypatch.setattr(solver, "step", failing)
    with pytest.raises(NumericError) as err:
        solve(spec, init, policy, tol=0.0, max_iter=40)
    exc = err.value
    assert [rec.n for rec in exc.trace] == [0, 10, 12]
    assert_states_equal(exc.state, plain)
    monkeypatch.undo()
    _, dense, _ = solve(spec, init, policy, tol=0.0, max_iter=13,
                        trace_every=1)
    assert exc.trace[-1] == dense[-1]
