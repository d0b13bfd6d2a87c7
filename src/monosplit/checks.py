"""Fast invariant battery behind the ``check`` command.

Each check is deterministic (fixed seeds throughout) and cheap; together
they cover the load-bearing identities: adjoint pairings, the inverse-
resolvent identity, prox optimality and the dual resolvent against grid
searches (the latter on the conjugate), the coupling-bound arithmetic, the
fixed-point characterization of solutions, Tseng's inequality for the
shipped step and the Lanczos operator-norm estimate against a Jacobi SVD.
"""

import numpy as np

from .demos import lasso_demo, lifted_solution_state
from .imaging import gradient_op, haar_analysis_op, second_gradient_op
from .linops import (
    NORM_SAFETY,
    adjoint_check,
    compose,
    dense_op,
    identity_op,
    materialize,
    operator_norm,
)
from .oracles import dense_svd_norm, grid_refine_minimize
from .prox import make_function, resolvent_of_inverse
from .solver import IterateState, step
from .system import compute_beta, fixed_point_residual, step_policy

CHECK_SEED = 42


def run_checks():
    """Run the battery; returns a list of (name, passed, detail) triples."""
    results = []

    def record(name, passed, detail=""):
        results.append((name, bool(passed), detail))

    rng = np.random.default_rng(CHECK_SEED)

    ops = {
        "identity(7)": identity_op(7),
        "dense(5x3)": dense_op(rng.standard_normal((5, 3))),
        "gradient(6x5)": gradient_op(6, 5),
        "second_gradient(6x5)": second_gradient_op(6, 5),
        "haar(6x4)": haar_analysis_op(6, 4),
    }
    ops["compose"] = compose(ops["dense(5x3)"], dense_op(
        rng.standard_normal((3, 4))))
    for name, op in ops.items():
        defect = adjoint_check(op, trials=50, seed=CHECK_SEED)
        record(f"adjoint {name}", defect <= 1e-10, f"defect {defect:.2e}")

    # inverse-resolvent identity across the catalog
    entries = _catalog_samples()
    for name, fn in entries:
        worst = 0.0
        local = np.random.default_rng(CHECK_SEED + 1)
        for gamma in (0.1, 1.0, 10.0):
            for _ in range(10):
                x = local.standard_normal(fn.dim)
                lhs = np.asarray(fn.operator.resolve(gamma, x)) \
                    + gamma * resolvent_of_inverse(fn.operator, 1.0 / gamma,
                                                   x / gamma)
                worst = max(worst, float(np.max(np.abs(lhs - x))))
        record(f"inverse-resolvent {name}", worst <= 1e-12,
               f"defect {worst:.2e}")

    # prox optimality vs grid refinement (1-D cases keep this fast); boxes
    # for point-like feasible sets are centered so the set lies on the grid
    for name, fn in _catalog_samples(dims_1d=True):
        x = np.array([0.7])
        gamma = 1.0
        prox = np.asarray(fn.operator.resolve(gamma, x))
        center = np.zeros(1) if name == "indicator_zero" else x
        argmin, _ = grid_refine_minimize(
            lambda y, _f=fn: _f.value(y)
            + np.add.reduce((y - x) ** 2) / (2 * gamma),
            lo=center - 3.0, hi=center + 3.0, levels=6)
        err = float(np.max(np.abs(prox - argmin)))
        record(f"prox-grid {name}", err <= 2e-3, f"error {err:.2e}")

    # the dual resolvent vs an oracle that reads the conjugate, not the
    # resolvent
    for name, fn in _catalog_samples(dims_1d=True):
        gap = dual_resolvent_gap(name, fn)
        record(f"dual-resolvent {name}", gap <= 2e-3, f"error {gap:.2e}")

    # coupling-bound arithmetic vs dense singular values
    demo = lasso_demo()
    beta = compute_beta(demo.system)
    by_hand = _beta_by_hand(demo.system)
    ok = by_hand - 1e-8 <= beta <= demo.system.C.nu0 \
        + NORM_SAFETY * (by_hand - demo.system.C.nu0) + 1e-8
    record("coupling bound arithmetic", ok,
           f"bound {beta:.6f} vs svd {by_hand:.6f}")

    # the lifted oracle solution is a fixed point
    state = lifted_solution_state(demo)
    res = fixed_point_residual(demo.system, state, 0.25)
    record("solution is a fixed point", res <= 1e-6, f"residual {res:.2e}")

    # each step of the shipped policy contracts toward that solution
    solution = np.concatenate(state.x1 + state.x2 + state.v1 + state.v2)
    excess = tseng_excess(demo.system, step_policy(demo.system), solution,
                          starts=5, steps=40)
    record("tseng inequality", excess <= 1e-12,
           f"worst excess {excess:.2e} of ||z - z*||^2")

    # the Lanczos estimate against the Jacobi oracle
    mat = rng.standard_normal((8, 5))
    est = operator_norm(dense_op(mat))
    ref = dense_svd_norm(mat)
    record("operator norm vs jacobi", abs(est.value - ref) <= 1e-8,
           f"lanczos {est.value:.10f} vs jacobi {ref:.10f}")

    return results


def tseng_excess(spec, policy, solution, starts=20, steps=200):
    """The worst relative excess of Tseng's inequality over the steps of
    ``policy`` from seeded points around the flat fixed point ``solution``.

    Each step from z to z+ through the backward point p must satisfy
    ``||z+ - z*||^2 <= ||z - z*||^2 - (1 - gamma^2 L^2) ||z - p||^2`` in
    the metric's norm ``||u||^2 = sum_e u_e^2 / d_e``, with gamma the
    policy's scale, d_e each element's weight and L = ``policy.beta``.  The
    ``starts`` starting points lie at scales 1e-3 to 10 from z*, and each
    takes ``steps`` steps.  Returns the largest ``(lhs - rhs) / ||z -
    z*||^2``: at most rounding when L bounds the rescaled operator.
    ``||z - p||^2`` is read from the step record's family sums, so each
    family's blocks must share one weight, else ``ValueError``.
    """
    blocks = spec.layout.blocks
    block_steps = policy.steps(spec.layout)
    weights = block_steps.flat / policy.gamma_const
    family_weights = [weights[sl.start] for sl in spec.plan.families]
    if any((weights[sl] != d).any()
           for sl, d in zip(spec.plan.families, family_weights)):
        raise ValueError("a family's blocks step at different weights")
    contraction = 1.0 - (policy.gamma_const * policy.beta) ** 2
    rng = np.random.default_rng(CHECK_SEED)
    worst = -np.inf
    for scale in np.logspace(-3.0, 1.0, starts):
        z = solution + scale * rng.standard_normal(solution.size)
        state = IterateState(*([z[sl] for sl in family] for family in blocks))
        before = float(np.sum((z - solution) ** 2 / weights))
        for _ in range(steps):
            state, rec = step(spec, state, block_steps)
            z = np.concatenate(state.x1 + state.x2 + state.v1 + state.v2)
            after = float(np.sum((z - solution) ** 2 / weights))
            if before > 0.0:
                gap = sum(s / d for s, d in zip(rec.partial_sums,
                                                family_weights))
                worst = max(worst, (after - before + contraction * gap)
                            / before)
            before = after
    return worst


def dual_resolvent_gap(name, fn):
    """Worst gap between ``resolvent_of_inverse(fn.operator, gamma, x)``
    and the minimizer of ``gamma f*(y) + (y - x)^2 / 2`` by grid search, for
    the 1-D catalog function ``fn`` named ``name``, over gamma in 0.1, 1, 10
    and x in -1.7, 0.2, 0.9."""
    worst = 0.0
    for gamma in (0.1, 1.0, 10.0):
        for x in (-1.7, 0.2, 0.9):
            # the conjugate of the zero function is the indicator of {0}
            center = 0.0 if name == "zero_function" else x
            argmin, _ = grid_refine_minimize(
                lambda y: gamma * fn.conjugate_value(y)
                + 0.5 * float(y[0] - x) ** 2,
                lo=center - 15.0, hi=center + 15.0, levels=7)
            dual = resolvent_of_inverse(fn.operator, gamma, np.array([x]))
            worst = max(worst, abs(float(dual[0] - argmin[0])))
    return worst


def _catalog_samples(dims_1d=False):
    """Representative catalog instances, optionally restricted to dim 1."""
    d = 1 if dims_1d else 3
    entries = [
        ("l1", make_function("l1", {"weight": 0.8}, d)),
        ("indicator_box", make_function("indicator_box",
                                        {"lo": -0.5, "hi": 1.0}, d)),
        ("zero_function", make_function("zero_function", {}, d)),
        ("indicator_zero", make_function("indicator_zero", {}, d)),
        ("quadratic_fidelity", make_function(
            "quadratic_fidelity",
            {"terms": [{"matrix": np.eye(d), "offset": np.zeros(d),
                        "weight": 1.0}]}, d)),
        ("scaled_translated", make_function(
            "scaled_translated",
            {"inner": {"prox": "l1", "params": {"weight": 1.0}},
             "shift": 0.3, "scale": 0.5}, d)),
    ]
    if not dims_1d:
        entries.append(("group_l12", make_function(
            "group_l12", {"blocks": [[0, 1], [2]], "weight": 0.7}, 3)))
    return entries


def _beta_by_hand(spec):
    """Coupling bound evaluated with exact dense singular values."""
    layout = spec.layout
    total = 0.0
    for k in range(layout.s):
        for i in range(layout.m):
            mat = materialize(compose(spec.N[k], spec.L[k][i]))
            total += dense_svd_norm(mat) ** 2
    peak = 0.0
    for k in range(layout.s):
        peak = max(peak, dense_svd_norm(materialize(spec.N[k])) ** 2
                   + dense_svd_norm(materialize(spec.M[k])) ** 2)
    return spec.C.nu0 + float(np.sqrt(total + peak))


def format_report(results):
    lines = []
    width = max(len(name) for name, _, _ in results)
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        lines.append(f"{name:<{width}}  {status}  {detail}")
    failed = sum(1 for _, passed, _ in results if not passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)
