"""Shipped demo instances with closed-form or dense-algebra oracles.

Each demo is one fixed problem: its builder returns a :class:`DemoInstance`
bundling the minimization data (where applicable), the assembled system,
solver defaults and whatever reference solution an independent oracle
provides.  Only ``lasso_demo(n, seed)`` and ``deblur_demo(size, seed)``
take arguments, the instance families the benchmark draws from; their
defaults are the shipped demos.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .imaging import (
    ImageGrid,
    box_blur_op,
    build_app1_instance,
    make_observations,
)
from .linops import dense_op, identity_op, zero_op
from .minimization import (MinimizationSpec, build_system, quadratic_smooth,
                           smooth_coupling)
from .oracles import kkt_quadratic_solve
from .prox import make_function, soft_threshold, zero_coupling
from .solver import IterateState
from .system import SpaceLayout, SystemSpec


@dataclass
class DemoInstance:
    system: SystemSpec
    min_spec: Optional[MinimizationSpec] = None
    oracle_solution: Optional[np.ndarray] = None
    tol: float = 1e-8
    max_iter: int = 50_000
    extras: dict = field(default_factory=dict)


def get_demo(name):
    return DEMOS[name]()


def _one_block(f, matrix, offset, oracle, **extras):
    """``min f(x) + 0.5 ||matrix x - offset||^2`` on one block of R^n.

    The k-slot is filled so the composite term vanishes identically: with
    ell the indicator of the origin and g the zero function (M, N, L all
    the identity), the infimal-convolution term is 0 for every input.
    """
    n = len(offset)
    min_spec = MinimizationSpec(
        layout=SpaceLayout((n,), (n,), (n,), (n,)),
        f=[f],
        phi=quadratic_smooth(
            [{"op": dense_op(matrix), "offset": offset, "weight": 1.0}], n),
        g=[make_function("zero_function", {}, n)],
        ell=[make_function("indicator_zero", {}, n)],
        M=[identity_op(n)], N=[identity_op(n)], L=[[identity_op(n)]],
        z=[np.zeros(n)], r=[np.zeros(n)],
    )
    return DemoInstance(build_system(min_spec), min_spec, oracle,
                        extras=extras)


def lasso_demo(n=10, seed=1234):
    """l1-regularized recovery (weight 0.5) with an orthonormal design.

    With an orthonormal design the minimizer is the soft-thresholded
    back-projected observation, which serves as the oracle.
    """
    weight = 0.5
    rng = np.random.default_rng(seed)
    q_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    target = rng.uniform(-2.0, 2.0, size=n)
    # keep all coordinates clear of the threshold kink
    target[np.abs(np.abs(target) - weight) < 0.1] += 0.25
    b = q_mat @ target
    return _one_block(make_function("l1", {"weight": weight}, n), q_mat, b,
                      soft_threshold(q_mat.T @ b, weight),
                      design=q_mat, observation=b, weight=weight)


def lifted_solution_state(demo):
    """Lift the demo's oracle solution into a full fixed-point state.

    Applies to demos whose k-slot is the vanishing pair (ell = indicator of
    the origin, g = 0, M = N = L = Id, r = 0): the stationarity relations
    then force the splitting block to equal the primal point and both dual
    families to vanish.
    """
    x = np.asarray(demo.oracle_solution, dtype=float)
    state = IterateState.zeros(demo.system.layout)
    state.x1 = [x.copy()]
    state.x2 = [x.copy() for _ in range(demo.system.layout.s)]
    return state


def qp_demo():
    """Strongly convex quadratic program in R^4 under 2 equality constraints.

    The constraint enters as the indicator of the affine set; the oracle is
    a dense KKT solve.
    """
    n, n_eq = 4, 2
    rng = np.random.default_rng(977)
    g_mat = rng.standard_normal((n, n))
    Q = g_mat.T @ g_mat + np.eye(n)
    c = rng.standard_normal(n)
    E = rng.standard_normal((n_eq, n))
    d = rng.standard_normal(n_eq)
    # phi = 0.5 ||T x - r||^2 with T'T = Q and T'r = -c
    low = np.linalg.cholesky(Q)
    return _one_block(
        make_function("indicator_affine", {"matrix": E, "offset": d}, n),
        low.T, np.linalg.solve(low, -c), kkt_quadratic_solve(Q, c, E, d))


def _phantom(size):
    """Piecewise-smooth test image in [0, 1]: background, disk, ramp."""
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    img = np.full((size, size), 0.25)
    img += 0.3 * xx / max(size - 1, 1)
    disk = (yy - 0.4 * size) ** 2 + (xx - 0.55 * size) ** 2 \
        <= (0.22 * size) ** 2
    img[disk] = 0.85
    return ImageGrid(size, size, img.ravel())


def deblur_demo(size=16, seed=2024):
    """Single-observation box-blur recovery on a small grid: noise sigma
    0.01, weights alpha = beta = 0.004 and gamma = 0.002."""
    truth = _phantom(size)
    obs = make_observations(truth, [box_blur_op(size, size, 3)], [1.0], 0.01,
                            seed)
    min_spec = build_app1_instance(truth, obs, 0.004, 0.004, 0.002)
    system = build_system(min_spec)
    init = IterateState.zeros(system.layout)
    # warm start: clipped observation for the primal block and for the
    # splitting blocks (their limit is the smooth share of the composite)
    x0 = np.clip(obs.observations[0], 0.0, 1.0)
    init.x1 = [x0]
    init.x2 = [x0.copy(), x0.copy()]
    return DemoInstance(system, min_spec, tol=1e-6, max_iter=20_000,
                        extras={"truth": truth, "observations": obs,
                                "init": init})


def separation_demo():
    """Fully decoupled system (all cross-couplings zero) plus its two halves.

    The primal half carries an l1 + quadratic objective, the dual half a
    pair of nontrivial operators behind dense M and N.  With the couplings
    zero the joint iteration must reproduce both halves exactly, so the
    demo also ships the two single-sided systems for the comparison.
    """
    rng = np.random.default_rng(555)
    n, p = 6, 5
    design = rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    phi = quadratic_smooth(
        [{"op": dense_op(design, tag="G"), "offset": b, "weight": 1.0}], n)
    f1 = make_function("l1", {"weight": 0.3}, n)
    z1 = 0.1 * rng.standard_normal(n)

    m_mat = rng.standard_normal((p, p)) / np.sqrt(p)
    n_mat = rng.standard_normal((p, p)) / np.sqrt(p)
    g1 = make_function("l1", {"weight": 0.4}, p)
    ell1 = make_function(
        "quadratic_fidelity",
        {"terms": [{"matrix": np.eye(p), "offset": np.zeros(p), "weight": 1.0}]},
        p,
    )
    r1 = 0.5 * rng.standard_normal(p)

    joint_layout = SpaceLayout((n,), (p,), (p,), (p,))
    joint = SystemSpec(
        layout=joint_layout,
        z=[z1], r=[r1],
        A=[f1.operator],
        C=smooth_coupling(phi, (n,)),
        B=[g1.operator], D=[ell1.operator],
        M=[dense_op(m_mat, tag="M")], N=[dense_op(n_mat, tag="N")],
        L=[[zero_op(n, p)]],
    )

    primal_layout = SpaceLayout((n,), (1,), (1,), (1,))
    primal_only = SystemSpec(
        layout=primal_layout,
        z=[z1], r=[np.zeros(1)],
        A=[f1.operator],
        C=smooth_coupling(phi, (n,)),
        B=[make_function("zero_function", {}, 1).operator],
        D=[make_function("zero_function", {}, 1).operator],
        M=[zero_op(1, 1)], N=[zero_op(1, 1)],
        L=[[zero_op(n, 1)]],
    )

    dual_layout = SpaceLayout((1,), (p,), (p,), (p,))
    dual_only = SystemSpec(
        layout=dual_layout,
        z=[np.zeros(1)], r=[r1],
        A=[make_function("zero_function", {}, 1).operator],
        C=zero_coupling((1,)),
        B=[g1.operator], D=[ell1.operator],
        M=[dense_op(m_mat, tag="M")], N=[dense_op(n_mat, tag="N")],
        L=[[zero_op(1, p)]],
    )

    return DemoInstance(joint,
                        extras={"primal_only": primal_only,
                                "dual_only": dual_only})


# the shipped demos by name, in the order the CLI lists them
DEMOS = {
    "lasso": lasso_demo,
    "qp": qp_demo,
    "deblur": deblur_demo,
    "separation": separation_demo,
}
DEMO_NAMES = tuple(DEMOS)
