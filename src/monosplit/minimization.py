"""Convex-minimization front end over the inclusion solver.

The target problems minimize

    sum_k (ell_k o N_k) [inf-conv] (g_k o M_k) (sum_i L_{k,i} x_i - r_k)
    + sum_i (f_i(x_i) - <x_i, z_i>) + phi(x_1, ..., x_m)

where every f_i, g_k, ell_k is prox-describable and phi is smooth.  Mapping
subdifferentials to the system operators (A_i from f_i, B_k from g_k, D_k
from ell_k and the coupling from grad phi) turns the splitting iteration
into a fully proximal scheme for this objective.

True infimal-convolution values require an inner minimization, so the
measurable objective here is a *surrogate* with an explicit splitting
variable: it upper-bounds the true primal value for every split and matches
it at the optimal split (which the solver's auxiliary x2 blocks converge
to).  The dual surrogate mirrors this with a conjugate split and is
reported on the scale where weak duality reads
``primal_surrogate >= dual_surrogate``.

Existence of solutions and the primal-dual correspondence rest on the usual
qualification conditions (a range condition on the offsets and a relative
interior condition on the conjugate domains); these are preconditions the
instance builder asserts, never verified numerically.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import HypothesisError, NotComputableError, SpecificationError
from .linops import OpNormEstimate, certified, operator_norm
from .prox import (
    FEASIBILITY_SLACK,
    LipschitzCoupling,
    _assemble_quadratic,
    _quadratic_fidelity,
)
from .system import SpaceLayout, SystemSpec


@dataclass(frozen=True)
class SmoothFunction:
    """A convex differentiable function with a Lipschitz gradient.

    ``lipschitz`` is the asserted gradient Lipschitz constant (it feeds the
    coupling bound, so an upper bound is safe and an underestimate is not);
    ``lipschitz_source`` says how it was obtained (see
    :class:`~monosplit.prox.LipschitzCoupling`).
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    conjugate_value: Optional[Callable[[np.ndarray], float]] = None
    tag: str = ""
    lipschitz_source: Optional[OpNormEstimate] = None


def zero_smooth(dim):
    """phi = 0."""
    def conjugate_value(u):
        return 0.0 if np.all(np.abs(u) <= FEASIBILITY_SLACK) else np.inf

    return SmoothFunction(dim, lambda x: 0.0, lambda x: np.zeros(dim), 0.0,
                          conjugate_value, tag="zero",
                          lipschitz_source=certified(0.0))


def quadratic_smooth(terms, dim):
    """phi(x) = 0.5 sum_k w_k ||T_k x - r_k||^2 with assembled gradient.

    The Lipschitz constant is the sum of ``w_k ||T_k||^2`` with inflated
    Lanczos estimates (:func:`~monosplit.linops.operator_norm`), a safe
    upper bound for the true constant ``||sum w T'T||``.  Raises
    :class:`HypothesisError` when an estimate did not converge.
    """
    S, u0, c0, ops = _assemble_quadratic({"terms": terms}, dim)
    lipschitz, steps = 0.0, 0
    for op, _r, w in ops:
        est = operator_norm(op)
        if not est.converged:
            raise HypothesisError(
                f"quadratic term '{op.tag}': the Lanczos estimate did not "
                f"converge in {est.iterations_used} L*L products")
        lipschitz += w * est.upper_bound ** 2
        steps += est.iterations_used
    quad = _quadratic_fidelity(S, u0, c0, dim)

    def gradient(x):
        return S @ np.asarray(x, dtype=float) - u0

    lipschitz = float(lipschitz)
    return SmoothFunction(dim, quad.value, gradient, lipschitz,
                          quad.conjugate_value, tag="quadratic",
                          lipschitz_source=OpNormEstimate(
                              lipschitz, lipschitz, steps, True))


def smooth_coupling(phi, block_dims):
    """The gradient of ``phi``, as given, as a coupling over ``block_dims``.

    It is monotone because ``phi`` is convex; ``nu0`` is ``phi.lipschitz``.
    """
    if sum(block_dims) != phi.dim:
        raise SpecificationError(
            f"smooth '{phi.tag}' has dim {phi.dim}, but block dims "
            f"{tuple(block_dims)} sum to {sum(block_dims)}"
        )
    return LipschitzCoupling(block_dims, phi.gradient, phi.lipschitz,
                             tag=f"grad_{phi.tag}",
                             nu0_source=phi.lipschitz_source)


@dataclass(frozen=True)
class MinimizationSpec:
    """Problem data for the structured convex objective.

    ``f`` has one :class:`~monosplit.prox.ConvexFunction` per primal block,
    ``g``/``ell`` one per k-block (on Y_k and X_k), and the linear maps and
    offsets match the system layout.
    """

    layout: SpaceLayout
    f: list
    phi: SmoothFunction
    g: list
    ell: list
    M: list
    N: list
    L: list
    z: list
    r: list

    def __post_init__(self):
        object.__setattr__(self, "z",
                           [np.asarray(v, dtype=float) for v in self.z])
        object.__setattr__(self, "r",
                           [np.asarray(v, dtype=float) for v in self.r])


def build_system(min_spec):
    """Map the minimization data to a solvable inclusion system.

    Primal operators are subdifferentials of the f_i, the coupling is the
    gradient of phi, and the k-block operators are subdifferentials of g_k
    and ell_k; the resolvents are then proximity operators.  The
    :class:`SystemSpec` checks the layout as it is built, so an ``f``,
    ``g`` or ``ell`` entry that misses its space is reported as the ``A``,
    ``B`` or ``D`` entry it becomes.
    """
    ms = min_spec
    return SystemSpec(
        layout=ms.layout,
        z=ms.z,
        r=ms.r,
        A=[fi.operator for fi in ms.f],
        C=smooth_coupling(ms.phi, ms.layout.h_dims),
        B=[gk.operator for gk in ms.g],
        D=[lk.operator for lk in ms.ell],
        M=ms.M,
        N=ms.N,
        L=ms.L,
    )


def primal_surrogate(min_spec, x, y):
    """Objective value at primal points ``x`` with explicit splits ``y``.

    ``y`` holds one splitting vector per k-block (in G_k).  The returned
    value upper-bounds the true objective for every split and equals it at
    the optimal split; indicators may make it ``inf``.
    """
    ms = min_spec
    total = 0.0
    for i in range(ms.layout.m):
        total += ms.f[i].value(x[i]) - float(np.dot(x[i], ms.z[i]))
    total += ms.phi.value(np.concatenate(x))
    for k in range(ms.layout.s):
        lx = ms.L[k][0].apply(x[0])
        for i in range(1, ms.layout.m):
            lx = lx + ms.L[k][i].apply(x[i])
        inner = lx - ms.r[k] - np.asarray(y[k], dtype=float)
        total += ms.ell[k].value(ms.N[k].apply(inner))
        total += ms.g[k].value(ms.M[k].apply(y[k]))
        if total == np.inf:
            return np.inf
    return float(total)


def dual_surrogate(min_spec, v, w):
    """Certified lower bound from dual points ``v`` and conjugate split ``w``.

    ``v`` holds one multiplier per k-block (in G_k) and ``w`` one split
    vector per primal block.  The dual objective's infimal convolution is
    upper-bounded through ``w`` and the composed conjugates are resolved
    through the catalog; the result is negated so that weak duality reads
    ``primal_surrogate(x, y) >= dual_surrogate(v, w)``, with equality at an
    optimal quadruple.

    Raises :class:`NotComputableError` when a required conjugate is not
    catalog-expressible (e.g. a composition with a map that is neither the
    identity nor declared or tested orthogonal).
    """
    ms = min_spec
    if ms.phi.conjugate_value is None:
        raise NotComputableError("conjugate of the smooth part is unavailable")
    total = ms.phi.conjugate_value(np.concatenate(w))
    for i in range(ms.layout.m):
        if ms.f[i].conjugate_value is None:
            raise NotComputableError(f"conjugate of f[{i}] is unavailable")
        u_i = ms.z[i].copy()
        for k in range(ms.layout.s):
            u_i = u_i - ms.L[k][i].adjoint_apply(np.asarray(v[k], dtype=float))
        total += ms.f[i].conjugate_value(u_i - np.asarray(w[i], dtype=float))
        if total == np.inf:
            return -np.inf
    for k in range(ms.layout.s):
        vk = np.asarray(v[k], dtype=float)
        total += _composed_conjugate(ms.ell[k], ms.N[k], vk)
        total += _composed_conjugate(ms.g[k], ms.M[k], vk)
        total += float(np.dot(vk, ms.r[k]))
        if total == np.inf:
            return -np.inf
    return float(-total)


def _composed_conjugate(fn, op, v):
    """Value of ``(fn o op)*`` at v, for an identity or orthogonal op.

    ``op.kind`` is as op's constructor declared it; a square dense map is
    orthogonal too if its matrix has ``||Q'Q - I||_F <= 1e-9``.
    """
    if fn.conjugate_value is None:
        raise NotComputableError(f"conjugate of '{fn.tag}' is unavailable")
    if op.kind == "identity":
        return fn.conjugate_value(v)
    mat = op.matrix
    if op.kind == "orthogonal" or (
            mat is not None and mat.shape[0] == mat.shape[1]
            and np.linalg.norm(mat.T @ mat - np.eye(len(mat))) <= 1e-9):
        # (fn o Q)* = fn* o Q for orthogonal Q
        return fn.conjugate_value(op.apply(v))
    raise NotComputableError(
        f"conjugate of composition with '{op.tag}' is not catalog-expressible"
    )
