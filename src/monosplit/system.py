"""Data model for coupled systems of composite monotone inclusions.

A system couples m primal spaces H_i with s triples (G_k, Y_k, X_k): each
primal block carries a maximally monotone operator A_i plus a shared
monotone Lipschitz coupling C, and each k-block carries operators B_k on
Y_k and D_k on X_k reached through the linear maps M_k, N_k and the
cross-couplings L_{k,i}.  The solver searches for primal points and dual
multipliers satisfying all m + s inclusions simultaneously.

Stacking the blocks embeds the whole system into a single primal-dual pair
on the product spaces (direct sums of the H_i, G_k, Y_k, X_k), with the
product operators acting componentwise and the stacked linear maps
supplying the coupling.  The iteration holds its state as one vector of
the product space (:attr:`SpaceLayout.blocks` gives the layout) but never
materializes the product operators: the resolvent of a product operator is
the tuple of per-block resolvents, and the stacked maps are applied block
by block.  Solution quality is likewise measured operationally:
a state solves the embedded problem exactly when one exact iteration
leaves it unchanged, so the fixed-point residual of a single step is the
membership test.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import solver as _solver
from .errors import HypothesisError, SpecificationError, StepBoundError
from .linops import adjoint_check, compose, integer_dims, operator_norm
from .prox import coupling_defects

VALIDATE_ADJOINT_TOL = 1e-8
VALIDATE_COUPLING_TOL = 1e-7


@dataclass(frozen=True)
class SpaceLayout:
    """Dimensions of all spaces: h_dims has length m, the rest length s."""

    h_dims: tuple
    g_dims: tuple
    y_dims: tuple
    x_dims: tuple

    def __post_init__(self):
        for name in ("h_dims", "g_dims", "y_dims", "x_dims"):
            object.__setattr__(self, name,
                               integer_dims(getattr(self, name), name))
        if not self.h_dims or not self.g_dims:
            raise SpecificationError("layout needs at least one block per side")
        if len(self.y_dims) != self.s or len(self.x_dims) != self.s:
            raise SpecificationError(
                "y_dims and x_dims must have the same length as g_dims"
            )

    @property
    def m(self):
        return len(self.h_dims)

    @property
    def s(self):
        return len(self.g_dims)

    @cached_property
    def blocks(self):
        """Slices of the blocks in the flat iterate ``[x1 | x2 | v1 | v2]``.

        One tuple per family, over the spaces H_i, G_k, X_k and Y_k in that
        order.
        """
        out, start = [], 0
        for dims in (self.h_dims, self.g_dims, self.x_dims, self.y_dims):
            family = []
            for d in dims:
                family.append(slice(start, start + d))
                start += d
            out.append(tuple(family))
        return tuple(out)


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Complete description of one coupled inclusion system.

    ``A[i]``, ``B[k]``, ``D[k]`` are :class:`~monosplit.prox.ResolventOp`;
    ``C`` a :class:`~monosplit.prox.LipschitzCoupling` over the primal
    product space; ``M[k]: G_k -> Y_k``, ``N[k]: G_k -> X_k`` and
    ``L[k][i]: H_i -> G_k`` are :class:`~monosplit.linops.LinOp`.  Instances
    are immutable and safe to share across threads.
    """

    layout: SpaceLayout
    z: list
    r: list
    A: list
    C: object
    B: list
    D: list
    M: list
    N: list
    L: list

    def __post_init__(self):
        object.__setattr__(self, "z",
                           [np.asarray(v, dtype=float) for v in self.z])
        object.__setattr__(self, "r",
                           [np.asarray(v, dtype=float) for v in self.r])

    @cached_property
    def beta_report(self):
        """Where beta came from: one entry per term of :func:`compute_beta`.

        Each entry is a dict with the term's ``term`` name (``C`` for the
        coupling constant nu0), its ``value`` (the upper bound that enters
        beta), its ``method`` (``certificate``, ``svd`` or ``power``, or
        ``asserted`` for a nu0 given by the caller), the power-iteration
        steps it took (``iterations``) and whether it ``converged``.
        Raises :class:`HypothesisError` when a power iteration did not
        converge, as its estimate bounds nothing.
        """
        layout = self.layout
        source = self.C.nu0_source
        report = [{"term": "C", "value": float(self.C.nu0),
                   "method": source.method if source else "asserted",
                   "iterations": source.iterations_used if source else 0,
                   "converged": source.converged if source else True}]
        terms = [(f"N[{k}]oL[{k}][{i}]", compose(self.N[k], self.L[k][i]))
                 for k in range(layout.s) for i in range(layout.m)]
        for k in range(layout.s):
            terms += [(f"N[{k}]", self.N[k]), (f"M[{k}]", self.M[k])]
        for name, op in terms:
            if op.certificate is not None:
                est = op.certificate()
            else:
                est = operator_norm(op)
                if not est.converged:
                    raise HypothesisError(
                        f"{name}: power iteration did not converge in "
                        f"{est.iterations_used} steps, so its estimate "
                        f"{est.value:.6g} bounds nothing"
                    )
            report.append({"term": name, "value": est.upper_bound,
                           "method": est.method,
                           "iterations": est.iterations_used,
                           "converged": est.converged})
        return tuple(report)

    @cached_property
    def beta(self):
        """Coupling bound; see :func:`compute_beta`."""
        # the report lists C, then every N_k o L_ki, then N_k, M_k per k
        bounds = [entry["value"] for entry in self.beta_report[1:]]
        coupled = self.layout.s * self.layout.m
        total = sum(b ** 2 for b in bounds[:coupled])
        peak = max(n ** 2 + m ** 2 for n, m in zip(bounds[coupled::2],
                                                    bounds[coupled + 1::2]))
        beta = self.C.nu0 + float(np.sqrt(total + peak))
        if beta <= 0.0:
            raise HypothesisError(
                "beta = 0: the system has no coupling at all and the "
                "step-size range is empty"
            )
        return beta

    @cached_property
    def plan(self):
        """This system's :class:`~monosplit.solver.StepPlan`, built once."""
        return _solver.StepPlan.of(self)


@dataclass(frozen=True)
class SolutionPair:
    """A primal tuple and the dual multipliers of the coupled system."""

    xbar: list
    vbar: list


def compute_beta(spec):
    """Coupling bound: nu0 + sqrt(sum ||N L||^2 + max_k(||N||^2 + ||M||^2)).

    Every norm is an upper bound: the operator's certificate where it has
    one (:attr:`~monosplit.linops.LinOp.norm_bound`), else a converged
    power-iteration estimate inflated by the safety factor.  So the result
    upper-bounds the exact constant and the step range derived from it
    remains admissible; :attr:`SystemSpec.beta_report` lists the terms.
    Raises :class:`HypothesisError` when a power iteration did not
    converge or the bound is zero (the theory requires it strictly
    positive).  Results are memoized per spec instance.
    """
    return spec.beta


def validate(spec):
    """Collect violations of the structural and stochastic contracts.

    Returns a list of human-readable strings, empty iff all dimension
    checks pass, every linear operator returns vectors of its declared
    lengths and passes the adjoint check, beta is strictly positive, and
    the coupling returns vectors of its total length and respects its
    Lipschitz constant and monotonicity on random probes.  A mis-shaped
    map is listed by name, and beta is then not computed.
    """
    out = []
    layout = spec.layout
    m, s = layout.m, layout.s

    def check_len(name, seq, expect):
        if len(seq) != expect:
            out.append(f"{name}: expected {expect} entries, got {len(seq)}")
            return False
        return True

    ok = True
    ok &= check_len("z", spec.z, m)
    ok &= check_len("A", spec.A, m)
    ok &= check_len("r", spec.r, s)
    for name in ("B", "D", "M", "N", "L"):
        ok &= check_len(name, getattr(spec, name), s)
    if not ok:
        return out

    for i in range(m):
        d = layout.h_dims[i]
        if spec.z[i].shape != (d,):
            out.append(f"z[{i}]: expected length {d}, got {spec.z[i].shape}")
        if spec.A[i].dim != d:
            out.append(f"A[{i}]: dim {spec.A[i].dim} != H_{i} dim {d}")
    if spec.C.block_dims != layout.h_dims:
        out.append(
            f"C: block dims {spec.C.block_dims} != layout {layout.h_dims}"
        )
    for k in range(s):
        gd, yd, xd = layout.g_dims[k], layout.y_dims[k], layout.x_dims[k]
        if spec.r[k].shape != (gd,):
            out.append(f"r[{k}]: expected length {gd}, got {spec.r[k].shape}")
        if spec.B[k].dim != yd:
            out.append(f"B[{k}]: dim {spec.B[k].dim} != Y_{k} dim {yd}")
        if spec.D[k].dim != xd:
            out.append(f"D[{k}]: dim {spec.D[k].dim} != X_{k} dim {xd}")
        if (spec.M[k].in_dim, spec.M[k].out_dim) != (gd, yd):
            out.append(
                f"M[{k}]: dims {spec.M[k].in_dim}->{spec.M[k].out_dim}, "
                f"expected {gd}->{yd}"
            )
        if (spec.N[k].in_dim, spec.N[k].out_dim) != (gd, xd):
            out.append(
                f"N[{k}]: dims {spec.N[k].in_dim}->{spec.N[k].out_dim}, "
                f"expected {gd}->{xd}"
            )
        if not check_len(f"L[{k}]", spec.L[k], m):
            continue
        for i in range(m):
            hd = layout.h_dims[i]
            if (spec.L[k][i].in_dim, spec.L[k][i].out_dim) != (hd, gd):
                out.append(
                    f"L[{k}][{i}]: dims {spec.L[k][i].in_dim}->"
                    f"{spec.L[k][i].out_dim}, expected {hd}->{gd}"
                )
    if out:
        return out

    shaped = True  # every map returns vectors of its declared lengths
    for k in range(s):
        maps = [(f"M[{k}]", spec.M[k], 3 + k), (f"N[{k}]", spec.N[k], 3 + k)]
        maps += [(f"L[{k}][{i}]", spec.L[k][i], 5 + k + i) for i in range(m)]
        for name, op, seed in maps:
            try:
                defect = adjoint_check(op, trials=20, seed=seed)
            except SpecificationError as exc:
                out.append(f"{name}: {exc}")
                shaped = False
            else:
                if defect > VALIDATE_ADJOINT_TOL:
                    out.append(f"{name}: adjoint defect {defect:.2e}")

    try:
        lip, mono = coupling_defects(spec.C, trials=30, seed=13)
    except SpecificationError as exc:
        out.append(f"C: {exc}")
    else:
        if lip > VALIDATE_COUPLING_TOL * (1.0 + spec.C.nu0):
            out.append(
                f"C: Lipschitz defect {lip:.2e} exceeds tolerance for nu0 = "
                f"{spec.C.nu0}"
            )
        if mono > VALIDATE_COUPLING_TOL:
            out.append(f"C: monotonicity defect {mono:.2e}")

    if not shaped:
        return out  # beta's norms of a mis-shaped map bound nothing
    try:
        compute_beta(spec)
    except HypothesisError as exc:
        out.append(str(exc))
    return out


def fixed_point_residual(spec, state, gamma):
    """Full-state displacement of one exact iteration from ``state``.

    Zero (to roundoff) exactly when the state encodes a solution of the
    embedded system.  ``gamma`` must lie in the admissible range
    ``(0, (1 - eps)/beta]`` for the default eps.
    """
    beta = compute_beta(spec)
    hi = _solver.make_policy(beta).gamma_max
    if not (0.0 < gamma <= hi * (1 + 1e-12)):
        raise StepBoundError(
            f"gamma = {gamma} outside (0, {hi}] for beta = {beta}"
        )
    _, record = _solver.step(spec, state, gamma)
    return record.displacement


def extract_solution(state, spec):
    """Read the solution of the coupled system off an algorithm state.

    The primal part is the x1 family verbatim; the dual multiplier for
    block k is ``N_k*`` applied to the first dual variable.
    """
    xbar = [b.copy() for b in state.x1]
    vbar = [spec.N[k].adjoint_apply(state.v1[k])
            for k in range(spec.layout.s)]
    return SolutionPair(xbar=xbar, vbar=vbar)
