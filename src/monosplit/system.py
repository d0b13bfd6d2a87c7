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

import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from . import solver as _solver
from .errors import HypothesisError, SpecificationError
from .linops import (_read_only, adjoint_check, compose, integer_dims,
                     operator_norm)
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
    ``L[k][i]: H_i -> G_k`` are :class:`~monosplit.linops.LinOp`.  The
    families are frozen into tuples (``L`` a tuple of rows) and ``z``, ``r``
    into read-only float copies, so the caller's arrays stay its own and the
    cached :attr:`plan` and :attr:`beta_report` cannot go stale.
    Construction checks that every family matches the layout and raises
    one :class:`SpecificationError` listing each misfit.  Instances are
    immutable and safe to share across threads.
    """

    layout: SpaceLayout
    z: tuple
    r: tuple
    A: tuple
    C: object
    B: tuple
    D: tuple
    M: tuple
    N: tuple
    L: tuple

    def __post_init__(self):
        for name in ("z", "r"):
            object.__setattr__(self, name, tuple(
                _read_only(np.array(v, dtype=float))
                for v in getattr(self, name)))
        for name in ("A", "B", "D", "M", "N"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "L", tuple(map(tuple, self.L)))
        misfits = _layout_misfits(self)
        if misfits:
            raise SpecificationError(
                "system does not match its layout: " + "; ".join(misfits))

    @cached_property
    def beta_report(self):
        """Where beta came from: one entry per term of :func:`compute_beta`.

        Each entry is a dict with the term's ``term`` name (``C`` for the
        coupling constant nu0), its ``value`` (the upper bound that enters
        beta), its ``method`` (``certificate``, ``svd`` or ``lanczos``, or
        ``asserted`` for a nu0 given by the caller), the ``L* L`` products
        its estimate took (``iterations``) and whether it ``converged``.
        Raises :class:`HypothesisError` when a Lanczos estimate did not
        converge, as it bounds nothing.
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
                        f"{name}: the Lanczos estimate did not converge in "
                        f"{est.iterations_used} L*L products, so its value "
                        f"{est.value:.6g} bounds nothing"
                    )
            report.append({"term": name, "value": est.upper_bound,
                           "method": est.method,
                           "iterations": est.iterations_used,
                           "converged": est.converged})
        return tuple(report)

    @cached_property
    def plan(self):
        """This system's :class:`~monosplit.solver.StepPlan`, built once."""
        return _solver.StepPlan.of(self)


def _layout_misfits(spec):
    """Every way ``spec`` misses its layout, one line each, named by family
    and index.

    Each row of the table gives a family, the attributes read from each
    entry and the values the layout expects; a family of the wrong length is
    named once and its entries are not read, and an entry that lacks an
    attribute its row reads is named with its type.  ``L``'s row checks its
    count of rows, and each of its rows is a family of its own.
    """
    lay = spec.layout
    dims = ("in_dim", "out_dim")
    rows = [
        ("z", spec.z, ("shape",), [(d,) for d in lay.h_dims]),
        ("r", spec.r, ("shape",), [(d,) for d in lay.g_dims]),
        ("A", spec.A, ("dim",), lay.h_dims),
        ("B", spec.B, ("dim",), lay.y_dims),
        ("D", spec.D, ("dim",), lay.x_dims),
        ("M", spec.M, dims, list(zip(lay.g_dims, lay.y_dims))),
        ("N", spec.N, dims, list(zip(lay.g_dims, lay.x_dims))),
        ("L", spec.L, None, lay.g_dims),
    ]
    rows += [(f"L[{k}]", row, dims, [(h, g) for h in lay.h_dims])
             for k, (row, g) in enumerate(zip(spec.L, lay.g_dims))]
    out = []
    for name, family, attrs, expected in rows:
        if len(family) != len(expected):
            out.append(f"{name}: expected {len(expected)} entries, "
                       f"got {len(family)}")
        elif attrs:
            out += [_misfit(f"{name}[{j}]", entry, attrs, want)
                    for j, (entry, want) in enumerate(zip(family, expected))]
    out.append(_misfit("C", spec.C, ("block_dims",), lay.h_dims,
                       "block dims "))
    return [line for line in out if line]


def _misfit(name, entry, attrs, want, what=""):
    """The line naming how ``entry``'s ``attrs`` miss ``want``, or None."""
    try:
        got = attrgetter(*attrs)(entry)
    except AttributeError:
        return f"{name}: a {type(entry).__name__} has no {'/'.join(attrs)}"
    if got != want:
        return f"{name}: expected {what}{want}, got {got}"
    return None


@dataclass(frozen=True)
class SolutionPair:
    """A primal tuple and the dual multipliers of the coupled system."""

    xbar: list
    vbar: list


def compute_beta(spec):
    """Coupling bound: nu0 + sqrt(sum ||N L||^2 + max_k(||N||^2 + ||M||^2)).

    Every norm is an upper bound: the operator's certificate where it has
    one (:attr:`~monosplit.linops.LinOp.certificate`), else a converged
    Lanczos estimate inflated by the safety factor.  So the result
    upper-bounds the exact constant and the step range derived from it
    remains admissible; :attr:`SystemSpec.beta_report` lists the terms,
    and memoizes them per spec instance.  A norm whose square overflows
    gives ``inf``.  Raises :class:`HypothesisError` when a Lanczos
    estimate did not converge or the bound is zero (the theory requires
    it strictly positive).
    """
    # the report lists C, then every N_k o L_ki, then N_k, M_k per k
    bounds = [entry["value"] for entry in spec.beta_report[1:]]
    coupled = spec.layout.s * spec.layout.m
    try:
        total = sum(b ** 2 for b in bounds[:coupled])
        peak = max(n ** 2 + m ** 2 for n, m in zip(bounds[coupled::2],
                                                    bounds[coupled + 1::2]))
    except OverflowError:  # Python's float ** raises where numpy's gives inf
        return math.inf
    beta = spec.C.nu0 + float(np.sqrt(total + peak))
    if beta <= 0.0:
        raise HypothesisError(
            "beta = 0: the system has no coupling at all and the "
            "step-size range is empty"
        )
    return beta


def _block_norms(spec):
    """The block-norm matrix W of the step's operator F, for a finite beta.

    W is the symmetric nonnegative matrix over the blocks x1 (taken whole),
    x2_k, v1_k and v2_k, ``1 + 3 s`` rows in that order, with ``nu0`` on
    x1-x1, ``sqrt(sum_i ||N_k L_ki||^2)`` on x1-v1_k, ``||N_k||`` on
    x2_k-v1_k and ``||M_k||`` on x2_k-v2_k, all read from
    :attr:`SystemSpec.beta_report`.  Each output block of ``F z - F z'`` is
    bounded by W's row applied to the block norms u of ``z - z'``.
    """
    s, m = spec.layout.s, spec.layout.m
    # the report lists C, then every N_k o L_ki, then N_k, M_k per k
    nu0, *norms = (entry["value"] for entry in spec.beta_report)
    rows = 1 + 3 * s
    w = np.zeros((rows, rows))
    w[0, 0] = nu0
    for k in range(s):
        x2, v1, v2 = 1 + k, 1 + s + k, 1 + 2 * s + k
        w[0, v1] = math.hypot(*norms[k * m:(k + 1) * m])
        w[x2, v1], w[x2, v2] = norms[s * m + 2 * k:s * m + 2 * k + 2]
    return np.maximum(w, w.T)


def _certified_top(w):
    """An upper bound of ``lambda_max`` of the nonzero symmetric nonnegative
    matrix ``w``, which is its 2-norm: ``np.linalg.eigvalsh`` of w divided by
    its largest entry, multiplied back and inflated by ``1 + 8 rows eps``
    for the eigensolver's backward error, as
    :func:`~monosplit.linops._svd_norm` inflates an SVD norm."""
    top = w.max()
    lam = float(np.linalg.eigvalsh(w / top)[-1]) * top
    return lam * (1.0 + 8.0 * len(w) * np.finfo(float).eps)


def step_bound(spec):
    """Certified Lipschitz bound of the step's operator F, never above beta.

    F is the operator :func:`~monosplit.solver.step` applies: C on x1 plus
    a skew linear part.  The FBF step range needs only an upper bound of
    its Lipschitz constant (Tseng 2000), and beta is one such bound.  This
    one is tighter: ``lambda_max`` of the block-norm matrix W (see
    :func:`_block_norms`).  As ``||F z - F z'|| <= ||W u|| <=
    lambda_max(W) ||z - z'||`` for the block norms u of ``z - z'``, and the
    x1 row and the x2 rows act on disjoint outputs, ``lambda_max(W) <= nu0
    + sqrt(sum ||N L||^2 + max_k(||N||^2 + ||M||^2))``, which is
    :func:`compute_beta`.  The top eigenvalue is certified with a roundoff
    margin (:func:`_certified_top`).  The result is the smaller of that and
    beta, so it is ``inf`` where beta is, and it raises what
    :func:`compute_beta` raises.
    """
    beta = compute_beta(spec)
    if not math.isfinite(beta):
        return beta
    return min(_certified_top(_block_norms(spec)), beta)


def step_metric(spec):
    """The block-diagonal metric that ``monosplit solve`` steps under, and
    its certified bound: ``(metric, bound)``.

    The metric D is one weight ``d_b = 1 / ||W_b,:||_2`` per row of the
    block-norm matrix W (:func:`_block_norms`), or 1 for a zero row, whose
    block F neither reads nor writes.  ``metric`` lists the weights in flat
    block order, x1's weight repeated over its m blocks.  Stepping block b
    at ``gamma d_b`` is Tseng's step at gamma on the rescaled inclusion
    ``D^1/2 (A + F) D^1/2`` (Vu, Numer. Funct. Anal. Optim. 34, 2013), whose
    resolvents are the blocks' own at ``gamma d_b``.  Each block of ``D^1/2
    F D^1/2`` is bounded by ``sqrt(d_a d_b) W_ab``, so ``bound``, the
    certified ``lambda_max`` of that scaled matrix (:func:`_certified_top`),
    is a Lipschitz bound of the rescaled operator, and gamma ranges over
    :func:`~monosplit.solver.make_policy`'s ``[eps, (1 - eps)/bound]``.  A
    row reads only its own block's terms, so a decoupled part of a system
    gets the weights it has on its own.  Where beta is infinite, ``bound``
    is ``inf`` and ``metric`` None; it raises what :func:`compute_beta`
    raises.
    """
    beta = compute_beta(spec)
    if not math.isfinite(beta):
        return None, beta
    w = _block_norms(spec)
    d = np.array([1.0 / norm if norm else 1.0
                  for norm in (math.hypot(*row) for row in w)])
    root = np.sqrt(d)
    metric = (float(d[0]),) * spec.layout.m + tuple(map(float, d[1:]))
    return metric, _certified_top(w * np.outer(root, root))


def validate(spec):
    """Probe the behaviour that construction cannot check.

    Returns a list of human-readable strings, empty iff every linear
    operator returns vectors of its declared lengths and passes the
    adjoint check, the coupling returns vectors of its total length and
    respects its Lipschitz constant and monotonicity on random probes, and
    beta is strictly positive.  A mis-shaped map is listed by name, and
    beta is then not computed.  The layout itself is checked when the
    :class:`SystemSpec` is built.
    """
    out = []
    shaped = True  # every map returns vectors of its declared lengths
    for k, (M, N, row) in enumerate(zip(spec.M, spec.N, spec.L)):
        maps = [(f"M[{k}]", M, 3 + k), (f"N[{k}]", N, 3 + k)]
        maps += [(f"L[{k}][{i}]", L, 5 + k + i) for i, L in enumerate(row)]
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

    if shaped:  # beta's norms of a mis-shaped map bound nothing
        try:
            compute_beta(spec)
        except HypothesisError as exc:
            out.append(str(exc))
    return out


def fixed_point_residual(spec, state, gamma):
    """Full-state displacement of one exact iteration from ``state``.

    The iteration is the one ``monosplit solve`` takes: each block steps at
    ``gamma d_b`` under the metric of :func:`step_metric`.  Zero (to
    roundoff) exactly when the state encodes a solution of the embedded
    system, under any positive block steps.  ``gamma`` is the metric's
    scale and must lie in ``[eps, (1 - eps)/bound]`` for the metric's bound
    and the default eps; checked by :func:`~monosplit.solver.make_policy`.
    """
    metric, bound = step_metric(spec)
    policy = _solver.make_policy(bound, gamma_const=gamma, metric=metric)
    _, record = _solver.step(spec, state, policy.steps(spec.layout))
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
