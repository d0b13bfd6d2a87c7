"""Error-tolerant primal-dual forward-backward-forward iteration.

One iteration touches four block families: the primal points ``x1`` (one
per primal space), the auxiliary splitting points ``x2`` (one per coupling
space) and the two dual families ``v1``, ``v2``.  Within an iteration the
update lines run in a fixed order (primal loop, coupling loop, primal
correction loop); reordering them would change which intermediate values
feed the correction steps and silently alter the method, so the order here
is deliberate and load-bearing.

Inexact evaluations are modeled by additive error sequences: ``a``/``c``
terms perturb forward (operator) evaluations and ``b`` terms perturb
resolvent outputs.  Built-in schedules are zero and geometrically decaying
noise, both absolutely summable.
"""

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import NumericError, SpecificationError, StepBoundError

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000
DEFAULT_TRACE_EVERY = 10

TRACE_COLUMNS = (
    "n", "gamma", "displacement",
    "dx1", "dx2", "dv1", "dv2",
    "sum_dx1", "sum_dx2", "sum_dv1", "sum_dv2",
    "transversality_defect",
)

# Families of additive error terms, keyed by where they enter the update.
ERROR_FAMILIES = (
    "a11", "b11", "c11",          # primal blocks, in H_i
    "a12", "c12",                 # splitting blocks, in G_k
    "a21", "b21", "c21",          # first dual blocks, in X_k
    "a22", "b22", "c22",          # second dual blocks, in Y_k
)


@dataclass
class IterateState:
    """The four block families of the iteration plus the iteration counter."""

    x1: list
    x2: list
    v1: list
    v2: list
    n: int = 0

    @staticmethod
    def zeros(layout):
        return IterateState(
            x1=[np.zeros(d) for d in layout.h_dims],
            x2=[np.zeros(d) for d in layout.g_dims],
            v1=[np.zeros(d) for d in layout.x_dims],
            v2=[np.zeros(d) for d in layout.y_dims],
            n=0,
        )

    def copy(self):
        return IterateState(
            x1=[b.copy() for b in self.x1],
            x2=[b.copy() for b in self.x2],
            v1=[b.copy() for b in self.v1],
            v2=[b.copy() for b in self.v2],
            n=self.n,
        )


@dataclass(frozen=True)
class TraceRecord:
    """Per-iteration diagnostics.

    ``displacement`` is the full-state one-step movement.  The block
    displacements are the iterate-to-intermediate distances whose squares
    the convergence theory sums: ``||x1 - p11||``, ``||x2 - p12||``,
    ``||v1 - p21||``, ``||v2 - p22||`` (aggregated over blocks within each
    family).  ``partial_sums`` holds running totals of those squares; a bare
    :func:`step` call reports just its own contribution, :func:`solve`
    accumulates across iterations.  ``transversality_defect`` is
    ``||M* v2 - N* v1||`` at the new state (NaN when not evaluated).
    """

    n: int
    gamma: float
    displacement: float
    block_displacements: tuple
    partial_sums: tuple
    transversality_defect: float


@dataclass(frozen=True)
class StepPolicy:
    """Admissible step-size source.

    Emits steps inside ``[epsilon, (1 - epsilon)/beta]``; either a constant
    (the default is the upper endpoint) or a user-supplied sequence that is
    validated on emission.
    """

    beta: float
    epsilon: float
    gamma_const: Optional[float] = None
    gamma_seq: Optional[Callable[[int], float]] = None

    @property
    def gamma_max(self):
        return (1.0 - self.epsilon) / self.beta

    def gamma_at(self, n):
        if self.gamma_seq is None:
            return self.gamma_const
        gamma = float(self.gamma_seq(n))
        if not (self.epsilon <= gamma <= self.gamma_max * (1 + 1e-12)):
            raise StepBoundError(
                f"gamma_seq({n}) = {gamma} outside "
                f"[{self.epsilon}, {self.gamma_max}]"
            )
        return gamma


def make_policy(beta, epsilon=None, gamma_const=None, gamma_seq=None):
    """Validate and build a :class:`StepPolicy`.

    ``epsilon`` defaults to ``min(0.01, 0.5/(beta + 1))`` and must lie in
    ``(0, 1/(beta + 1))``; the default constant step is the largest
    admissible one, ``(1 - epsilon)/beta``.
    """
    beta = float(beta)
    if not np.isfinite(beta) or beta <= 0:
        raise StepBoundError(f"beta must be positive and finite, got {beta}")
    if epsilon is None:
        epsilon = min(0.01, 0.5 / (beta + 1.0))
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 1.0 / (beta + 1.0)):
        raise StepBoundError(
            f"epsilon = {epsilon} outside the admissible interval "
            f"(0, {1.0 / (beta + 1.0)}) for beta = {beta}"
        )
    gamma_max = (1.0 - epsilon) / beta
    if gamma_seq is not None:
        if gamma_const is not None:
            raise StepBoundError("give either gamma_const or gamma_seq, not both")
        return StepPolicy(beta, epsilon, None, gamma_seq)
    if gamma_const is None:
        gamma_const = gamma_max
    gamma_const = float(gamma_const)
    if not (epsilon <= gamma_const <= gamma_max * (1 + 1e-12)):
        raise StepBoundError(
            f"gamma = {gamma_const} outside [{epsilon}, {gamma_max}] "
            f"for beta = {beta}, epsilon = {epsilon}"
        )
    return StepPolicy(beta, epsilon, gamma_const, None)


@dataclass(frozen=True)
class ErrorSchedule:
    """Source of the additive error vectors.

    ``generator(n, family, index, dim)`` returns the error vector for one
    block at iteration ``n`` or None for an exact evaluation.  Absolute
    summability over n is the caller's obligation for custom generators;
    the built-in schedules satisfy it by construction.  ``always_zero``
    short-circuits realization for exact runs.
    """

    generator: Callable[[int, str, int, int], Optional[np.ndarray]]
    description: str = ""
    always_zero: bool = False

    def realize(self, n, layout):
        """Materialize all error blocks for iteration n (None if all zero)."""
        if self.always_zero:
            return None
        dims = {
            "a11": layout.h_dims, "b11": layout.h_dims, "c11": layout.h_dims,
            "a12": layout.g_dims, "c12": layout.g_dims,
            "a21": layout.x_dims, "b21": layout.x_dims, "c21": layout.x_dims,
            "a22": layout.y_dims, "b22": layout.y_dims, "c22": layout.y_dims,
        }
        out = {}
        any_nonzero = False
        for family in ERROR_FAMILIES:
            blocks = []
            for index, dim in enumerate(dims[family]):
                e = self.generator(n, family, index, dim)
                if e is not None:
                    e = np.asarray(e, dtype=float)
                    if e.shape != (dim,):
                        raise SpecificationError(
                            f"error generator: family {family} block {index} "
                            f"returned shape {e.shape}, expected ({dim},)"
                        )
                    any_nonzero = True
                blocks.append(e)
            out[family] = blocks
        return out if any_nonzero else None


def zero_schedule():
    """All evaluations exact."""
    return ErrorSchedule(lambda n, family, index, dim: None, "zero",
                         always_zero=True)


def geometric_schedule(rho, amplitude, seed=0):
    """Noise with norm ``amplitude * rho^n`` per block (summable for rho < 1).

    Each error vector is a seeded unit normal direction scaled to the
    geometric envelope; the draw depends only on ``(seed, n, family,
    index)`` so identical schedules reproduce identical errors across runs
    and across structurally matching specs.
    """
    if not (0.0 <= rho < 1.0):
        raise ValueError("rho must be in [0, 1)")
    family_code = {name: i for i, name in enumerate(ERROR_FAMILIES)}

    def generator(n, family, index, dim):
        rng = np.random.default_rng([seed, n, family_code[family], index])
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return None
        return v * (amplitude * rho**n / norm)

    return ErrorSchedule(generator, f"geometric(rho={rho}, amp={amplitude})")


def _maybe_add(vec, errs, family, index):
    if errs is None:
        return vec
    e = errs[family][index]
    return vec if e is None else vec + e


def _check_finite(name, index, n, block):
    # a single non-finite entry poisons the dot product, so this detects
    # NaN/inf without materializing an isfinite mask
    if not math.isfinite(block @ block):
        raise NumericError(
            f"non-finite value in {name}, block {index}", iteration=n
        )


def _sqnorm(d):
    # np.sum(d**2) as the bare ufunc reduction, without np.sum's wrapper
    return float(np.add.reduce(d * d))


def step(spec, state, gamma, errors_at_n=None, with_transversality=True):
    """One full iteration from ``state`` with step ``gamma``.

    Executes the update lines in their listed order and returns the new
    state (counter incremented) together with a :class:`TraceRecord`.
    ``errors_at_n`` is a realized error record as produced by
    :meth:`ErrorSchedule.realize` (None for exact evaluation).

    Raises :class:`NumericError` naming the offending line and block if any
    intermediate value is non-finite, and ``ValueError`` for a non-positive
    step.  The admissible-interval bound on gamma is the step policy's
    responsibility; here only positivity is enforced.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
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

    # primal loop: forward step through the coupling and the dual pullbacks,
    # then the resolvent of A_i
    s11, p11 = [], []
    for i in range(m):
        acc = np.zeros(x1[i].size)
        for k in range(s):
            acc = acc + spec.L[k][i].adjoint_apply(nstar_v1[k])
        fwd = _maybe_add(cx[i] + acc, errs, "a11", i)
        s11_i = x1[i] - g * fwd
        p11_i = np.asarray(spec.A[i].resolve(g, s11_i + g * spec.z[i]))
        p11_i = _maybe_add(p11_i, errs, "b11", i)
        _check_finite("p11", i, n, p11_i)
        s11.append(s11_i)
        p11.append(p11_i)

    # coupling loop
    nr = spec.nr
    p12, p21, p22, nstar_p21 = [], [], [], []
    x2_new, v1_new, v2_new = [], [], []
    for k in range(s):
        Nk, Mk, Dk, Bk = spec.N[k], spec.M[k], spec.D[k], spec.B[k]

        p12_k = x2[k] + g * _maybe_add(
            nstar_v1[k] - Mk.adjoint_apply(v2[k]), errs, "a12", k)

        nl_x = np.zeros(v1[k].size)
        for i in range(m):
            nl_x = nl_x + Nk.apply(spec.L[k][i].apply(x1[i]))
        s21_k = v1[k] + g * _maybe_add(nl_x - Nk.apply(x2[k]), errs, "a21", k)

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

        _check_finite("v1", k, n, v1_new_k)
        _check_finite("v2", k, n, v2_new_k)
        _check_finite("x2", k, n, x2_new_k)
        p12.append(p12_k)
        p21.append(p21_k)
        p22.append(p22_k)
        nstar_p21.append(nstar_p21_k)
        x2_new.append(x2_new_k)
        v1_new.append(v1_new_k)
        v2_new.append(v2_new_k)

    # primal correction loop: forward step re-evaluated at the intermediate
    # points
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
        _check_finite("x1", i, n, x1_new_i)
        x1_new.append(x1_new_i)

    new_state = IterateState(x1_new, x2_new, v1_new, v2_new, n + 1)

    dx1 = sum(_sqnorm(x1[i] - p11[i]) for i in range(m))
    dx2 = sum(_sqnorm(x2[k] - p12[k]) for k in range(s))
    dv1 = sum(_sqnorm(v1[k] - p21[k]) for k in range(s))
    dv2 = sum(_sqnorm(v2[k] - p22[k]) for k in range(s))

    move = 0.0
    for old, new in ((x1, x1_new), (x2, x2_new), (v1, v1_new), (v2, v2_new)):
        for k in range(len(old)):
            move += _sqnorm(new[k] - old[k])

    defect = transversality_defect(spec, new_state) if with_transversality \
        else float("nan")
    record = TraceRecord(
        n=n,
        gamma=g,
        displacement=float(np.sqrt(move)),
        block_displacements=(float(np.sqrt(dx1)), float(np.sqrt(dx2)),
                             float(np.sqrt(dv1)), float(np.sqrt(dv2))),
        partial_sums=(dx1, dx2, dv1, dv2),
        transversality_defect=defect,
    )
    return new_state, record


def transversality_defect(spec, state):
    """``sqrt(sum_k ||M_k* v2_k - N_k* v1_k||^2)`` at the given state."""
    total = 0.0
    for k in range(len(state.v1)):
        diff = spec.M[k].adjoint_apply(state.v2[k]) \
            - spec.N[k].adjoint_apply(state.v1[k])
        total += _sqnorm(diff)
    return float(np.sqrt(total))


def solve(spec, init, policy, errors=None, tol=DEFAULT_TOL,
          max_iter=DEFAULT_MAX_ITER, trace_every=DEFAULT_TRACE_EVERY):
    """Iterate :func:`step` until the full-state displacement drops to tol.

    The caller is responsible for ``policy.beta`` covering the coupling
    bound of ``spec`` (equality for a tight policy; a larger beta is
    admissible and merely conservative) and for ``spec`` having passed
    validation.  Returns ``(final_state, trace, status)`` with status
    ``"converged"`` or ``"max_iter"``; a trace record is kept every
    ``trace_every`` iterations and at the final one.  Numeric failures
    propagate as :class:`NumericError` tagged with the iteration index.
    """
    if trace_every < 1:
        raise ValueError("trace_every must be >= 1")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if errors is None:
        errors = zero_schedule()
    state = init.copy()
    layout = spec.layout
    sums = np.zeros(4)
    trace = []
    status = "max_iter"
    for it in range(max_iter):
        gamma = policy.gamma_at(it)
        errs = errors.realize(it, layout)
        keep = (it % trace_every == 0)
        try:
            state, rec = step(spec, state, gamma, errs,
                              with_transversality=keep)
        except NumericError as exc:
            exc.iteration = it
            raise
        sums += np.asarray(rec.partial_sums)
        done = rec.displacement <= tol
        if keep or done or it == max_iter - 1:
            if not keep:  # final record needs the defect after all
                rec = replace(
                    rec, transversality_defect=transversality_defect(spec, state))
            trace.append(replace(rec, partial_sums=tuple(float(v) for v in sums)))
        if done:
            status = "converged"
            break
    return state, trace, status


def write_trace_csv(trace, path):
    """Write trace records with the stable column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in trace:
            dx1, dx2, dv1, dv2 = rec.block_displacements
            s1, s2, s3, s4 = rec.partial_sums
            writer.writerow([
                rec.n, repr(rec.gamma), repr(rec.displacement),
                repr(dx1), repr(dx2), repr(dv1), repr(dv2),
                repr(s1), repr(s2), repr(s3), repr(s4),
                repr(rec.transversality_defect),
            ])
