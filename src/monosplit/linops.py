"""Bounded linear operators with explicit adjoints.

Every linear map entering the solver is carried as a :class:`LinOp`: a pair
of callables (forward and adjoint) plus its dimensions.  Operators are
immutable after construction and must be reentrant; nothing here mutates
state during ``apply``.

Operator norms are needed for the admissible step-size range, and there
they must be upper bounds.  So each constructor certifies its operator's
norm (:attr:`LinOp.certificate`): closed-form bounds for the identity, the
scaled identity, the zero map and the imaging operators, and the SVD norm
plus a stated roundoff margin for a dense matrix; :func:`compose` carries
the certificates through a product.  Certificates come first.  A Lanczos
estimate (:func:`operator_norm`) is left for opaque operators, built
straight from a pair of callables, and for the Lipschitz constant of
:func:`~monosplit.minimization.quadratic_smooth`.  Only its estimates are
inflated by the safety factor :data:`NORM_SAFETY`, and an estimate that
did not converge is an error (:class:`~monosplit.errors.HypothesisError`)
where a bound is needed.
"""

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

from .errors import NumericError, SpecificationError

# Lanczos estimates (and only they) are inflated by this factor before
# entering step-size bounds: underestimating an operator norm would
# invalidate the bounds, overestimating only makes steps slightly
# conservative.
NORM_SAFETY = 1.01

# operator_norm: relative tolerance on the top Ritz value, cap on the L* L
# products, seed of the start vector and most Krylov vectors held at once
POWER_TOL = 1e-9
POWER_MAX_ITER = 5000
POWER_SEED = 42
LANCZOS_BASIS = 64


@dataclass(frozen=True)
class OpNormEstimate:
    """An operator norm: an estimate, or a bound that holds by construction.

    ``upper_bound`` is the number that feeds step-size bounds.  ``method``
    says where it came from: ``"certificate"`` (a closed-form bound, or a
    product of such bounds), ``"svd"`` (a dense SVD norm plus its roundoff
    margin) or ``"lanczos"`` (:func:`operator_norm`: ``upper_bound`` is
    ``value`` inflated by :data:`NORM_SAFETY`, and a bound only if it
    converged).
    """

    value: float
    upper_bound: float
    iterations_used: int
    converged: bool
    method: str = "lanczos"


def certified(bound, method="certificate"):
    """An :class:`OpNormEstimate` for a bound that holds by construction."""
    bound = float(bound)
    return OpNormEstimate(bound, bound, 0, True, method)


def integer_dims(given, what):
    """``given`` as a tuple of ints, each >= 1, or :class:`SpecificationError`.

    2 == 2.0 == np.int64(2), but 2.5 would truncate to 2, and True == 1 is
    no dimension.
    """
    given = tuple(given)
    dims = tuple(int(d) for d in given)
    if dims != given or any(d < 1 for d in dims) or any(
            isinstance(d, (bool, np.bool_)) for d in given):
        raise SpecificationError(
            f"{what}: dimensions must be integers >= 1, got {given}")
    return dims


def _read_only(array):
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class LinOp:
    """A bounded linear operator between Euclidean spaces.

    ``apply`` maps vectors of length ``in_dim`` to vectors of length
    ``out_dim``; ``adjoint_apply`` is its adjoint, i.e.
    ``<apply(x), y> == <x, adjoint_apply(y)>`` for all x, y.

    ``certificate`` returns the operator's certified norm (an
    :class:`OpNormEstimate`, computed at most once); it is None for an
    opaque operator, whose norm only :func:`operator_norm` can estimate.
    ``kind`` is ``"identity"`` for :func:`identity_op`, ``"orthogonal"``
    for the Haar analysis, a scaled identity with ``|scale| = 1`` and a
    product of orthogonal maps, and ``"general"`` otherwise (opaque maps
    too).  ``matrix`` is set by :func:`dense_op` only: ``apply(x)`` is
    then exactly ``matrix @ x``.
    """

    in_dim: int
    out_dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray], np.ndarray]
    tag: str = ""
    certificate: Optional[Callable[[], OpNormEstimate]] = None
    kind: str = "general"
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise SpecificationError(
                f"operator '{self.tag}': dimensions must be positive, "
                f"got {self.in_dim} -> {self.out_dim}"
            )


def _svd_norm(mat):
    """Certified norm of a dense matrix: its SVD norm plus a margin.

    LAPACK's SVD is backward stable: the computed singular values are
    exact for a matrix within ``p(n) eps ||A||`` of the given one, with
    ``p(n)`` a modest multiple of the order ``n``, so by Weyl's inequality
    each is off by at most that much.  The margin takes ``p(n) = 8 n``.
    """
    value = float(np.linalg.norm(mat, 2))
    margin = 8.0 * max(mat.shape) * np.finfo(float).eps
    return OpNormEstimate(value, value * (1.0 + margin), 0, True, "svd")


def dense_op(matrix, tag=""):
    """Wrap a dense matrix as a LinOp (adjoint = transpose)."""
    mat = np.ascontiguousarray(np.asarray(matrix, dtype=float))
    if mat.ndim != 2:
        raise SpecificationError(f"dense operator '{tag}': expected a 2-D array")
    mat_t = np.ascontiguousarray(mat.T)
    return LinOp(
        in_dim=mat.shape[1],
        out_dim=mat.shape[0],
        apply=lambda x, _m=mat: _m @ x,
        adjoint_apply=lambda y, _mt=mat_t: _mt @ y,
        tag=tag or f"dense{mat.shape}",
        certificate=cache(lambda: _svd_norm(mat)),
        matrix=mat,
    )


def identity_op(dim):
    """The identity on R^dim."""
    norm = certified(1.0)
    return LinOp(dim, dim, lambda x: x, lambda y: y, tag="id",
                 certificate=lambda: norm, kind="identity")


def scaled_identity_op(dim, scale):
    """``x -> scale * x`` on R^dim; orthogonal when ``|scale| = 1``."""
    s = float(scale)
    norm = certified(abs(s))
    return LinOp(dim, dim, lambda x: s * x, lambda y: s * y, tag=f"{s}*id",
                 certificate=lambda: norm,
                 kind="orthogonal" if abs(s) == 1.0 else "general")


def zero_op(in_dim, out_dim):
    """The zero map R^in_dim -> R^out_dim."""
    norm = certified(0.0)
    return LinOp(
        in_dim,
        out_dim,
        lambda x: np.zeros(out_dim),
        lambda y: np.zeros(in_dim),
        tag="zero",
        certificate=lambda: norm,
    )


def compose(outer, inner):
    """The composition ``outer o inner`` with adjoint ``inner* o outer*``.

    The identity composed with X, on either side, is X itself.  A product
    of two dense maps is certified by the SVD of the product matrix (the
    product of the factors' norms can be far from tight); any other
    product of certified maps by the product of their bounds.  The
    composition with an opaque map is opaque, and that of two orthogonal
    maps is orthogonal.
    """
    if inner.out_dim != outer.in_dim:
        raise SpecificationError(
            f"cannot compose '{outer.tag}' ({outer.in_dim}->{outer.out_dim}) with "
            f"'{inner.tag}' ({inner.in_dim}->{inner.out_dim}): inner output "
            f"{inner.out_dim} != outer input {outer.in_dim}"
        )
    if outer.kind == "identity":
        return inner
    if inner.kind == "identity":
        return outer
    certificate = None
    if outer.matrix is not None and inner.matrix is not None:
        certificate = cache(lambda: _svd_norm(outer.matrix @ inner.matrix))
    elif outer.certificate is not None and inner.certificate is not None:
        certificate = cache(lambda: _product(outer.certificate(),
                                             inner.certificate()))
    return LinOp(
        in_dim=inner.in_dim,
        out_dim=outer.out_dim,
        apply=lambda x: outer.apply(inner.apply(x)),
        adjoint_apply=lambda y: inner.adjoint_apply(outer.adjoint_apply(y)),
        tag=f"{outer.tag}o{inner.tag}",
        certificate=certificate,
        kind="orthogonal" if outer.kind == inner.kind == "orthogonal"
        else "general",
    )


def _product(a, b):
    """Certified norm of a product from those of its two factors."""
    methods = {a.method, b.method} - {"certificate"}
    return certified(a.upper_bound * b.upper_bound,
                     methods.pop() if methods else "certificate")


def materialize(op):
    """Dense matrix of an operator, column by column (desk scale only)."""
    eye = np.eye(op.in_dim)
    return np.stack([np.asarray(op.apply(eye[j])) for j in range(op.in_dim)],
                    axis=1)


def probe_points(seed, trials, x_dim, y_dim):
    """``trials`` pairs of seeded standard normal points, as two arrays of
    ``trials`` rows.

    The points are drawn in one batch: as a Generator fills in order, row
    ``t`` holds the x and the y that ``trials`` rounds of
    ``standard_normal(x_dim)`` then ``standard_normal(y_dim)`` would have
    drawn in round ``t``.
    """
    draw = np.random.default_rng(seed).standard_normal(
        (trials, x_dim + y_dim))
    return draw[:, :x_dim], draw[:, x_dim:]


def stack_values(fn, points, dim):
    """``fn`` of each row of ``points``, stacked, and whether each value
    had shape ``(dim,)``; a ragged or misshaped stack is not."""
    values = [fn(p) for p in points]
    try:
        rows = np.array(values)
    except ValueError:  # ragged: some value has another shape
        return values, False
    return rows, rows.shape == (len(points), dim)


def largest_defect(defects):
    """The largest of ``defects``, ignoring NaN, and never below 0.0."""
    return max(0.0, float(np.fmax.reduce(defects)))


def adjoint_check(op, trials=100, seed=0):
    """Largest relative defect of the adjoint pairing over random probes.

    Draws ``trials`` pairs (x, y) from a seeded standard normal stream, in
    one batch (:func:`probe_points`), and returns
    ``max |<Lx,y> - <x,L*y>| / (1 + |<Lx,y>|)``; each map is called once
    per point, and each pairing is one dot per row.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    xs, ys = probe_points(seed, trials, op.in_dim, op.out_dim)
    lx, lx_shaped = stack_values(op.apply, xs, op.out_dim)
    lty, lty_shaped = stack_values(op.adjoint_apply, ys, op.in_dim)
    if not (lx_shaped and lty_shaped):
        # name the first misshaped value, in the order of the probes
        for u, v in zip(lx, lty):
            shape = np.asarray(u).shape
            if shape != (op.out_dim,):
                raise SpecificationError(
                    f"operator '{op.tag}': apply returned shape {shape}, "
                    f"expected ({op.out_dim},)"
                )
            shape = np.asarray(v).shape
            if shape != (op.in_dim,):
                raise SpecificationError(
                    f"operator '{op.tag}': adjoint_apply returned shape "
                    f"{shape}, expected ({op.in_dim},)"
                )
    # a defect is a number: an overflow is an infinite one and inf - inf a
    # NaN, which largest_defect passes over; neither is worth a warning
    with np.errstate(all="ignore"):
        a = np.vecdot(lx, ys)
        b = np.vecdot(xs, lty)
        return largest_defect(np.abs(a - b) / (1.0 + np.abs(a)))


def operator_norm(op):
    """Spectral norm estimate by Lanczos iteration on ``L* L``.

    The iteration starts from a seeded random unit vector, orthogonalizes
    each new Krylov vector against the whole basis (twice), and takes the
    top eigenvalue of the tridiagonal projection, the top Ritz value, after
    every ``L* L`` product.  The basis holds at most
    :data:`LANCZOS_BASIS` vectors; when it is full, or the Krylov space is
    invariant, or two successive top Ritz values agree within
    :data:`POWER_TOL`, the iteration restarts from the top Ritz vector.
    The estimate has converged when a restart of the last kind is followed
    by a product whose Rayleigh quotient ``||L u||^2`` matches the Ritz
    value within the same tolerance: a map whose ``adjoint_apply`` is not
    its adjoint fails that check.

    Returns an :class:`OpNormEstimate` whose ``value`` is the square root
    of the top Ritz value, whose ``upper_bound`` is ``value`` inflated by
    the fixed safety factor, and whose ``iterations_used`` counts the
    ``L* L`` products, at most :data:`POWER_MAX_ITER`.  A start vector in
    the kernel is replaced once; a zero operator yields value 0 with
    ``converged=True``.  A non-finite forward or adjoint value raises
    :class:`~monosplit.errors.NumericError` with the product's index.
    """
    rng = np.random.default_rng(POWER_SEED)
    x = rng.standard_normal(op.in_dim)
    x /= np.linalg.norm(x)
    basis = np.empty((min(LANCZOS_BASIS, op.in_dim), op.in_dim))
    alphas, betas = [], []
    theta, confirming, converged = 0.0, False, False
    products = 0
    for products in range(1, POWER_MAX_ITER + 1):
        y = np.asarray(op.apply(x))
        # ||x|| == 1, so this is the quotient; a non-finite entry of y makes
        # it non-finite, and only then (or on overflow) is y looked at
        rayleigh = float(y.dot(y))
        if not math.isfinite(rayleigh) and not np.all(np.isfinite(y)):
            raise NumericError("operator_norm: non-finite forward value",
                               iteration=products)
        if products == 1 and rayleigh == 0.0:
            # x in the kernel; restart once from a fresh direction, then
            # declare the operator zero.
            x = rng.standard_normal(op.in_dim)
            x /= np.linalg.norm(x)
            y = np.asarray(op.apply(x))
            rayleigh = float(np.dot(y, y))
            if rayleigh == 0.0:
                return OpNormEstimate(0.0, 0.0, products, True)
        z = np.asarray(op.adjoint_apply(y))
        nz = math.sqrt(z.dot(z))
        if not math.isfinite(nz) and not np.all(np.isfinite(z)):
            raise NumericError("operator_norm: non-finite adjoint value",
                               iteration=products)
        if products == 1 and nz == 0.0:
            return OpNormEstimate(0.0, 0.0, products, True)
        if not (math.isfinite(rayleigh) and math.isfinite(nz)):
            # finite values whose squares overflow: no estimate to give
            return OpNormEstimate(math.inf, math.inf, products, False)
        if confirming and _agree(rayleigh, theta):
            theta, converged = rayleigh, True
            break
        j = len(alphas)
        basis[j] = x
        alphas.append(rayleigh)
        w = z - rayleigh * x
        if j:
            w -= betas[-1] * basis[j - 1]
        krylov = basis[:j + 1]
        for _ in range(2):
            w -= krylov.T @ (krylov @ w)
        beta = math.sqrt(w.dot(w))
        previous, theta = theta, _top_ritz(alphas, betas)
        confirming = (j > 0 and _agree(theta, previous)
                      or beta <= POWER_TOL * theta)
        if confirming or j + 1 == len(basis):
            x = _top_ritz(alphas, betas, vector=True) @ krylov
            x /= math.sqrt(x.dot(x))
            alphas, betas = [], []
        else:
            betas.append(beta)
            x = w / beta
    value = math.sqrt(theta)
    return OpNormEstimate(value, NORM_SAFETY * value, products, converged)


def _agree(a, b):
    """Whether two Ritz values agree within :data:`POWER_TOL`."""
    return abs(a - b) < POWER_TOL * max(a, 1e-300)


def _top_ritz(alphas, betas, vector=False):
    """Top eigenvalue, or its unit eigenvector, of the symmetric tridiagonal
    matrix with diagonal ``alphas`` and off-diagonal ``betas``."""
    k = len(alphas)
    if k == 1:
        return np.ones(1) if vector else alphas[0]
    tri = np.zeros((k, k))
    tri.flat[::k + 1] = alphas
    tri.flat[1::k + 1] = betas
    if vector:
        return np.linalg.eigh(tri, UPLO="U")[1][:, -1]
    return float(np.linalg.eigvalsh(tri, UPLO="U")[-1])
