"""Bounded linear operators with explicit adjoints.

Every linear map entering the solver is carried as a :class:`LinOp`: a pair
of callables (forward and adjoint) plus its dimensions.  Operators are
immutable after construction and must be reentrant; nothing here mutates
state during ``apply``.

Operator norms are needed for the admissible step-size range and are
estimated by power iteration.  The estimate is inflated by a fixed safety
factor so downstream bounds computed from it stay valid even when the power
iteration exits early.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, SpecificationError

# Estimated norms are inflated by this factor before entering step-size
# bounds: underestimating an operator norm would invalidate the bounds,
# overestimating only makes steps slightly conservative.
NORM_SAFETY = 1.01

POWER_TOL = 1e-9
POWER_MAX_ITER = 5000
POWER_SEED = 42


@dataclass(frozen=True)
class LinOp:
    """A bounded linear operator between Euclidean spaces.

    ``apply`` maps vectors of length ``in_dim`` to vectors of length
    ``out_dim``; ``adjoint_apply`` is its adjoint, i.e.
    ``<apply(x), y> == <x, adjoint_apply(y)>`` for all x, y.
    """

    in_dim: int
    out_dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint_apply: Callable[[np.ndarray], np.ndarray]
    tag: str = ""

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise SpecificationError(
                f"operator '{self.tag}': dimensions must be positive, "
                f"got {self.in_dim} -> {self.out_dim}"
            )


@dataclass(frozen=True)
class OpNormEstimate:
    """Power-iteration estimate of an operator norm.

    ``upper_bound`` is ``value`` inflated by the safety factor and is the
    number that feeds step-size bounds.
    """

    value: float
    upper_bound: float
    iterations_used: int
    converged: bool


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
    )


def identity_op(dim, tag="id"):
    """The identity on R^dim."""
    return LinOp(dim, dim, lambda x: x, lambda y: y, tag=tag)


def scaled_identity_op(dim, scale, tag=""):
    """``x -> scale * x`` on R^dim."""
    s = float(scale)
    return LinOp(dim, dim, lambda x: s * x, lambda y: s * y, tag=tag or f"{s}*id")


def zero_op(in_dim, out_dim, tag="zero"):
    """The zero map R^in_dim -> R^out_dim."""
    return LinOp(
        in_dim,
        out_dim,
        lambda x: np.zeros(out_dim),
        lambda y: np.zeros(in_dim),
        tag=tag,
    )


def compose(outer, inner):
    """The composition ``outer o inner`` with adjoint ``inner* o outer*``."""
    if inner.out_dim != outer.in_dim:
        raise SpecificationError(
            f"cannot compose '{outer.tag}' ({outer.in_dim}->{outer.out_dim}) with "
            f"'{inner.tag}' ({inner.in_dim}->{inner.out_dim}): inner output "
            f"{inner.out_dim} != outer input {outer.in_dim}"
        )
    return LinOp(
        in_dim=inner.in_dim,
        out_dim=outer.out_dim,
        apply=lambda x: outer.apply(inner.apply(x)),
        adjoint_apply=lambda y: inner.adjoint_apply(outer.adjoint_apply(y)),
        tag=f"{outer.tag}o{inner.tag}",
    )


def materialize(op):
    """Dense matrix of an operator, column by column (desk scale only)."""
    eye = np.eye(op.in_dim)
    return np.stack([np.asarray(op.apply(eye[j])) for j in range(op.in_dim)],
                    axis=1)


def adjoint_check(op, trials=100, seed=0):
    """Largest relative defect of the adjoint pairing over random probes.

    Draws ``trials`` pairs (x, y) from a seeded standard normal stream and
    returns ``max |<Lx,y> - <x,L*y>| / (1 + |<Lx,y>|)``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.out_dim)
        lx = np.asarray(op.apply(x))
        lty = np.asarray(op.adjoint_apply(y))
        if lx.shape != (op.out_dim,):
            raise SpecificationError(
                f"operator '{op.tag}': apply returned shape {lx.shape}, "
                f"expected ({op.out_dim},)"
            )
        if lty.shape != (op.in_dim,):
            raise SpecificationError(
                f"operator '{op.tag}': adjoint_apply returned shape {lty.shape}, "
                f"expected ({op.in_dim},)"
            )
        a = float(np.dot(lx, y))
        b = float(np.dot(x, lty))
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    return worst


def operator_norm(op, tol=POWER_TOL, max_iter=POWER_MAX_ITER, seed=POWER_SEED):
    """Spectral norm estimate by power iteration on ``L* L``.

    Returns an :class:`OpNormEstimate` whose ``value`` is the square root of
    the final Rayleigh quotient and whose ``upper_bound`` is ``value``
    inflated by the fixed safety factor.  A zero operator yields value 0 with
    ``converged=True``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.in_dim)
    x /= np.linalg.norm(x)
    prev_rayleigh = None
    rayleigh = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = np.asarray(op.apply(x))
        if not np.all(np.isfinite(y)):
            raise NumericError("operator_norm: non-finite forward value",
                               iteration=iterations)
        rayleigh = float(np.dot(y, y))  # ||x|| == 1, so this is the quotient
        if rayleigh == 0.0:
            # x in the kernel; restart once from a fresh direction, then
            # declare the operator zero.
            x = rng.standard_normal(op.in_dim)
            x /= np.linalg.norm(x)
            y = np.asarray(op.apply(x))
            rayleigh = float(np.dot(y, y))
            if rayleigh == 0.0:
                return OpNormEstimate(0.0, 0.0, iterations, True)
        z = np.asarray(op.adjoint_apply(y))
        if not np.all(np.isfinite(z)):
            raise NumericError("operator_norm: non-finite adjoint value",
                               iteration=iterations)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return OpNormEstimate(0.0, 0.0, iterations, True)
        x = z / nz
        if prev_rayleigh is not None:
            if abs(rayleigh - prev_rayleigh) < tol * max(rayleigh, 1e-300):
                converged = True
                break
        prev_rayleigh = rayleigh
    value = float(np.sqrt(rayleigh))
    return OpNormEstimate(value, NORM_SAFETY * value, iterations, converged)
