"""Resolvents, proximity operators and the Lipschitz coupling.

Maximally monotone operators enter the solver only through their resolvents
``(gamma, x) -> J_{gamma A}(x)``.  For subdifferentials the resolvent is the
proximity operator, and this module ships a catalog of exact proxes together
with function values and (where known) conjugate values, so the same objects
serve the solver, the objective surrogates and the brute-force checks.

Resolvents of *inverse* operators, which the iteration needs for its dual
blocks, come from the inverse-resolvent identity (:func:`resolvent_of_inverse`)
rather than being separate catalog objects.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, SpecificationError
from .linops import (LinOp, OpNormEstimate, certified, dense_op, integer_dims,
                     largest_defect, materialize, probe_points, stack_values)

# Conjugate-side set membership (dual balls, ranges) tolerates only
# floating-point noise: loosening it would report lower bounds that are not.
FEASIBILITY_SLACK = 1e-9
# Primal indicator *values* are evaluated at solver iterates, which sit
# within stopping-tolerance distance of the set; membership uses this slack.
INDICATOR_VALUE_SLACK = 1e-5
# Range membership for conjugates computed through pseudo-inverses.
CONJUGATE_RANGE_TOL = 1e-6

@dataclass(frozen=True)
class ResolventOp:
    """A maximally monotone operator given by its resolvent map.

    ``resolve(gamma, x)`` must equal ``(Id + gamma A)^{-1} x`` for the
    represented operator A; exactness is the supplier's obligation for
    user-provided callables.
    """

    dim: int
    resolve: Callable[[float, np.ndarray], np.ndarray]
    tag: str = ""


@dataclass(frozen=True)
class ConvexFunction:
    """A proper convex function bundled with its prox and optional conjugate.

    ``value`` may return ``inf`` (indicators).  ``conjugate_value`` is None
    when the conjugate is not catalog-expressible.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    operator: ResolventOp
    conjugate_value: Optional[Callable[[np.ndarray], float]] = None
    tag: str = ""


@dataclass(frozen=True)
class LipschitzCoupling:
    """A monotone, Lipschitz coupling acting across all primal blocks.

    ``apply`` maps the concatenation of the primal blocks to a vector of the
    same length, ``total_dim = sum(block_dims)``; the solver calls it as
    given, and :func:`~monosplit.system.validate` checks its output shape.
    ``nu0`` is the asserted Lipschitz constant; ``nu0_source``, when given,
    is the :class:`~monosplit.linops.OpNormEstimate` it was obtained as
    (its ``upper_bound`` is ``nu0``), and None means the caller asserts it.
    """

    block_dims: tuple
    apply: Callable[[np.ndarray], np.ndarray]
    nu0: float
    tag: str = ""
    nu0_source: Optional[OpNormEstimate] = None

    def __post_init__(self):
        object.__setattr__(self, "block_dims", integer_dims(
            self.block_dims, f"coupling '{self.tag}': block_dims"))
        object.__setattr__(self, "nu0", float(self.nu0))
        if not np.isfinite(self.nu0) or self.nu0 < 0:
            raise SpecificationError(
                f"coupling '{self.tag}': nu0 must be finite and >= 0"
            )

    @property
    def total_dim(self):
        return sum(self.block_dims)


def zero_coupling(block_dims):
    """The zero coupling (nu0 = 0)."""
    total = int(sum(block_dims))
    return LipschitzCoupling(block_dims, lambda x: np.zeros(total), 0.0,
                             tag="zero", nu0_source=certified(0.0))


def resolvent_of_inverse(op, gamma, x):
    """Resolvent of the inverse operator, ``J_{gamma A^{-1}}(x)``.

    Uses the inverse-resolvent identity
    ``J_{gamma A^{-1}}(x) = x - gamma * J_{A/gamma ...}`` evaluated as
    ``x - gamma * op.resolve(1/gamma, x/gamma)``.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=float)
    return x - gamma * np.asarray(op.resolve(1.0 / gamma, x / gamma))


def soft_threshold(x, t):
    """Componentwise shrinkage by t >= 0."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def coupling_defects(coupling, trials=50, seed=11):
    """Worst Lipschitz and monotonicity violations over random probes.

    Returns ``(lipschitz_defect, monotonicity_defect)`` where the first is
    ``max ||Cx-Cy|| - nu0 ||x-y||`` and the second ``max -( <Cx-Cy, x-y> )``
    over ``trials`` pairs (x, y), drawn in one batch
    (:func:`~monosplit.linops.probe_points`); ``apply`` is called once per
    point, and each norm and pairing is one dot per row.  Raises
    :class:`SpecificationError` when ``apply`` returns anything but a
    vector of length ``total_dim``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = coupling.total_dim
    xs, ys = probe_points(seed, trials, n, n)
    cx, cx_shaped = stack_values(coupling.apply, xs, n)
    cy, cy_shaped = stack_values(coupling.apply, ys, n)
    if not (cx_shaped and cy_shaped):
        # name the first misshaped value, in the order of the probes
        for value in (v for pair in zip(cx, cy) for v in pair):
            shape = np.asarray(value).shape
            if shape != (n,):
                raise SpecificationError(
                    f"coupling '{coupling.tag}': apply returned shape "
                    f"{shape}, expected ({n},)")
    with np.errstate(all="ignore"):  # an overflow is an infinite defect
        dc, dz = cx - cy, xs - ys
        lip = (np.sqrt(np.vecdot(dc, dc))
               - coupling.nu0 * np.sqrt(np.vecdot(dz, dz)))
        return largest_defect(lip), largest_defect(-np.vecdot(dc, dz))


# ---------------------------------------------------------------------------
# catalog


def make_function(name, params, dim):
    """Build a :class:`ConvexFunction` from :data:`CATALOG`.

    ``params`` may hold only the parameter names the catalog lists for
    ``name``, each of its declared type; each builder supplies the
    defaults of the ones left out.
    """
    _reject_unknown([name], CATALOG, "prox")
    builder, types = CATALOG[name]
    params = dict(params or {})
    _check_params(params, types, f"{name} parameter")
    return builder(params, dim)


def _reject_unknown(keys, accepted, what):
    unknown = sorted(set(keys) - set(accepted))
    if unknown:
        raise ConfigurationError(
            f"unknown {what} {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(accepted) or 'none'}"
        )


def _is_number(value):
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _is_numbers(value):
    # nested lists are walked with a stack, as a file may nest them deeper
    # than Python recurses
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            if value.dtype.kind not in "iuf":
                return False
        elif isinstance(value, (list, tuple)):
            # the common case, a flat list of JSON numbers, in one pass
            if not set(map(type, value)) <= {int, float}:
                stack.extend(value)
        elif not _is_number(value):
            return False
    return True


# The JSON types of catalog parameters: what a value must be, and its test.
# Library callers may also pass a numpy array where an array is expected,
# and a ConvexFunction for an object.
_PARAM_TYPES = {
    "number": ("a number", _is_number),
    "numbers": ("a number or an array of numbers", _is_numbers),
    "array": ("an array",
              lambda value: isinstance(value, (list, tuple, np.ndarray))),
    "object": ("an object",
               lambda value: isinstance(value, (dict, ConvexFunction))),
}


def _check_params(params, types, what):
    """Reject keys ``types`` does not name and values not of their type.

    A key typed None is checked by its builder alone.
    """
    _reject_unknown(params, types, what)
    for key, value in params.items():
        if types[key] is None:
            continue
        expected, test = _PARAM_TYPES[types[key]]
        if not test(value):
            raise ConfigurationError(
                f"{what} '{key}' must be {expected}, "
                f"got {type(value).__name__}"
            )


def _weights(params, dim, default=1.0):
    w = np.broadcast_to(np.asarray(params.get("weight", default), dtype=float),
                        (dim,)).copy()
    if not np.all(w >= 0):  # also rejects NaN, which null converts to
        raise ConfigurationError("weights must be >= 0")
    return w


def _make_l1(params, dim):
    w = _weights(params, dim)

    def value(x):
        return float(np.add.reduce(w * np.abs(x), axis=None))

    def resolve(gamma, x):
        return soft_threshold(np.asarray(x, dtype=float), gamma * w)

    def conjugate_value(u):
        slack = FEASIBILITY_SLACK * (1.0 + float(np.max(w, initial=0.0)))
        return 0.0 if np.all(np.abs(u) <= w + slack) else np.inf

    return ConvexFunction(dim, value, ResolventOp(dim, resolve, "l1"),
                          conjugate_value, tag="l1")


def _block_index(params, dim):
    """The blocks of ``group_l12``: their indices end to end, their sizes
    and the mask of the indices they cover.

    Raises for the first block, in list order, that is empty, is not a
    list of integers, reaches outside ``0..dim-1`` or shares an index with
    an earlier block, checking a block in that order.  The checks run on
    all blocks at once.
    """
    blocks = params.get("blocks")
    if not isinstance(blocks, (list, tuple)) or not blocks:
        raise ConfigurationError(
            "group_l12 requires params['blocks'], a non-empty list of blocks"
        )
    not_indices = "group_l12: a block must be a list of integer indices"
    try:
        index = [np.asarray(b) for b in blocks]
    except ValueError as exc:  # ragged nesting inside a block
        raise ConfigurationError(not_indices) from exc
    sizes = np.array([b.size for b in index])
    shaped = np.array([b.ndim == 1 and b.dtype.kind in "iu" for b in index])
    # the blocks before the first empty or malformed one, end to end
    malformed = np.flatnonzero((sizes == 0) | ~shaped)
    first = int(malformed[0]) if malformed.size else len(index)
    order = np.concatenate(index[:first] or [np.zeros(0, dtype=int)],
                           dtype=np.int64, casting="same_kind")
    owner = np.repeat(np.arange(first), sizes[:first])
    outside = np.flatnonzero((order < 0) | (order >= dim))
    # an index clashes where its first occurrence lies in an earlier block
    _, seen_at, where = np.unique(order, return_index=True,
                                  return_inverse=True)
    clash = np.flatnonzero(owner[seen_at][where] < owner)
    n = len(index)
    out_at = int(owner[outside[0]]) if outside.size else n
    clash_at = int(owner[clash[0]]) if clash.size else n
    block = min(first, out_at, clash_at)
    if block < n:
        if block == out_at:
            raise ConfigurationError("group_l12: block index out of range")
        if block == clash_at:
            raise ConfigurationError("group_l12: blocks must be disjoint")
        if sizes[block] == 0:
            raise ConfigurationError("group_l12: empty block")
        raise ConfigurationError(not_indices)
    covered = np.zeros(dim, dtype=bool)
    covered[order] = True
    return order, sizes, covered


def _make_group_l12(params, dim):
    order, sizes, covered = _block_index(params, dim)
    w = float(params.get("weight", 1.0))
    if not w >= 0:
        raise ConfigurationError("weights must be >= 0")
    nb = len(sizes)
    bs = int(sizes[0])
    # blocks gather into one concatenated index and reduce per block; the
    # channel layout (block p = [p, nb + p, 2 nb + p, ...] covering all of
    # x) is a plain reshape with no gather/scatter
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    strided = (order.size == dim and bool(np.all(sizes == bs))
               and np.array_equal(order, (np.arange(nb)[:, None]
                                          + nb * np.arange(bs)).ravel()))

    def _block_norms(x):
        if strided:
            xb = x.reshape(bs, nb)
            return np.sqrt(np.add.reduce(xb * xb, axis=0))
        xb = x[order]
        return np.sqrt(np.add.reduceat(xb * xb, starts))

    def value(x):
        norms = _block_norms(np.asarray(x, dtype=float))
        return float(w * np.add.reduce(norms))

    def resolve(gamma, x):
        # block shrinkage max(0, 1 - gamma*w/||x_b||) x_b, with the
        # continuous extension 0 at ||x_b|| = 0 (the ratio stays inf there)
        x = np.asarray(x, dtype=float)
        norms = _block_norms(x)
        ratio = np.full(norms.shape, np.inf)
        np.divide(gamma * w, norms, out=ratio, where=norms > 0.0)
        scale = np.maximum(0.0, 1.0 - ratio)
        if strided:
            return (x.reshape(bs, nb) * scale).ravel()
        out = x.copy()
        out[order] = x[order] * np.repeat(scale, sizes)
        return out

    def conjugate_value(u):
        u = np.asarray(u, dtype=float)
        slack = FEASIBILITY_SLACK * (1.0 + w)
        if np.any(np.abs(u[~covered]) > slack):
            return np.inf
        return 0.0 if np.all(_block_norms(u) <= w + slack) else np.inf

    return ConvexFunction(dim, value, ResolventOp(dim, resolve, "group_l12"),
                          conjugate_value, tag="group_l12")


def _make_indicator_box(params, dim):
    lo = np.broadcast_to(np.asarray(params.get("lo", 0.0), dtype=float), (dim,)).copy()
    hi = np.broadcast_to(np.asarray(params.get("hi", 1.0), dtype=float), (dim,)).copy()
    if np.any(lo > hi):
        raise ConfigurationError("indicator_box: lo > hi")
    slack = INDICATOR_VALUE_SLACK * (1.0 + float(np.max(np.abs(np.stack([lo, hi])))))

    def value(x):
        x = np.asarray(x, dtype=float)
        inside = np.all(x >= lo - slack) and np.all(x <= hi + slack)
        return 0.0 if inside else np.inf

    def resolve(gamma, x):
        # projection; gamma plays no role for indicators
        return np.clip(np.asarray(x, dtype=float), lo, hi)

    def conjugate_value(u):
        u = np.asarray(u, dtype=float)
        return float(np.sum(np.maximum(lo * u, hi * u)))

    return ConvexFunction(dim, value, ResolventOp(dim, resolve, "box"),
                          conjugate_value, tag="indicator_box")


def _make_indicator_zero(params, dim):
    def value(x):
        return 0.0 if np.all(np.abs(x) <= INDICATOR_VALUE_SLACK) else np.inf

    def resolve(gamma, x):
        return np.zeros(dim)

    return ConvexFunction(dim, value, ResolventOp(dim, resolve, "ind0"),
                          lambda u: 0.0, tag="indicator_zero")


def _make_indicator_affine(params, dim):
    E = np.asarray(params.get("matrix"), dtype=float)
    if E.ndim != 2 or E.shape[1] != dim:
        raise ConfigurationError(
            f"indicator_affine: matrix must be (p, {dim})"
        )
    d = np.asarray(params.get("offset", np.zeros(E.shape[0])), dtype=float)
    if d.shape != (E.shape[0],):
        raise ConfigurationError("indicator_affine: offset length mismatch")
    pinv = np.linalg.pinv(E)
    x0 = pinv @ d
    if np.linalg.norm(E @ x0 - d) > 1e-8 * (1.0 + np.linalg.norm(d)):
        raise ConfigurationError("indicator_affine: system Ex = d is infeasible")
    row_proj = pinv @ E  # orthogonal projector onto range(E^T)
    slack = INDICATOR_VALUE_SLACK * (1.0 + float(np.linalg.norm(d)))

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.0 if np.linalg.norm(E @ x - d) <= slack else np.inf

    def resolve(gamma, x):
        x = np.asarray(x, dtype=float)
        return x - row_proj @ x + x0

    def conjugate_value(u):
        # support function: <x0, u> on range(E^T), +inf elsewhere
        u = np.asarray(u, dtype=float)
        off = np.linalg.norm(u - row_proj @ u)
        if off > CONJUGATE_RANGE_TOL * (1.0 + np.linalg.norm(u)):
            return np.inf
        return float(np.dot(x0, u))

    return ConvexFunction(dim, value, ResolventOp(dim, resolve, "affine"),
                          conjugate_value, tag="indicator_affine")


# the keys of a quadratic term and their types; "op" is a LinOp
_TERM_TYPES = {"matrix": "numbers", "op": None, "offset": "numbers",
               "weight": "number"}


def _assemble_quadratic(params, dim):
    """Shared assembly for 0.5 * sum w_k ||T_k x - r_k||^2.

    Returns (S, u0, c0, terms) with S = sum w T'T, u0 = sum w T'r and
    c0 = 0.5 sum w ||r||^2, so the function is 0.5 x'Sx - <u0, x> + c0,
    and terms the (op, offset, weight) of each term.
    """
    terms = []
    for entry in params.get("terms", []):
        if not isinstance(entry, dict):
            raise ConfigurationError("quadratic term: must be an object")
        _check_params(entry, _TERM_TYPES, "quadratic term key")
        if "op" in entry:
            op = entry["op"]
            if not isinstance(op, LinOp):
                raise ConfigurationError("quadratic term 'op' must be a LinOp")
        elif "matrix" in entry:
            op = dense_op(entry["matrix"], tag="T")
        else:
            raise ConfigurationError("quadratic term: needs 'matrix' or 'op'")
        if op.in_dim != dim:
            raise ConfigurationError(
                f"quadratic term: operator in_dim {op.in_dim} != {dim}"
            )
        r = np.asarray(entry.get("offset", np.zeros(op.out_dim)), dtype=float)
        if r.shape != (op.out_dim,):
            raise ConfigurationError("quadratic term: offset length mismatch")
        w = float(entry.get("weight", 1.0))
        if not w >= 0:
            raise ConfigurationError("quadratic term: weight must be >= 0")
        terms.append((op, r, w))
    S = np.zeros((dim, dim))
    u0 = np.zeros(dim)
    c0 = 0.0
    for op, r, w in terms:
        # a dense_op's matrix is the one its matvecs would rebuild column
        # by column: a matvec with a unit vector only copies a column
        T = op.matrix if op.matrix is not None else materialize(op)
        S += w * (T.T @ T)
        u0 += w * (T.T @ r)
        c0 += 0.5 * w * float(np.dot(r, r))
    S = 0.5 * (S + S.T)
    return S, u0, c0, terms


def _make_quadratic_fidelity(params, dim):
    S, u0, c0, _ = _assemble_quadratic(params, dim)
    return _quadratic_fidelity(S, u0, c0, dim)


def _quadratic_fidelity(S, u0, c0, dim):
    """``quadratic_fidelity`` from an assembled quadratic (see
    :func:`_assemble_quadratic`).

    The eigendecomposition of ``S`` is built the first time ``resolve`` or
    ``conjugate_value`` needs it.  Threads may share the function: two
    first calls may both build it, but each publishes the whole of it in
    one assignment, so no call sees half of it.
    """
    spectrum = None

    def eigen():
        # S = V diag(lam) V' serves every gamma: (I + gamma S)^{-1} is
        # V diag(1/(1 + gamma lam)) V', and the pseudo-inverse and the
        # range projector keep the eigenvalues above the pinv cutoff
        nonlocal spectrum
        if spectrum is None:
            lam, V = np.linalg.eigh(S)
            lam = np.maximum(lam, 0.0)
            spectrum = (lam, V, lam > 1e-12 * lam[-1])
        return spectrum

    def value(x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ S @ x - np.dot(u0, x) + c0)

    def resolve(gamma, x):
        lam, V, _ = eigen()
        y = np.asarray(x, dtype=float) + gamma * u0
        return V @ ((V.T @ y) / (1.0 + gamma * lam))

    def conjugate_value(u):
        lam, V, rank = eigen()
        y = np.asarray(u, dtype=float) + u0
        c = V.T @ y
        off = np.linalg.norm(c[~rank])
        if off > CONJUGATE_RANGE_TOL * (1.0 + np.linalg.norm(y)):
            return np.inf
        return float(0.5 * np.sum(c[rank] ** 2 / lam[rank]) - c0)

    return ConvexFunction(dim, value, ResolventOp(dim, resolve, "quad"),
                          conjugate_value, tag="quadratic_fidelity")


def _make_zero_function(params, dim):
    def conjugate_value(u):
        return 0.0 if np.all(np.abs(u) <= FEASIBILITY_SLACK) else np.inf

    return ConvexFunction(
        dim,
        lambda x: 0.0,
        ResolventOp(dim, lambda gamma, x: np.asarray(x, dtype=float), "zero"),
        conjugate_value,
        tag="zero_function",
    )


def _make_scaled_translated(params, dim):
    inner = params.get("inner")
    if isinstance(inner, ConvexFunction):
        base = inner
    elif isinstance(inner, dict):
        _reject_unknown(inner, ("prox", "params"), "scaled_translated inner key")
        base = make_function(inner.get("prox"), inner.get("params"), dim)
    else:
        raise ConfigurationError(
            "scaled_translated: 'inner' must be a ConvexFunction or prox spec"
        )
    shift = np.broadcast_to(
        np.asarray(params.get("shift", 0.0), dtype=float), (dim,)
    ).copy()
    scale = float(params.get("scale", 1.0))
    if not scale >= 0:
        raise ConfigurationError("scaled_translated: scale must be >= 0")
    if scale == 0.0:
        return _make_zero_function({}, dim)

    def value(x):
        return scale * base.value(np.asarray(x, dtype=float) - shift)

    def resolve(gamma, x):
        # prox_{gamma a f(.-b)}(x) = b + prox_{(gamma a) f}(x - b)
        x = np.asarray(x, dtype=float)
        return shift + np.asarray(base.operator.resolve(gamma * scale, x - shift))

    conjugate_value = None
    if base.conjugate_value is not None:
        def conjugate_value(u):
            u = np.asarray(u, dtype=float)
            return scale * base.conjugate_value(u / scale) + float(np.dot(shift, u))

    return ConvexFunction(dim, value, ResolventOp(dim, resolve, "shifted"),
                          conjugate_value, tag="scaled_translated")


# name -> (builder(params, dim), {parameter name: type in _PARAM_TYPES})
CATALOG = {
    "l1": (_make_l1, {"weight": "numbers"}),
    "group_l12": (_make_group_l12, {"blocks": "array", "weight": "number"}),
    "indicator_box": (_make_indicator_box, {"lo": "numbers", "hi": "numbers"}),
    "indicator_zero": (_make_indicator_zero, {}),
    "indicator_affine": (_make_indicator_affine,
                         {"matrix": "numbers", "offset": "numbers"}),
    "quadratic_fidelity": (_make_quadratic_fidelity, {"terms": "array"}),
    "zero_function": (_make_zero_function, {}),
    "scaled_translated": (_make_scaled_translated,
                          {"inner": "object", "shift": "numbers",
                           "scale": "number"}),
}
