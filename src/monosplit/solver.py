"""Error-tolerant primal-dual forward-backward-forward iteration.

The iterate holds four block families: the primal points ``x1`` (one per
primal space), the auxiliary splitting points ``x2`` (one per coupling
space) and the two dual families ``v1``, ``v2``.  They are laid out as one
flat vector ``z = [x1 | x2 | v1 | v2]`` of the product space, and one
iteration is Tseng's forward-backward-forward step on it:
``s = z - gamma F(z)``, ``p = J(s)``, ``q = p - gamma F(p)`` and
``z+ = (z - s) + q``.  F stacks the forward terms of the families (the
coupling C and the linear maps) and J the resolvents, applied block by
block.  Each update line is one array operation over the whole of z; the
sign of gamma is carried per family, so every element is computed by the
same expression, with the same rounding, as when the blocks were iterated
one at a time.  That keeps runs reproducible bit for bit, which the
separation check (a joint run against its decoupled halves) relies on.

Inexact evaluations are modeled by additive error sequences: ``a``/``c``
terms perturb forward (operator) evaluations and ``b`` terms perturb
resolvent outputs.  The errors of one iteration are realized as one
``(3, size)`` record laid out like z, a row per letter, holding -0.0
wherever an evaluation is exact; as ``x + (-0.0)`` is ``x`` bit for bit,
the step adds each row with one operation and rounds as if it had added
only the erroneous blocks.  Built-in schedules are zero and geometrically
decaying noise, both absolutely summable.  The geometric schedule's draws
are keyed: each block's direction is exactly what
``np.random.default_rng([seed, n, code, index])`` draws, but no
``SeedSequence`` is built.  The seeds of every block of a chunk of
``_CHUNK`` consecutive iterations are hashed together, by NumPy's
``SeedSequence`` hash run as one pass of uint32 array arithmetic, and each
iteration draws from its rows of that pass.  Big layouts take shorter
chunks, so a schedule holds at most ``_CHUNK_ROWS`` seeds (128 KB) however
many blocks the layout has, unless one iteration alone has more.
"""

import csv
import math
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate, groupby
from numbers import Integral, Real
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

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

# The block families of the iterate, in their order in the flat vector.
FAMILIES = ("x1", "x2", "v1", "v2")

# Families of additive error terms, keyed by where they enter the update.
ERROR_FAMILIES = (
    "a11", "b11", "c11",          # primal blocks, in H_i
    "a12", "c12",                 # splitting blocks, in G_k
    "a21", "b21", "c21",          # first dual blocks, in X_k
    "a22", "b22", "c22",          # second dual blocks, in Y_k
)


@dataclass
class IterateState:
    """The four block families of the iteration plus the iteration counter.

    States made by :meth:`zeros`, :meth:`copy` and :func:`step` hold their
    blocks as views of one private flat vector ``[x1 | x2 | v1 | v2]``, so
    writing into a block writes into that vector.  A block or a list
    replaced by another array is fine too: :func:`step` notices that the
    blocks are no longer views of the vector and packs them afresh.
    """

    x1: list
    x2: list
    v1: list
    v2: list
    n: int = 0
    # (flat vector, layout block slices, the block views handed out)
    _flat: tuple = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def zeros(layout):
        blocks = layout.blocks
        return _on_buffer(np.zeros(blocks[-1][-1].stop), blocks, 0)

    def copy(self):
        if _is_packed(self):
            z, blocks, _ = self._flat
            return _on_buffer(z.copy(), blocks, self.n)
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

    :meth:`realize` gives the errors of one iteration as one record, a
    ``(3, size)`` float array laid out like the flat iterate
    ``[x1 | x2 | v1 | v2]``: row 0 holds the ``a`` terms (``a11 | a12 |
    a21 | a22``), row 1 the ``b`` terms and row 2 the ``c`` terms.  Every
    element that carries no error holds -0.0: the blocks of an exact
    evaluation and the x2 part of row 1, as there is no ``b12``.  In IEEE
    arithmetic ``x + (-0.0)`` is ``x`` bit for bit, signed zeros, infinities
    and NaN included, so :func:`step` adds a whole row where the per-block
    update lines add their blocks.

    ``generator(n, family, index, dim)`` returns the error vector for one
    block at iteration ``n`` or None for an exact evaluation.  A schedule
    that makes every block of an iteration at once gives ``draws(n, lanes)``
    instead, which returns one vector of ``lanes.size`` elements, the blocks
    concatenated in the order of ``lanes.keys`` (the ``(family, index,
    dim)`` of each block, by family in ``ERROR_FAMILIES`` order and then by
    index) with -0.0 in exact blocks, or None when all are exact.  Any
    other length is a :class:`SpecificationError`.  :meth:`realize` reads
    every schedule through ``draws``; for a generator, ``draws`` calls it
    block by block.  Absolute summability over n is the caller's
    obligation for custom generators; the built-in schedules satisfy it by
    construction.  ``always_zero`` short-circuits realization for exact
    runs.
    """

    generator: Optional[Callable[[int, str, int, int],
                                 Optional[np.ndarray]]] = None
    description: str = ""
    always_zero: bool = False
    draws: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        if (self.generator is None) == (self.draws is None):
            raise ValueError("give an ErrorSchedule a generator or draws")
        if self.draws is None:
            object.__setattr__(self, "draws", _block_by_block(self.generator))

    def realize(self, n, layout):
        """The error record of iteration n: a fresh ``(3, size)`` array with
        -0.0 wherever there is no error, or None if all are exact."""
        if self.always_zero:
            return None
        lanes = _lanes(layout)
        drawn = self.draws(n, lanes)
        if drawn is None:
            return None
        if not isinstance(drawn, np.ndarray) or drawn.dtype.kind != "f" \
                or drawn.shape != (lanes.size,):
            got = f"{drawn.dtype} array of shape {drawn.shape}" \
                if isinstance(drawn, np.ndarray) else type(drawn).__name__
            raise SpecificationError(
                f"error schedule: draws gave a {got} at iteration {n}, "
                f"expected a float array of shape ({lanes.size},)")
        # one gather places every lane, and the -0.0 appended past the last
        # where the record has no error
        return np.concatenate((drawn, [-0.0])).take(lanes.gather)


def _block_by_block(generator):
    """``draws`` that calls a per-block ``generator`` for each block."""
    def draws(n, lanes):
        out = np.full(lanes.size, -0.0)
        exact = True
        for (family, index, dim), lo in zip(lanes.keys, lanes.starts):
            e = generator(n, family, index, dim)
            if e is not None:
                e = np.asarray(e, dtype=float)
                if e.shape != (dim,):
                    raise SpecificationError(
                        f"error generator: family {family} block {index} "
                        f"returned shape {e.shape}, expected ({dim},)"
                    )
                out[lo:lo + dim] = e
                exact = False
        return None if exact else out
    return draws


class _Lanes(NamedTuple):
    """The error blocks of a layout, one lane each, in realization order."""

    keys: tuple        # (family, index, dim) of each block
    words: np.ndarray  # uint32 rows: the place of the family in
                       # ERROR_FAMILIES, and the block's index within it
    size: int          # the length of a draws vector: the sum of the dims
    starts: tuple      # where each lane starts in a draws vector
    runs: tuple        # (first lane, lane count, dim) of each run of
                       # consecutive lanes of equal dim
    gather: np.ndarray  # (3, state size) intp: the draws element of each
                        # element of the error record, ``size`` for none


@lru_cache(maxsize=16)
def _lanes(layout):
    # a family's last two digits name its space: H_i, G_k, X_k, Y_k, and
    # its letter the row of the error record
    place = {"11": 0, "12": 1, "21": 2, "22": 3}
    blocks = layout.blocks
    keys = [(family, index, sl.stop - sl.start) for family in ERROR_FAMILIES
            for index, sl in enumerate(blocks[place[family[1:]]])]
    words = np.array([[ERROR_FAMILIES.index(family) for family, _, _ in keys],
                      [index for _, index, _ in keys]], np.uint32)
    dims = [dim for _, _, dim in keys]
    *starts, size = accumulate(dims, initial=0)
    gather = np.full((3, blocks[-1][-1].stop), size, np.intp)
    for (family, index, dim), lo in zip(keys, starts):
        sl = blocks[place[family[1:]]][index]
        gather["abc".index(family[0]), sl] = np.arange(lo, lo + dim)
    runs, first = [], 0
    for dim, run in groupby(dims):
        count = len(list(run))
        runs.append((first, count, dim))
        first += count
    for array in (words, gather):
        array.flags.writeable = False
    return _Lanes(tuple(keys), words, size, tuple(starts), tuple(runs),
                  gather)


def zero_schedule():
    """All evaluations exact."""
    return ErrorSchedule(lambda n, family, index, dim: None, "zero",
                         always_zero=True)


def geometric_schedule(rho, amplitude, seed=0):
    """Noise with norm ``amplitude * rho^n`` per block (summable for rho < 1).

    Each error vector is a seeded unit normal direction scaled to the
    geometric envelope.  The direction of block ``index`` of the family
    ``ERROR_FAMILIES[code]`` at iteration ``n`` is, byte for byte,
    ``np.random.default_rng([seed, n, code, index]).standard_normal(dim)``,
    so it depends only on that key: identical schedules reproduce
    identical errors across runs and across structurally matching specs,
    and a block's draw does not depend on the other blocks or on the order
    in which iterations are realized.

    The draws are computed without a ``SeedSequence`` per block: one
    vectorized pass of NumPy's ``SeedSequence`` hash (:func:`_pcg_seeds`)
    gives the PCG64 seeds of every block of the chunk of iterations
    ``[n - n % C, n - n % C + C)``, and each block's generator starts from
    its row and draws straight into the block's slice of the ``draws``
    vector.  The norms of each run of equal-size blocks come from one
    batched dot and the run is scaled by one multiply; a draw of norm zero
    leaves its block exact (-0.0).  ``C`` is ``_CHUNK`` (64), halved while
    ``C`` times the number of blocks exceeds ``_CHUNK_ROWS`` (4096), so the
    seeds a schedule holds take at most 128 KB, or one iteration's seeds
    when those are more.  The schedule keeps only the chunk it hashed last,
    in one slot that is replaced whole, so it may be shared across threads
    without a lock.
    """
    for name, value in (("rho", rho), ("amplitude", amplitude)):
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must be in [0, 1), got {rho!r}")
    if not (math.isfinite(amplitude) and amplitude >= 0.0):
        raise ValueError(
            f"amplitude must be finite and >= 0, got {amplitude!r}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    head = _words(int(seed))
    held = None  # (lanes, first n of the chunk, the chunk's seeds)

    def draws(n, lanes):
        nonlocal held
        slot = held
        if slot is None or slot[0] is not lanes \
                or not 0 <= n - slot[1] < len(slot[2]):
            size = _CHUNK
            while size > 1 and size * len(lanes.keys) > _CHUNK_ROWS:
                size //= 2
            start = n - n % size
            # a chunk never crosses a multiple of 2**32: only the low word
            # of n varies within it
            n_words = np.repeat(np.array(_words(start), np.uint32)[:, None],
                                size, axis=1)
            n_words[0] += np.arange(size, dtype=np.uint32)
            slot = held = (lanes, start, _pcg_seeds(head, n_words, lanes))
        _, start, seeds = slot
        out = np.empty(lanes.size)
        for row, lo, (_, _, dim) in zip(seeds[n - start], lanes.starts,
                                        lanes.keys):
            Generator(PCG64(_GivenState(row))).standard_normal(
                out=out[lo:lo + dim])
        scale = amplitude * rho**n
        for first, count, dim in lanes.runs:
            lo = lanes.starts[first]
            v = out[lo:lo + count * dim].reshape(count, dim)
            # each row's v @ v, the same BLAS dot as np.linalg.norm(v) takes
            norms = np.sqrt(np.vecdot(v, v))
            if not norms.all():  # a zero-norm draw is an exact block:
                exact = norms == 0.0  # -0.0 times scale / inf is -0.0
                v[exact] = -0.0
                norms[exact] = np.inf
            v *= (scale / norms)[:, None]
        return out

    return ErrorSchedule(description=f"geometric(rho={rho}, amp={amplitude})",
                         draws=draws)


# Iterations whose seeds are hashed in one pass, and the most seeds (rows of
# four uint64 words) a pass makes when a layout has many blocks.
_CHUNK = 64
_CHUNK_ROWS = 4096


# NumPy's SeedSequence hash, as numpy/random/bit_generator.pyx runs it for
# one key: the entropy words are hashed into a pool of four 32-bit words,
# mixed, and hashed out again as the generator's state.  Every hash call
# j xors its word with init * mult**j and multiplies it by
# init * mult**(j + 1), all mod 2**32.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashing the pool out
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init, mult, calls):
    """The (xor, multiplier) columns of ``calls`` successive hash calls."""
    powers = np.multiply.accumulate(np.full(calls, mult, np.uint32))
    consts = np.empty((calls + 1, 1), np.uint32)
    consts[0] = init
    consts[1:, 0] = powers * np.uint32(init)
    consts.flags.writeable = False
    return consts[:-1], consts[1:]


# A key of w words takes 4 * w mixing calls; these cover keys of up to 16
# words (the seed, n, family and index take 4 unless seed or n >= 2**32).
_MIX_CONSTS = _hash_constants(_INIT_A, _MULT_A, 64)
# generate_state(4, np.uint64) hashes out 8 words, cycling over the pool
_OUT_CONSTS = _hash_constants(_INIT_B, _MULT_B, 8)
_OUT_CYCLE = np.arange(8) % 4
# the pool words each pool word is mixed into, in order
_MIX_TARGETS = tuple(np.delete(np.arange(4), src) for src in range(4))


def _words(value):
    """The little-endian 32-bit words SeedSequence splits ``value`` into."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    out = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        out.append(value & 0xFFFFFFFF)
        value >>= 32
    return out


def _hashmix(words, xor, mul):
    h = words ^ xor
    h *= mul
    h ^= h >> 16
    return h


def _mix(x, h):
    out = x * _MIX_MULT_L
    out -= h * _MIX_MULT_R
    out ^= out >> 16
    return out


def _pcg_seeds(head, n_words, lanes):
    """PCG64 seeds of the keys ``head + [n, code, index]`` for a chunk of n.

    ``head`` holds the 32-bit words of the seed, and column i of the
    uint32 array ``n_words`` those of the chunk's i-th n (all n of a chunk
    have the same number of words).  Entry ``[i, j]`` of the read-only
    ``(chunk, lanes, 4)`` result is ``SeedSequence(head +
    list(n_words[:, i]) + list(lanes.words[:, j])).generate_state(4,
    np.uint64)``, from one pass of uint32 arithmetic over every (n, lane)
    column, so numpy's per-call cost is paid once per chunk.
    """
    width, chunk = n_words.shape
    lanes_count = len(lanes.keys)
    count = len(head) + width + 2
    entropy = np.empty((count, chunk, lanes_count), np.uint32)
    entropy[:len(head)] = np.array(head, np.uint32)[:, None, None]
    entropy[len(head):-2] = n_words[:, :, None]
    entropy[-2:] = lanes.words[:, None, :]
    entropy = entropy.reshape(count, chunk * lanes_count)
    xor, mul = _MIX_CONSTS
    if 4 * count > len(xor):
        xor, mul = _hash_constants(_INIT_A, _MULT_A, 4 * count)
    pool = _hashmix(entropy[:4], xor[:4], mul[:4])
    # each pool word into the other three: those three updates read only
    # the source word, so they run as one operation
    j = 4
    for src, targets in enumerate(_MIX_TARGETS):
        h = _hashmix(pool[src], xor[j:j + 3], mul[j:j + 3])
        pool[targets] = _mix(pool[targets], h)
        j += 3
    # the words past the pool, each into all four
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, xor[j:j + 4], mul[j:j + 4]))
        j += 4
    state = _hashmix(pool[_OUT_CYCLE], *_OUT_CONSTS)
    out = np.empty((chunk * lanes_count, 8), "<u4")
    out.T[...] = state
    seeds = out.view("<u8").astype(np.uint64, copy=False)
    seeds = seeds.reshape(chunk, lanes_count, 4)
    seeds.flags.writeable = False
    return seeds


class _GivenState(ISeedSequence):
    """A seed sequence whose state is already computed: ``PCG64`` reads its
    seed from ``generate_state(4, np.uint64)``, which returns ``words``."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _on_buffer(z, blocks, n):
    """A state at iteration ``n`` whose blocks are views of the flat ``z``."""
    views = [z[sl] for family in blocks for sl in family]
    m, s = len(blocks[0]), len(blocks[1])
    state = IterateState(views[:m], views[m:m + s], views[m + s:m + 2 * s],
                         views[m + 2 * s:], n)
    state._flat = (z, blocks, views)
    return state


def _is_packed(state):
    """Whether every block of ``state`` is still a view of its flat vector.

    The blocks must be the very views handed out, and those must still
    view the vector (a deep copy or a pickle round trip copies them apart).
    """
    held = state._flat
    if held is None:
        return False
    z, _, views = held
    current = state.x1 + state.x2 + state.v1 + state.v2
    return len(current) == len(views) and views[0].base is z \
        and all(map(operator.is_, current, views))


def _packed(state, blocks):
    """``state`` if its blocks are still views of its flat vector with the
    slices ``blocks``, else a packed copy of it."""
    if _is_packed(state) and state._flat[1] is blocks:
        return state
    families = (state.x1, state.x2, state.v1, state.v2)
    for name, family, slices in zip(FAMILIES, families, blocks):
        if len(family) != len(slices) or any(
                np.shape(b) != (sl.stop - sl.start,)
                for b, sl in zip(family, slices)):
            raise SpecificationError(
                f"state family {name} does not match the system layout")
    return _on_buffer(np.concatenate(sum(families, []), dtype=float), blocks,
                      state.n)


def _check_finite(whole, y, checks, n):
    """Raise :class:`NumericError` naming the first non-finite block.

    ``whole`` is the part of ``y`` the blocks ``checks`` cover, which hold
    ``(name, index, slice)`` in checking order.  A single non-finite entry
    poisons a dot product, so one dot over ``whole`` clears the common case;
    only then are the blocks looked at one by one (a huge but finite family
    can overflow the first dot).
    """
    if math.isfinite(whole @ whole):
        return
    for name, index, sl in checks:
        block = y[sl]
        if not math.isfinite(block @ block):
            raise NumericError(
                f"non-finite value in {name}, block {index}", iteration=n
            )


def _block_sqnorms(d, runs):
    """Per-block ``np.sum(d[0][sl]**2)`` and ``np.sum(d[1][sl]**2)``.

    Returns two lists of Python floats in flat block order, and squares
    ``d`` in place.  ``runs`` groups consecutive blocks of equal size, which
    reduce in one call over the last axis; that sums each block as its own
    1-D reduction does, where ``np.add.reduceat`` would sum in another order
    and differ in the last bits.
    """
    d *= d
    first, second = [], []
    for sl, count, size in runs:
        a, b = np.add.reduce(d[:, sl].reshape(2, count, size), 2).tolist()
        first += a
        second += b
    return first, second


def _sqnorm(d):
    # np.sum(d**2) as the bare ufunc reduction, without np.sum's wrapper
    return float(np.add.reduce(d * d))


def step(spec, state, gamma, errors_at_n=None, with_transversality=True):
    """One full iteration from ``state`` with step ``gamma``.

    Runs the forward-backward-forward step on the flat iterate
    ``z = [x1 | x2 | v1 | v2]``: ``s = z - gamma F(z)``, ``p = J(s)``,
    ``q = p - gamma F(p)`` and ``z+ = (z - s) + q``, where F stacks the
    forward terms of the four families and J the per-block resolvents (the
    identity on x2).  Returns the new state (counter incremented, its
    blocks views of a fresh flat vector) together with a
    :class:`TraceRecord`.

    ``errors_at_n`` is an error record as :meth:`ErrorSchedule.realize`
    makes it, or None for exact evaluation.  Its rows are added whole: the
    ``a`` row to F(z) before it is scaled by gamma, the ``b`` row to J(s)
    and the ``c`` row to F(p).  Its -0.0 elements leave their lines
    unchanged bit for bit, so the step rounds as when only the erroneous
    blocks were added.  The record is only read.

    Raises :class:`NumericError` naming the offending line and block if the
    intermediate points ``p11`` or any block of the new state are
    non-finite, :class:`SpecificationError` for an error record that is
    not an array of shape ``(3, size)``, and ``ValueError`` for a
    non-positive step.  The admissible-interval bound on gamma is the step
    policy's responsibility; here only positivity is enforced.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    plan = spec.plan
    blocks = plan.blocks
    b11, b12, b21, b22 = blocks
    state = _packed(state, blocks)
    z = state._flat[0]
    size = z.size
    g = float(gamma)
    n = state.n
    errs = errors_at_n
    if errs is not None and (not isinstance(errs, np.ndarray)
                             or errs.shape != (3, size)):
        got = errs.shape if isinstance(errs, np.ndarray) \
            else type(errs).__name__
        raise SpecificationError(
            f"error record: expected an array of shape (3, {size}), got {got}")
    signed_g = plan.sign * g  # -g over x1, +g elsewhere
    x1_, v1_, dual = plan.x1, plan.v1, plan.dual

    # forward step at z: s = z - gamma F(z), built in place in F's buffer
    s = _forward(spec, plan, z, [N.adjoint_apply(v) for N, v in
                                 zip(spec.N, state.v1)])
    for k, sl in enumerate(b21):
        nl_x = s[sl]
        for i, x1i in enumerate(state.x1):
            nl_x += spec.N[k].apply(spec.L[k][i].apply(x1i))
        nl_x -= spec.N[k].apply(state.x2[k])
    if errs is not None:
        s += errs[0]
    s *= signed_g
    s += z

    # backward step: the per-block resolvents, the identity on x2 and the
    # inverse-resolvent identity on the dual families,
    # p_dual = s_dual - gamma (nr + J(s_dual / gamma - nr))
    p = np.empty(size)
    arg = s[x1_] + g * plan.z
    for i, sl in enumerate(b11):
        p[sl] = spec.A[i].resolve(g, arg[sl])
    p[plan.x2] = s[plan.x2]
    t = s / g
    tv = t[v1_]
    tv -= plan.nr
    inv_g = 1.0 / g
    for k, (sl21, sl22) in enumerate(zip(b21, b22)):
        p[sl21] = spec.D[k].resolve(inv_g, t[sl21])
        p[sl22] = spec.B[k].resolve(inv_g, t[sl22])
    pv = p[v1_]
    np.add(plan.nr, pv, pv)
    if errs is not None:
        p += errs[1]
    _check_finite(p[x1_], p, (("p11", i, sl) for i, sl in enumerate(b11)), n)
    pd = p[dual]
    pd *= g
    np.subtract(s[dual], pd, pd)

    # forward correction at p: q = p - gamma F(p), z+ = (z - s) + q
    p11 = [p[sl] for sl in b11]
    p21 = [p[sl] for sl in b21]
    q = _forward(spec, plan, p, [N.adjoint_apply(v) for N, v in
                                 zip(spec.N, p21)])
    for k, (sl12, sl21) in enumerate(zip(b12, b21)):
        l_p11 = spec.L[k][0].apply(p11[0])
        for i in range(1, len(p11)):
            l_p11 = l_p11 + spec.L[k][i].apply(p11[i])
        np.subtract(spec.N[k].apply(l_p11), spec.N[k].apply(p[sl12]), q[sl21])
    if errs is not None:
        q += errs[2]
    q *= signed_g
    q += p
    z_new = z - s
    z_new += q
    _check_finite(z_new, z_new, plan.finite_order, n)
    new_state = _on_buffer(z_new, blocks, n + 1)

    diffs = np.empty((2, size))
    np.subtract(z, p, diffs[0])
    np.subtract(z_new, z, diffs[1])
    gap, moved = _block_sqnorms(diffs, plan.runs)
    m, nk = len(b11), len(b21)
    dx1 = sum(gap[:m])
    dx2 = sum(gap[m:m + nk])
    dv1 = sum(gap[m + nk:m + 2 * nk])
    dv2 = sum(gap[m + 2 * nk:])
    move = 0.0
    for sq in moved:
        move += sq

    defect = transversality_defect(spec, new_state) if with_transversality \
        else float("nan")
    record = TraceRecord(
        n=n,
        gamma=g,
        displacement=math.sqrt(move),
        block_displacements=(math.sqrt(dx1), math.sqrt(dx2),
                             math.sqrt(dv1), math.sqrt(dv2)),
        partial_sums=(dx1, dx2, dv1, dv2),
        transversality_defect=defect,
    )
    return new_state, record


def _forward(spec, plan, y, nstar1):
    """F at the flat point ``y``, but for its v1 family, which is left 0.

    ``nstar1`` holds ``N_k* y_v1k``.  The x1 family is
    ``C(y_x1) + sum_k L_ki* N_k* y_v1k``, x2 is ``N_k* y_v1k - M_k* y_v2k``
    and v2 is ``M_k y_x2k``.  The v1 family (``N_k`` applied to the
    coupling residual) is summed differently at z and at p, so each caller
    writes it.
    """
    b11, b12, _, b22 = plan.blocks
    out = np.zeros(y.size)
    c = np.asarray(spec.C.apply(y[plan.x1]))
    for i, sl in enumerate(b11):
        acc = out[sl]
        for k, nstar1k in enumerate(nstar1):
            acc += spec.L[k][i].adjoint_apply(nstar1k)
        np.add(c[sl], acc, acc)
    for k, (sl12, sl22) in enumerate(zip(b12, b22)):
        np.subtract(nstar1[k], spec.M[k].adjoint_apply(y[sl22]), out[sl12])
        out[sl22] = spec.M[k].apply(y[sl12])
    return out


def transversality_defect(spec, state):
    """``sqrt(sum_k ||M_k* v2_k - N_k* v1_k||^2)`` at the given state."""
    total = 0.0
    for k in range(len(state.v1)):
        diff = spec.M[k].adjoint_apply(state.v2[k]) \
            - spec.N[k].adjoint_apply(state.v1[k])
        total += _sqnorm(diff)
    return math.sqrt(total)


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
    sums = (0.0, 0.0, 0.0, 0.0)
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
        sums = tuple(map(operator.add, sums, rec.partial_sums))
        done = rec.displacement <= tol
        if keep or done or it == max_iter - 1:
            if not keep:  # final record needs the defect after all
                rec = replace(
                    rec, transversality_defect=transversality_defect(spec, state))
            trace.append(replace(rec, partial_sums=sums))
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
