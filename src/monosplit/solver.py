"""Error-tolerant primal-dual forward-backward-forward iteration.

The iterate holds four block families: the primal points ``x1`` (one per
primal space), the auxiliary splitting points ``x2`` (one per coupling
space) and the two dual families ``v1``, ``v2``.  Each step lays them out
as one flat vector ``z = [x1 | x2 | v1 | v2]`` of the product space, and
one iteration is Tseng's forward-backward-forward step on it:
``s = z - gamma F(z)``, ``p = J(s)``, ``q = p - gamma F(p)`` and
``z+ = (z - s) + q``.  F stacks the forward terms of the families (the
coupling C and the linear maps), one map evaluated alike at z and at p,
and J the resolvents, applied block by block.  Each update line is one
array operation over the whole of z; the sign of gamma is carried per
family, so every element has the same value as when the blocks were
iterated one at a time.  Only the sign of a zero may differ, as sums
start at their first term, not at +0.0, and zero offsets are left out.
Runs are reproducible bit for bit, which the separation check (a joint
run against its decoupled halves) relies on.  The transversality defect
is a diagnostic of the trace: :func:`solve` evaluates it once for each
record it keeps, and a bare step leaves it out.

Inexact evaluations are modeled by additive error sequences: ``a``/``c``
terms perturb forward (operator) evaluations and ``b`` terms perturb
resolvent outputs.  The errors of one iteration are realized as one
``(3, size)`` record laid out like z, a row per letter, holding -0.0
wherever an evaluation is exact; as ``x + (-0.0)`` is ``x`` bit for bit,
the step adds each row with one operation and rounds as if it had added
only the erroneous blocks.  A custom schedule supplies its errors through
a per-block generator; a schedule without one is exact.  Built-in
schedules are zero and geometrically decaying noise, both absolutely
summable.  The geometric schedule's draws are keyed and stateless: each
element's draw is a function of (seed, n, family, index, place in the
block) alone, one splitmix64 hash of those followed by Box–Muller, run as
one pass of uint64 array arithmetic over every element of a run of
iterations, drawn straight into the records' layout.  :func:`solve`
realizes its errors in runs of at most ``ERROR_RUN`` (16) iterations, one
``(count, 3, size)`` array per run, so a generator is called up to 15
iterations ahead of the step that adds its output, but never past the
last iteration ``solve`` takes.
The draws repeat exactly for a given NumPy build: ``log``, ``cos`` and the
``vecdot`` of the norms are NumPy kernels, which another build may round
differently in the last bit.

:func:`solve` accelerates the iteration by type-II Anderson extrapolation
of the step's map T (Walker and Ni, SIAM J. Numer. Anal. 49, 2011); the
step itself stays the plain map.  It keeps references to the images
:func:`step` returned since the last extrapolation, fresh vectors that
nothing writes into again: the last ``AA_MEMORY + 1`` pairs ``(y, T(y))``
of a point stepped from and its image, each image the next point.  On
every ``AA_PERIOD``-th step it stacks them once.  With the displacements
``g = T(y) - y`` and the differences ``dG``, ``dT`` of consecutive pairs,
the coefficients ``alpha`` minimize ``||g_k - dG alpha||^2 + lam
||alpha||^2``, ``lam = AA_RIDGE * trace(dG' dG)``, and the next step
starts from ``y_AA = T(y_k) - dT alpha`` instead of ``T(y_k)``; the
history then starts again from ``y_AA``.
The paper's iteration tolerates absolutely summable errors, and ``y_AA -
T(y_k)`` counts as one more: ``y_AA`` is taken only while ``||y_AA -
T(y_k)|| <= AA_BUDGET ||g_0|| (k + 1)^-AA_DECAY``, with ``k`` the
extrapolated points stepped from so far and ``g_0`` the run's first
displacement, a summable budget, so the weak-convergence theorem still
holds.  A zero
or non-finite Gram trace, a singular solve or a non-finite coefficient
takes the plain step.  The trace records count the extrapolations
accepted, the points stepped from, and those refused, where the plain
step was taken.
"""

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import groupby
from numbers import Integral, Real
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import NumericError, SpecificationError, StepBoundError
from .linops import _read_only

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000
DEFAULT_TRACE_EVERY = 10
# solve realizes the errors of this many iterations per call; a run holds
# ERROR_RUN * 3 * size floats
ERROR_RUN = 16

TRACE_COLUMNS = (
    "n", "gamma", "displacement",
    "dx1", "dx2", "dv1", "dv2",
    "sum_dx1", "sum_dx2", "sum_dv1", "sum_dv2",
    "transversality_defect", "aa_accepted", "aa_refused",
)

# Anderson extrapolation (see the module docstring): the pairs it mixes
# beyond the newest, the steps between two attempts, the budget constant D
# and the decay of the summable budget D ||g_0|| (k + 1)^-1.1, the Tikhonov
# weight relative to the Gram trace
AA_MEMORY = 10
AA_PERIOD = 20
AA_BUDGET = 100.0
AA_DECAY = 1.1
AA_RIDGE = 1e-10

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

    Each family is a list of 1-D float blocks, one per space of its kind,
    and the state holds nothing else.  A caller may write into a block,
    replace a block or assign a whole family: :func:`step` reads the blocks
    the state holds when it is called.  The blocks of a state that
    :meth:`zeros` or :func:`step` makes are views of one fresh vector, so a
    write into one block leaves every other state alone.
    """

    x1: list
    x2: list
    v1: list
    v2: list
    n: int = 0

    @staticmethod
    def zeros(layout):
        blocks = layout.blocks
        return _on_buffer(np.zeros(blocks[-1][-1].stop), blocks, 0)

    def copy(self):
        return IterateState(
            x1=[b.copy() for b in self.x1],
            x2=[b.copy() for b in self.x2],
            v1=[b.copy() for b in self.v1],
            v2=[b.copy() for b in self.v2],
            n=self.n,
        )


class TraceRecord(NamedTuple):
    """Per-iteration diagnostics.

    ``displacement`` is the full-state one-step movement ``||z+ - z||``.
    The block displacements are the iterate-to-intermediate distances whose
    squares the convergence theory sums: ``||x1 - p11||``, ``||x2 - p12||``,
    ``||v1 - p21||``, ``||v2 - p22||``, each over its whole family; every
    square is one dot.  ``partial_sums`` holds running totals of those
    squares; a bare :func:`step` call reports just its own contribution,
    :func:`solve` accumulates across iterations.  Under extrapolation those
    are sums over the points evaluated, an extrapolated point in place of
    the image it replaced, not over one trajectory of the plain map.
    ``transversality_defect`` is ``||M* v2 - N* v1||`` at the new state in
    the records :func:`solve` keeps, and None in the record of a bare
    :func:`step`.  ``aa_accepted`` and ``aa_refused`` are the running
    counts, up to the end of the record's iteration, of the extrapolated
    points :func:`solve` stepped from and of the extrapolations it refused
    in favour of the plain step; a bare :func:`step` reads 0 for both.
    """

    n: int
    gamma: float
    displacement: float
    block_displacements: tuple
    partial_sums: tuple
    transversality_defect: Optional[float]
    aa_accepted: int = 0
    aa_refused: int = 0


@dataclass(frozen=True)
class StepPolicy:
    """An admissible constant step: ``gamma_const`` lies in
    ``[epsilon, (1 - epsilon)/beta]``.

    ``beta`` is the number the policy is taken against: any certified
    Lipschitz bound of the operator F that :func:`step` applies, such as
    :func:`~monosplit.system.compute_beta` (the paper's beta).  With a
    ``metric``, one positive weight ``d_b`` per block in flat block order,
    block b steps at ``gamma_const * d_b``, gamma is the metric's scale and
    ``beta`` bounds the rescaled operator, as
    :func:`~monosplit.system.step_policy` takes it; without one, every
    weight is 1.  Build one with :func:`make_policy`, which checks the
    range.  A caller that needs a varying step calls :func:`step` with any
    positive gamma.
    """

    beta: float
    epsilon: float
    gamma_const: float
    metric: Optional[tuple] = None

    def gamma_at(self, n):
        """The step of iteration ``n``: the constant, the metric's scale."""
        return self.gamma_const

    def steps(self, layout):
        """The :class:`BlockSteps` that :func:`step` takes on ``layout``:
        ``gamma_const`` times each block's weight."""
        return BlockSteps.of(layout.blocks, self.gamma_const, self.metric
                             or (1.0,) * sum(map(len, layout.blocks)))


def make_policy(beta, epsilon=None, gamma_const=None, metric=None):
    """Validate and build a :class:`StepPolicy`.

    ``beta`` is any certified Lipschitz bound of the step's operator F, or
    with a ``metric`` of the rescaled one (see :class:`StepPolicy`).
    ``epsilon`` defaults to ``min(0.01, 0.5/(beta + 1))`` and must lie in
    ``(0, 1/(beta + 1))``; the default constant step is the largest
    admissible one, ``(1 - epsilon)/beta``.  Each weight of ``metric`` must
    be positive and finite.
    """
    beta = float(beta)
    if not np.isfinite(beta) or beta <= 0:
        raise StepBoundError(f"beta must be positive and finite, got {beta}")
    if metric is not None:
        metric = tuple(map(float, metric))
        if not all(0.0 < d < math.inf for d in metric):
            raise StepBoundError(
                f"metric weights must be positive and finite, got {metric}")
    if epsilon is None:
        epsilon = min(0.01, 0.5 / (beta + 1.0))
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 1.0 / (beta + 1.0)):
        raise StepBoundError(
            f"epsilon = {epsilon} outside the admissible interval "
            f"(0, {1.0 / (beta + 1.0)}) for beta = {beta}"
        )
    gamma_max = (1.0 - epsilon) / beta
    if gamma_const is None:
        gamma_const = gamma_max
    gamma_const = float(gamma_const)
    if not (epsilon <= gamma_const <= gamma_max * (1 + 1e-12)):
        raise StepBoundError(
            f"gamma = {gamma_const} outside [{epsilon}, {gamma_max}] "
            f"for beta = {beta}, epsilon = {epsilon}"
        )
    return StepPolicy(beta, epsilon, gamma_const, metric)


class BlockSteps(NamedTuple):
    """The steps of one iteration, laid out once for :func:`step`.

    ``slices`` are the block slices of the layout they were laid out for
    (``layout.blocks``), ``gamma`` is the scale the trace reports and
    ``per_block`` the step of each block in flat block order.  ``flat``
    holds each element's step over the flat iterate ``[x1 | x2 | v1 |
    v2]``, ``signed`` the same with the sign of the update lines, negative
    over x1, ``x1`` and ``dual`` are ``flat`` over x1 and over ``v1 | v2``,
    ``primal`` is the step of each x1 block and ``inverse`` per k the
    reciprocal steps of v1_k and v2_k, at which the dual resolvents are
    taken.  A scalar step is the metric of unit weights.  :func:`solve`
    builds its steps once per call.
    """

    slices: tuple
    gamma: float
    per_block: tuple
    flat: object
    signed: object
    x1: object
    dual: object
    primal: object
    inverse: object

    @staticmethod
    def of(slices, gamma, metric):
        """Block b of the layout whose block slices are ``slices`` at
        ``gamma * metric[b]``, in flat block order.

        Raises :class:`SpecificationError` when ``metric`` does not hold one
        weight per block and ``ValueError`` for a step that is not positive
        and finite.
        """
        flat_slices = [sl for family in slices for sl in family]
        if len(metric) != len(flat_slices):
            raise SpecificationError(
                f"metric: expected {len(flat_slices)} block weights, "
                f"got {len(metric)}")
        gamma = float(gamma)
        per_block = tuple(gamma * float(d) for d in metric)
        for g in per_block:
            if not (g > 0.0 and math.isfinite(g)):
                raise ValueError(
                    f"gamma must be positive and finite, got {g}")
        flat = np.empty(flat_slices[-1].stop)
        for sl, g in zip(flat_slices, per_block):
            flat[sl] = g
        x1 = slice(0, slices[1][0].start)
        dual = slice(slices[2][0].start, flat.size)
        signed = flat.copy()
        signed[x1] *= -1.0
        m, s = len(slices[0]), len(slices[1])
        inverse = tuple(zip((1.0 / g for g in per_block[m + s:m + 2 * s]),
                            (1.0 / g for g in per_block[m + 2 * s:])))
        flat, signed = _read_only(flat), _read_only(signed)
        return BlockSteps(slices, gamma, per_block, flat, signed, flat[x1],
                          flat[dual], per_block[:m], inverse)


@dataclass(frozen=True)
class ErrorSchedule:
    """Source of the additive error vectors.

    :meth:`realize` gives the errors of a run of consecutive iterations,
    one record per iteration, a ``(3, size)`` float array laid out like
    the flat iterate ``[x1 | x2 | v1 | v2]``: row 0 holds the ``a`` terms
    (``a11 | a12 | a21 | a22``), row 1 the ``b`` terms and row 2 the ``c``
    terms.  Every element that carries no error holds -0.0: the blocks of
    an exact evaluation and the x2 part of row 1, as there is no ``b12``.
    In IEEE arithmetic ``x + (-0.0)`` is ``x`` bit for bit, signed zeros,
    infinities and NaN included, so :func:`step` adds a whole row where the
    per-block update lines add their blocks.  The errors are made in this
    layout and in no other: a generator's block is written into its row
    and slice of the record, and the geometric schedule draws one normal
    per element of the record.

    ``generator(n, family, index, dim)`` returns the error vector for one
    block at iteration ``n``, or None for an exact evaluation; each vector
    it returns must be real (float, int or uint entries) and of shape
    ``(dim,)``, else :meth:`realize` raises :class:`SpecificationError`.
    A schedule without a generator is exact everywhere, and its
    :meth:`realize` returns None at once; any other schedule raises
    ``ValueError`` for an ``n`` that is not a non-negative integer.  Absolute
    summability over n is the caller's obligation for a generator; the
    built-in schedules satisfy it by construction.
    """

    generator: Optional[Callable[[int, str, int, int],
                                 Optional[np.ndarray]]] = None
    # draws(first, count, lanes): the records of iterations first to
    # first + count - 1 as one fresh (count, 3, size) array, or None when
    # all are exact
    _draws: Optional[Callable] = field(default=None, repr=False,
                                       kw_only=True)

    def __post_init__(self):
        if self.generator is not None:
            object.__setattr__(self, "_draws", _block_by_block(self.generator))

    def realize(self, n, layout, count):
        """The records of the run of iterations ``n`` to ``n + count - 1``:
        a fresh ``(count, 3, size)`` array whose row ``j`` is the record of
        iteration ``n + j``, with -0.0 wherever there is no error, or None
        if every one of them is exact.  A ``count`` that is not a positive
        integer raises ``ValueError``.  :func:`solve` asks for runs of at
        most ``ERROR_RUN`` (16) records, numbered by the state counter ``n`` it
        steps from and none past its last step, so it calls a generator up
        to 15 iterations ahead of the step that adds its output.
        """
        if self._draws is None:
            return None
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 0:
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        if isinstance(count, bool) or not isinstance(count, Integral) \
                or count < 1:
            raise ValueError(
                f"count must be a positive integer, got {count!r}")
        return self._draws(int(n), int(count), _lanes(layout))


def _block_by_block(generator):
    """The batched draws of a per-block ``generator``, whose output is
    checked block by block and written into its row of the record."""
    def draws(first, count, lanes):
        out = np.full((count, *lanes.counters.shape), -0.0)
        exact = True
        for n, record in enumerate(out, first):
            for family, index, row, sl in lanes.keys:
                dim = sl.stop - sl.start
                e = generator(n, family, index, dim)
                if e is not None:
                    e = np.asarray(e)
                    # complex, bool, str and object entries are refused, not
                    # coerced
                    if e.dtype.kind not in "fiu" or e.shape != (dim,):
                        raise SpecificationError(
                            f"error generator: family {family} block {index} "
                            f"returned {e.dtype} of shape {e.shape}, expected "
                            f"({dim},) real numbers"
                        )
                    record[row, sl] = e
                    exact = False
        return None if exact else out
    return draws


class _Lanes(NamedTuple):
    """The error blocks of a layout, laid out as the error record."""

    keys: tuple        # (family, index, row, slice) of each block in
                       # realization order: its row of the record and its
                       # slice of the flat iterate
    counters: np.ndarray  # (3, state size) uint64, one per element of the
                          # record: the family's place in ERROR_FAMILIES << 60
                          # | the block's index << 32 | the element's place
                          # in the block, distinct below 2**28 blocks per
                          # family and 2**32 elements per block; the x2 part
                          # of row b, where no error enters, takes place 11
    runs: tuple        # _runs of the layout's blocks
    x2: slice          # the x2 family, exact in row b


@lru_cache(maxsize=16)
def _lanes(layout):
    # a family's letter names its row of the record, and its last two
    # digits its space: H_i, G_k, X_k, Y_k
    blocks = layout.blocks
    spaces = ("11", "12", "21", "22")
    keys = tuple((family, index, "abc".index(family[0]), sl)
                 for family in ERROR_FAMILIES
                 for index, sl in enumerate(blocks[spaces.index(family[1:])]))
    # there is no b12: its elements draw under a place of their own, which
    # the draws then set to -0.0
    codes = {family: code
             for code, family in enumerate((*ERROR_FAMILIES, "b12"))}
    counters = np.empty((3, blocks[-1][-1].stop), np.uint64)
    for family, index, row, sl in keys + tuple(
            ("b12", index, 1, sl) for index, sl in enumerate(blocks[1])):
        counters[row, sl] = np.arange(sl.stop - sl.start, dtype=np.uint64) \
            + (codes[family] << 60 | index << 32)
    return _Lanes(keys, _read_only(counters), _runs(blocks),
                  slice(blocks[1][0].start, blocks[1][-1].stop))


def _runs(blocks):
    """``(slice, count, size)`` of each run of consecutive blocks of equal
    size among the layout's block slices ``blocks``, in flat order."""
    runs = []
    for size, run in groupby((sl for family in blocks for sl in family),
                             key=lambda sl: sl.stop - sl.start):
        run = list(run)
        runs.append((slice(run[0].start, run[-1].stop), len(run), size))
    return tuple(runs)


def zero_schedule():
    """All evaluations exact: ``ErrorSchedule()``, a schedule without a
    generator, whose :meth:`~ErrorSchedule.realize` returns None."""
    return ErrorSchedule()


def geometric_schedule(rho, amplitude, seed=0):
    """Noise with norm ``amplitude * rho^n`` per block (summable for rho < 1).

    Each error vector is a keyed normal direction scaled to the geometric
    envelope.  Element ``j`` of block ``index`` of the family
    ``ERROR_FAMILIES[code]`` at iteration ``n`` draws one standard normal
    from (seed, n, code, index, j) alone: its counter (see :class:`_Lanes`)
    xor the seed's key, plus ``n`` times an odd constant mod 2**64, is
    finalized by splitmix64 into two words and those by Box–Muller into the
    normal (:func:`_normals`).  The seed's key folds every 64-bit word of
    ``seed``, so ``seed`` and ``seed + 2**64`` draw differently; ``n``
    enters mod 2**64, and from 2**64 on ``rho**n`` is 0 for every rho < 1.
    Identical schedules thus reproduce identical errors across runs and
    across structurally matching specs, and a block's draw does not depend
    on the other blocks or on the order in which iterations are realized.
    The draws repeat exactly for a given NumPy build, whose ``log``,
    ``cos`` and ``vecdot`` kernels they use.

    The schedule has no per-block generator: one pass of array arithmetic
    draws every element of a run of records in the records' own layout,
    the x2 part of row b included, which is then set to -0.0.  The norms of
    each run of equal-size blocks of the flat iterate come from one batched
    dot over all three rows and the run is scaled by one multiply; a draw
    of norm zero leaves its block exact (-0.0).  The schedule keeps no
    state between calls, so it may be shared across threads.
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
    # a 1-element array, as uint64 arithmetic on a numpy scalar warns of
    # its overflow
    key, rest = np.zeros(1, np.uint64), int(seed)
    while True:  # each 64-bit word of the seed, the low word first
        key ^= rest & _MASK
        key += _GOLDEN
        _splitmix64(key)
        rest >>= 64
        if not rest:
            break
    key = int(key[0])

    def draws(first, count, lanes):
        ns = range(first, first + count)
        out = _normals(lanes.counters.ravel(), key, np.array(
            [n * _N_STRIDE & _MASK for n in ns], np.uint64))
        out = out.reshape(count, *lanes.counters.shape)
        # 0 from n = 2**64 on; float(n) overflows from 2**1024
        scales = np.array([amplitude * rho**min(n, 2**64) for n in ns])
        for sl, blocks, dim in lanes.runs:
            v = out[:, :, sl].reshape(count, 3, blocks, dim)
            # each block's v @ v, the same BLAS dot as np.linalg.norm takes
            norms = np.sqrt(np.vecdot(v, v))
            if not norms.all():  # a zero-norm draw is an exact block:
                exact = norms == 0.0  # -0.0 times scale / inf is -0.0
                v[exact] = -0.0
                norms[exact] = np.inf
            v *= (scales[:, None, None] / norms)[..., None]
        out[:, 1, lanes.x2] = -0.0
        return out

    return ErrorSchedule(_draws=draws)


# splitmix64's increment, 2**64 over the golden ratio; an odd multiplier
# that spreads n over the 64-bit inputs; and the offsets of the two
# splitmix64 states that follow an input
_GOLDEN = 0x9E3779B97F4A7C15
_N_STRIDE = 0xD1B54A32D192ED03
_MASK = 2**64 - 1
_NEXT = _read_only(np.array([[_GOLDEN], [2 * _GOLDEN & _MASK]], np.uint64))


def _splitmix64(x):
    """splitmix64's finalizer (Steele, Lea and Flood, OOPSLA 2014), in place
    on the uint64 array ``x``, which it returns."""
    x ^= x >> 30
    x *= 0xBF58476D1CE4E5B9
    x ^= x >> 27
    x *= 0x94D049BB133111EB
    x ^= x >> 31
    return x


def _normals(counters, key, offsets):
    """One standard normal per element of the uint64 array ``counters`` and
    per offset, as one flat vector: the ``counters.size`` normals of
    ``offsets[0]``, then those of ``offsets[1]``, and so on.

    Each input ``(counter ^ key) + offset`` is a splitmix64 state, and its
    next two outputs are the element's two words.  The top 52 bits ``h`` of
    a word give the uniform ``(h + 0.5) / 2**52``, strictly inside (0, 1),
    and Box–Muller turns the pair ``u, u'`` into
    ``sqrt(-2 log u) cos(2 pi u')``.
    """
    x = (counters ^ key) + offsets[:, None]
    words = _splitmix64(x.reshape(1, -1) + _NEXT)
    u = (words >> 12) + 0.5
    u *= 2.0**-52
    r = np.log(u[0])
    r *= -2.0
    np.sqrt(r, r)
    angle = u[1]
    angle *= 2.0 * np.pi
    r *= np.cos(angle, angle)
    return r


@dataclass(frozen=True)
class StepPlan:
    """What :func:`step` needs of a system, its operators bound once.

    The step lays the iterate out as one vector ``[x1 | x2 | v1 | v2]``
    whose block slices are the layout's ``blocks``, and ``lengths`` holds
    the block count of each family, then the length of each block in flat
    order, which a state must match; ``families`` slices out the four whole
    families, x1, x2, v1 and v2, and ``dual`` covers ``v1 | v2``.  ``z``
    and ``nr`` lay the offsets ``z_i`` and ``N_k r_k`` flat over x1 and v1;
    each is None when all its elements are zero, and the step then leaves
    it out, as adding a zero changes at most the sign of a zero.  The rest
    binds the operators once per system.  F's: ``c_apply`` is ``C.apply``,
    ``n_adjoints`` the ``N_k.adjoint_apply``, ``primal`` per x1 block its
    slice and ``L_ki.adjoint_apply`` over k, and ``couplings`` per k
    ``N_k.apply``, ``M_k.apply``, ``M_k.adjoint_apply``, ``L_ki.apply`` over
    i and the slices of x2, v1 and v2.  J's: ``primal_resolvents`` per x1 block its
    slice and ``A_i.resolve``, and ``dual_resolvents`` per k
    ``D_k.resolve``, v1's slice, ``B_k.resolve`` and v2's slice.  So
    :func:`step` reads a system only through its plan, and a copy of the
    spec (``dataclasses.replace``) builds its own.  Every field is a tuple,
    slice, callable, None or read-only array, so a plan is safe to share
    across threads.
    """

    blocks: tuple
    lengths: tuple
    families: tuple
    dual: slice
    z: Optional[np.ndarray]
    nr: Optional[np.ndarray]
    c_apply: Callable
    n_adjoints: tuple
    primal: tuple
    couplings: tuple
    primal_resolvents: tuple
    dual_resolvents: tuple

    @staticmethod
    def of(spec):
        layout = spec.layout
        blocks = layout.blocks
        families = _, _, v1, v2 = tuple(slice(fam[0].start, fam[-1].stop)
                                        for fam in blocks)
        z = np.concatenate(spec.z)
        nr = np.concatenate([np.asarray(N.apply(r), dtype=float)
                             for N, r in zip(spec.N, spec.r)])
        z, nr = (_read_only(a) if a.any() else None for a in (z, nr))
        primal = tuple((sl, tuple(row[i].adjoint_apply for row in spec.L))
                       for i, sl in enumerate(blocks[0]))
        couplings = tuple(
            (N.apply, M.apply, M.adjoint_apply, tuple(L.apply for L in row),
             *slices)
            for N, M, row, *slices in zip(spec.N, spec.M, spec.L, *blocks[1:]))
        return StepPlan(
            blocks,
            (*map(len, blocks),
             *(sl.stop - sl.start for family in blocks for sl in family)),
            families, slice(v1.start, v2.stop), z, nr,
            spec.C.apply,
            tuple(N.adjoint_apply for N in spec.N), primal, couplings,
            tuple((sl, A.resolve) for sl, A in zip(blocks[0], spec.A)),
            tuple((D.resolve, sl21, B.resolve, sl22) for D, B, sl21, sl22
                  in zip(spec.D, spec.B, blocks[2], blocks[3])))


def _on_buffer(z, blocks, n):
    """A state at iteration ``n`` whose blocks are views of the flat vector
    ``z``, cut family by family at the layout's block slices ``blocks``."""
    cut = z.__getitem__
    b11, b12, b21, b22 = blocks
    return IterateState(list(map(cut, b11)), list(map(cut, b12)),
                        list(map(cut, b21)), list(map(cut, b22)), n)


def _check_shapes(families, blocks):
    """Raise :class:`SpecificationError` naming the first family whose
    blocks' shapes are not ``(d,)`` for the lengths of its ``blocks``."""
    for name, family, slices in zip(FAMILIES, families, blocks):
        if list(map(np.shape, family)) != [(sl.stop - sl.start,)
                                           for sl in slices]:
            raise SpecificationError(
                f"state family {name} does not match the system layout")


def _check_finite(y, blocks, n, line=None):
    """Raise :class:`NumericError` naming the first non-finite block of the
    flat vector ``y``.

    With a ``line``, the x1 blocks are walked, named ``line``; without one,
    all of the new state, named v1, v2 and x2 for each k, then x1.  Each
    block is tested by ``np.isfinite``, so a finite block whose squares
    overflow is not named.
    """
    b11, b12, b21, b22 = blocks
    order = [] if line else [
        (name, k, sl) for k, per_k in enumerate(zip(b21, b22, b12))
        for name, sl in zip(("v1", "v2", "x2"), per_k)]
    order += [(line or "x1", i, sl) for i, sl in enumerate(b11)]
    for name, index, sl in order:
        if not np.isfinite(y[sl]).all():
            raise NumericError(
                f"non-finite value in {name}, block {index}", iteration=n
            )


def step(spec, state, gamma, errors_at_n=None):
    """One full iteration from ``state`` with step ``gamma``: a positive
    float for every block, or :class:`BlockSteps`.

    Lays the blocks ``state`` holds end to end in one fresh vector
    ``z = [x1 | x2 | v1 | v2]`` and checks, in one comparison with the
    plan's ``lengths``, that z is 1-D and that each family's block count
    and each block's length are the layout's, so a block may be a plain
    list.  Only on a mismatch, or a ``ValueError`` from laying them out,
    are the blocks' shapes read, to name the family.  Then runs the
    forward-backward-forward step on it: ``s = z - gamma F(z)``,
    ``p = J(s)``, ``q = p - gamma F(p)`` and ``z+ = (z - s) + q``, where F
    is one map, :func:`_forward`, at both points and J the per-block
    resolvents (the identity on x2).  Under a metric the same lines scale
    each element by its block's step, and each block's resolvent is taken
    at that step: gamma acts elementwise throughout.  Returns the new state
    (counter incremented, its blocks views of ``z+``) and a
    :class:`TraceRecord` whose ``transversality_defect`` is None:
    :func:`solve` evaluates it; its ``gamma`` is the scale.

    ``errors_at_n`` is an error record, one row of a run that
    :meth:`ErrorSchedule.realize` makes, or None for exact evaluation.  Its
    rows are added whole: the ``a`` row to F(z) before it is scaled by
    gamma, the ``b`` row to J(s) and the ``c`` row to F(p).  Its -0.0
    elements leave their lines unchanged bit for bit, so the step rounds
    as when only the erroneous blocks were added.  The record is only read.

    Raises :class:`NumericError` naming the offending line and block, with
    ``iteration`` the counter of ``state``, if the intermediate points
    ``p11`` or any block of the new state hold a non-finite value.
    ``p11`` is tested by one dot and the new state by the displacement's
    square sum, which a non-finite ``z+`` makes non-finite;
    the blocks are walked only when that fails, so a finite block is never
    named: a finite state whose squares overflow steps on, with an
    infinite displacement.  It raises
    :class:`SpecificationError` naming the family for a state that does not
    match the layout, for block steps of another layout and for an error
    record that is not an array of shape ``(3, size)``, and ``ValueError``
    for a non-positive step.  The admissible-interval bound on gamma is the
    step policy's responsibility; here only positivity is enforced.
    """
    plan = spec.plan
    steps = gamma if isinstance(gamma, BlockSteps) else BlockSteps.of(
        plan.blocks, gamma, (1.0,) * sum(map(len, plan.blocks)))
    if steps.slices is not plan.blocks and steps.slices != plan.blocks:
        raise SpecificationError("block steps were laid out for another layout")
    blocks = plan.blocks
    families = x1, x2, v1, v2 = state.x1, state.x2, state.v1, state.v2
    flat = (*x1, *x2, *v1, *v2)
    try:
        z = np.concatenate(flat, dtype=float)
    except ValueError:
        _check_shapes(families, blocks)
        raise
    # the family counts too: a block moved to another family keeps the
    # flat lengths
    if z.ndim != 1 or (len(x1), len(x2), len(v1), len(v2),
                       *map(len, flat)) != plan.lengths:
        _check_shapes(families, blocks)
    size = z.size
    n = state.n
    errs = errors_at_n
    if errs is not None and (not isinstance(errs, np.ndarray)
                             or errs.shape != (3, size)):
        got = errs.shape if isinstance(errs, np.ndarray) \
            else type(errs).__name__
        raise SpecificationError(
            f"error record: expected an array of shape (3, {size}), got {got}")
    signed_g = steps.signed  # -g over x1, +g elsewhere
    x1_, _, v1_, _ = plan.families
    dual = plan.dual

    # forward step at z: s = z - gamma F(z), built in place in F's buffer
    s = _forward(plan, z)
    if errs is not None:
        s += errs[0]
    s *= signed_g
    s += z

    # backward step: p starts as s, the identity on x2; then the per-block
    # resolvents, each at its block's step, and the inverse-resolvent
    # identity on the dual families,
    # p_dual = s_dual - gamma (nr + J(s_dual / gamma - nr))
    p = s.copy()
    arg = s if plan.z is None else s[x1_] + steps.x1 * plan.z
    for (sl, resolve), g_i in zip(plan.primal_resolvents, steps.primal):
        p[sl] = resolve(g_i, arg[sl])
    t = s / steps.flat
    if plan.nr is not None:
        t[v1_] -= plan.nr
    for (resolve_d, sl21, resolve_b, sl22), (inv21, inv22) in zip(
            plan.dual_resolvents, steps.inverse):
        p[sl21] = resolve_d(inv21, t[sl21])
        p[sl22] = resolve_b(inv22, t[sl22])
    if plan.nr is not None:
        pv = p[v1_]
        np.add(plan.nr, pv, pv)
    if errs is not None:
        p += errs[1]
    p11 = p[x1_]
    # one non-finite entry poisons a dot (``a.dot(a)``, the BLAS dot of
    # ``a @ a``), so the blocks are walked only when it fails
    if not math.isfinite(p11.dot(p11)):
        _check_finite(p, blocks, n, "p11")
    pd = p[dual]
    pd *= steps.dual
    np.subtract(s[dual], pd, pd)

    # forward correction at p: q = p - gamma F(p), z+ = (z - s) + q
    q = _forward(plan, p)
    if errs is not None:
        q += errs[2]
    q *= signed_g
    q += p
    z_new = z - s
    z_new += q

    # the squares the convergence argument sums are whole families': one dot
    # per family of z - p, and one of z+ - z
    gap = z - p
    sums = tuple(float(d.dot(d)) for d in map(gap.__getitem__, plan.families))
    moved = z_new - z
    move = float(moved.dot(moved))
    # z+ - z, and so its square sum, is non-finite when z+ is
    if not math.isfinite(move):
        _check_finite(z_new, blocks, n)
    new_state = _on_buffer(z_new, blocks, n + 1)
    return new_state, TraceRecord(n, steps.gamma, math.sqrt(move),
                                  tuple(map(math.sqrt, sums)), sums, None)


def _forward(plan, y):
    """F at the flat point ``y``, as a fresh flat vector: x1 is ``C(y_x1) +
    sum_k L_ki* N_k* y_v1k``, x2 is ``N_k* y_v1k - M_k* y_v2k``, v1 is
    ``N_k(sum_i L_ki y_x1i) - N_k y_x2k`` and v2 is ``M_k y_x2k``.

    It calls the operators ``plan`` bound (see
    :class:`~monosplit.solver.StepPlan`) through ``map``.  Sums start at
    their first term and never write into one: an identity map hands back
    its argument, a view of ``y``.
    """
    out = np.empty(y.size)
    cut = y.__getitem__
    x1 = list(map(cut, plan.blocks[0]))
    nstar1 = list(map(operator.call, plan.n_adjoints,
                      map(cut, plan.blocks[2])))
    c = np.asarray(plan.c_apply(y[plan.families[0]]))
    for sl, adjoints in plan.primal:
        np.add(c[sl], reduce(operator.add,
                             map(operator.call, adjoints, nstar1)), out[sl])
    for (n_apply, m_apply, m_adjoint, row, sl12, sl21, sl22), nstar in zip(
            plan.couplings, nstar1):
        x2 = y[sl12]
        np.subtract(nstar, m_adjoint(y[sl22]), out[sl12])
        l_x = reduce(operator.add, map(operator.call, row, x1))
        np.subtract(n_apply(l_x), n_apply(x2), out[sl21])
        out[sl22] = m_apply(x2)
    return out


def transversality_defect(spec, state):
    """``sqrt(sum_k ||M_k* v2_k - N_k* v1_k||^2)`` at the given state.

    Reads the system only through ``spec.plan``, the adjoints it binds.
    """
    plan = spec.plan
    total = 0.0
    for n_adjoint, (_, _, m_adjoint, *_), v1, v2 in zip(
            plan.n_adjoints, plan.couplings, state.v1, state.v2):
        d = m_adjoint(v2) - n_adjoint(v1)
        # np.sum(d**2) as the bare ufunc reduction, without np.sum's wrapper
        total += float(np.add.reduce(d * d))
    return math.sqrt(total)


def solve(spec, init, policy, errors=None, tol=DEFAULT_TOL,
          max_iter=DEFAULT_MAX_ITER, trace_every=DEFAULT_TRACE_EVERY):
    """Iterate :func:`step` at the policy's steps, with a safeguarded
    Anderson extrapolation every ``AA_PERIOD`` steps (see the module
    docstring), until the full-state displacement drops to tol.

    The policy's :class:`BlockSteps` are laid out once per call: each
    block steps at ``policy.gamma_const`` times its weight.

    The caller is responsible for ``policy.beta`` bounding the Lipschitz
    constant of the step's operator (as
    :func:`~monosplit.system.compute_beta` does, and under a metric
    :func:`~monosplit.system.step_policy`'s bound; a larger bound is
    admissible and merely conservative) and for ``spec`` having passed
    validation.  Returns ``(final_state, trace, status)`` with status
    ``"converged"`` or ``"max_iter"``; the final state is always the image
    of the last :func:`step`, which the last record describes, as no
    extrapolation follows the last iteration.  A trace record is kept every
    ``trace_every`` iterations and at the final one, with the running
    ``partial_sums``, the extrapolation counts and the
    :func:`transversality_defect` of its state, evaluated once per kept
    record.  :func:`step` is called once per iteration; an extrapolation
    applies no operator.  The iterations count on from ``init.n``: the step
    from a state with counter ``n`` adds the errors of iteration ``n``, and
    a numeric failure in it propagates as the :class:`NumericError`
    :func:`step` raises, whose ``iteration`` is that ``n``.  A continued
    run starts a new extrapolation history, so it takes the steps of one
    uninterrupted run bit for bit only until the first extrapolation.  A
    displacement that meets tol where the kept record's defect is not
    finite raises :class:`NumericError` too: a state too large for its
    increments to move stands still, but solves nothing.  Either error
    carries the last state a step returned (a copy of ``init`` if none) as
    ``state`` and the records kept so far as ``trace``, the last of them
    that state's, as on return.  The errors are realized by
    ``errors.realize`` in runs of at most ``ERROR_RUN`` iterations, none
    past the last of the ``max_iter`` steps; an error the schedule raises
    surfaces when its run is realized.  A ``max_iter`` or
    ``trace_every`` that is a bool or not an integer, a ``trace_every``
    below 1, a negative ``max_iter`` and a negative or NaN ``tol`` raise
    ``ValueError``; ``tol = 0`` runs ``max_iter`` iterations unless a step
    stands still.
    """
    for name, value in (("max_iter", max_iter), ("trace_every", trace_every)):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if trace_every < 1:
        raise ValueError("trace_every must be >= 1")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if not tol >= 0.0:  # NaN too, which no displacement would ever meet
        raise ValueError(f"tol must be >= 0, got {tol}")
    if errors is None:
        errors = zero_schedule()
    # state is the last step's image, point the one the next step starts
    # from: the same state unless an extrapolation replaced it
    state = point = init.copy()
    layout = spec.layout
    sum1 = sum2 = sum3 = sum4 = 0.0
    trace = []
    status = "max_iter"
    gamma = policy.steps(layout)
    # flat points, each the image of the one before: the last AA_MEMORY + 1
    # steps since the last extrapolation, full at each attempt as
    # AA_PERIOD >= AA_MEMORY + 2
    chain = deque(maxlen=AA_MEMORY + 2)
    # accepted counts the extrapolated points stepped from, the k of the
    # budget
    accepted = refused = 0
    rec = None
    try:
        for it in range(max_iter):
            j = it % ERROR_RUN
            if not j:
                run = errors.realize(point.n, layout,
                                     min(ERROR_RUN, max_iter - it))
            state, rec = step(spec, point, gamma,
                              None if run is None else run[j])
            point = state
            # the blocks step returns are views of one fresh vector
            chain.append(state.x1[0].base)
            d1, d2, d3, d4 = rec.partial_sums
            sum1 += d1
            sum2 += d2
            sum3 += d3
            sum4 += d4
            done = rec.displacement <= tol
            if it % AA_PERIOD == AA_PERIOD - 1 and not done \
                    and it < max_iter - 1:
                y = _extrapolate(chain, AA_BUDGET * trace[0].displacement
                                 * (accepted + 1) ** -AA_DECAY)
                if y is None:
                    refused += 1
                else:
                    accepted += 1
                    chain.clear()
                    chain.append(y)
                    point = _on_buffer(y, layout.blocks, state.n)
            if it % trace_every == 0 or done or it == max_iter - 1:
                trace.append(_kept(spec, state, rec, (sum1, sum2, sum3, sum4),
                                   accepted, refused))
            if done:
                if not math.isfinite(trace[-1].transversality_defect):
                    raise NumericError("the displacement met tol with a "
                                       "non-finite transversality defect",
                                       iteration=rec.n)
                status = "converged"
                break
    except NumericError as exc:
        # the last record carried is the last state's, as on return
        if rec is not None and (not trace or trace[-1].n != rec.n):
            trace.append(_kept(spec, state, rec, (sum1, sum2, sum3, sum4),
                               accepted, refused))
        exc.state, exc.trace = state, trace
        raise
    return state, trace, status


def _kept(spec, state, rec, sums, accepted, refused):
    """The record :func:`solve` keeps for the step ``rec`` to ``state``."""
    return TraceRecord(rec.n, rec.gamma, rec.displacement,
                       rec.block_displacements, sums,
                       transversality_defect(spec, state), accepted, refused)


def _extrapolate(chain, budget):
    """The type-II Anderson point of ``chain``, flat points oldest first,
    each the image of the one before, as a fresh flat vector; or None when
    the least squares is degenerate or the point lies farther than
    ``budget`` from the newest image (see the module docstring).  A
    non-finite coefficient makes that distance non-finite, and so is
    refused with it."""
    with np.errstate(all="ignore"):
        points = np.array(chain)
        # the displacements g_i = T(y_i) - y_i, whose differences are also
        # those of the images
        g = points[1:] - points[:-1]
        dg = g[1:] - g[:-1]
        gram = dg @ dg.T
        scale = float(np.trace(gram))
        if not 0.0 < scale < math.inf:
            return None
        gram.flat[::len(gram) + 1] += AA_RIDGE * scale
        try:
            alpha = np.linalg.solve(gram, dg @ g[-1])
        except np.linalg.LinAlgError:
            return None
        shift = alpha @ g[1:]
        distance = math.sqrt(shift.dot(shift))
        if not (distance <= budget and distance < math.inf):
            return None
        return points[-1] - shift


def write_trace_csv(trace, path):
    """Write trace records with the stable column set.

    The file holds the bytes ``csv.writer`` would write: no field ever
    needs quoting, so a row is its fields joined by commas and ended by
    ``\\r\\n``, the floats written by ``repr``.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.writelines(
            f"{rec.n},{rec.gamma!r},{rec.displacement!r},"
            + ",".join(map(repr, (*rec.block_displacements,
                                  *rec.partial_sums)))
            + f",{rec.transversality_defect!r},{rec.aa_accepted},"
            f"{rec.aa_refused}\r\n"
            for rec in trace)
