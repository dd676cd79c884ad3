"""Ideal arithmetic -- reduced bases, membership, colon, intersection,
saturation, radical membership and elimination -- and the one Groebner
engine that ideals and free modules share.

Every basis, remainder and membership test is degrevlex (position over
degrevlex for vectors); an ideal caches one reduced basis and one reducer
table.  The engine entries `_buchberger` and `_gb` also take a block order,
which `eliminate` (and so `saturate`) runs under; the elements of that
basis free of the dropped variables are the answer's reduced degrevlex
basis, which `eliminate` seeds, so the operation is one engine run.

Operands whose generators are all terms never reach the engine:
`reduced_gb`, `ideal_quotient` and `ideal_intersect` answer them with the
divisibility kernels below, which `monomial.py` builds on, `ideal_member`
asks whether each term of f is divisible by a minimal generator, and
`is_unit_ideal` (so `is_proper`) looks for a nonzero constant among them.
The answer is the minimal generators, monic, in increasing order (the
engine's output), and a colon or intersection has its degrevlex basis and
its minimal generators cached, as `_colon` caches its basis.  Three more
answers need no run on any operands: an ideal none of whose generators has
a constant term lies in the ideal of the variables (`lies_in_variables`),
so it is proper; one with a constant generator is the unit ideal; and
I : J is the unit ideal, `Ideal.unit` with its basis seeded, when every
generator of J lies in I (J = (0) among them).  One walker, `regular_steps`, takes every step of
a regular chain.  A run of variables x_j1, x_j2, .. over a homogeneous I
takes no colon: it is decided off one plain run under degrevlex with those
variables moved last in reverse order, x_j1 last of all.  Any other step
takes the colon: over term data it asks I : f = I of the minimal
generators (`colon_fixes`, which the linked-pair sampler's term chain asks
too), over other data it reads I : (f) and I + (f) off one syzygy run.
`engine_runs` counts the engine's calls, so a caller reads the runs it
made as a difference of two reads.
`_gb` and `_colon` stay callable for tests that compare routes.

The engine is Buchberger's algorithm with the coprime-lcm and chain criteria
under the normal strategy; a hard S-pair budget makes a runaway run abort as
a resource error instead of hanging.  It works on term maps (exponent ->
coefficient) made primitive and integral on entry.  A division step
multiplies by a/gcd(a, c) where it would divide by a lead coefficient a, so
the engine makes no `Fraction` until it answers: `Polynomial`s and every
answer (monic bases, exact remainders) stay on `Fraction`.  A vector of R^r
is the term map whose exponents are a one-hot position prefix of length r
followed by the ring exponent; an ideal has an empty prefix.

Inside a run every exponent is one int packed by a `_Codec`: fixed-width
fields of w value bits, each under a guard bit, laid out so that integer
comparison is the term order -- position-over-term, lower positions
dominant, then the monomial order.  Multiplying by a monomial is an int
addition, a divisibility test one addition and one mask against the guard
bits, and `max` and `sorted` need no key.  A pair's lcm is built from the
two packed leads by word-parallel operations (`_Codec.lcm`): a field-wise
minimum of the complement fields through guard-bit borrows, and each
block's degree field by one multiplication, so no lead is decoded until an
answer is written.  A run starts at the narrowest width its inputs allow,
w = max(bit_length(4*degree + 4), bit_length(rank)) for their largest
degree: the inputs fit with room for their products, and the position
field holds the rank.  Inputs of degree at most 14 start at 6 bits or
fewer, so a packed exponent of a few variables is one 30-bit CPython
digit, whose additions, comparisons and hashes take the interpreter's fast
paths.  An input term of degree past M, or a made term or lcm with a
field past M, has overflowed, and the run starts again at double width on
a fresh S-pair meter (the soft deadline spans the whole call).  Answers
are decoded to exponent tuples on exit, each term once.  Pairing, the
chain criterion and each reduction step consult only the basis elements
leading at their own position.

A syzygy run reads only its tag block when the caller wants no image
(`_syzygies(..., image=False)`, behind `_colon` and
`modules.submodule_syzygies`): the engine still forms every S-pair, but it
minimalizes, tail-reduces and decodes only the elements leading in the tag
positions (`_buchberger`'s `tags`).  That is exact, since such an element
vanishes in the main block, so only reducers leading in the tag positions
touch its tail.  The colon step of `regular_steps` keeps both blocks.

Pending S-pairs sit in a heap keyed by (ring part of the packed lcm, index
pair): the S-pair sequence, and where a budget trips, is that of the plain
normal strategy.  Every remainder goes through one division kernel
(`_reduce`).  Outside Buchberger a division is `_table` (a basis's
reducers, packed once per width asked for) and `_divide` (one remainder,
widened as a run is).  Only this module knows the vector encoding and the
packing: `modules.py` calls `module_table`, `module_reduce` and
`_syzygies`.

Every colon is one syzygy run (`_colon`): for N in R^r and vectors
u_1..u_k, N : (u_1..u_k) is the a with a*(u_1|..|u_k) in k block-diagonal
copies of N.  `ideal_quotient` is the case r = 1, and over R/J the
annihilator of Hom(R/a, R/J) = (J : a)/J is two of them,
J : (J : a) (`modules.hom_annihilator`); a non-monomial `ideal_intersect`
is (I*e1 + J*e2) : (1, 1) in R^2.  The rank-r annihilator, u_j = e_j, is
the test reference's (`tests/oracles.py`).  Saturation and radical membership use the
Rabinowitsch tag variable; `radical_member` asks `ideal_member` first, since
f in I puts f in the radical, and otherwise asks `is_unit_ideal` of the
tagged ideal, so it reaches the engine only through that unit test.

The basis contract: an engine run may take a part that is already a Groebner
basis (`_buchberger(..., basis=)`), whose elements are never paired with one
another, since those S-pairs reduce to zero.  The second argument of
`_syzygies` and `_colon` (and of `modules.submodule_syzygies`) is such a
basis of the submodule taken modulo, under the run's order, never raw
generators.  Callers pass what they already hold: `reduced_gb` of an ideal
(cached on it) or `ideal_block` built from it.
Membership tests divide by a reducer table cached on the ideal beside its
basis.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from heapq import heappop, heappush
from itertools import takewhile
from math import gcd, lcm
from operator import le as le_, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .ring import (
    DEGREVLEX,
    Exponents,
    MonomialOrder,
    Polynomial,
    RingCtx,
    RingError,
    elimination_order,
    mono_one,
    mono_power,
    parse_poly,
)

_ONE = Fraction(1)


class BudgetExceeded(RuntimeError):
    """A computation ran past its S-pair budget or soft deadline."""

    def __init__(self, what: str, spent: int, limit) -> None:
        super().__init__(f"{what}: budget exhausted ({spent} of {limit})")
        self.what = what
        self.spent = spent
        self.limit = limit

    def __reduce__(self):
        # `args` holds only the formatted message; a worker's exception
        # crosses to the parent by pickle and is rebuilt from these
        return type(self), (self.what, self.spent, self.limit)


class Limits(NamedTuple):
    max_spairs: int = 100_000
    deadline: float | None = None  # time.monotonic() value


_LIMITS: ContextVar[Limits] = ContextVar("linkcoh_limits", default=Limits())


@contextmanager
def set_limits(max_spairs: int | None = None, soft_timeout: float | None = None):
    """Set the ambient limits for the block; a limit left as None keeps the
    enclosing block's value, so a nested `set_limits(max_spairs=...)` still
    honours the outer deadline."""
    cur = _LIMITS.get()
    nxt = Limits(
        max_spairs=cur.max_spairs if max_spairs is None else max_spairs,
        deadline=cur.deadline if soft_timeout is None else time.monotonic() + soft_timeout,
    )
    token = _LIMITS.set(nxt)
    try:
        yield nxt
    finally:
        _LIMITS.reset(token)


class _Meter:
    """Per-computation S-pair meter checked against the ambient limits."""

    __slots__ = ("spent",)

    def __init__(self) -> None:
        self.spent = 0

    def charge(self, what: str) -> None:
        self.spent += 1
        lim = _LIMITS.get()
        if self.spent > lim.max_spairs:
            raise BudgetExceeded(what, self.spent, lim.max_spairs)
        check_deadline(what, self.spent)


def check_deadline(what: str, spent: int = 0) -> None:
    """Raise BudgetExceeded once the ambient soft deadline has passed.

    Loops that run no S-pairs call it directly; it charges no meter."""
    deadline = _LIMITS.get().deadline
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(what, spent, "soft timeout")


# A cache before it is filled where None is an answer: `Ideal._monomial_gens`
# before `monomial_gens` has looked, a step missing from `Ideal._steps`, and
# `CyclicModule.monomial` before its first read.  `_by_terms` and
# `MonomialIdeal.to_ideal` seed `_monomial_gens` with the minimal generators
# they already hold, so `monomial_gens` never looks there.
_NOT_COMPUTED = object()


class Ideal:
    """An ideal of Q[x_1..x_n] held by explicit generators.

    `gens` holds the given generators in order with every zero dropped, so
    the zero ideal is the one with no generators.  Generators are never
    mutated.  The reduced degrevlex basis (`_gb`), the reducer table that
    membership tests divide by (`_table`) and the answer of `monomial_gens`
    are each computed at most once and cached on the instance; None means
    not yet computed.  `_steps` maps each f that `regular_steps` has
    stepped the ideal by to the outcome, the next ideal or None, so a
    regular chain grown again from the same ideal reads every step it has
    taken before; no other function reads or writes it.  `_quotients` maps
    the generators of each J that `ideal_quotient` has divided the ideal by
    to the colon, so a colon taken again is read, not run.
    """

    __slots__ = ("ctx", "gens", "_gb", "_table", "_monomial_gens", "_steps", "_quotients")

    def __init__(self, ctx: RingCtx, gens: Iterable[Polynomial]) -> None:
        kept = []
        for g in gens:
            if g.ctx != ctx:
                raise RingError("generator from a different ring context")
            if not g.is_zero():
                kept.append(g)
        self.ctx = ctx
        self.gens: tuple[Polynomial, ...] = tuple(kept)
        self._gb: tuple[Polynomial, ...] | None = None
        self._table: ReducerTable | None = None
        self._monomial_gens = _NOT_COMPUTED
        self._steps: dict[Polynomial, Ideal | None] | None = None
        self._quotients: dict[tuple[Polynomial, ...], Ideal] | None = None

    @classmethod
    def parse(cls, ctx: RingCtx, text: str) -> "Ideal":
        """The ideal of the comma-separated polynomials in `text`; "0" is the
        zero ideal, and an empty item is refused by `parse_poly`."""
        return cls(ctx, [parse_poly(s.strip(), ctx) for s in text.split(",")])

    @classmethod
    def zero(cls, ctx: RingCtx) -> "Ideal":
        return cls(ctx, [])

    @classmethod
    def unit(cls, ctx: RingCtx) -> "Ideal":
        """The whole ring, its reduced basis and minimal generators (1)
        cached."""
        U = _seeded(ctx, (Polynomial.const(ctx, 1),))
        U._monomial_gens = (mono_one(ctx.n),)
        return U

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def __repr__(self) -> str:
        return "<ideal (" + (", ".join(str(g) for g in self.gens) or "0") + ")>"


def _same_ctx(I: Ideal, J: Ideal) -> RingCtx:
    if I.ctx != J.ctx:
        raise RingError("ideals live in different rings")
    return I.ctx


# ---------------------------------------------------------------------------
# Ideals given by terms, as divisibility on exponent tuples.

def monomial_gens(I: Ideal) -> tuple[Exponents, ...] | None:
    """The minimal generators of I if all its generators are terms, else
    None; computed once per ideal."""
    got = I._monomial_gens
    if got is _NOT_COMPUTED:
        if all(g.is_term() for g in I.gens):
            got = minimalize(e for g in I.gens for e in g.term_map())
        else:
            got = None
        I._monomial_gens = got
    return got


def minimalize(exps: Iterable[Exponents]) -> tuple[Exponents, ...]:
    """The minimal generators among `exps`, sorted by (degree, exponent)."""
    kept: list[Exponents] = []
    for i, (_, e) in enumerate(sorted({(sum(e), e) for e in exps})):
        if i & 255 == 255:
            check_deadline("minimalize")
        for f in kept:
            if all(map(le_, f, e)):
                break
        else:
            kept.append(e)
    return tuple(kept)


def min_gens_intersect(A: Sequence[Exponents], B: Sequence[Exponents]) -> tuple[Exponents, ...]:
    """The minimal generators of (A) ∩ (B): the minimal lcms of pairs."""
    lcms = []
    for f in A:
        check_deadline("monomial intersection")
        lcms += [tuple(map(max, f, g)) for g in B]
    return minimalize(lcms)


def min_gens_colon(A: Sequence[Exponents], B: Sequence[Exponents]) -> tuple[Exponents, ...]:
    """The minimal generators of (A) : (B) for nonempty B: the intersection
    over m in B of the (A) : m, which the g / gcd(g, m) generate."""
    out = None
    for m in B:
        check_deadline("monomial colon")
        part = minimalize(tuple(map(sub, g, map(min, g, m))) for g in A)
        out = part if out is None else min_gens_intersect(out, part)
    return out


def colon_fixes(A: tuple[Exponents, ...], B: Sequence[Exponents]) -> bool:
    """Whether (A) : (B) = (A) for minimal generators A and terms B, i.e.
    whether (B) holds a nonzerodivisor on R/(A).  An empty B is the zero
    ideal, whose colon is the unit ideal: then whether (A) is."""
    if not B:
        return any(not any(e) for e in A)
    return min_gens_colon(A, B) == A


def _by_terms(kernel, I: Ideal, J: Ideal) -> Ideal | None:
    """kernel(minimal gens of I, of J) as a seeded ideal if both are terms;
    the kernel's answer is also the ideal's `monomial_gens`."""
    a, b = monomial_gens(I), monomial_gens(J)
    if a is None or b is None:
        return None
    gens = kernel(a, b)
    Q = _seeded(I.ctx, _term_basis(I.ctx, gens))
    Q._monomial_gens = gens
    return Q


def _term_basis(ctx: RingCtx, gens: Iterable[Exponents]) -> tuple:
    """The reduced basis of the ideal of minimal generators `gens`."""
    return tuple(Polynomial(ctx, {e: _ONE}) for e in sorted(gens, key=DEGREVLEX.key))


def _seeded(ctx: RingCtx, basis: tuple[Polynomial, ...]) -> Ideal:
    """The ideal of its reduced degrevlex basis `basis`, cached."""
    Q = Ideal(ctx, basis)
    Q._gb = basis
    return Q


# ---------------------------------------------------------------------------
# The Groebner engine.

class _Overflow(Exception):
    """A term of an engine run does not fit its codec's fields."""


class _Codec:
    """The packed exponents of one engine run over `rank` positions and n
    variables: each exponent, position prefix and ring part, is one int of
    fixed-width fields whose integer order is the run's term order.

    A field holds w value bits under one guard bit; M = 2^w - 1.  From the
    top: the position field r - p when rank > 0, so lower positions dominate;
    then the ring fields, per block of the order (degrevlex is one block of
    every variable), dominant block first: the block's degree, then the
    complement fields M - e_j of its variables, last variable first.  The
    encoding is affine, enc(e) = C + sum e_j*W_j over the whole exponent, so
    x^(e - le)*g is enc(g) + enc(e) - enc(le).  While every field stays in
    [0, M] no guard bit is set and nothing carries, and a sum of two
    encodings less a third sets the guard bit of its lowest field out of
    range, so `k & G` flags each overflow of a made term.  An input term
    is checked by its ring degree instead (`pack`): a raw exponent can put
    a field more than one bit past M, where no guard bit need be set, and
    the rank is checked once, when the codec is built.  The complement
    fields carry divisibility: le | e at a common position exactly when
    (R - enc(e)) & GM == GM, with the reducer's mark R = G + enc(le), since
    each such field then reads 2^w + e_j - le_j.  Decoding reads ~k, whose
    complement fields are the e_j.
    """

    __slots__ = (
        "w", "M", "G", "GM", "CM", "C", "W", "rank", "shifts", "pshift", "ring_mask", "heads",
        "blocks",
    )

    def __init__(self, order: MonomialOrder, rank: int, n: int, w: int) -> None:
        fields = []
        for blk in order.blocks or (tuple(range(n)),):
            fields += [("deg", blk)] + [("e", j) for j in reversed(blk)]
        F, M = w + 1, (1 << w) - 1
        W, shifts = [0] * n, [0] * n
        C = G = GM = 0
        blocks = []
        for i, (kind, v) in enumerate(reversed(fields)):  # bottom field first
            s = i * F
            G |= 1 << (s + w)
            if kind == "deg":
                for j in v:
                    W[j] += 1 << s
                # the block's complement fields sit just below its degree field
                b = len(v)
                mask = sum(M << (s - k * F) for k in range(1, b + 1))
                blocks.append((mask, sum(1 << (k * F) for k in range(1, b + 1)), s))
            else:
                W[v] -= 1 << s
                C += M << s
                GM |= 1 << (s + w)
                shifts[v] = s
        if rank > M:
            raise _Overflow  # the position field r - p would not fit
        ps = len(fields) * F
        if rank:
            G |= 1 << (ps + w)
        self.w, self.M, self.G, self.GM, self.C, self.rank = w, M, G, GM, C, rank
        self.CM = GM - (GM >> w)  # every value bit of the complement fields
        self.blocks = tuple(blocks)
        self.W = [(rank - p) << ps for p in range(rank)] + W
        self.shifts, self.pshift, self.ring_mask = shifts, ps, (1 << ps) - 1
        # the prefix of position field value v, which is r - p
        self.heads = [()] + [tuple(int(q == rank - v) for q in range(rank)) for v in range(1, rank + 1)]

    def pack(self, terms: dict) -> dict:
        """The integer term map `terms` with packed exponents; a term whose
        ring degree exceeds M raises _Overflow.  That one test covers every
        ring field, as no exponent or block degree exceeds the ring degree,
        and the position field fits since rank <= M."""
        C, W, M, rank = self.C, self.W, self.M, self.rank
        out = {}
        for e, c in terms.items():
            if sum(e[rank:]) > M:
                raise _Overflow
            out[C + sum(map(mul, e, W))] = c
        return out

    def lcm(self, a: int, b: int) -> int:
        """The packed lcm of the packed exponents a and b of one position,
        with no field decoded.  Its complement fields are the field-wise
        minima of theirs: with x and y their complement fields and GM set
        above them, (x | GM) - y borrows no bit across a field and keeps a
        field's guard bit exactly where x >= y, and the guard bits, spread
        over their fields, pick y there and x elsewhere.  A block's degree
        field is the sum of the block's exponents M - min, which one
        multiplication folds into it.  The sum is at most the two degrees
        added, under 2^(w+1), so no partial sum carries and the folded field
        exceeds M exactly when the lcm overflows: that raises _Overflow."""
        GM, CM, w, M = self.GM, self.CM, self.w, self.M
        x, y = a & CM, b & CM
        g = ((x | GM) - y) & GM
        low = x ^ ((x ^ y) & (g - (g >> w)))
        l = (a >> self.pshift << self.pshift) | low
        e, field = CM - low, 2 * M + 1
        for mask, fold, s in self.blocks:
            d = ((e & mask) * fold >> s) & field
            if d > M:
                raise _Overflow
            l |= d << s
        return l

    def dec(self, k: int) -> Exponents:
        """The exponent tuple, prefix and ring part, of a packed exponent."""
        x, M = ~k, self.M
        return self.heads[k >> self.pshift] + tuple([x >> s & M for s in self.shifts])


_CODECS: dict = {}  # (order, rank, n, w) -> _Codec


def _codec(order: MonomialOrder, rank: int, n: int, w: int) -> _Codec:
    """The codec of runs under `order` over `rank` positions, n variables and
    width w, built once per process."""
    key = (order, rank, n, w)
    cx = _CODECS.get(key)
    if cx is None:
        cx = _CODECS[key] = _Codec(order, rank, n, w)
    return cx


def _degree(maps: Iterable[dict]) -> int:
    """The largest total degree of a term of `maps` (a position entry counts)."""
    return max((sum(e) for g in maps for e in g), default=0)


def _widening(run, order: MonomialOrder, rank: int, n: int, degree: int):
    """run(codec), with w = max(bit_length(4*degree + 4), bit_length(rank))
    to start, and again at double the width whenever a term overflows its
    fields.  The degree term leaves the inputs' products and lcms headroom;
    the rank term keeps the position field r - p inside [0, M].  No wider
    start is taken: a packed exponent of at most 30 bits is one CPython
    digit, the fastest int to add, compare and hash."""
    w = max((4 * degree + 4).bit_length(), rank.bit_length())
    while True:
        try:
            return run(_codec(order, rank, n, w))
        except _Overflow:
            w *= 2


class _PairQueue:
    """Pending S-pairs, popped in normal-strategy order.

    Entries are (ring part of lcm, (i, j), lcm), so pairs leave smallest lcm
    first and ties go to the smaller index pair -- the order a `min` scan
    over (order key of the lcm's ring exponent, (i, j)) would give.
    `pending` holds the pairs not yet popped, for the chain criterion.
    """

    __slots__ = ("_heap", "pending", "_ring_mask")

    def __init__(self, ring_mask: int) -> None:
        self._heap: list = []
        self.pending: set[tuple[int, int]] = set()
        self._ring_mask = ring_mask

    def add(self, i: int, j: int, l: int) -> None:
        heappush(self._heap, (l & self._ring_mask, (i, j), l))
        self.pending.add((i, j))

    def pop(self) -> tuple[int, int, int]:
        _, p, l = heappop(self._heap)
        self.pending.discard(p)
        return p[0], p[1], l

    def __bool__(self) -> bool:
        return bool(self._heap)


def _integral(terms: dict) -> tuple[dict, int]:
    """(D * terms, D) for the least D > 0 that clears every denominator."""
    d = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


def _primitive(ints: dict, cx: _Codec) -> tuple[int, int, int, tuple]:
    """The (mark, lead, a, tail) reducer of the primitive part of a nonzero
    packed integer term map (content divided out, signed so that the lead
    coefficient a > 0); the tail lists the other terms as (exponent, coeff)
    and the mark is the lead's divisibility mark G + lead."""
    lead = max(ints)
    g = gcd(*ints.values()) * (1 if ints[lead] > 0 else -1)
    tail = tuple((e, v // g) for e, v in ints.items() if e != lead)
    return cx.G + lead, lead, ints[lead] // g, tail


def _sub_shifted(work: dict, tail: tuple, q: int, c, G: int) -> None:
    """work -= c * x^q * tail, dropping terms that cancel; a shifted term
    whose guard bits are set raises _Overflow."""
    for ge, gc in tail:
        k = ge + q
        if k & G:
            raise _Overflow
        v = work.get(k)
        if v is None:
            work[k] = -c * gc
        else:
            v -= c * gc
            if v:
                work[k] = v
            else:
                del work[k]


def _reduce(work: dict, table: dict, cx: _Codec, what: str) -> tuple[dict, int]:
    """(rem, s): rem is the remainder of s * `work`, a packed integer term map
    (consumed), under the reducers in `table`, which maps a position field to
    the reducers leading there, tried in order.

    The largest remaining term c*x^e is taken first.  A reducer (R, l, a,
    tail) whose lead divides e, with g = gcd(a, c), multiplies the work, the
    remainder so far and s by a/g and subtracts (c/g)*x^(e-l)*tail.  A
    reducer's tail never reaches a lower position than its lead, so the
    positions empty one after another, lowest first, and each step scans
    only its own position's list.  The soft deadline is checked every 256
    steps.
    """
    rem: dict[int, int] = {}
    s = steps = 1
    G, GM, ps = cx.G, cx.GM, cx.pshift
    while work:
        if steps & 255 == 0:
            check_deadline(what, steps)
        steps += 1
        e = max(work)
        c = work.pop(e)
        for R, le, a, tail in table.get(e >> ps, ()):
            if (R - e) & GM == GM:
                g = gcd(a, c)
                if (m := a // g) != 1:
                    s *= m
                    work = {k: v * m for k, v in work.items()}
                    rem = {k: v * m for k, v in rem.items()}
                _sub_shifted(work, tail, e - le, c // g, G)
                break
        else:
            rem[e] = c
    return rem, s


class ReducerTable:
    """The reducers of a basis for `_divide`: its term maps with denominators
    cleared, packed and made primitive once per codec width a division asks
    for, so one table serves any number of divisions."""

    __slots__ = ("rank", "maps", "degree", "_packed")

    def __init__(self, maps: list[dict], rank: int) -> None:
        self.rank, self.maps = rank, maps
        self.degree = _degree(maps)
        self._packed: dict = {}  # width -> position field -> reducers

    def reducers(self, cx: _Codec) -> dict:
        """Position field -> the reducers leading there, packed by `cx`."""
        got = self._packed.get(cx.w)
        if got is None:
            got = {}
            for m in self.maps:
                r = _primitive(cx.pack(m), cx)
                got.setdefault(r[1] >> cx.pshift, []).append(r)
            self._packed[cx.w] = got
        return got


def _table(basis: Iterable[dict], rank: int = 0) -> ReducerTable:
    """The degrevlex reducer table of the term maps `basis`, in basis order."""
    return ReducerTable([_integral(g)[0] for g in basis if g], rank)


def _divide(work: dict, table: ReducerTable) -> dict:
    """Remainder over Q of the term map `work` under division by the reducer
    table `table`: D*work, its denominators cleared, reduces to (rem, s),
    and the remainder is rem / (D*s).  The width fits both the table and
    the work."""
    if not work:
        return {}
    ints, d = _integral(work)
    rank = table.rank
    what = "module normal form" if rank else "normal form"

    def run(cx: _Codec) -> dict:
        rem, s = _reduce(cx.pack(ints), table.reducers(cx), cx, what)
        return {cx.dec(e): Fraction(c, d * s) for e, c in rem.items()}

    n = len(next(iter(ints))) - rank
    return _widening(run, DEGREVLEX, rank, n, max(table.degree, _degree([ints])))


_RUNS = 0


def engine_runs() -> int:
    """The `_buchberger` calls made so far; the difference of two reads
    counts the engine runs made between them."""
    return _RUNS


def _buchberger(
    gens: Iterable[dict],
    order: MonomialOrder,
    rank: int = 0,
    basis: Iterable[dict] = (),
    tags: int | None = None,
) -> list[dict]:
    """The reduced Groebner basis of the term maps `basis` and `gens`, as
    monic term maps in increasing order of their leads; with `tags` set,
    only its elements that lead in the last `tags` positions, the ones a
    syzygy caller reads (see `_run`).

    `basis` must already be a Groebner basis under this order.  Its elements
    are admitted first and never paired with one another: their S-pairs
    reduce to zero (Becker-Weispfenning, *Groebner Bases*, Thm 5.48), so the
    chain criterion, which finds none of those pairs pending, counts them as
    treated.  Only pairs with an element of `gens` or a remainder are formed.

    Each exponent is a position prefix of length `rank` followed by a ring
    exponent; `rank` 0 is an ideal.  The run packs them with one `_Codec`
    and starts again, on a fresh S-pair meter, at double width when a term
    overflows.  Each call counts once in `engine_runs`.
    """
    global _RUNS
    _RUNS += 1
    known = [_integral(g)[0] for g in basis if g]
    fresh = [_integral(g)[0] for g in gens if g]
    if not known and not fresh:
        return []
    n = len(next(iter((known or fresh)[0]))) - rank
    what = "module buchberger" if rank else "buchberger"
    return _widening(
        lambda cx: _run(known, fresh, cx, what, tags), order, rank, n, _degree(known + fresh)
    )


def _run(
    known: list[dict], fresh: list[dict], cx: _Codec, what: str, tags: int | None = None
) -> list[dict]:
    """One engine run of `_buchberger` under the codec `cx`, answering every
    element, or with `tags` set those that lead in the last `tags` positions
    (position field at most `tags`).

    Elements are listed per position of their lead, and pairs, the chain
    criterion and reduction steps look only at the list of their own
    position.  A pair's lcm is packed from the two leads (`_Codec.lcm`).
    The coprime criterion is lcm == li + lj - C, which is exact for ideals;
    for a vector the position field of li + lj - C is twice that of the
    lcm, so it never fires there, as it must not.  Every S-pair is formed
    whatever `tags` is; only the finishing below skips the elements leading
    in the positions nobody reads.  That is exact: an element's tail lies at
    or below its lead's position, so no skipped reducer touches an answered
    tail.
    """
    meter = _Meter()
    G, GM, ps, C, dec, packed_lcm = cx.G, cx.GM, cx.pshift, cx.C, cx.dec, cx.lcm
    queue = _PairQueue(cx.ring_mask)
    red: list[tuple[int, int, int, tuple]] = []  # (mark, lead, a, tail) of the basis elements
    table: dict = {}  # position field -> the reducers leading there
    at: dict = {}  # position field -> the indices of the elements leading there

    def admit(r: tuple, paired: bool = True) -> None:
        lead = r[1]
        same = at.setdefault(lead >> ps, [])
        if paired:
            for t in same:
                queue.add(t, len(red), packed_lcm(red[t][1], lead))
        same.append(len(red))
        table.setdefault(lead >> ps, []).append(r)
        red.append(r)

    for g in known:
        admit(_primitive(cx.pack(g), cx), False)
    for g in fresh:
        admit(_primitive(cx.pack(g), cx))

    while queue:
        meter.charge(what)
        i, j, l = queue.pop()
        (_, li, ai, ti), (_, lj, aj, tj) = red[i], red[j]
        # coprime-lcm criterion
        if l == li + lj - C:
            continue
        # chain criterion
        pending = queue.pending
        skip = False
        for k in at[l >> ps]:
            if k == i or k == j:
                continue
            if (red[k][0] - l) & GM == GM:
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        # S-polynomial (a_j/g)*x^(l-li)*f_i - (a_i/g)*x^(l-lj)*f_j: the lcm terms cancel
        g = gcd(ai, aj)
        work: dict = {}
        _sub_shifted(work, ti, l - li, -(aj // g), G)
        _sub_shifted(work, tj, l - lj, ai // g, G)
        rem, _ = _reduce(work, table, cx, what)
        if rem:
            # the remainder is integral already; it may lead at another
            # position than its pair did
            admit(_primitive(rem, cx))

    # minimalize: keep only leading terms that form an antichain, position by
    # position, lowest position field first, up to the last one answered
    final: dict = {}  # position field -> the reducers kept there
    kept: list[int] = []
    for i in sorted(range(len(red)), key=lambda i: red[i][1]):
        lead = red[i][1]
        if tags is not None and lead >> ps > tags:
            break
        here = final.setdefault(lead >> ps, [])
        if not any((r[0] - lead) & GM == GM for r in here):
            here.append(red[i])
            kept.append(i)
    # tail-reduce: the kept elements form a minimal basis, so each tail has a
    # unique remainder under them (s*tail reduces to rem: a*x^lead + tail is
    # x^lead + rem/(a*s) made monic), and no kept lead divides another or a
    # smaller term of its own element, so every lead stays
    out = []
    for i in kept:
        _, lead, a, tail = red[i]
        rem, s = _reduce(dict(tail), final, cx, what)
        d = a * s
        out.append({dec(lead): _ONE, **{dec(e): Fraction(c, d) for e, c in rem.items()}})
    return out


def _gb(ctx: RingCtx, gens: Iterable[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """The reduced Groebner basis of an ideal given by generators over ctx."""
    return [Polynomial(ctx, g) for g in _buchberger([p.term_map() for p in gens], order)]


# ---------------------------------------------------------------------------
# Free modules in the engine.  A vector of R^r is the term map whose exponents
# are a one-hot position prefix of length r followed by the ring exponent.

Vec = tuple[Polynomial, ...]


def _heads(rank: int) -> list[Exponents]:
    """The one-hot position prefixes of R^rank, position 0 first."""
    return [mono_power(rank, k) for k in range(rank)]


def _encode(v: Vec, heads: Sequence[Exponents]) -> dict:
    return {h + e: c for h, p in zip(heads, v) for e, c in p.term_map().items()}


def _decode(terms: dict, ctx: RingCtx, rank: int) -> Vec:
    parts: list[dict] = [{} for _ in range(rank)]
    for e, c in terms.items():
        parts[e.index(1, 0, rank)][e[rank:]] = c
    return tuple(Polynomial(ctx, d) for d in parts)


def _block_diagonal(vectors: Sequence[Vec], k: int) -> list[Vec]:
    """k block-diagonal copies of the span of `vectors` in R^(r*k): each
    vector in block 0, 1, .., k-1 in turn."""
    out = []
    for w in vectors:
        pad = (Polynomial.zero(w[0].ctx),) * len(w)
        out += [pad * i + w + pad * (k - 1 - i) for i in range(k)]
    return out


def ideal_block(I: Ideal, rank: int) -> list[Vec]:
    """The vectors g*e_j for g in the reduced degrevlex basis of I: a Groebner
    basis of I times the free module R^rank."""
    return _block_diagonal([(g,) for g in reduced_gb(I)], rank)


def module_table(basis: Sequence[Vec], rank: int) -> ReducerTable:
    """The reducer table of vectors of R^rank, built once for any number of
    `module_reduce` calls."""
    heads = _heads(rank)
    return _table((_encode(w, heads) for w in basis), rank)


def module_reduce(v: Vec, table: ReducerTable) -> Vec:
    """Full remainder of v under division by the vectors of a `module_table`."""
    if all(p.is_zero() for p in v):
        return v
    rank = len(v)
    return _decode(_divide(_encode(v, _heads(rank)), table), v[0].ctx, rank)


def _syzygies(
    vectors: Sequence[Vec], basis: Sequence[Vec], ctx: RingCtx, rank: int, image: bool = True
) -> tuple[list[Vec], Iterator[Vec] | None]:
    """The syzygies {a in R^k : sum a_i vectors[i] lies in <basis>} and the
    image span(vectors) + <basis>, each as its reduced Groebner basis
    (position over degrevlex), where k = len(vectors), every vector has rank
    `rank`, and `basis` is a Groebner basis of the submodule it spans.  With
    `image` false the image is None, and the run finishes only the tag block.

    One engine run over R^(rank + k): vectors[i] carries the unit tag
    e_(rank + i) below the main block, and `basis`, still a Groebner basis
    there, is the run's known part.  The main block dominates, so the run's
    basis splits by where each element leads (the elimination property of
    position-over-term orders, Adams-Loustaunau, ch. 3).  Those leading in
    the tag block vanish in the main block; their tags are the syzygies'
    reduced basis.  Those leading in the main block lead as the image does,
    with main blocks reduced against one another, so without their tags
    they are its reduced basis, in increasing order of their leads.  The image
    is decoded only as it is read, and with `image` false it is never
    finished: the run answers only the k tag positions (`_buchberger`'s
    `tags`).
    """
    k = len(vectors)
    heads = _heads(rank + k)
    one = mono_one(ctx.n)
    aug = []
    for i, v in enumerate(vectors):
        g = _encode(v, heads)
        g[heads[rank + i] + one] = _ONE
        aug.append(g)
    known = [_encode(w, heads) for w in basis]
    out = _buchberger(aug, DEGREVLEX, rank + k, known, None if image else k)
    # tag-block leads sort first; a map's first key is its lead
    cut = sum(not any(next(iter(g))[:rank]) for g in out)
    syzygies = [_decode(g, ctx, rank + k)[rank:] for g in out[:cut]]
    if not image:
        return syzygies, None
    return syzygies, (_decode(g, ctx, rank + k)[:rank] for g in out[cut:])


def _colon(ctx: RingCtx, vectors: Sequence[Vec], basis: Sequence[Vec]) -> Ideal:
    """N : (u_1..u_k), the a with a*u_i in N for every i, where `basis` is a
    Groebner basis of N and u_1..u_k are `vectors`, all of one rank r.

    That is the syzygy module of the single stacked vector (u_1|..|u_k) of
    R^(r*k) modulo k block-diagonal copies of N, found in one engine run.
    Copies of a Groebner basis in disjoint blocks of positions form one, so
    the copies are the run's known basis part.  Its tag block is one
    position, so the tags are the reduced degrevlex basis of the colon,
    listed as `reduced_gb` lists it; they seed the result's basis cache, and
    the list is empty exactly when the colon is the zero ideal.
    """
    stacked = tuple(p for u in vectors for p in u)
    blocks = _block_diagonal(basis, len(vectors))
    syz, _ = _syzygies([stacked], blocks, ctx, len(stacked), image=False)
    return _seeded(ctx, tuple(a for (a,) in syz))


def reduced_gb(I: Ideal) -> tuple[Polynomial, ...]:
    """The unique reduced degrevlex Groebner basis, monic, in increasing
    order of the leads; empty tuple for the zero ideal.  Computed once per
    ideal: a term ideal's is its minimal generators, any other an engine
    run's answer."""
    if I._gb is None:
        gens = monomial_gens(I)
        I._gb = tuple(_gb(I.ctx, I.gens, DEGREVLEX)) if gens is None else _term_basis(I.ctx, gens)
    return I._gb


def ideal_member(f: Polynomial, I: Ideal) -> bool:
    """Whether f lies in I.  When I's generators are all terms, whether each
    term of f is divisible by one of its minimal generators; otherwise
    whether f divides to zero by the reducer table of I's reduced basis,
    built once per ideal and cached beside the basis.  A polynomial from
    another ring is refused."""
    if f.ctx != I.ctx:
        raise RingError("mixed ring contexts")
    if f.is_zero():
        return True
    gens = monomial_gens(I)
    if gens is not None:
        return all(any(all(map(le_, g, e)) for g in gens) for e in f.term_map())
    if I._table is None:
        I._table = _table(g.term_map() for g in reduced_gb(I))
    return not _divide(f.term_map(), I._table)


def lies_in_variables(I: Ideal) -> bool:
    """Whether I lies in the ideal of the variables: no generator has a
    nonzero constant term."""
    one = mono_one(I.ctx.n)
    return not any(one in g.term_map() for g in I.gens)


def is_unit_ideal(I: Ideal) -> bool:
    """Whether I is the whole ring.  No basis is built when I lies in the
    ideal of the variables (so it is proper) or when a generator is a
    nonzero constant, as one is whenever the generators are all terms and
    one has a constant term."""
    if lies_in_variables(I):
        return False
    if any(g.is_constant() for g in I.gens):
        return True
    gb = reduced_gb(I)
    return len(gb) == 1 and gb[0].is_constant()


def is_proper(I: Ideal) -> bool:
    return not is_unit_ideal(I)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    _same_ctx(I, J)
    return reduced_gb(I) == reduced_gb(J)


def ideal_sum(I: Ideal, *others: Ideal) -> Ideal:
    gens = list(I.gens)
    for J in others:
        _same_ctx(I, J)
        gens.extend(J.gens)
    return Ideal(I.ctx, gens)


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J, its reduced degrevlex basis cached.  Beyond term ideals it is
    the colon (I*e1 + J*e2) : (1, 1) over R^2: a*(1, 1) lies in I*e1 + J*e2
    exactly when a lies in I and in J.  The reduced bases of I and J, side by
    side, are a Groebner basis of I*e1 + J*e2 and seed the run."""
    ctx = _same_ctx(I, J)
    if (by_terms := _by_terms(min_gens_intersect, I, J)) is not None:
        return by_terms
    one, zero = Polynomial.const(ctx, 1), Polynomial.zero(ctx)
    basis = [(f, zero) for f in reduced_gb(I)] + [(zero, g) for g in reduced_gb(J)]
    return _colon(ctx, [(one, one)], basis)


def ideal_quotient(I: Ideal, J: Ideal) -> Ideal:
    """The colon ideal I : J, the a with a*g in I for every generator g of J.

    With g_1..g_k the generators, that is the syzygy module of the single
    vector (g_1..g_k) modulo I*R^k: `_colon` over R^1, seeded with the
    reduced basis of I.  When every g_j lies in I (J = (0) among them) the
    colon is the whole ring, found by membership alone.  The result's basis
    cache holds its reduced degrevlex basis.  The colon is kept on I under
    J's generators (`Ideal._quotients`) and read from there when asked again.
    """
    ctx = _same_ctx(I, J)
    kept = I._quotients
    if kept is None:
        kept = I._quotients = {}
    Q = kept.get(J.gens)
    if Q is None:
        if all(ideal_member(g, I) for g in J.gens):
            Q = Ideal.unit(ctx)
        else:
            Q = _by_terms(min_gens_colon, I, J) or _colon(
                ctx, [(p,) for p in J.gens], [(f,) for f in reduced_gb(I)]
            )
        kept[J.gens] = Q
    return Q


def regular_steps(
    I: Ideal, seq: Sequence[Polynomial], skip: bool = False
) -> tuple[Ideal | None, int]:
    """The steps of a regular chain from I by seq, in order: each f is
    regular on R/Q, Q the sum of I and the elements kept before it, when it
    is a nonzerodivisor there (Q : f = Q), and is then kept.  Answers
    (Q, kept): Q is I plus the kept elements, the sum keeping the generators
    of I and then each kept f, and kept is their number.  An element that is
    not regular ends the walk with Q None, or, with `skip` set, is left out
    while the walk goes on.

    Every step taken is kept on the ideal it extended (`Ideal._steps`), the
    next sum or None, and a step kept there is read, not decided again; no
    other function reads or writes `_steps`.

    A variable c*x_j over a Q that `_revlex_ready` admits starts a run of
    variables: the elements from it on up to the first that is no variable.
    One basis decides the run, with no colon.  It is Q's reduced basis G
    under degrevlex with the run's variables moved last in reverse order,
    x_j1 last of all (`_chain_basis`).  Under that order in(Q : x_j1) =
    in(Q) : x_j1 and in(Q + (x_j1)) = in(Q) + (x_j1) (Bayer-Stillman,
    *Invent. Math.* 87, 1987; Eisenbud, *Commutative Algebra*, Prop. 15.12),
    and a homogeneous g has a lead divisible by x_j1 exactly when x_j1
    divides g.  So x_j1 is regular exactly when it divides no element of G,
    and then x_j1 with the restrictions g|_(x_j1 = 0) is the reduced basis
    of the sum under the same order.  The sum modulo x_j1 is the ideal of
    the restrictions in the other variables, under the order left, where
    x_j2 is last: the same test applies to it, and so on down the run.
    A run ends after its last variable, at one that is not regular, or at
    a step kept before.  Its last sum then keeps G as its reduced degrevlex
    basis when the moved order is degrevlex on the variables not kept
    (`_seed_run`), so a colon step after the run reads that basis.  A
    variable after a skipped one starts a new run, from the sum's cached
    basis or its generators.

    Any other step takes the colon (`_colon_step`).  An element from
    another ring is refused before any step.
    """
    ctx, n = I.ctx, I.ctx.n
    if any(f.ctx != ctx for f in seq):
        raise RingError("mixed ring contexts")
    Q, G, order, kept, count = I, None, (), set(), 0
    for i, f in enumerate(seq):
        steps = Q._steps
        if steps is None:
            steps = Q._steps = {}
        nxt = steps.get(f, _NOT_COMPUTED)
        j = _variable(f)
        run = nxt is _NOT_COMPUTED and j is not None and (G is not None or _revlex_ready(Q))
        if run:
            if G is None:
                tail = takewhile(lambda v: v is not None, map(_variable, seq[i:]))
                tail = tuple(dict.fromkeys(tail))
                order = tuple(v for v in range(n) if v not in tail) + tail[::-1]
                G = _chain_basis(Q, order)
            if any(all(e[j] for e in g) for g in G):
                nxt = None
            else:
                G = [{e: c for e, c in g.items() if not e[j]} for g in G]
                G.append({mono_power(n, j): _ONE})
                nxt = Ideal(ctx, (*Q.gens, f))
            steps[f] = nxt
        if G is not None and (not run or nxt is None):
            _seed_run(Q, G, order, kept)
            G = None
        if nxt is _NOT_COMPUTED:
            nxt = steps[f] = _colon_step(Q, f)
        if nxt is None:
            if not skip:
                return None, count
            continue
        Q = nxt
        count += 1
        if j is not None:
            kept.add(j)
    if G is not None:
        _seed_run(Q, G, order, kept)
    return Q, count


def _seed_run(Q: Ideal, G: list[dict], order: tuple[int, ...], kept: set[int]) -> None:
    """Seed Q, the last sum of a run, with G, its reduced basis under
    degrevlex on the variables listed in `order`, when that is its reduced
    degrevlex basis: G is free of the kept variables but for their own
    elements, so it is when the order restricted to the other variables is
    degrevlex."""
    left = [v for v in order if v not in kept]
    if Q._gb is None and left == sorted(left):
        basis = (Polynomial(Q.ctx, g) for g in G)
        Q._gb = tuple(sorted(basis, key=lambda p: DEGREVLEX.key(p.lead()[0])))


def _colon_step(I: Ideal, f: Polynomial) -> Ideal | None:
    """The step of I by f through the colon I : (f): I + (f), its reduced
    basis cached, or None.  When I and f are given by terms, f is regular
    exactly when the colon of I's minimal generators by f's term leaves
    them fixed (`colon_fixes`; f = 0 only over the unit ideal).  Past that
    and f in I, one syzygy run of the vector (f) of R^1 modulo the reduced
    basis of I has the colon's reduced basis in its tags and the sum's as
    its image (see `_syzygies`)."""
    S = Ideal(I.ctx, (*I.gens, f))
    if monomial_gens(S) is not None:
        if not colon_fixes(monomial_gens(I), tuple(f.term_map())):
            return None
        reduced_gb(S)
    elif ideal_member(f, I):
        # I : f is the unit ideal, which equals I only when I is
        if not is_unit_ideal(I):
            return None
        S._gb = reduced_gb(I)
    else:
        syz, image = _syzygies([(f,)], [(g,) for g in reduced_gb(I)], I.ctx, 1)
        if tuple(a for (a,) in syz) != reduced_gb(I):
            return None
        S._gb = tuple(g for (g,) in image)
    return S


def _variable(f: Polynomial) -> int | None:
    """j when f = c*x_j for a nonzero c, else None."""
    if f.is_term():
        (e,) = f.term_map()
        if sum(e) == 1:
            return e.index(1)
    return None


def _revlex_ready(I: Ideal) -> bool:
    """Whether I's generators are homogeneous, none a nonzero constant, and
    not all terms (a term ideal takes the divisibility kernels).  A sum
    I + (x_j) keeps all three."""
    gens = I.gens
    return all(g.is_homogeneous() and not g.is_constant() for g in gens) and not all(
        g.is_term() for g in gens
    )


def variable_route(I: Ideal, seq: Sequence[Polynomial]) -> bool:
    """Whether the steps from I by seq are one run of variables, read off
    one reverse-lex basis."""
    return _revlex_ready(I) and all(_variable(f) is not None for f in seq)


def _chain_basis(Q: Ideal, order: tuple[int, ...]) -> list[dict]:
    """The reduced basis of Q under degrevlex on the variables listed in
    `order`: Q's own `reduced_gb` under the plain order, else one plain run
    on Q's cached basis or its generators."""
    if order == tuple(range(len(order))):
        return [g.term_map() for g in reduced_gb(Q)]
    return _buchberger([g.term_map() for g in Q._gb or Q.gens], MonomialOrder((order,)))


# ---------------------------------------------------------------------------
# The Rabinowitsch tag variable.

def _rabinowitsch(I: Ideal, f: Polynomial) -> Ideal:
    """I + (1 - t*f) over I's ring extended by a fresh last variable t."""
    if f.ctx != I.ctx:
        raise RingError("mixed ring contexts")
    big = I.ctx.extend([I.ctx.fresh_name("t@")])
    up = {i: i for i in range(I.ctx.n)}
    t = Polynomial.variable(big, big.var_names[-1])
    return Ideal(big, [g.map_vars(big, up) for g in I.gens] + [1 - t * f.map_vars(big, up)])


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """I : f^infinity via the Rabinowitsch tag 1 - t*f."""
    if f.is_zero():
        raise RingError("saturation by zero is undefined")
    T = _rabinowitsch(I, f)
    return eliminate(T, T.ctx.var_names[-1:])


def radical_member(f: Polynomial, I: Ideal) -> bool:
    """Whether f lies in the radical of I: whether f lies in I, which
    starts no Rabinowitsch run, or else 1 ∈ I + (1 - t*f)."""
    return ideal_member(f, I) or is_unit_ideal(_rabinowitsch(I, f))


def eliminate(I: Ideal, drop_names: Iterable[str]) -> Ideal:
    """I ∩ Q[remaining variables], returned over the smaller ring with its
    reduced degrevlex basis cached.

    One engine run under the elimination order gives it: the elements of
    that reduced basis which avoid the dropped variables are a Groebner
    basis of I ∩ Q[kept] under the order restricted to the kept block (the
    Elimination Theorem, Cox-Little-O'Shea, *Ideals, Varieties, and
    Algorithms*, ch. 3 §1), and that restriction is degrevlex in the
    smaller ring's variable order.  They are monic and mutually reduced
    already, and listed in increasing order of their leads, so they are
    the reduced basis `reduced_gb` would compute.
    """
    ctx = I.ctx
    drop_idx = {ctx.index(name) for name in drop_names}
    if not drop_idx:
        return Ideal(ctx, I.gens)
    keep = [i for i in range(ctx.n) if i not in drop_idx]
    if not keep:
        raise RingError("cannot eliminate every variable")
    small = RingCtx(tuple(ctx.var_names[i] for i in keep))
    basis = _gb(ctx, I.gens, elimination_order(drop_idx, ctx.n))
    down = {old: new for new, old in enumerate(keep)}
    out = tuple(p.map_vars(small, down) for p in basis if not p.support() & drop_idx)
    return _seeded(small, out)
