"""Buchberger-based ideal arithmetic: reduced bases, membership, colon,
intersection, saturation, radical membership, and variable elimination.

The engine is deliberately the classical one -- Buchberger with the
coprime-lcm and chain criteria under a normal selection strategy -- with a
hard S-pair budget so runaway eliminations abort as a resource error instead
of hanging.

Pending S-pairs sit in a heap keyed by (order key of the lcm, index pair), so
each step pops the pair a linear scan for the smallest such key would pick:
the S-pair sequence, and therefore where a budget trips, is that of the
plain normal strategy.  Order keys are memoized for the length of one
Buchberger or normal-form call and dropped when it returns; each basis
element's lead is computed once, and every remainder goes through one
division kernel (`_reduce`) shared by `normal_form` and the Buchberger loop.
The module engine in `modules.py` reuses the pair heap, the key memo and
the term-subtraction step `_sub_shifted`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from operator import add, le as le_, sub
from typing import Iterable, Sequence

from .ring import (
    DEGREVLEX,
    Exponents,
    MonomialOrder,
    Polynomial,
    RingCtx,
    RingError,
    elimination_order,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
    mono_quotient,
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


@dataclass(frozen=True)
class Limits:
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


class Ideal:
    """An ideal of Q[x_1..x_n] held by explicit generators.

    Generators are never mutated; the zero ideal is represented by a single
    zero polynomial so `gens` is always nonempty.  Reduced Groebner bases are
    cached per monomial order on the instance.
    """

    __slots__ = ("ctx", "gens", "_gb_cache")

    def __init__(self, ctx: RingCtx, gens: Iterable[Polynomial]) -> None:
        kept = []
        for g in gens:
            if g.ctx != ctx:
                raise RingError("generator from a different ring context")
            if not g.is_zero():
                kept.append(g)
        self.ctx = ctx
        self.gens: tuple[Polynomial, ...] = tuple(kept) or (Polynomial.zero(ctx),)
        self._gb_cache: dict = {}

    @classmethod
    def parse(cls, ctx: RingCtx, text: str) -> "Ideal":
        parts = [s.strip() for s in text.split(",")]
        return cls(ctx, [parse_poly(s, ctx) for s in parts if s])

    @classmethod
    def zero(cls, ctx: RingCtx) -> "Ideal":
        return cls(ctx, [])

    @classmethod
    def unit(cls, ctx: RingCtx) -> "Ideal":
        return cls(ctx, [Polynomial.const(ctx, 1)])

    def is_zero_ideal(self) -> bool:
        return all(g.is_zero() for g in self.gens)

    def is_monomial(self) -> bool:
        return all(g.is_term() for g in self.gens if not g.is_zero())

    def __repr__(self) -> str:
        return "<ideal (" + ", ".join(str(g) for g in self.gens) + ")>"


def _same_ctx(I: Ideal, J: Ideal) -> RingCtx:
    if I.ctx != J.ctx:
        raise RingError("ideals live in different rings")
    return I.ctx


# ---------------------------------------------------------------------------
# Division and Buchberger.

class _KeyMemo(dict):
    """e -> fn(e), each key computed once.

    One memo is made per Buchberger or normal-form call and dropped when the
    call returns, so no key outlives its run and the order objects stay
    stateless.
    """

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, e):
        k = self[e] = self.fn(e)
        return k


def _memo_key(fn):
    """A memoized copy of the sort key `fn`, for the length of one run."""
    return _KeyMemo(fn).__getitem__


class _PairQueue:
    """Pending S-pairs, popped in normal-strategy order.

    Entries are (key(lcm), (i, j), lcm), so pairs leave smallest lcm first
    and ties go to the smaller index pair -- the order a `min` scan over
    (key(lcm), (i, j)) would give.  `pending` holds the pairs not yet popped,
    for the chain criterion.
    """

    __slots__ = ("_heap", "pending", "_key")

    def __init__(self, key) -> None:
        self._heap: list = []
        self.pending: set[tuple[int, int]] = set()
        self._key = key

    def add(self, pairs: Iterable[tuple[int, int, Exponents]]) -> None:
        for i, j, l in pairs:
            heappush(self._heap, (self._key(l), (i, j), l))
            self.pending.add((i, j))

    def pop(self) -> tuple[int, int, Exponents]:
        _, p, l = heappop(self._heap)
        self.pending.discard(p)
        return p[0], p[1], l

    def __bool__(self) -> bool:
        return bool(self._heap)


def _monic(p: Polynomial, key) -> tuple[Polynomial, tuple[Exponents, tuple]]:
    """A nonzero p scaled to lead coefficient 1, and its (lead, tail) reducer.

    The tail lists the other terms of the scaled p as (exponent, coefficient).
    """
    terms = p.term_map()
    lead = max(terms, key=key)
    c = terms[lead]
    if c != 1:
        p = p * (_ONE / c)
        terms = p.term_map()
    return p, (lead, tuple((e, v) for e, v in terms.items() if e != lead))


def _sub_shifted(work: dict, tail: tuple, q: Exponents, c) -> None:
    """work -= c * x^q * tail, dropping terms that cancel."""
    for ge, gc in tail:
        k = tuple(map(add, ge, q))
        v = work.get(k)
        if v is None:
            work[k] = -c * gc
        else:
            v -= c * gc
            if v:
                work[k] = v
            else:
                del work[k]


def _reduce(work: dict, reducers: Sequence[tuple[Exponents, tuple]], key) -> dict:
    """Remainder of the term map `work` (consumed) under division by
    `reducers`, each a (lead, tail) pair from `_monic`, tried in order."""
    rem: dict[Exponents, Fraction] = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for le, tail in reducers:
            if all(map(le_, le, e)):
                _sub_shifted(work, tail, tuple(map(sub, e, le)), c)
                break
        else:
            rem[e] = c
    return rem


def normal_form(
    f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX
) -> Polynomial:
    """Full remainder of f under division by `basis`."""
    key = _memo_key(order.key)
    reducers = [_monic(g, key)[1] for g in basis if not g.is_zero()]
    if not reducers:
        return f
    return Polynomial(f.ctx, _reduce(dict(f.term_map()), reducers, key))


def _buchberger(gens: Sequence[Polynomial], order: MonomialOrder, meter: _Meter) -> list[Polynomial]:
    key = _memo_key(order.key)
    G: list[Polynomial] = []  # monic basis elements
    red: list[tuple[Exponents, tuple]] = []  # their (lead, tail)
    for g in gens:
        if not g.is_zero():
            g, r = _monic(g, key)
            G.append(g)
            red.append(r)
    if not G:
        return []
    ctx = G[0].ctx
    leads: list[Exponents] = [le for le, _ in red]
    queue = _PairQueue(key)
    queue.add((i, j, mono_lcm(leads[i], leads[j])) for j in range(len(G)) for i in range(j))

    while queue:
        meter.charge("buchberger")
        i, j, l = queue.pop()
        li, lj = leads[i], leads[j]
        # coprime-lcm criterion
        if l == mono_mul(li, lj):
            continue
        # chain criterion
        pending = queue.pending
        skip = False
        for k, lk in enumerate(leads):
            if k == i or k == j:
                continue
            if all(map(le_, lk, l)):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        # S-polynomial of two monic elements: their lcm terms cancel
        qi = tuple(map(sub, l, li))
        work = {tuple(map(add, e, qi)): c for e, c in red[i][1]}
        _sub_shifted(work, red[j][1], tuple(map(sub, l, lj)), _ONE)
        rem = _reduce(work, red, key)
        if not rem:
            continue
        h, r = _monic(Polynomial(ctx, rem), key)
        G.append(h)
        red.append(r)
        leads.append(r[0])
        new = len(G) - 1
        queue.add((t, new, mono_lcm(leads[t], leads[new])) for t in range(new))

    # minimalize: keep only leading terms that form an antichain
    orderidx = sorted(range(len(G)), key=lambda i: key(leads[i]))
    kept: list[int] = []
    for i in orderidx:
        if not any(mono_divides(leads[k], leads[i]) for k in kept):
            kept.append(i)
    # tail-reduce to the unique reduced basis; no lead divides another, so
    # every lead survives and one pass leaves no term reducible
    basis = [G[i] for i in kept]
    kept_red = [red[i] for i in kept]
    for n, g in enumerate(basis):
        r = _reduce(dict(g.term_map()), kept_red[:n] + kept_red[n + 1 :], key)
        if r != g.term_map():
            basis[n], kept_red[n] = _monic(Polynomial(ctx, r), key)
    return basis


def reduced_gb(I: Ideal, order: MonomialOrder = DEGREVLEX) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis; empty tuple for the zero ideal."""
    token = order.token()
    cached = I._gb_cache.get(token)
    if cached is not None:
        return cached
    basis = tuple(_buchberger(I.gens, order, _Meter()))
    I._gb_cache[token] = basis
    return basis


def ideal_member(f: Polynomial, I: Ideal, order: MonomialOrder = DEGREVLEX) -> bool:
    if f.is_zero():
        return True
    return normal_form(f, reduced_gb(I, order), order).is_zero()


def is_zero_ideal(I: Ideal) -> bool:
    return not reduced_gb(I)


def is_unit_ideal(I: Ideal) -> bool:
    gb = reduced_gb(I)
    return len(gb) == 1 and gb[0].is_constant()

def is_proper(I: Ideal) -> bool:
    return not is_unit_ideal(I)


def ideal_equal(I: Ideal, J: Ideal, order: MonomialOrder = DEGREVLEX) -> bool:
    _same_ctx(I, J)
    return reduced_gb(I, order) == reduced_gb(J, order)


def ideal_contains(I: Ideal, J: Ideal) -> bool:
    """Whether J is a subset of I."""
    _same_ctx(I, J)
    return all(ideal_member(g, I) for g in J.gens)


def ideal_sum(I: Ideal, *others: Ideal) -> Ideal:
    gens = list(I.gens)
    for J in others:
        _same_ctx(I, J)
        gens.extend(J.gens)
    return Ideal(I.ctx, gens)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    ctx = _same_ctx(I, J)
    gens = [f * g for f in I.gens for g in J.gens]
    return Ideal(ctx, gens)


def exact_div(f: Polynomial, g: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Quotient f/g when g divides f exactly; RingError otherwise."""
    if g.is_zero():
        raise RingError("division by the zero polynomial")
    ctx = f.ctx
    quot: dict[Exponents, Fraction] = {}
    rem = f
    (eg, cg) = g.lead(order)
    while not rem.is_zero():
        (e, c) = rem.lead(order)
        if not mono_divides(eg, e):
            raise RingError("polynomial division is not exact")
        q = mono_quotient(e, eg)
        t = c / cg
        quot[q] = quot.get(q, Fraction(0)) + t
        rem = rem - g.mul_term(q, t)
    return Polynomial(ctx, quot)


# ---------------------------------------------------------------------------
# Tag-variable constructions.

def _lift(ctx_small: RingCtx, ctx_big: RingCtx, p: Polynomial) -> Polynomial:
    return p.map_vars(ctx_big, {i: i for i in range(ctx_small.n)})


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via a single tag variable t: eliminate t from t*I + (1-t)*J."""
    ctx = _same_ctx(I, J)
    if is_zero_ideal(I) or is_zero_ideal(J):
        return Ideal.zero(ctx)
    if is_unit_ideal(I):
        return Ideal(ctx, J.gens)
    if is_unit_ideal(J):
        return Ideal(ctx, I.gens)
    big = ctx.extend([ctx.fresh_name("t@")])
    ti = big.n - 1
    t = Polynomial.from_monomial(big, tuple(1 if i == ti else 0 for i in range(big.n)))
    one = Polynomial.const(big, 1)
    gens = [t * _lift(ctx, big, f) for f in I.gens]
    gens += [(one - t) * _lift(ctx, big, g) for g in J.gens]
    basis = _buchberger(gens, elimination_order({ti}, big.n), _Meter())
    down = {i: i for i in range(ctx.n)}
    out = [p.map_vars(ctx, down) for p in basis if ti not in p.support()]
    result = Ideal(ctx, out)
    # sanity required of this construction: products of generators must land inside
    for f in I.gens:
        for g in J.gens:
            if not ideal_member(f * g, result):
                raise RingError("intersection self-check failed")
    return result


def ideal_quotient(I: Ideal, J: Ideal) -> Ideal:
    """The colon ideal I : J, via I:(g) = (I ∩ (g))/g per generator of J."""
    ctx = _same_ctx(I, J)
    nonzero = [g for g in J.gens if not g.is_zero()]
    if not nonzero:
        return Ideal.unit(ctx)  # I : (0) is everything
    result: Ideal | None = None
    for g in nonzero:
        meet = ideal_intersect(I, Ideal(ctx, [g]))
        part = Ideal(ctx, [exact_div(h, g) for h in meet.gens if not h.is_zero()])
        result = part if result is None else ideal_intersect(result, part)
    assert result is not None
    return result


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """I : f^infinity via the Rabinowitsch tag 1 - t*f."""
    if f.is_zero():
        raise RingError("saturation by zero is undefined")
    ctx = I.ctx
    if f.ctx != ctx:
        raise RingError("mixed ring contexts")
    big = ctx.extend([ctx.fresh_name("t@")])
    ti = big.n - 1
    t = Polynomial.from_monomial(big, tuple(1 if i == ti else 0 for i in range(big.n)))
    gens = [_lift(ctx, big, g) for g in I.gens]
    gens.append(Polynomial.const(big, 1) - t * _lift(ctx, big, f))
    basis = _buchberger(gens, elimination_order({ti}, big.n), _Meter())
    down = {i: i for i in range(ctx.n)}
    return Ideal(ctx, [p.map_vars(ctx, down) for p in basis if ti not in p.support()])


def radical_member(f: Polynomial, I: Ideal) -> bool:
    """Whether f lies in the radical of I (1 ∈ I + (1 - t*f))."""
    if f.is_zero():
        return True
    ctx = I.ctx
    if f.ctx != ctx:
        raise RingError("mixed ring contexts")
    big = ctx.extend([ctx.fresh_name("t@")])
    ti = big.n - 1
    t = Polynomial.from_monomial(big, tuple(1 if i == ti else 0 for i in range(big.n)))
    gens = [_lift(ctx, big, g) for g in I.gens]
    gens.append(Polynomial.const(big, 1) - t * _lift(ctx, big, f))
    basis = _buchberger(gens, DEGREVLEX, _Meter())
    return len(basis) == 1 and basis[0].is_constant()


def eliminate(I: Ideal, drop_names: Iterable[str]) -> Ideal:
    """I ∩ Q[remaining variables], returned over the smaller ring."""
    ctx = I.ctx
    drop_idx = {ctx.index(name) for name in drop_names}
    if not drop_idx:
        return Ideal(ctx, I.gens)
    keep = [i for i in range(ctx.n) if i not in drop_idx]
    if not keep:
        raise RingError("cannot eliminate every variable")
    small = RingCtx(tuple(ctx.var_names[i] for i in keep))
    basis = _buchberger(I.gens, elimination_order(drop_idx, ctx.n), _Meter())
    down = {old: new for new, old in enumerate(keep)}
    out = []
    for p in basis:
        if p.support() & drop_idx:
            continue
        out.append(p.map_vars(small, down))
    return Ideal(small, out)
