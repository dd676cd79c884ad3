"""Linkage of ideals over a cyclic module M = R/J.

Two ideals a and b of R are linked over M through an ideal I when I is
generated by an M-regular sequence contained (mod J) in both, neither kills
M, and each is the other's colon:  b + J = (I+J) : a  and  a + J = (I+J) : b.
The link is geometric when (a+J) and (b+J) meet exactly in I+J, and a is
selflinked when the two sides agree mod J.

`check_linked` certifies a triple or raises LinkageError with a reason code;
a pair known in advance is certified by it directly.  `link_of` takes the
colon partner, or the double colon of a trial ideal, and certifies it; every
pair drawn from a trial ideal is built there: `random_linked_pairs` draws
certified instances through it, exploiting that a double colon is always
colon-stable.  Both take the core I + J from one helper, `_core`,
which grows I as a regular chain from J; each step stays on the ideal it
extended, so the chain is tested once however often it is grown.

A closed trial t over the core T = I + J is refused as improper-b exactly
when t lies in T, else as improper-a exactly when T : t = T, i.e. when t
lies in no associated prime of R/T, and is certified otherwise.  Over a
monomial core both are bit and divisibility tests on exponent tuples
(`link_refusal`), so the sampler and the p1 claim refuse such draws before
building a trial or taking a colon; what passes still goes to `link_of`,
which alone certifies.

A certificate holds M/aM = R/(a+J), M/bM = R/(b+J) and the core
M/IM = R/(I+J), the end of the regular chain that certified I, as cyclic
modules on the ideals certification built, whose bases, monomial forms and
primes every reader takes from there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .groebner import (
    Ideal,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    ideal_quotient,
    ideal_sum,
    is_proper,
    is_unit_ideal,
    monomial_gens,
    radical_member,
    reduced_gb,
)
from .modules import CyclicModule, regular_chain
from .monomial import MonomialIdeal, PrimeSet, associated_primes
from .ring import Exponents, Polynomial, RingError, mono_mask

ATTEMPTS_PER_PAIR = 80  # draws `random_linked_pairs` may make per wanted pair


class LinkageError(RingError):
    """A triple (a, b, I) failed one of the linkage conditions."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason

    def __reduce__(self):
        # rebuilt from both arguments; `args` holds only the message
        return type(self), (self.reason, str(self))


@dataclass(frozen=True)
class LinkageCertificate:
    """A verified linkage instance, holding M/aM, M/bM and M/IM as its three
    quotients; construction goes through check_linked."""

    module: CyclicModule
    I: Ideal
    a: Ideal
    b: Ideal
    quotient_a: CyclicModule
    quotient_b: CyclicModule
    quotient_core: CyclicModule
    geometric: bool
    selflinked: bool

    @property
    def ctx(self):
        return self.module.ctx

    def as_json(self) -> dict:
        return {
            "module": self.module.describe(),
            "I": [str(g) for g in reduced_gb(self.I)] or ["0"],
            "a": [str(g) for g in reduced_gb(self.a)],
            "b": [str(g) for g in reduced_gb(self.b)],
            "geometric": self.geometric,
            "selflinked": self.selflinked,
        }


def _core(I: Ideal, J: Ideal) -> Ideal:
    """J + I grown as a regular chain from J (`regular_chain`), the core
    that both colons are taken in; refuses I when its generators are not
    an M-regular sequence.  Every step's colon and sum stay on the ideal it
    extended, so growing the chain again from the same J reads them."""
    T = regular_chain(I.gens, J)
    if T is None:
        raise LinkageError(
            "not-regular", "the generators of I are not an M-regular sequence"
        )
    return T


def check_linked(a: Ideal, b: Ideal, I: Ideal, M: CyclicModule) -> LinkageCertificate:
    """Verify every linkage condition for (a, b) through I over M.

    Raises LinkageError (reason codes: not-regular, not-contained, improper-a,
    improper-b, colon-mismatch-a, colon-mismatch-b) when a condition fails.
    """
    ctx = M.ctx
    for X in (a, b, I):
        if X.ctx != ctx:
            raise RingError("linkage data lives in different rings")
    J = M.ideal
    T = _core(I, J)
    aJ = ideal_sum(a, J)
    bJ = ideal_sum(b, J)
    for g in I.gens:
        if not (ideal_member(g, aJ) and ideal_member(g, bJ)):
            raise LinkageError("not-contained", "I does not sit inside both ideals mod J")
    if not is_proper(aJ):
        raise LinkageError("improper-a", "a kills the module: aM = M")
    if not is_proper(bJ):
        raise LinkageError("improper-b", "b kills the module: bM = M")
    if not ideal_equal(ideal_quotient(T, a), bJ):
        raise LinkageError("colon-mismatch-a", "(I+J) : a is not b mod J")
    if not ideal_equal(ideal_quotient(T, b), aJ):
        raise LinkageError("colon-mismatch-b", "(I+J) : b is not a mod J")
    geometric = ideal_equal(ideal_intersect(aJ, bJ), T)
    selflinked = ideal_equal(aJ, bJ)
    # a selflink has one quotient M/aM = M/bM, and a zero link (I = 0) leaves
    # the chain at J itself, whose module is M
    quotient_a = CyclicModule(ctx, aJ)
    quotient_b = quotient_a if selflinked else CyclicModule(ctx, bJ)
    quotient_core = M if T is J else CyclicModule(ctx, T)
    return LinkageCertificate(
        M, I, a, b, quotient_a, quotient_b, quotient_core, geometric, selflinked
    )


def link_of(a: Ideal, I: Ideal, M: CyclicModule, close: bool = False) -> LinkageCertificate:
    """The colon partner b = (I+J) : a, certified by `check_linked`; every
    pair drawn from a trial ideal a is built here.

    When a is not colon-stable the pair fails certification; with close=True
    a is first replaced by its double colon (I+J) : b, which is always
    stable.  A unit b is then refused at once as improper-b, the answer
    certification would give: the double colon (I+J) : R = I+J holds I and
    is proper.
    """
    T = _core(I, M.ideal)
    b = ideal_quotient(T, a)
    if close:
        if is_unit_ideal(b):
            raise LinkageError("improper-b", "b kills the module: bM = M")
        a = ideal_quotient(T, b)
    return check_linked(a, b, I, M)


def link_refusal(core: MonomialIdeal, ass: PrimeSet, extras: Sequence[Exponents]) -> str | None:
    """The reason `link_of(t, I, M, close=True)` refuses a trial t = I +
    (x^e : e in extras), or None when it certifies, read off the monomial
    core T = I + J and Ass R/T without a colon; I must be M-regular.

    With b = T : t, b is the unit ideal (improper-b) exactly when t lies in
    T, i.e. when T holds every extra, as it holds I.  Otherwise the double
    colon T : b is the unit ideal (improper-a) exactly when b = T, and
    T : t = T exactly when t lies in no P in Ass R/T (prime avoidance): P
    holds I, and holds the term x^e when the support of e meets P.  In
    every other case both colons are proper and the double colon is
    colon-stable, so `check_linked` certifies.
    """
    if all(core.contains_mono(e) for e in extras):
        return "improper-b"
    supports = [mono_mask(e) for e in extras]
    if not any(all(s & p.mask for s in supports) for p in ass):
        return "improper-a"
    return None


def support_identity(cert: LinkageCertificate) -> bool:
    """Radical identity sqrt(I+J) = sqrt(a+J) ∩ sqrt(b+J), checked indirectly.

    Containment of radicals one way reduces to radical membership of the
    generators; the other way uses that the intersection of the two radicals
    is the radical of the product ideal, so it suffices to put every product
    of generators inside sqrt(I+J).  No radical is ever computed.
    """
    T, aJ, bJ = (X.ideal for X in (cert.quotient_core, cert.quotient_a, cert.quotient_b))
    for g in T.gens:
        if not (radical_member(g, aJ) and radical_member(g, bJ)):
            return False
    for g1 in aJ.gens:
        for g2 in bJ.gens:
            if not radical_member(g1 * g2, T):
                return False
    return True


def minimal_primes_in_core_ass(cert: LinkageCertificate) -> bool | None:
    """Whether every minimal prime of a+J is associated to R/(I+J).

    Decided along the monomial route; returns None when either ideal is not
    monomial, since general primary decomposition is out of scope here.
    """
    Ma, core = cert.quotient_a, cert.quotient_core
    if Ma.monomial is None or core.monomial is None:
        return None
    return Ma.primes().min_primes.issubset(core.primes().ass)


# ---------------------------------------------------------------------------
# Random certified instances.

@dataclass(frozen=True)
class GenParams:
    count: int = 10
    maxdeg: int = 3
    max_extra: int = 2
    seq_len_max: int = 2

    def __post_init__(self) -> None:
        for name, least in (("count", 1), ("maxdeg", 1), ("max_extra", 0), ("seq_len_max", 0)):
            if getattr(self, name) < least:
                raise RingError(f"{name} must be at least {least}, got {getattr(self, name)}")


def _random_monomial(rng: random.Random, ctx, maxdeg: int) -> tuple[int, ...]:
    """The exponent of a random monomial of degree 1..maxdeg."""
    deg = rng.randint(1, maxdeg)
    e = [0] * ctx.n
    for _ in range(deg):
        e[rng.randrange(ctx.n)] += 1
    return tuple(e)


def _sequence_pool(rng: random.Random, ctx, maxdeg: int) -> Polynomial:
    i = rng.randrange(ctx.n)
    if ctx.n > 1 and rng.random() < 0.3:
        j = rng.randrange(ctx.n)
        while j == i:
            j = rng.randrange(ctx.n)
        return Polynomial.variable(ctx, ctx.var_names[i]) + Polynomial.variable(
            ctx, ctx.var_names[j]
        )
    d = rng.randint(1, maxdeg)
    e = [0] * ctx.n
    e[i] = d
    return Polynomial.from_monomial(ctx, tuple(e))


def _monomial_core(T: Ideal, M: CyclicModule) -> tuple[MonomialIdeal, PrimeSet] | None:
    """The monomial form of a core T grown from M's ideal, and Ass R/T:
    M's own record when T is M's ideal, else read off T's generators, which
    are J's and the sequence's; None when they are not all terms."""
    if T is M.ideal:
        return None if M.monomial is None else (M.monomial, M.primes().ass)
    gens = monomial_gens(T)
    if gens is None:
        return None
    core = MonomialIdeal(T.ctx, gens)
    return core, associated_primes(core)


def random_linked_pairs(
    M: CyclicModule, params: GenParams = GenParams(), seed: int = 0
) -> Iterator[LinkageCertificate]:
    """Draw up to params.count distinct certified linkage instances over M.

    Each draw picks an M-regular sequence I, throws extra monomials on top to
    get a trial ideal, and takes `link_of(trial, I, M, close=True)`;
    duplicates (same pair mod J) are dropped.  Over a core given by terms
    the extras' exponents meet `link_refusal` first, and only a draw it
    does not refuse builds its trial and reaches `link_of`; any other core
    goes to `link_of` as drawn.

    A sequence grows one drawn candidate at a time, from J, by
    `regular_chain`.  Each step's colon and sum stay on the ideal it
    extended (`colon_and_sum`), so a prefix drawn again, and the chain that
    `link_of` grows again to certify I, cost dict lookups; the chain's last
    ideal is J + I, the core that the colons are taken in.
    """
    rng = random.Random(seed)
    ctx = M.ctx
    J = M.ideal
    produced = 0
    seen: set = set()
    attempts = ATTEMPTS_PER_PAIR * params.count
    min_len = 0 if not J.is_zero_ideal() else 1

    # the core's monomial form and Ass R/T, per chain end, read once per call
    core_primes: dict[Ideal, tuple[MonomialIdeal, PrimeSet] | None] = {}

    def gb_key(X: CyclicModule) -> tuple[str, ...]:
        return tuple(str(g) for g in reduced_gb(X.ideal))

    for _ in range(attempts):
        if produced >= params.count:
            return
        want = rng.randint(min_len, max(min_len, params.seq_len_max))
        seq: list[Polynomial] = []
        Q = J  # J + (seq)
        ok = True
        for _ in range(want):
            for _ in range(12):
                cand = _sequence_pool(rng, ctx, params.maxdeg)
                nxt = regular_chain([cand], Q)
                if nxt is not None:
                    seq.append(cand)
                    Q = nxt
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        extra_min = 1 if not seq else 0
        exps = [
            _random_monomial(rng, ctx, params.maxdeg)
            for _ in range(rng.randint(extra_min, max(extra_min, params.max_extra)))
        ]
        if Q not in core_primes:
            core_primes[Q] = _monomial_core(Q, M)
        known = core_primes[Q]
        if known is not None and link_refusal(*known, exps) is not None:
            continue
        I = Ideal(ctx, seq)
        extras = [Polynomial.from_monomial(ctx, e) for e in exps]
        trial = ideal_sum(I, Ideal(ctx, extras)) if extras else I
        try:
            cert = link_of(trial, I, M, close=True)
        except LinkageError:
            continue
        key = frozenset(map(gb_key, (cert.quotient_a, cert.quotient_b))), gb_key(cert.quotient_core)
        if key in seen:
            continue
        seen.add(key)
        produced += 1
        yield cert
