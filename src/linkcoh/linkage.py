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
which refuses data from another ring than M's and grows I as a regular
chain from J; each step stays on the ideal it extended, so the chain is
tested once however often it is grown.

A closed trial t over the core T = I + J is refused as improper-b exactly
when T : t is the unit ideal (t lies in T), else as improper-a exactly when
T : t = T, and is certified otherwise.  Over a monomial J one class,
`_TermChain`, holds the core in term form: each sum x_k + x_l of the
sequence identifies two variables up to sign, so R/T is a term ideal's
quotient in the ring of the variables left.  A candidate is regular
exactly when its colon leaves that term ideal fixed, and a trial's refusal
is one colon of it, both on exponent tuples (`groebner.colon_fixes`, the
rule `groebner.regular_steps` applies to term data too).  The sampler and the p1
claim decide every draw there before building a trial or running the
engine; what passes still goes to `link_of`, which alone certifies.

A certificate holds M/aM = R/(a+J), M/bM = R/(b+J) and the core
M/IM = R/(I+J), the end of the regular chain that certified I, as cyclic
modules on the ideals certification built, whose bases, monomial forms and
primes every reader takes from there.
"""

from __future__ import annotations

import random
from collections import namedtuple
from typing import Iterator, NamedTuple, Sequence

from .groebner import (
    Ideal,
    check_deadline,
    colon_fixes,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    ideal_quotient,
    ideal_sum,
    is_proper,
    is_unit_ideal,
    radical_member,
    reduced_gb,
)
from .modules import CyclicModule, regular_chain
from .monomial import MonomialIdeal
from .ring import Exponents, Polynomial, RingError, mono_mask, mono_power

ATTEMPTS_PER_PAIR = 80  # draws `random_linked_pairs` may make per wanted pair
DEFAULT_SEED = 0  # the seed of `random_linked_pairs` and of `linkage random`


class LinkageError(RingError):
    """A triple (a, b, I) failed one of the linkage conditions."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason

    def __reduce__(self):
        # rebuilt from both arguments; `args` holds only the message
        return type(self), (self.reason, str(self))


class LinkageCertificate(NamedTuple):
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


def _core(M: CyclicModule, I: Ideal, *sides: Ideal) -> Ideal:
    """J + I grown as a regular chain from J (`regular_chain`), the core
    that both colons are taken in; refuses I, or a side, from another ring
    than M's before any chain step, and I when its generators are not an
    M-regular sequence.  Every step's colon and sum stay on the ideal it
    extended, so growing the chain again from the same J reads them."""
    for X in (I, *sides):
        if X.ctx != M.ctx:
            raise RingError("linkage data lives in different rings")
    T = regular_chain(I.gens, M.ideal)
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
    T = _core(M, I, a, b)
    J = M.ideal
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
    quotient_a = CyclicModule(M.ctx, aJ)
    quotient_b = quotient_a if selflinked else CyclicModule(M.ctx, bJ)
    quotient_core = M if T is J else CyclicModule(M.ctx, T)
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
    T = _core(M, I, a)
    b = ideal_quotient(T, a)
    if close:
        if is_unit_ideal(b):
            raise LinkageError("improper-b", "b kills the module: bM = M")
        a = ideal_quotient(T, b)
    return check_linked(a, b, I, M)


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

class GenParams(namedtuple("GenParams", "count maxdeg max_extra seq_len_max", defaults=(10, 3, 2, 2))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "GenParams":
        self = super().__new__(cls, *args, **kwargs)
        for name, least in (("count", 1), ("maxdeg", 1), ("max_extra", 0), ("seq_len_max", 0)):
            if getattr(self, name) < least:
                raise RingError(f"{name} must be at least {least}, got {getattr(self, name)}")
        return self


def _random_monomial(rng: random.Random, ctx, maxdeg: int) -> tuple[int, ...]:
    """The exponent of a random monomial of degree 1..maxdeg."""
    deg = rng.randint(1, maxdeg)
    e = [0] * ctx.n
    for _ in range(deg):
        e[rng.randrange(ctx.n)] += 1
    return tuple(e)


def _sequence_pool(rng: random.Random, ctx, maxdeg: int) -> tuple[Exponents, ...]:
    """A candidate for the next element of a regular sequence, as the
    exponents of its terms: x_i + x_j (i != j) with probability 0.3 when
    there are two variables or more, else x_i^d with d in 1..maxdeg."""
    n = ctx.n
    i = rng.randrange(n)
    if n > 1 and rng.random() < 0.3:
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        return mono_power(n, i), mono_power(n, j)
    return (mono_power(n, i, rng.randint(1, maxdeg)),)


def _polynomial(ctx, terms: Sequence[Exponents]) -> Polynomial:
    """The sum of the terms x^e, e in `terms`."""
    return Polynomial(ctx, dict.fromkeys(terms, 1))


def _image(rep: tuple[tuple[int, int], ...], e: Exponents) -> Exponents:
    """The exponent of x^e after each x_v -> s*x_r, for rep[v] = (r, s),
    up to sign: e summed over the variables of each representative."""
    f = [0] * len(e)
    for (r, _), x in zip(rep, e):
        f[r] += x
    return tuple(f)


class _TermChain:
    """A regular chain T = J + (seq) over a monomial J, held in term form:
    seq holds monomials and sums x_k + x_l of variables.

    The sums identify variables up to sign: rep[v] = (r, s) means x_v =
    s*x_r mod T, and each representative r maps to (r, 1).  Substituting
    them maps R/T onto R'/T', where R' is the ring of the representatives
    and T' is a term ideal, and an ideal of terms x^e onto the ideal of the
    x^image(e).  `core` is T' (T itself before any sum, and never naming a
    variable that is not a representative).  An ideal of R/T holds a
    nonzerodivisor exactly when its colon leaves T fixed, so every step and
    `refusal` is one colon of term ideals (`groebner.colon_fixes`).  Each
    step taken stays on the chain it extended (`_steps`), so a prefix drawn
    again costs a dict lookup.
    """

    __slots__ = ("core", "rep", "_steps")

    def __init__(self, core: MonomialIdeal, rep: tuple[tuple[int, int], ...] = ()):
        self.core = core
        self.rep = rep or tuple((v, 1) for v in range(core.ctx.n))
        self._steps: dict[tuple[Exponents, ...], _TermChain | None] = {}

    def step(self, cand: tuple[Exponents, ...]) -> "_TermChain | None":
        """The chain T + (f) for the candidate f whose terms are `cand`, one
        monomial or x_k + x_l; None when f is a zero-divisor on R/T.

        A term x^e is regular exactly when T' : x^image(e) = T'.  A sum
        whose variables have representatives r != r' is regular exactly
        when T' : (x_r, x_r') = T', since the monomial primes of Ass R'/T'
        hold s*x_r + s'*x_r' exactly when they hold both variables; it
        folds x_r' -> -s*s'*x_r.  When r = r' the sum is (s + s')*x_r:
        zero when the signs cancel, else a unit times the term x_r.
        """
        if cand in self._steps:
            return self._steps[cand]
        if len(cand) == 1:
            nxt = self._term(_image(self.rep, cand[0]))
        else:
            (r, s), (r2, s2) = (self.rep[mono_mask(e).bit_length() - 1] for e in cand)
            if r == r2:
                nxt = self._term(_image(self.rep, cand[0])) if s + s2 else None
            elif not colon_fixes(self.core.min_gens, [_image(self.rep, e) for e in cand]):
                nxt = None
            else:
                # s*x_r + s2*x_r2 = 0 gives x_r2 = -s*s2*x_r
                rep = tuple((r, -s * s2 * t) if q == r2 else (q, t) for q, t in self.rep)
                core = MonomialIdeal.from_exponents(
                    self.core.ctx, (_image(rep, g) for g in self.core.min_gens)
                )
                nxt = _TermChain(core, rep)
        self._steps[cand] = nxt
        return nxt

    def _term(self, e: Exponents) -> "_TermChain | None":
        """The step by x^e, e over the representatives."""
        if not colon_fixes(self.core.min_gens, (e,)):
            return None
        core = MonomialIdeal.from_exponents(self.core.ctx, (*self.core.min_gens, e))
        return _TermChain(core, self.rep)

    def refusal(self, extras: Sequence[Exponents]) -> str | None:
        """The reason `link_of(t, I, M, close=True)` refuses a trial t = I +
        (x^e : e in extras), where J + I is this chain, or None when it
        certifies; read off the core by one colon of term ideals.

        T holds I, so b = T : t is T : (extras), which maps to b' = T' :
        (x^image(e) : e in extras).  b is the unit ideal (improper-b)
        exactly when T' holds every mapped extra, as it does when there are
        none.  Otherwise the double colon T : b is the unit ideal
        (improper-a) exactly when b = T, i.e. b' = T'.  In every other case
        both colons are proper and the double colon is colon-stable, so
        `check_linked` certifies.
        """
        folded = [_image(self.rep, e) for e in extras]
        if all(self.core.contains_mono(e) for e in folded):
            return "improper-b"
        if colon_fixes(self.core.min_gens, folded):
            return "improper-a"
        return None


def random_linked_pairs(
    M: CyclicModule, params: GenParams = GenParams(), seed: int = DEFAULT_SEED
) -> Iterator[LinkageCertificate]:
    """Draw up to params.count distinct certified linkage instances over M.

    Each draw picks an M-regular sequence I, throws extra monomials on top to
    get a trial ideal, and takes `link_of(trial, I, M, close=True)`;
    duplicates (same pair mod J) are dropped.  The soft deadline is checked
    once per draw, whether or not the draw takes a colon.  Over R itself
    (J = 0) no pair links through I = 0, since R is a domain: b = 0 : a = 0
    and then a = R, so a bound `seq_len_max` of 0 is refused there.

    A sequence grows one drawn candidate at a time, x_i^d or x_i + x_j, as
    the exponents of its terms.  Over a monomial J the chain is held in
    term form (`_TermChain`), however many sums it holds: `chain.step`
    decides each candidate and `chain.refusal` the trial's extras, each by
    one colon of term ideals, so only a draw that links builds its
    `Polynomial`s, its trial and the `link_of` call, which certifies it.  Over another J the chain
    grows by `regular_chain`, one step at a time, and every draw goes to
    `link_of`.  Every step stays on the chain it extended
    (`_TermChain._steps`, and `Ideal._steps` through `regular_steps`), so
    a prefix drawn again, and the chain that `link_of` grows again to
    certify I, cost dict lookups.
    """
    J = M.ideal
    min_len = 1 if J.is_zero_ideal() else 0
    if params.seq_len_max < min_len:
        raise RingError("seq_len_max must be at least 1 over R: no pair links through I = 0")
    rng = random.Random(seed)
    ctx = M.ctx
    produced = 0
    seen: set = set()
    attempts = ATTEMPTS_PER_PAIR * params.count
    # the chain at J, in term form when J is monomial
    start = J if M.monomial is None else _TermChain(M.monomial)

    for _ in range(attempts):
        if produced >= params.count:
            return
        check_deadline("linked-pair draws")
        want = rng.randint(min_len, params.seq_len_max)
        seq: list[tuple[Exponents, ...]] = []
        chain = start  # J + (seq)
        for _ in range(want):
            for _ in range(12):
                cand = _sequence_pool(rng, ctx, params.maxdeg)
                if isinstance(chain, _TermChain):
                    nxt = chain.step(cand)
                else:
                    nxt = regular_chain([_polynomial(ctx, cand)], chain)
                if nxt is not None:
                    seq.append(cand)
                    chain = nxt
                    break
            else:
                break
        if len(seq) < want:
            continue
        extra_min = 1 if not seq else 0
        exps = [
            _random_monomial(rng, ctx, params.maxdeg)
            for _ in range(rng.randint(extra_min, max(extra_min, params.max_extra)))
        ]
        if isinstance(chain, _TermChain) and chain.refusal(exps) is not None:
            continue
        I = Ideal(ctx, [_polynomial(ctx, c) for c in seq])
        extras = [Polynomial.from_monomial(ctx, e) for e in exps]
        trial = ideal_sum(I, Ideal(ctx, extras)) if extras else I
        try:
            cert = link_of(trial, I, M, close=True)
        except LinkageError:
            continue
        sides = (reduced_gb(cert.quotient_a.ideal), reduced_gb(cert.quotient_b.ideal))
        key = frozenset(sides), reduced_gb(cert.quotient_core.ideal)
        if key in seen:
            continue
        seen.add(key)
        produced += 1
        yield cert
