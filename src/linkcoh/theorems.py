"""Batch verification of linkage and local-cohomology claims on randomized
desk-scale instances.

`CLAIMS` is the one place a claim is named: each entry holds its title, its
seeded instance draw, and whether the draw reads a pinned base module.  A
draw builds fully constructed domain objects and hands them to the claim's
checker, which returns a `Verdict` (status, witnesses, notes) that carries
no claim name; `run_claim` fans instances out (optionally across
processes), names each verdict by its key, and merges them
deterministically.  Gates that a claim genuinely needs (monomial data, no
embedded primes, equidimensionality, ...) produce skip verdicts rather than
silently passing; search-based certificates that cannot be closed produce
inconclusive verdicts.  A checker does not recompute what certification
already proves about its instance: the grade of either side of a link is
the length of the regular sequence that links it, so l1 reads it off the
certificate, and p1 reads grade one off a link through a principal ideal.
A p1 draw that cannot link is refused by the term chain of its principal
core (`linkage._TermChain`) before any engine run, with the note `link_of`
gives.
Dimension has one route, `CyclicModule.dim()`: t6 stops its sequence
search at dim M, which bounds the length of any regular sequence, and
reads "dimension zero" off the record of the quotient it leaves.  Term
data stays term data: l08 hands its `MonomialIdeal`s to the attached and
associated sets as they are, and t6 writes each candidate of its pool as
an exponent map rather than by polynomial arithmetic.
"""

from __future__ import annotations

import os
import random
from collections import namedtuple
from typing import NamedTuple

from .groebner import (
    _LIMITS,
    BudgetExceeded,
    Ideal,
    Limits,
    ideal_equal,
    ideal_quotient,
    ideal_sum,
)
from .invariants import (
    GRADED_NOTE,
    ass_formal_zeroth,
    assh,
    att_top,
    height_in_module,
    is_equidimensional,
)
from .linkage import (
    GenParams,
    LinkageCertificate,
    _TermChain,
    _random_monomial,
    check_linked,
    link_of,
    random_linked_pairs,
)
from .modules import (
    CyclicModule,
    maximal_ideal,
    regular_chain,
)
from .monomial import (
    MonomialIdeal,
    MonomialPrime,
    all_monomial_primes,
    hom_ass,
    meet_of_primes,
    mono_contains,
    mono_intersect,
    mono_product,
    mono_radical,
    mono_sum,
)
from .ring import Polynomial, RingCtx, RingError, mono_power, ring

_VAR_NAMES = ("x", "y", "z", "w", "v", "u")
DEFAULT_JOBS = 1  # the worker processes of `run_claim` and of `verify`


def ctx_for(n: int) -> RingCtx:
    if not 1 <= n <= len(_VAR_NAMES):
        raise RingError(f"supported variable counts are 1..{len(_VAR_NAMES)}")
    return ring(*_VAR_NAMES[:n])


class InstanceParams(
    namedtuple("InstanceParams", "n_vars count maxdeg seed module", defaults=(3, 20, 3, 0, None))
):
    """Knobs shared by all samplers; `module` pins the base module when set."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "InstanceParams":
        self = super().__new__(cls, *args, **kwargs)
        ctx_for(self.n_vars)  # refuses a variable count no instance can be drawn over
        for name, least in (("count", 1), ("maxdeg", 1)):
            if getattr(self, name) < least:
                raise RingError(f"{name} must be at least {least}, got {getattr(self, name)}")
        return self


class Verdict(NamedTuple):
    """Outcome of checking a claim on one instance.

    status is one of pass / fail / skip / inconclusive; `holds` reads it as
    True, False, or None when the claim was not actually decided.  The claim
    itself is named only by its key in `CLAIMS`.
    """

    status: str
    witnesses: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    counterexample: str | None = None

    @classmethod
    def passing(cls, witnesses=(), notes=()) -> "Verdict":
        return cls("pass", tuple(witnesses), tuple(notes))

    @classmethod
    def failing(cls, counterexample: str, notes=()) -> "Verdict":
        return cls("fail", (), tuple(notes), counterexample)

    @classmethod
    def skipped(cls, reason: str) -> "Verdict":
        return cls("skip", (), (reason,))

    @classmethod
    def inconclusive(cls, reason: str) -> "Verdict":
        return cls("inconclusive", (), (reason,))

    @property
    def holds(self) -> bool | None:
        return {"pass": True, "fail": False}.get(self.status)

    def as_json(self) -> dict:
        return {
            "holds": self.holds,
            "status": self.status,
            "witnesses": list(self.witnesses),
            "notes": list(self.notes),
            "counterexample": self.counterexample,
        }


# ---------------------------------------------------------------------------
# Samplers.

def _random_proper_monomial_ideal(
    rng: random.Random, ctx: RingCtx, maxdeg: int, max_gens: int = 3
) -> MonomialIdeal:
    """A nonzero proper monomial ideal of up to `max_gens` generators."""
    gens = [_random_monomial(rng, ctx, maxdeg) for _ in range(rng.randint(1, max_gens))]
    return MonomialIdeal.from_exponents(ctx, gens)


def _random_module(
    rng: random.Random, ctx: RingCtx, maxdeg: int, allow_zero: bool = False
) -> CyclicModule:
    if allow_zero and rng.random() < 0.1:
        return CyclicModule.full_ring(ctx)
    return CyclicModule(ctx, _random_proper_monomial_ideal(rng, ctx, maxdeg).to_ideal())


def _pinned_module(params: InstanceParams, ctx: RingCtx) -> CyclicModule | None:
    if params.module is None:
        return None
    return CyclicModule(ctx, Ideal.parse(ctx, params.module))


def _random_prime_antichain(
    rng: random.Random, ctx: RingCtx, k: int, height: int | None
) -> list[MonomialPrime]:
    chosen: list[MonomialPrime] = []
    pool = [p for p in all_monomial_primes(ctx) if 0 < p.height < ctx.n]
    if height is not None:
        pool = [p for p in pool if p.height == height]
    rng.shuffle(pool)
    for p in pool:
        # comparable exactly when the union is one of the two
        if any((q.mask | p.mask) in (p.mask, q.mask) for q in chosen):
            continue
        chosen.append(p)
        if len(chosen) == k:
            break
    return chosen


def bipartition_zero_link(
    rng: random.Random, ctx: RingCtx, equal_height: bool
) -> LinkageCertificate:
    """A certified geometric zero-link from a split antichain of primes.

    With J the intersection of an antichain of monomial primes and a, b the
    intersections over the two halves of any split, the colon of J at either
    side is the other, and the two sides meet exactly in J.
    """
    h = rng.randint(1, ctx.n - 1) if equal_height else None
    primes = _random_prime_antichain(rng, ctx, rng.randint(2, 4), h)
    cut = rng.randint(1, len(primes) - 1)
    a = meet_of_primes(ctx, primes[:cut])
    b = meet_of_primes(ctx, primes[cut:])
    J = mono_intersect(a, b)
    M = CyclicModule(ctx, J.to_ideal())
    return check_linked(a.to_ideal(), b.to_ideal(), Ideal.zero(ctx), M)


def _one_linked_cert(
    M: CyclicModule, rng: random.Random, maxdeg: int, seq_len_max: int = 1
) -> LinkageCertificate | None:
    gen = random_linked_pairs(
        M,
        GenParams(count=2, maxdeg=min(maxdeg, 3), max_extra=2, seq_len_max=seq_len_max),
        seed=rng.randrange(1 << 30),
    )
    for cert in gen:
        return cert
    return None


# ---------------------------------------------------------------------------
# Claim checkers.

def check_height_and_self_ext(cert: LinkageCertificate) -> Verdict:
    """Two facts about a linked pair (a, b) through I over M = R/J.

    Heights: when R/(I+J) has no embedded primes, every associated prime of
    either side (mod J) has module height equal to the grade of that side on
    M.  That grade is g = len(I.gens), which the certificate fixes: I is an
    M-regular sequence inside both sides, and a*b*M lies in IM while bM
    does not, so every element of a is a zero-divisor on M/IM (Peskine and
    Szpiro, Invent. Math. 26, 1974, for M = R), and likewise for b.
    Self-dual Ext: over the base R/T, T = I + J, the Ext module of either
    side A = a + J against its own quotient, Ext^1_{R/T}(R/A, R/A) =
    Hom_{R/T}(A/T, R/A), has exactly the associated primes common to
    R/(a+J) and R/(b+J).  Both are monomial here, so each side's Ass is
    one `hom_ass` call, with no presentation and no engine run; a
    selflinked pair has one side, read once.  That call reads Supp ∩ Ass:
    on a linked pair T : A = (T : a) ∩ (T : J) = b + J, so the check asks
    whether every associated prime of R/(a+J) that contains b + J is also
    associated to R/(b+J), which is still the linkage fact.
    """
    M = cert.module
    if M.monomial is None:
        return Verdict.skipped("needs a monomial base ideal")
    Ma, Mb, core = cert.quotient_a, cert.quotient_b, cert.quotient_core
    if core.monomial is None or Ma.monomial is None or Mb.monomial is None:
        return Verdict.skipped("needs a monomial core and monomial sides")
    if core.primes().ass != core.primes().min_primes:
        # shared hypothesis for both parts; with an embedded prime in the
        # core the Ext module can pick up extra associated primes
        return Verdict.skipped("core has embedded primes")
    notes = [GRADED_NOTE]
    g = len(cert.I.gens)
    sides = (("a", Ma), ("b", Mb))
    for label, quot in sides:
        for p in quot.primes().ass:
            ht = height_in_module(p, M)
            if ht != g:
                return Verdict.failing(
                    f"module height {ht} of {p.render(cert.ctx)} on side {label}"
                    f" differs from grade {g} over {M.describe()}",
                    notes=notes,
                )
    witnesses = [f"heights[{label}]=grade={g}" for label, _ in sides]

    common = Ma.primes().ass & Mb.primes().ass
    # a selflinked pair's two quotients are one side, read once
    for label, quot in sides[: 1 if Mb is Ma else 2]:
        got = hom_ass(quot.monomial, core.monomial)
        if got != common:
            return Verdict.failing(
                f"self-dual Ext of side {label} has associated primes"
                f" {got.render(cert.ctx)}, expected {common.render(cert.ctx)}",
                notes=notes,
            )
    witnesses.append(f"ext-ass={common.render(cert.ctx)}")
    return Verdict.passing(witnesses, notes)


def check_pure_height_split(a: MonomialIdeal) -> Verdict:
    """Splitting the radical by height.

    With h the height of a, the intersection a' of the height-h minimal
    primes and the intersection b of the remaining minimal primes satisfy
    sqrt(a) = a' ∩ b, and a' + b has height at least h + 2.
    """
    info = a.primes
    h = info.height
    rest = [p for p in info.min_primes if p.height > h]
    if not rest:
        return Verdict.passing(
            (f"height={h}",), ("all minimal primes share one height; the split is trivial",)
        )
    ap = meet_of_primes(a.ctx, info.assh)
    b = meet_of_primes(a.ctx, rest)
    if ap.ass != info.assh:
        return Verdict.failing("pure-height part has unexpected associated primes")
    if mono_radical(a) != mono_intersect(ap, b):
        return Verdict.failing("radical differs from the intersection of the two parts")
    joint = mono_sum(ap, b).primes.height
    if not joint > h + 1:
        return Verdict.failing(f"parts meet in height {joint}, not above {h + 1}")
    return Verdict.passing((f"height={h}", f"joint-height={joint}",))


def check_grade_one_links(cert: LinkageCertificate) -> Verdict:
    """Pairs linked through a principal ideal over the full ring are unmixed
    of height one, their monomial radical is principal, and in two variables
    nothing is attached to the top cohomology along them.

    No grade is computed: a certified link a ~ b through (f) has grade one,
    as a*b lies in (f) and b does not, so a consists of zero-divisors on
    R/(f).  Both sides are principal, as R is a UFD: (f) : (g) is
    (f / gcd(f, g)), and (u) ∩ (v) is (lcm(u, v)).
    """
    ctx = cert.ctx
    if not cert.module.ideal.is_zero_ideal():
        return Verdict.skipped("needs the full ring as base module")
    if len(cert.I.gens) != 1:
        return Verdict.skipped("needs a principal core")
    witnesses = []
    # over the full ring each quotient is R/a or R/b itself
    for label, side, quot in (("a", cert.a, cert.quotient_a), ("b", cert.b, cert.quotient_b)):
        sm = quot.monomial
        if sm is None:
            return Verdict.skipped("needs monomial sides")
        if any(p.height != 1 for p in quot.primes().ass):
            return Verdict.failing(f"side {label} has an associated prime of height above one")
        rad = mono_radical(sm)
        if len(rad.min_gens) != 1:
            return Verdict.failing(f"side {label} has a non-principal radical")
        if ctx.n == 2:
            att = att_top(side, cert.module)
            if len(att) != 0:
                return Verdict.failing(
                    f"side {label} attaches {att.render(ctx)} to the top cohomology",
                )
        witnesses.append(f"{label}-radical={rad.render()}")
    return Verdict.passing(witnesses, (GRADED_NOTE,))


def check_att_calculus(a: MonomialIdeal, b: MonomialIdeal, M: CyclicModule) -> Verdict:
    """Attached/associated calculus for two ideals against one module.

    Always: the attached set of the top cohomology along a ∩ b is the
    intersection of the attached sets, and likewise for the associated primes
    of the zeroth formal cohomology.  When additionally a*b kills M: the same
    sets along a + b are the unions.
    """
    if M.monomial is None:
        return Verdict.skipped("needs a monomial base ideal")
    ctx = M.ctx
    cap = mono_intersect(a, b)
    att_a, att_b = att_top(a, M), att_top(b, M)
    if att_top(cap, M) != att_a & att_b:
        return Verdict.failing("attached set of the intersection is not the intersection")
    f_a, f_b = ass_formal_zeroth(a, M), ass_formal_zeroth(b, M)
    if ass_formal_zeroth(cap, M) != f_a & f_b:
        return Verdict.failing("formal zeroth sets fail the intersection rule")
    witnesses = [f"att(a)={att_a.render(ctx)}", f"att(b)={att_b.render(ctx)}"]
    notes = [GRADED_NOTE]
    if mono_contains(M.monomial, mono_product(a, b)):
        plus = mono_sum(a, b)
        if att_top(plus, M) != att_a | att_b:
            return Verdict.failing("attached set of the sum is not the union")
        if ass_formal_zeroth(plus, M) != f_a | f_b:
            return Verdict.failing("formal zeroth sets fail the union rule")
        witnesses.append("product-kills-module")
    return Verdict.passing(witnesses, notes)


def _homogeneous_pool(rng: random.Random, ctx: RingCtx, maxdeg: int) -> list[Polynomial]:
    """Variables and their powers up to maxdeg, sums of 2..n distinct
    variables, and x_i + c*x_j and x_i^d + x_j^d for random i != j, without
    repeats, shuffled; each is built from its exponent map, and no term
    cancels."""
    n = ctx.n

    def poly(*terms: tuple[int, int, int]) -> Polynomial:
        # (i, d, c) is the term c * x_i^d
        return Polynomial(ctx, {mono_power(n, i, d): c for i, d, c in terms})

    out = [poly((i, d, 1)) for d in range(1, maxdeg + 1) for i in range(n)]
    for size in range(2, n + 1):
        for _ in range(min(4, n)):
            out.append(poly(*((i, 1, 1) for i in rng.sample(range(n), size))))
    for _ in range(4):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((1, 2, 3, -1))
        out.append(poly((i, 1, 1), (j, 1, c)))
        d = rng.randint(2, max(2, maxdeg))
        out.append(poly((i, d, 1), (j, d, 1)))
    pool = list(dict.fromkeys(out))
    rng.shuffle(pool)
    return pool


def _greedy_maximal_sequence(M: CyclicModule, pool: list[Polynomial]):
    """Extend a regular sequence greedily, in one pass over the pool, each
    element tried once; certify maximality by depth zero.

    The pass stops at dim M: each element of a regular sequence lowers
    dim R/(J + sequence) by at least one while the sum stays proper (Krull),
    so no candidate after that many can extend it.

    Returns (sequence, J + sequence, certified); certified means the colon at
    the ideal of variables moved, i.e. no regular element exists at all.
    """
    Q = M.ideal
    d = M.dim()
    seq: list[Polynomial] = []
    for f in pool:
        if len(seq) == d:
            break
        nxt = regular_chain([f], Q)
        if nxt is not None:
            seq.append(f)
            Q = nxt
    certified = not ideal_equal(ideal_quotient(Q, maximal_ideal(M.ctx)), Q)
    return seq, Q, certified


def check_cm_criteria(M: CyclicModule, rng: random.Random, maxdeg: int) -> Verdict:
    """Cohen-Macaulayness two ways against the depth/dimension oracle.

    Linkage route: any zero-linked pair over R/(I+J) whose two attached sets
    meet forces that module to be Cohen-Macaulay; it reads the attached
    sets, so it needs a monomial J.  Sequence route: after a
    certified-maximal regular sequence, the quotient has dimension zero
    exactly when the module was Cohen-Macaulay.  That dimension is
    `CyclicModule.dim()` of R/(J + sequence), the quotient's prime record;
    the colon certificate of maximality is independent of it.  For a
    non-graded J the oracle answers Cohen-Macaulay only when the depth at
    the ideal of variables reaches dim R/J, so a certified sequence, whose
    length is that depth, leaves dimension zero.
    """
    ctx = M.ctx
    notes = [GRADED_NOTE]
    witnesses: list[str] = []

    if M.monomial is None:
        notes.append("linkage route skipped: needs a monomial base ideal")
    cert = _one_linked_cert(M, rng, maxdeg) if M.monomial is not None else None
    if cert is not None:
        att_a = att_top(cert.a, M)
        att_b = att_top(cert.b, M)
        if len(att_a & att_b) != 0:
            if not M.is_cohen_macaulay():
                return Verdict.failing(
                    f"attached sets meet in {(att_a & att_b).render(ctx)} but"
                    f" {M.describe()} is not Cohen-Macaulay",
                    notes=notes,
                )
            witnesses.append("linkage-route: forced and confirmed")
        else:
            witnesses.append("linkage-route: attached sets disjoint")

    pool = _homogeneous_pool(rng, ctx, maxdeg)
    seq, Q, certified = _greedy_maximal_sequence(M, pool)
    if not certified:
        return Verdict.inconclusive("pool exhausted before certifying a maximal regular sequence")
    MQ = CyclicModule(ctx, Q)
    dim_zero = MQ.dim() == 0
    oracle = M.is_cohen_macaulay()
    if dim_zero != oracle:
        return Verdict.failing(
            f"maximal sequence of length {len(seq)} leaves dimension-zero={dim_zero}"
            f" but the depth/dimension oracle says CM={oracle} for {M.describe()}",
            notes=notes,
        )
    if MQ.monomial is not None:
        no_embedded = MQ.primes().ass == MQ.primes().min_primes
        if no_embedded != dim_zero:
            return Verdict.failing(
                "embedded-prime view disagrees with the dimension-zero view"
                " after a maximal sequence",
                notes=notes,
            )
        witnesses.append("monomial cross-check: embedded-prime view agrees")
    witnesses.append(f"sequence-route: len={len(seq)}, CM={oracle}")
    return Verdict.passing(witnesses, notes)


def check_equidim_transfer(cert: LinkageCertificate) -> Verdict:
    """Geometric zero-links over an equidimensional module leave both
    quotients equidimensional of the same full dimension."""
    if not cert.geometric or not cert.I.is_zero_ideal():
        return Verdict.skipped("needs a geometric zero-link")
    M = cert.module
    if M.monomial is None:
        return Verdict.skipped("needs a monomial base ideal")
    if not is_equidimensional(M):
        return Verdict.skipped("needs an equidimensional module")
    d = M.dim()
    for label, quot in (("a", cert.quotient_a), ("b", cert.quotient_b)):
        if quot.monomial is None:
            return Verdict.skipped("needs monomial sides")
        dims = {cert.ctx.n - p.height for p in quot.primes().min_primes}
        if dims != {d}:
            return Verdict.failing(
                f"side {label} has quotient dimensions {sorted(dims)}, expected {{{d}}}",
            )
    return Verdict.passing((f"dim={d}",))


def check_top_prime_transfer(cert: LinkageCertificate) -> Verdict:
    """Attached primes of one side of a zero-link against the other side.

    Over a positive-dimensional M: (i) the attached set along a lies among
    the top-dimensional associated primes of M/bM, and symmetrically; (ii) if
    the two quotients have different dimensions, one of the attached sets is
    empty; when the zeroth formal set of a exhausts the associated primes of
    M, the attached set along a is everything and along b is empty; (iii)
    over an equidimensional module with a geometric link, fullness on one
    side is equivalent to fullness on the other.
    """
    ctx = cert.ctx
    if not cert.I.is_zero_ideal():
        return Verdict.skipped("needs a zero-link")
    M = cert.module
    if M.monomial is None:
        return Verdict.skipped("needs a monomial base ideal")
    if M.dim() <= 0:
        return Verdict.skipped("needs positive dimension")
    Ma, Mb = cert.quotient_a, cert.quotient_b
    if Ma.monomial is None or Mb.monomial is None:
        return Verdict.skipped("needs monomial sides")
    att_a = att_top(cert.a, M)
    att_b = att_top(cert.b, M)
    assh_a = assh(Ma)
    assh_b = assh(Mb)
    notes = [GRADED_NOTE]
    if not att_a.issubset(assh_b):
        return Verdict.failing(
            f"attached along a {att_a.render(ctx)} leaves the top primes of M/bM"
            f" {assh_b.render(ctx)}",
            notes=notes,
        )
    if not att_b.issubset(assh_a):
        return Verdict.failing(
            f"attached along b {att_b.render(ctx)} leaves the top primes of M/aM"
            f" {assh_a.render(ctx)}",
            notes=notes,
        )
    witnesses = [f"att(a)={att_a.render(ctx)}", f"att(b)={att_b.render(ctx)}"]
    if Ma.dim() != Mb.dim():
        if len(att_a) != 0 and len(att_b) != 0:
            return Verdict.failing(
                "both attached sets are nonempty although the dimensions differ",
                notes=notes,
            )
        witnesses.append("dimension-gap: one side empty")
    if ass_formal_zeroth(cert.a, M) == M.primes().ass:
        # m + p = m for every p, so the attached set along m is all of Assh
        if att_a != assh(M) or len(att_b) != 0:
            return Verdict.failing(
                "zeroth formal set of a exhausts the associated primes, yet the"
                " attached sets are not everything/nothing",
                notes=notes,
            )
        witnesses.append("exhaustive-case fired")
    if cert.geometric and is_equidimensional(M):
        full_a = att_a == assh_b
        full_b = att_b == assh_a
        if full_a != full_b:
            return Verdict.failing(
                "fullness holds on exactly one side of a geometric link",
                notes=notes,
            )
        witnesses.append(f"fullness-equivalence: {full_a}")
    return Verdict.passing(witnesses, notes)


# ---------------------------------------------------------------------------
# Per-claim instance draws.

def _draw_l1(params: InstanceParams, seed: int, rng: random.Random, ctx: RingCtx) -> Verdict:
    M = _pinned_module(params, ctx) or _random_module(rng, ctx, min(params.maxdeg, 2))
    if M.ideal.is_zero_ideal():
        return Verdict.skipped("needs a proper base module")
    if M.monomial is None:
        return Verdict.skipped("needs a monomial base ideal")
    cert = _one_linked_cert(M, rng, params.maxdeg)
    if cert is None:
        return Verdict.skipped("no linked pair found for this draw")
    return check_height_and_self_ext(cert)


def _draw_t2(params: InstanceParams, seed: int, rng: random.Random, ctx: RingCtx) -> Verdict:
    if ctx.n >= 3 and rng.random() < 0.7:
        # bias toward genuinely mixed heights: meet primes of two different sizes
        low = _random_prime_antichain(rng, ctx, 1, rng.randint(1, ctx.n - 2))
        lm = low[0].mask
        high = [
            p
            for p in _random_prime_antichain(rng, ctx, 2, rng.randint(low[0].height + 1, ctx.n - 1))
            if (p.mask | lm) not in (p.mask, lm)
        ]
        if high:
            acc = meet_of_primes(ctx, low + high)
            extra = _random_proper_monomial_ideal(rng, ctx, params.maxdeg, 1)
            a = mono_intersect(acc, extra) if rng.random() < 0.3 else acc
            return check_pure_height_split(a)
    return check_pure_height_split(
        _random_proper_monomial_ideal(rng, ctx, params.maxdeg, 3)
    )


def _draw_p1(params: InstanceParams, seed: int, rng: random.Random, ctx: RingCtx) -> Verdict:
    f = _random_monomial(rng, ctx, params.maxdeg)
    exps = [_random_monomial(rng, ctx, params.maxdeg) for _ in range(rng.randint(1, 2))]
    # over R the core is (f), one term step from the chain at R
    reason = _TermChain(MonomialIdeal(ctx, ())).step((f,)).refusal(exps)
    if reason == "improper-b":
        return Verdict.skipped("trial collapsed to a unit colon")
    if reason is not None:
        return Verdict.skipped(f"draw not linked: {reason}")
    I = Ideal(ctx, [Polynomial.from_monomial(ctx, f)])
    trial = ideal_sum(I, Ideal(ctx, [Polynomial.from_monomial(ctx, e) for e in exps]))
    return check_grade_one_links(link_of(trial, I, CyclicModule.full_ring(ctx), close=True))


def _draw_l08(params: InstanceParams, seed: int, rng: random.Random, ctx: RingCtx) -> Verdict:
    a = _random_proper_monomial_ideal(rng, ctx, params.maxdeg, 2)
    b = _random_proper_monomial_ideal(rng, ctx, params.maxdeg, 2)
    M = _pinned_module(params, ctx)
    if M is None:
        if seed % 2 == 0:
            J = mono_product(a, b)  # the product gate is exact here
        else:
            J = _random_proper_monomial_ideal(rng, ctx, params.maxdeg, 3)
        M = CyclicModule(ctx, J.to_ideal())
    return check_att_calculus(a, b, M)


def _draw_t6(params: InstanceParams, seed: int, rng: random.Random, ctx: RingCtx) -> Verdict:
    M = _pinned_module(params, ctx) or _random_module(rng, ctx, params.maxdeg, allow_zero=True)
    return check_cm_criteria(M, rng, params.maxdeg)


def _draw_r1(params: InstanceParams, seed: int, rng: random.Random, ctx: RingCtx) -> Verdict:
    if ctx.n < 2:
        return Verdict.skipped("needs at least two variables")
    cert = bipartition_zero_link(rng, ctx, equal_height=rng.random() < 0.7)
    return check_equidim_transfer(cert)


def _draw_l15(params: InstanceParams, seed: int, rng: random.Random, ctx: RingCtx) -> Verdict:
    if ctx.n < 2:
        return Verdict.skipped("needs at least two variables")
    if seed % 2 == 0:
        cert = bipartition_zero_link(rng, ctx, equal_height=rng.random() < 0.6)
    else:
        # over a prime J (every minimal generator a variable) R/J is a domain:
        # J : a = J for every a outside J, so no pair links through I = 0
        M = _random_module(rng, ctx, min(params.maxdeg, 2))
        prime = all(sum(e) == 1 for e in M.monomial.min_gens)
        cert = None if prime else _one_linked_cert(M, rng, params.maxdeg, seq_len_max=0)
        if cert is None:
            return Verdict.skipped("no zero-linked pair found for this draw")
    return check_top_prime_transfer(cert)


class ClaimInfo(NamedTuple):
    """One claim: its title, its instance draw, and whether the draw reads
    `InstanceParams.module` (a pinnable claim) or draws its own base module."""

    title: str
    draw: object
    pinnable: bool = False


CLAIMS: dict[str, ClaimInfo] = {
    "l1": ClaimInfo(
        "linked sides sit at their Koszul grade; self-dual Ext carries the common"
        " associated primes",
        _draw_l1,
        pinnable=True,
    ),
    "t2": ClaimInfo(
        "the radical splits into a pure-height part and a rest meeting in height"
        " at least two more",
        _draw_t2,
    ),
    "p1": ClaimInfo(
        "pairs linked through a principal ideal are unmixed of height one with a"
        " principal radical",
        _draw_p1,
    ),
    "l08": ClaimInfo(
        "attached/associated sets send intersections to intersections, and sums to"
        " unions once the product kills the module",
        _draw_l08,
        pinnable=True,
    ),
    "t6": ClaimInfo(
        "a nonempty common attached set forces Cohen-Macaulayness; maximal regular"
        " sequences detect it by dimension zero",
        _draw_t6,
        pinnable=True,
    ),
    "r1": ClaimInfo(
        "geometric zero-links over an equidimensional module keep both quotients"
        " equidimensional of full dimension",
        _draw_r1,
    ),
    "l15": ClaimInfo(
        "attached primes of one side land among the top primes of the other side's"
        " quotient",
        _draw_l15,
    ),
}


def _run_instance(args: tuple[str, InstanceParams, int, Limits]) -> dict:
    claim, params, seed, limits = args
    info = CLAIMS[claim]
    ctx = ctx_for(params.n_vars)
    token = _LIMITS.set(limits)
    try:
        verdict = info.draw(params, seed, random.Random(seed), ctx)
    except BudgetExceeded as err:
        verdict = Verdict.skipped(f"budget exhausted: {err}")
    finally:
        _LIMITS.reset(token)
    return {"claim": claim, **verdict.as_json(), "seed": seed}


def run_claim(claim: str, params: InstanceParams, jobs: int = DEFAULT_JOBS) -> dict:
    """Check one claim on `params.count` seeded instances and tally verdicts.

    The instance stream depends only on params, never on jobs, so reruns are
    reproducible byte for byte.  At most `jobs` worker processes run, and
    never more than there are instances or CPUs.  Every instance runs under
    the caller's limits, in a worker process too.
    """
    if claim not in CLAIMS:
        raise RingError(f"unknown claim {claim!r}; choose from {sorted(CLAIMS)}")
    if jobs < 1:
        raise RingError(f"jobs must be at least 1, got {jobs}")
    if params.module is not None and not CLAIMS[claim].pinnable:
        *rest, last = (name for name, info in CLAIMS.items() if info.pinnable)
        raise RingError(
            f"claim {claim} draws its own base module;"
            f" only {', '.join(rest)} and {last} take a pinned module"
        )
    limits = _LIMITS.get()
    tasks = [(claim, params, params.seed + k, limits) for k in range(params.count)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1) if jobs > 1 else 1
    if workers > 1:
        # imported here so that a process that never fans out does not pay for it
        from multiprocessing import Pool

        with Pool(processes=workers) as pool:
            verdicts = pool.map(_run_instance, tasks, chunksize=1)
    else:
        verdicts = [_run_instance(t) for t in tasks]
    counts = {"pass": 0, "fail": 0, "skip": 0, "inconclusive": 0}
    for v in verdicts:
        counts[v["status"]] += 1
    return {
        "claim": claim,
        "title": CLAIMS[claim].title,
        "params": params._asdict(),
        "counts": counts,
        "ok": counts["fail"] == 0,
        "verdicts": verdicts,
    }
