"""Prime-theoretic invariants of local cohomology for cyclic modules.

Attached primes of the top local cohomology of M = R/J along an ideal a, and
associated primes of the zeroth formal local cohomology, are computed through
their characterizations over the associated primes of M; no cohomology module
is ever materialized.  Everything is taken at the ideal generated by the
variables, which plays the role of the maximal ideal.

These sets are only enumerable here when J is monomial (so that Ass M
consists of monomial primes).  Every function reads Ass, Min, Assh and dim
of M from `CyclicModule.primes()`, derived once per module, which refuses a
non-monomial J rather than guess.  Whether a + p is cofinal with the ideal
of variables is a vertex-mask test for monomial a and, for homogeneous a,
whether R/(a + p) has dimension zero (`CyclicModule.dim()`): a graded
a + p is primary to the ideal of variables exactly when V(a + p) = {0}.
An a outside the ideal of variables is the unit ideal there, so no a + p
is cofinal.  Any other a is refused with a RingError: for it the global
question V(a + p) = {0} is not the question at the ideal of variables
(over Q[x], a = (x - x^2) equals (x) after localizing at (x), yet has a
second zero), and a local test, such as a saturation by the variables, is
not built.

The ideal a may be an `Ideal` or a `MonomialIdeal`; a term ideal is read
as it is (its minimal generators give the mask test, and over a monomial J
it is proper against M exactly when it is proper), so a caller holding
one, such as the l08 claim, builds no `Ideal` for it.

The module holds invariants only; `GRADED_NOTE` is the note the claim lab
(`linkcoh.theorems`, which owns the verdict record) attaches to a verdict
that reads these sets.
"""

from __future__ import annotations

from typing import Callable

from .groebner import Ideal, ideal_sum, is_proper, reduced_gb
from .modules import CyclicModule
from .monomial import (
    ImproperIdealError,
    MonomialIdeal,
    MonomialPrime,
    PrimeSet,
    as_monomial,
    check_in_ring,
)
from .ring import RingError, mono_mask, mono_one

GRADED_NOTE = (
    "attached and associated sets are read off prime-theoretic"
    " characterizations at the ideal of variables; no cohomology module is"
    " materialized"
)


def assh(M: CyclicModule) -> PrimeSet:
    """The top-dimensional associated primes of M: the record's Assh, since
    an associated prime inside one of them would have larger dimension."""
    return M.primes().assh


def _becomes_maximal(a: Ideal | MonomialIdeal) -> Callable[[MonomialPrime], bool]:
    """The test of whether a + p is primary to the ideal of all variables,
    which the unit ideal is not, for monomial primes p.  For monomial a,
    sqrt(a) is generated by the supports of its minimal generators, so p
    passes exactly when a is proper and p holds every variable without a
    pure power among them; that vertex mask is found once, for every p.  An
    a with a generator off the ideal of variables passes no p; a homogeneous
    a (read off its reduced basis) asks whether R/(a + p) has dimension
    zero.  Any other a is refused: the test would be global, not local."""
    am = a if isinstance(a, MonomialIdeal) else as_monomial(a)
    if am is not None:
        if am.is_unit():
            return lambda p: False
        needed = (1 << a.ctx.n) - 1
        for e in am.min_gens:
            m = mono_mask(e)
            if not m & (m - 1):
                needed &= ~m
        return lambda p: not needed & ~p.mask
    ctx = a.ctx
    if any(mono_one(ctx.n) in g.term_map() for g in a.gens):
        return lambda p: False
    if not all(g.is_homogeneous() for g in reduced_gb(a)):
        raise RingError(
            "attached and associated sets along a non-graded, non-monomial a are undecided:"
            " V(a + p) = {0} is a global test, not one at the ideal of variables"
        )
    return lambda p: CyclicModule(ctx, ideal_sum(a, p.to_ideal(ctx))).dim() == 0


def att_top(a: Ideal | MonomialIdeal, M: CyclicModule) -> PrimeSet:
    """Attached primes of the top local cohomology of M along a.

    These are the top-dimensional associated primes p of M for which a + p is
    cofinal with the ideal of variables.
    """
    if isinstance(a, MonomialIdeal):
        if a.ctx != M.ctx:
            raise RingError("ideals live in different rings")
        # a proper term ideal lies in the ideal of variables, as a monomial J does
        proper = a.is_proper() and (
            M.monomial is not None or is_proper(ideal_sum(a.to_ideal(), M.ideal))
        )
    else:
        proper = is_proper(ideal_sum(a, M.ideal))
    if not proper:
        raise ImproperIdealError("att_top wants aM != M")
    return PrimeSet(filter(_becomes_maximal(a), assh(M)))


def ass_formal_zeroth(a: Ideal | MonomialIdeal, M: CyclicModule) -> PrimeSet:
    """Associated primes of the zeroth formal local cohomology of M along a:
    the associated primes of M that a pushes up to the maximal ideal."""
    return PrimeSet(filter(_becomes_maximal(a), M.primes().ass))


def height_in_module(p: MonomialPrime, M: CyclicModule) -> int:
    """Height of p over M: the largest gap to a minimal prime below it."""
    pm = p.mask
    check_in_ring(M.ctx, pm)
    below = [q.mask for q in M.primes().min_primes if not q.mask & ~pm]
    if not below:
        raise RingError("prime lies outside the support of the module")
    return max((pm & ~q).bit_count() for q in below)


def is_equidimensional(M: CyclicModule) -> bool:
    """All minimal primes of M cut out quotients of the same dimension."""
    info = M.primes()
    return info.assh == info.min_primes
