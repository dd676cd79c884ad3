"""Prime-theoretic invariants of local cohomology for cyclic modules.

Attached primes of the top local cohomology of M = R/J along an ideal a, and
associated primes of the zeroth formal local cohomology, are computed through
their characterizations over the associated primes of M; no cohomology module
is ever materialized.  Everything is taken at the ideal generated by the
variables, which plays the role of the maximal ideal.

These sets are only enumerable here when J is monomial (so that Ass M
consists of monomial primes).  Every function reads Ass, Min, Assh and dim
of M from `CyclicModule.primes()`, the record kept on J's monomial form
(derived once per ideal value), which refuses a non-monomial J rather than
guess.  Whether a + p is cofinal with the ideal of variables m is asked
locally, at m: whether m is a minimal prime of
a + p, i.e. dim R_m/(a + p) = 0 (Dibaei-Yassemi).  For monomial a that is a
vertex-mask test; for any other a it is `_minimal_over`, which asks that
a + p lie in m and that every saturation (a + p) : x_j^infinity leave m.
So over Q[x], a = (x - x^2) passes the zero prime as a = (x) does: the two
are equal after localizing at (x), and the second zero of x - x^2 is not
seen.

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

from .groebner import Ideal, ideal_sum, is_proper, lies_in_variables, saturate
from .modules import CyclicModule, maximal_ideal
from .monomial import (
    ImproperIdealError,
    MonomialIdeal,
    MonomialPrime,
    PrimeSet,
    as_monomial,
    check_in_ring,
)
from .ring import RingError, mono_mask

GRADED_NOTE = (
    "attached and associated sets are read off prime-theoretic"
    " characterizations at the ideal of variables; no cohomology module is"
    " materialized"
)


def assh(M: CyclicModule) -> PrimeSet:
    """The top-dimensional associated primes of M: the record's Assh, since
    an associated prime inside one of them would have larger dimension."""
    return M.primes().assh


def _minimal_over(K: Ideal) -> bool:
    """Whether the ideal of variables m is a minimal prime of K: K lies in m
    and K : m^infinity does not (`lies_in_variables`: no generator has a
    nonzero constant term).  As m is prime, K : m^infinity, the meet of the
    saturations K : x_j^infinity, leaves m exactly when each of them does,
    so no meet is built and the first variable whose saturation stays in m
    decides."""
    return lies_in_variables(K) and not any(
        lies_in_variables(saturate(K, x)) for x in maximal_ideal(K.ctx).gens
    )


def _becomes_maximal(a: Ideal | MonomialIdeal, M: CyclicModule) -> Callable[[MonomialPrime], bool]:
    """The test of whether a + p is cofinal with the ideal of all variables
    m, asked at m: whether m is a minimal prime of a + p (the unit ideal
    has none), for monomial primes p; a must live in M's ring.  For monomial a, sqrt(a) is generated by the supports of its
    minimal generators, so p passes exactly when a is proper and p holds
    every variable without a pure power among them; that vertex mask is
    found once, for every p.  Any other a asks `_minimal_over(a + p)`."""
    if a.ctx != M.ctx:
        raise RingError("ideals live in different rings")
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
    return lambda p: _minimal_over(ideal_sum(a, p.to_ideal(a.ctx)))


def att_top(a: Ideal | MonomialIdeal, M: CyclicModule) -> PrimeSet:
    """Attached primes of the top local cohomology of M along a.

    These are the top-dimensional associated primes p of M for which a + p is
    cofinal with the ideal of variables.
    """
    cofinal = _becomes_maximal(a, M)
    top = assh(M)
    # the prime record refuses a non-monomial J, so J lies in the ideal of
    # variables and a term ideal a leaves a + J proper when it is proper
    proper = a.is_proper() if isinstance(a, MonomialIdeal) else is_proper(ideal_sum(a, M.ideal))
    if not proper:
        raise ImproperIdealError("att_top wants aM != M")
    return PrimeSet(filter(cofinal, top))


def ass_formal_zeroth(a: Ideal | MonomialIdeal, M: CyclicModule) -> PrimeSet:
    """Associated primes of the zeroth formal local cohomology of M along a:
    the associated primes of M that a pushes up to the maximal ideal."""
    return PrimeSet(filter(_becomes_maximal(a, M), M.primes().ass))


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
