"""Combinatorics of monomial ideals: minimal generators, sums, products and
intersections, irreducible decomposition, associated primes, minimal primes
and radicals.

Everything here is divisibility arithmetic on exponent tuples and bitmasks;
no Groebner machinery is needed (and the general-path results are
cross-checked against these routines in the test suite).  The kernels live
in `groebner`, which answers term ideals with them and never imports this
module.

The minimal primes of R/I are the minimal vertex covers of the supports of
I's generators (Bruns-Herzog, *Cohen-Macaulay Rings*, 5.1), so Min, Assh,
dim and height come from one bitmask enumeration, `min_vertex_covers`, which
`simplicial` also reads the Stanley-Reisner facets from.  Only Ass needs the
irreducible decomposition.  A `MonomialIdeal` owns its prime record: its
`primes` (Min, Assh, dim and height) and `ass` are computed on first read
and kept on the value, so a cyclic module, the claim checkers, `hom_ass`
and the `ass` and `minprimes` operations that hold the same ideal share
one record, and Ass is decomposed at most once per value.
The same enumeration gives the meet of monomial primes (`meet_of_primes`):
a monomial lies in P_S1 ∩ ... ∩ P_Sk exactly when its support meets every
S_i, so the minimal generators are the minimal vertex covers of the S_i.

A monomial prime is held as its vertex mask, from the cover enumeration to
the claim checkers: Min and Assh are built from the cover masks, Ass from
the OR of each component's support, and inclusion, comparability and
support tests are AND / AND-NOT on ints.  The written order (height, then
the sorted indices) is kept; a `PrimeSet` sorts once, on its first
iteration, and `all_monomial_primes` is one tuple per variable count.

`hom_ass` gives Ass Hom_{R/T}(A/T, R/A), the self-dual Ext of claim l1,
as Supp ∩ Ass: the primes of A's kept Ass that contain the monomial colon
T : A, with no Groebner run.  `modules.module_ass` answers with it for the
pair (a + J, J) that `modules.ext1_selfdual` records over monomial data.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache, total_ordering
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import groebner
from .groebner import min_gens_colon, min_gens_intersect, minimalize, monomial_gens
from .ring import (
    Exponents,
    Polynomial,
    RingCtx,
    RingError,
    mono_divides,
    mono_mask,
    mono_mul,
    mono_power,
    mono_text,
)


class ImproperIdealError(RingError):
    """An operation that needs a proper ideal got the whole ring."""


def check_in_ring(ctx: RingCtx, mask: int) -> None:
    """Refuse a vertex mask that names a variable outside ctx: one still
    nonzero after shifting out the ring's n variables."""
    if mask >> ctx.n:
        raise RingError(
            f"monomial prime names variable index {mask.bit_length() - 1},"
            f" outside a ring of {ctx.n} variables"
        )


def _checked_index(value, kind: str) -> int:
    """A variable index or a vertex mask: a nonnegative int, not a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise RingError(f"MonomialPrime wants a nonnegative int {kind}, not {value!r}")
    return value


@total_ordering
class MonomialPrime:
    """A monomial prime ideal, i.e. an ideal generated by a set of variables,
    held as its vertex mask: bit i is set when x_i is a generator.

    The mask is the prime from `min_vertex_covers` to the claim checkers, so
    inclusion and comparability are AND / AND-NOT on ints.  `vars` is the
    derived tuple of indices, ascending.  Equality and hash are by mask; the
    order is (height, vars), the order in which primes are written.
    `MonomialPrime(indices)` takes variable indices in any order, repeats
    allowed, and `from_mask` takes the mask; both refuse anything but
    nonnegative ints.  The empty set is allowed and denotes the zero prime
    (0).
    """

    __slots__ = ("mask", "vars")

    def __init__(self, vars: Iterable[int] = ()) -> None:
        mask = 0
        for i in vars:
            mask |= 1 << _checked_index(i, "variable index")
        self._hold(mask)

    @classmethod
    def from_mask(cls, mask: int) -> "MonomialPrime":
        p = cls.__new__(cls)
        p._hold(_checked_index(mask, "vertex mask"))
        return p

    def _hold(self, mask: int) -> None:
        object.__setattr__(self, "mask", mask)
        object.__setattr__(
            self, "vars", tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        )

    def __setattr__(self, name, value):
        raise AttributeError("MonomialPrime is immutable")

    def __delattr__(self, name):
        raise AttributeError("MonomialPrime is immutable")

    def __reduce__(self):
        return (MonomialPrime.from_mask, (self.mask,))

    @property
    def height(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialPrime):
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __lt__(self, other: "MonomialPrime") -> bool:
        return (self.mask.bit_count(), self.vars) < (other.mask.bit_count(), other.vars)

    def __repr__(self) -> str:
        return f"MonomialPrime(vars={self.vars!r})"

    def contains_poly(self, f: Polynomial) -> bool:
        """Membership of a polynomial: every term must involve a var of p."""
        check_in_ring(f.ctx, self.mask)
        vs = self.vars
        return all(any(e[i] for i in vs) for e in f.term_map())

    def to_ideal(self, ctx: RingCtx) -> groebner.Ideal:
        check_in_ring(ctx, self.mask)
        gens = [Polynomial.variable(ctx, ctx.var_names[i]) for i in self.vars]
        return groebner.Ideal(ctx, gens)

    def render(self, ctx: RingCtx) -> list[str]:
        check_in_ring(ctx, self.mask)
        return [ctx.var_names[i] for i in self.vars]


class PrimeSet:
    """An immutable set of monomial primes with canonical iteration order,
    (height, vars).  The set is sorted on its first iteration and the order
    is kept."""

    __slots__ = ("_primes", "_order")

    def __init__(self, primes: Iterable[MonomialPrime] = ()) -> None:
        self._primes = frozenset(primes)
        self._order: tuple[MonomialPrime, ...] | None = None

    def __iter__(self) -> Iterator[MonomialPrime]:
        if self._order is None:
            self._order = tuple(sorted(self._primes))
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._primes)

    def __contains__(self, p: MonomialPrime) -> bool:
        return p in self._primes

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeSet) and self._primes == other._primes

    def __hash__(self) -> int:
        return hash(self._primes)

    def __and__(self, other: "PrimeSet") -> "PrimeSet":
        return PrimeSet(self._primes & other._primes)

    def __or__(self, other: "PrimeSet") -> "PrimeSet":
        return PrimeSet(self._primes | other._primes)

    def issubset(self, other: "PrimeSet") -> bool:
        return self._primes <= other._primes

    def render(self, ctx: RingCtx) -> list[list[str]]:
        return [p.render(ctx) for p in self]

    def __repr__(self) -> str:
        return "PrimeSet(" + ", ".join(str(p.vars) for p in self) + ")"


class _MonomialIdealFields(NamedTuple):
    ctx: RingCtx
    min_gens: tuple[Exponents, ...]


class MonomialIdeal(_MonomialIdealFields):
    """A monomial ideal held by its (unique) minimal generators, sorted by
    (degree, exponent) as `minimalize` returns them.

    `min_gens` must be that canonical tuple: equality, `is_squarefree` and
    `to_ideal` (which hands it on as the ideal's `monomial_gens`) rely on it.
    Build from other exponents with `from_exponents`; `as_monomial` and the
    kernels of this module return canonical ideals.

    No generators at all means the zero ideal; the single generator 1 means
    the unit ideal.

    The ideal owns its prime record: `primes` (`min_assh_dim`) and `ass`
    (`associated_primes`) are computed on first read and kept on the
    instance, beside the fields, so every reader of one value shares them.
    Equality and hash stay those of the two fields, and a pickled ideal
    comes back equal.  A unit ideal has no record: each read raises the
    builder's refusal again.
    """

    @classmethod
    def from_exponents(cls, ctx: RingCtx, exps: Iterable[Exponents]) -> "MonomialIdeal":
        return cls(ctx, minimalize(exps))

    def is_zero(self) -> bool:
        return not self.min_gens

    def is_unit(self) -> bool:
        return any(not any(e) for e in self.min_gens)

    def is_proper(self) -> bool:
        return not self.is_unit()

    def is_squarefree(self) -> bool:
        return all(all(x <= 1 for x in e) for e in self.min_gens)

    def contains_mono(self, e: Exponents) -> bool:
        return any(mono_divides(g, e) for g in self.min_gens)

    @cached_property
    def primes(self) -> "MinAsshDim":
        return min_assh_dim(self)

    @cached_property
    def ass(self) -> PrimeSet:
        return associated_primes(self)

    def to_ideal(self) -> groebner.Ideal:
        """The ideal of the terms x^e, e in `min_gens`, which are already its
        `monomial_gens` answer."""
        I = groebner.Ideal(self.ctx, [Polynomial.from_monomial(self.ctx, e) for e in self.min_gens])
        I._monomial_gens = self.min_gens
        return I

    def render(self) -> list[str]:
        """The generators as text, as `format_poly` writes the terms x^e."""
        names = self.ctx.var_names
        return [mono_text(names, e) or "1" for e in self.min_gens]

    def __repr__(self) -> str:
        return "<monomial ideal (" + ", ".join(self.render()) + ")>"


def as_monomial(I: groebner.Ideal) -> MonomialIdeal | None:
    """Recognize a general ideal as monomial via its reduced Groebner basis.

    An ideal is monomial exactly when its reduced basis consists of terms, so
    this test is sound and complete; generators that are already terms
    answer without a basis.
    """
    gens = monomial_gens(I)
    if gens is None:
        gens = monomial_gens(groebner.Ideal(I.ctx, groebner.reduced_gb(I)))
    return None if gens is None else MonomialIdeal(I.ctx, gens)


def mono_contains(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """Whether J ⊆ I."""
    return all(I.contains_mono(g) for g in J.min_gens)


def mono_sum(I: MonomialIdeal, *others: MonomialIdeal) -> MonomialIdeal:
    exps = list(I.min_gens)
    for J in others:
        exps.extend(J.min_gens)
    return MonomialIdeal.from_exponents(I.ctx, exps)


def mono_intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    return MonomialIdeal(I.ctx, min_gens_intersect(I.min_gens, J.min_gens))


def mono_product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    exps = [mono_mul(f, g) for f in I.min_gens for g in J.min_gens]
    return MonomialIdeal.from_exponents(I.ctx, exps)


def mono_radical(I: MonomialIdeal) -> MonomialIdeal:
    exps = []
    for g in I.min_gens:
        exps.append(tuple(1 if x else 0 for x in g))
    return MonomialIdeal.from_exponents(I.ctx, exps)


# ---------------------------------------------------------------------------
# Irreducible decomposition and associated primes.

def irreducible_decomposition(I: MonomialIdeal) -> tuple[MonomialIdeal, ...]:
    """The unique irredundant decomposition into irreducible monomial ideals.

    Built one minimal generator at a time (Miller and Sturmfels,
    *Combinatorial Commutative Algebra*, ch. 5; Roune, "The slice algorithm
    for irreducible decomposition of monomial ideals", J. Symb. Comp. 44,
    2009).  A component generated by the pure powers x_i^(a_i) is held as
    its exponent vector a, with a_i = 0 when x_i is absent.  The first
    generator g gives one vector g_i e_i per i in supp g.  Each further
    generator g keeps a component Q that contains it (0 < a_i <= g_i for
    some i) and replaces any other by one copy per i in supp g with a_i set
    to g_i, since Q + (g) = ∩_{i in supp g} (Q + (x_i^(g_i))).

    After each generator the redundant components are dropped.  Irreducible
    monomial ideals are meet-prime: if A ∩ B ⊆ Q while m1 ∈ A and m2 ∈ B lie
    outside Q, then lcm(m1, m2) lies in A ∩ B but not in Q.  So a component
    is redundant exactly when it contains another, and (b) ⊆ (a) exactly
    when 0 < a_i <= b_i wherever b_i != 0.  A kept component cannot contain
    a new one, as it would contain the component that grew, so only the new
    ones are tested.  The soft deadline is checked at each generator and at
    each new component.  The zero ideal is irreducible: its decomposition
    is itself.
    """
    if not I.is_proper():
        raise ImproperIdealError("irreducible decomposition needs a proper ideal")
    if I.is_zero():
        return (I,)
    n = I.ctx.n
    first, *rest = I.min_gens
    vecs = [mono_power(n, i, y) for i, y in enumerate(first) if y]
    for g in rest:
        groebner.check_deadline("irreducible decomposition")
        sup = [(i, y) for i, y in enumerate(g) if y]
        kept, grown = [], set()
        for a in vecs:
            if any(0 < a[i] <= y for i, y in sup):
                kept.append(a)
            else:
                grown.update(a[:i] + (y,) + a[i + 1 :] for i, y in sup)
        pool = [(b, [(i, y) for i, y in enumerate(b) if y]) for b in kept + list(grown)]
        vecs = kept
        for a in grown:
            groebner.check_deadline("irreducible decomposition")
            if not any(b is not a and all(0 < a[i] <= y for i, y in s) for b, s in pool):
                vecs.append(a)
    # a component's minimal generators are its pure powers, by (degree, exponent)
    comps = sorted(
        tuple(sorted((mono_power(n, i, y) for i, y in enumerate(a) if y), key=lambda e: (sum(e), e)))
        for a in vecs
    )
    return tuple(MonomialIdeal(I.ctx, gens) for gens in comps)


def associated_primes(I: MonomialIdeal) -> PrimeSet:
    """Ass of R/I: radicals of the irredundant irreducible components.  The
    zero ideal is its own component, so its one prime is the zero prime."""
    if not I.is_proper():
        raise ImproperIdealError("associated primes need a proper ideal")
    primes = set()
    for comp in irreducible_decomposition(I):
        mask = 0
        for g in comp.min_gens:
            mask |= mono_mask(g)
        primes.add(MonomialPrime.from_mask(mask))
    return PrimeSet(primes)


def min_vertex_covers(supports: Sequence[int], label: str) -> list[int]:
    """The minimal vertex covers of a family of vertex sets, all as int
    bitmasks; with no sets at all, the one cover is the empty set.

    Covers grow by branching on the first set they miss: branch i adds that
    set's i-th vertex not yet banned and bans the vertices of the branches
    before it, so no cover is reached twice.  A cover is minimal when each
    of its vertices is the only cover vertex of some set.  The soft deadline
    is checked once per branch, under `label`, which names the caller's
    work in a budget message.
    """
    covers: list[int] = []

    def grow(cover: int, banned: int) -> None:
        for s in supports:
            if not s & cover:
                break
        else:
            # every set is hit; keep the cover if each of its vertices is
            # the only one hitting some set
            private = 0
            for s in supports:
                t = s & cover
                if not t & (t - 1):
                    private |= t
            if private == cover:
                covers.append(cover)
            return
        branches = s & ~banned
        while branches:
            v = branches & -branches
            branches ^= v
            groebner.check_deadline(label)
            grow(cover | v, banned)
            banned |= v

    grow(0, 0)
    return covers


class MinAsshDim(namedtuple("MinAsshDim", "ideal min_primes assh dim height")):
    """The primes of R/I for a proper monomial I (`ideal`): the minimal
    primes, the top-dimensional ones (Assh), and the dimension and height of
    R/I, all read off the minimal vertex covers.  Ass needs the irreducible
    decomposition of `ideal`; `ass` reads the ideal's own `ass`, which runs
    it on first read and keeps it on the ideal."""

    __slots__ = ()

    @property
    def ass(self) -> PrimeSet:
        return self.ideal.ass


def min_assh_dim(I: MonomialIdeal) -> MinAsshDim:
    """The prime record of R/I: Min is the set of minimal vertex covers of
    the minimal generator supports, the least cover size is the height,
    and Assh is the covers of that size.  The zero ideal's one cover is
    empty: its prime is (0) and its dimension is n.  The soft deadline is
    checked at each branch of the cover enumeration."""
    if I.is_unit():
        raise ImproperIdealError("the primes of R/I need a proper ideal")
    masks = {mono_mask(g) for g in I.min_gens}
    # smallest first: a support is missed only if those inside it are, so
    # the covers never branch on one that contains another
    covers = min_vertex_covers(sorted(masks, key=int.bit_count), "minimal primes")
    height = min(c.bit_count() for c in covers)
    mins = [MonomialPrime.from_mask(c) for c in covers]
    assh = [p for p in mins if p.height == height]
    return MinAsshDim(I, PrimeSet(mins), PrimeSet(assh), I.ctx.n - height, height)


def meet_of_primes(ctx: RingCtx, primes: Iterable[MonomialPrime]) -> MonomialIdeal:
    """The intersection of the monomial primes: a monomial lies in every
    P_S exactly when its support meets every S, so the minimal generators
    are the squarefree monomials of the minimal vertex covers of the prime
    masks.  The meet of no primes is the unit ideal, and one with the zero
    prime, which nothing covers, is the zero ideal.  A prime naming a
    variable outside ctx is refused."""
    masks = sorted({p.mask for p in primes}, key=int.bit_count)
    # the largest mask holds the highest variable named
    check_in_ring(ctx, max(masks, default=0))
    covers = min_vertex_covers(masks, "meet of primes")
    exps = [tuple(c >> i & 1 for i in range(ctx.n)) for c in covers]
    return MonomialIdeal.from_exponents(ctx, exps)


# ---------------------------------------------------------------------------
# The associated primes of Hom_{R/T}(A/T, R/A).

def hom_ass(A: MonomialIdeal, T: MonomialIdeal) -> PrimeSet:
    """Ass of N = Hom_{R/T}(A/T, R/A) for monomial ideals T ⊆ A, A proper,
    with no Groebner run.

    For a finite module M, Ass Hom_R(M, L) = Supp M ∩ Ass L (Bruns-Herzog,
    *Cohen-Macaulay Rings*, Ex. 1.2.27), and Supp A/T = V(T : A).  So the
    answer is the primes of Ass R/A that contain the monomial colon T : A; a
    prime P_S contains a monomial ideal when the support of each minimal
    generator meets S.  The soft deadline is checked by the colon kernel and
    the irreducible decomposition.  A and T from different rings are
    refused.
    """
    if A.ctx != T.ctx:
        raise RingError("ideals live in different rings")
    if not mono_contains(A, T):
        raise RingError("Hom_{R/T}(A/T, R/A) needs T inside A")
    if not A.is_proper():
        raise ImproperIdealError("Hom_{R/T}(A/T, R/A) needs a proper A")
    if mono_contains(T, A):
        return PrimeSet()
    supports = [mono_mask(g) for g in min_gens_colon(T.min_gens, A.min_gens)]
    return PrimeSet(p for p in A.ass if all(s & p.mask for s in supports))


def all_monomial_primes(ctx: RingCtx) -> tuple[MonomialPrime, ...]:
    """Every monomial prime of ctx, in the order (height, vars): one
    immutable tuple per variable count, built once."""
    return _all_primes(ctx.n)


@lru_cache(maxsize=None)
def _all_primes(n: int) -> tuple[MonomialPrime, ...]:
    return tuple(sorted(map(MonomialPrime.from_mask, range(1 << n))))
