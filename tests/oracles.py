"""Reference routes that the package's own routes are tested against.

The package answers each question one way: depth by colon radicals and the
bitmask link scan of `simplicial`, attached primes of top local cohomology
by cofinality in `invariants.att_top`.  The routes here exist only so that
the tests can compare, and share with those no more than noted:

- `SimplicialComplex` holds faces as frozensets; its `link`,
  `faces_of_size` and `is_cone`, and `reduced_cohomology` on exact
  coboundary ranks (by `simplicial._rank_exact`), are the plain
  Stanley-Reisner route.  `complex_of` turns the facet masks of
  `simplicial._facet_masks` into such a complex, so it raises that
  function's messages (`Stanley-Reisner vertex budget`, `Stanley-Reisner
  vertex covers`).
- `polarize` is the standard squarefree polarization: depth R/J is depth of
  the polarized quotient minus the number of variables added.
- `cd_on_quotient` and `att_top_via_cd` read the attached primes of the top
  local cohomology off cohomological dimensions instead of cofinality.
- `radical_is_maximal` asks whether sqrt(K) is the ideal of the variables
  by one radical membership per variable, where `theorems` asks a graded K
  whether R/K has dimension zero (`CyclicModule.dim()`); the two agree on
  graded K, and there with `invariants._minimal_over`.
- `minimal_over_by_colons` asks whether the ideal of the variables m is a
  minimal prime of K through the colons K : m^N, one syzygy colon by m
  each, until the chain stops, where `invariants._minimal_over` saturates K
  by each variable through the Rabinowitsch tag.
- `FPModule` is a finitely presented module R^r / N held by its
  relations, with N's reduced basis (`rel_gb`, one `module_gb` run unless
  its maker holds the basis) and normal forms modulo it (`nf`) cached;
  `present_subquotient` presents a submodule of one by its nonzero normal
  forms and their fresh syzygies.  The package presents no module:
  `presented_ext` presents the self-dual Ext whose generators
  `modules.ext1_selfdual` returns, recording the same monomial pair, so
  the tests read its relations off this presentation and hold the
  package's rank to it.
- `presented_cyclic` presents R/J as the rank-one module R^1 / J, with
  J's reduced basis as its relation basis, for the routes below.
- `hom_kernel` generates Hom(R/a, N), the submodule of a presented N
  that a kills, by one syzygy run on the colon's block builder;
  `fp_hom_annihilator` takes Ann Hom(R/a, N) as one more colon on N's own
  relation basis over their nonzero normal forms, and `fp_ass_member`
  reads p as associated when that annihilator for a = p lies in p.  This
  is the rank-r route, where over a cyclic R/J `modules.hom_annihilator`
  takes the ideal colon J : (J : a) and `modules.ass_member` reads it.
- `hom_cyclic` presents Hom(R/a, N) as a module of its own, which the
  package never does, `presented_annihilator` is the colon of a module's
  relation basis by its unit vectors, and `ass_member_presented` decides an
  associated prime by presenting H = Hom(R/p, N) and taking Ann H so, where
  `fp_hom_annihilator` and `fp_ass_member` take one colon on N's own
  relation basis over the generators of Hom.
- `module_ass_scan` tests every monomial prime over Ann N with
  `fp_ass_member`, where `modules.module_ass` answers the monomial pair
  (A, T) an Ext records as Supp A/T ∩ Ass R/A (`monomial.hom_ass`: the
  primes of Ass R/A that contain the colon T : A) and refuses any other
  module.
- `primes_from_ass` reads Min, Assh, dim and height of R/I off the
  associated primes of the irreducible decomposition, where
  `monomial.min_assh_dim` reads them off the minimal vertex covers.
- `meet_of_primes_fold` intersects monomial primes one at a time, where
  `monomial.meet_of_primes` reads the minimal generators of the meet off
  the minimal vertex covers of the prime masks.
- `cover_tuples` and `ass_tuples` give the same primes as sorted index
  tuples, in the order primes are written: Min by testing every subset of
  the variables as a cover, Ass by collecting the variables of each
  irreducible component.  The package holds primes as vertex masks.
- `format_poly_fractions` writes polynomial text by `Fraction` arithmetic
  on each coefficient, where `ring.format_poly` reads the sign and the
  magnitude off the numerator and the denominator.
- `parse_poly_two_pass` reads polynomial text by matching each whole term
  against one pattern and then scanning the term again for its factors,
  where `ring.parse_poly` matches a sign and then each factor once.
- `homogeneous_pool_by_arithmetic` builds the t6 candidate pool by
  `Polynomial` powers, sums and products, where
  `theorems._homogeneous_pool` writes each candidate's exponent map.

The helpers at the end (`mono_colon`, `s_polynomial`) are small
constructions that several test modules share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from linkcoh.groebner import (
    Ideal,
    ReducerTable,
    Vec,
    _block_diagonal,
    _buchberger,
    _colon,
    _decode,
    _encode,
    _heads,
    ideal_block,
    ideal_equal,
    ideal_quotient,
    ideal_sum,
    is_proper,
    min_gens_colon,
    module_reduce,
    module_table,
    radical_member,
    reduced_gb,
)
from linkcoh.modules import CyclicModule, maximal_ideal, submodule_syzygies, unit_vec
from linkcoh.monomial import (
    ImproperIdealError,
    MonomialIdeal,
    MonomialPrime,
    PrimeSet,
    all_monomial_primes,
    as_monomial,
    associated_primes,
    irreducible_decomposition,
    meet_of_primes,
    mono_intersect,
    mono_radical,
    mono_sum,
)
from linkcoh.ring import DEGREVLEX, ParseError, Polynomial, RingCtx, RingError, mono_one
from linkcoh.simplicial import _facet_masks, _rank_exact, depth_squarefree


# ---------------------------------------------------------------------------
# Stanley-Reisner complexes on frozensets.

def _facet_key(s: frozenset):
    return (len(s), sorted(s))


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its facets over an ambient vertex index set.

    No facets at all is the void complex; the single facet ∅ is the complex
    {∅} (these two are genuinely different: only the latter has reduced
    cohomology, in degree -1).
    """

    n_vertices: int
    facets: tuple[frozenset, ...]

    @classmethod
    def from_facets(cls, n_vertices: int, sets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        cand = [frozenset(s) for s in sets]
        maximal = [s for s in cand if not any(s < t for t in cand)]
        return cls(n_vertices, tuple(sorted(set(maximal), key=_facet_key)))

    def is_void(self) -> bool:
        return not self.facets

    def is_irrelevant(self) -> bool:
        return self.facets == (frozenset(),)

    @property
    def dim(self) -> int:
        if self.is_void():
            return -2  # conventional sentinel; the void complex has no faces
        return max(len(f) for f in self.facets) - 1

    def vertices(self) -> tuple[int, ...]:
        out: set[int] = set()
        for f in self.facets:
            out.update(f)
        return tuple(sorted(out))

    def has_face(self, s: Iterable[int]) -> bool:
        fs = frozenset(s)
        return any(fs <= f for f in self.facets)

    def faces_of_size(self, k: int) -> list[frozenset]:
        """The faces with k vertices, in lexicographic order of their sorted
        vertex tuples; every face lies in a facet, so they are read off the
        facets instead of testing each vertex subset."""
        if self.is_void():
            return []
        if k == 0:
            return [frozenset()]
        subsets = {c for f in self.facets if len(f) >= k for c in combinations(sorted(f), k)}
        return [frozenset(c) for c in sorted(subsets)]

    def link(self, w: Iterable[int]) -> "SimplicialComplex":
        fw = frozenset(w)
        if not self.has_face(fw):
            raise RingError("link requested at a non-face")
        # no maximality filter: the facets are distinct and an antichain, and
        # so are their links, since F - w <= G - w with w <= F, G gives F <= G
        star = [f - fw for f in self.facets if fw <= f]
        return SimplicialComplex(self.n_vertices, tuple(sorted(star, key=_facet_key)))

    def is_cone(self) -> bool:
        """Some vertex lies in every facet (then all reduced cohomology is 0)."""
        if self.is_void() or self.is_irrelevant():
            return False
        common = set(self.facets[0])
        for f in self.facets[1:]:
            common &= f
            if not common:
                return False
        return bool(common)


def complex_of(I: MonomialIdeal) -> SimplicialComplex:
    """The complex whose non-faces are the supports of I's generators, with
    the facets of `simplicial._facet_masks` as sorted frozensets.

    I must be squarefree and proper; the zero ideal gives the full simplex.
    """
    n = I.ctx.n
    facets = [frozenset(i for i in range(n) if m >> i & 1) for m in _facet_masks(I)]
    return SimplicialComplex(n, tuple(sorted(facets, key=_facet_key)))


def _coboundary(faces_k: list[frozenset], faces_k1: list[frozenset]) -> list[list[int]]:
    """Matrix of d: C^k -> C^{k+1}; rows indexed by (k+1)-faces."""
    index = {f: i for i, f in enumerate(faces_k)}
    rows = []
    for g in faces_k1:
        row = [0] * len(faces_k)
        verts = sorted(g)
        for pos, v in enumerate(verts):
            sub = g - {v}
            j = index.get(sub)
            if j is not None:
                row[j] = -1 if pos % 2 else 1
        rows.append(row)
    return rows


class CohomologyProfile:
    """Reduced cohomology ranks over Q, indexed by degree (nonzero only)."""

    __slots__ = ("ranks",)

    def __init__(self, ranks: dict[int, int]) -> None:
        self.ranks = {j: r for j, r in ranks.items() if r}

    def rank(self, j: int) -> int:
        return self.ranks.get(j, 0)

    def nonzero_degrees(self) -> list[int]:
        return sorted(self.ranks)

    def euler_reduced(self) -> int:
        return sum((-1) ** j * r for j, r in self.ranks.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, CohomologyProfile) and self.ranks == other.ranks

    def __repr__(self) -> str:
        return f"CohomologyProfile({self.ranks})"


def reduced_cohomology(cx: SimplicialComplex) -> CohomologyProfile:
    """Full reduced cohomology of the complex, computed exactly."""
    if cx.is_void():
        return CohomologyProfile({})
    if cx.is_irrelevant():
        return CohomologyProfile({-1: 1})
    faces: dict[int, list[frozenset]] = {}
    for k in range(0, cx.dim + 2):
        faces[k] = cx.faces_of_size(k)
    ranks: dict[int, int] = {}
    d_rank: dict[int, int] = {}
    # degree j cochains live on faces of size j+1
    for j in range(-1, cx.dim + 1):
        rows = _coboundary(faces.get(j + 1, []), faces.get(j + 2, []))
        d_rank[j] = _rank_exact(rows) if rows else 0
    for j in range(-1, cx.dim + 1):
        dim_cj = len(faces.get(j + 1, []))
        h = dim_cj - d_rank[j] - d_rank.get(j - 1, 0)
        if h:
            ranks[j] = h
    return CohomologyProfile(ranks)


# ---------------------------------------------------------------------------
# Polarization.

@dataclass(frozen=True)
class Polarization:
    ideal: MonomialIdeal
    ctx: RingCtx
    added: int


def polarize(I: MonomialIdeal) -> Polarization:
    """The standard squarefree polarization; depth shifts by `added`."""
    ctx = I.ctx
    n = ctx.n
    maxexp = [1] * n
    for g in I.min_gens:
        for i, x in enumerate(g):
            if x > maxexp[i]:
                maxexp[i] = x
    names: list[str] = []
    copies: list[tuple[int, ...]] = []
    used = set()

    def uniq(name: str) -> str:
        while name in used:
            name = name + "_"
        used.add(name)
        return name

    for i in range(n):
        if maxexp[i] == 1:
            names.append(uniq(ctx.var_names[i]))
            copies.append((len(names) - 1,))
        else:
            idxs = []
            for j in range(1, maxexp[i] + 1):
                names.append(uniq(f"{ctx.var_names[i]}_{j}"))
                idxs.append(len(names) - 1)
            copies.append(tuple(idxs))
    big = RingCtx(tuple(names))
    exps = []
    for g in I.min_gens:
        e = [0] * big.n
        for i, x in enumerate(g):
            for j in range(x):
                e[copies[i][j]] = 1
        exps.append(tuple(e))
    pol = MonomialIdeal.from_exponents(big, exps)
    return Polarization(pol, big, big.n - n)


# ---------------------------------------------------------------------------
# Attached primes of the top local cohomology through cohomological dimension.

def cd_on_quotient(a: MonomialIdeal, p: MonomialPrime) -> int:
    """Cohomological dimension of a acting on R/p, for a squarefree, p monomial.

    R/(a + p) is the image of a in the polynomial ring on the variables
    outside p (generators meeting p are dropped by minimalization), so
    cd(a, R/p) = n - ht p - depth R/(a + p).
    """
    if not a.is_squarefree():
        raise RingError("cd_on_quotient needs a squarefree ideal")
    if not a.is_proper():
        raise ImproperIdealError("cd_on_quotient needs a proper ideal")
    return a.ctx.n - p.height - depth_squarefree(mono_sum(a, meet_of_primes(a.ctx, [p])))


def att_top_via_cd(a: Ideal, M: CyclicModule) -> PrimeSet:
    """The attached primes of `att_top`, through cohomological dimensions.

    A prime p in Ass M is attached to the top cohomology exactly when a
    still has cohomological dimension dim M on R/p.  Needs a monomial a.
    """
    am = as_monomial(a)
    if am is None:
        raise RingError("the cohomological-dimension route needs a monomial ideal")
    if not is_proper(ideal_sum(a, M.ideal)):
        raise ImproperIdealError("att_top wants aM != M")
    rad = mono_radical(am)
    d = M.dim()
    return PrimeSet(p for p in M.primes().ass if cd_on_quotient(rad, p) == d)


def radical_is_maximal(K: Ideal) -> bool:
    """Whether sqrt(K) is the ideal of the variables: K is proper and every
    variable lies in sqrt(K), a global question, V(K) = {0}."""
    return is_proper(K) and all(radical_member(x, K) for x in maximal_ideal(K.ctx).gens)


def minimal_over_by_colons(K: Ideal) -> bool:
    """Whether the ideal of the variables m is a minimal prime of K, a local
    question: K lies in m, and K : m^infinity does not.  The colons
    K : m^N = (K : m^(N-1)) : m grow with N until two agree, and from then
    on they stay, so the last is K : m^infinity.  An ideal lies in m exactly
    when none of its generators has a constant term."""
    m = maximal_ideal(K.ctx)
    one = mono_one(K.ctx.n)

    def inside(I: Ideal) -> bool:
        return all(one not in g.term_map() for g in I.gens)

    if not inside(K):
        return False
    last, colon = K, ideal_quotient(K, m)
    while not ideal_equal(last, colon):
        last, colon = colon, ideal_quotient(colon, m)
    return not inside(colon)


# ---------------------------------------------------------------------------
# Presented modules.

def module_gb(gens: Sequence[Vec]) -> list[Vec]:
    """Reduced Groebner basis of the submodule spanned by `gens`, under
    position-over-term order with lower positions dominant."""
    if not gens:
        return []
    ctx, rank = gens[0][0].ctx, len(gens[0])
    heads = _heads(rank)
    out = _buchberger([_encode(v, heads) for v in gens], DEGREVLEX, rank)
    return [_decode(g, ctx, rank) for g in out]


def vec_is_zero(v: Vec) -> bool:
    return all(p.is_zero() for p in v)


class FPModule:
    """Cokernel of a map into a free module, held by its relation vectors.

    The module is R^rank / <relations>; a zero rank is the zero module, and
    a negative rank is refused.  `hom_pair` is (A, T) when the module is
    Hom_{R/T}(A/T, R/A) for monomial T ⊆ A by construction, as
    `presented_ext` records it, and None otherwise.
    """

    __slots__ = ("ctx", "rank", "relations", "hom_pair", "_gb", "_table")

    def __init__(self, ctx: RingCtx, rank: int, relations: Iterable[Vec] = ()) -> None:
        if rank < 0:
            raise RingError(f"a free module has a nonnegative rank, not {rank}")
        self.ctx = ctx
        self.rank = rank
        kept = []
        for v in relations:
            if len(v) != rank:
                raise RingError("relation vector has the wrong rank")
            if any(f.ctx != ctx for f in v):
                raise RingError("relation vector lives in a different ring")
            if not vec_is_zero(v):
                kept.append(v)
        self.relations: tuple[Vec, ...] = tuple(kept)
        self.hom_pair: tuple[MonomialIdeal, MonomialIdeal] | None = None
        self._gb: list[Vec] | None = None
        self._table: ReducerTable | None = None

    def rel_gb(self) -> list[Vec]:
        if self._gb is None:
            self._gb = module_gb(self.relations)
        return self._gb

    def nf(self, v: Vec) -> Vec:
        if len(v) != self.rank:
            raise RingError("element has the wrong rank")
        if any(f.ctx != self.ctx for f in v):
            raise RingError("element lives in a different ring")
        if self._table is None:
            self._table = module_table(self.rel_gb(), self.rank)
        return module_reduce(v, self._table)

    def __repr__(self) -> str:
        return f"<fp module rank {self.rank}, {len(self.relations)} relations>"


def _presented_by(ctx: RingCtx, rank: int, basis: list[Vec]) -> FPModule:
    """R^rank / <basis> for a reduced basis, kept as the relation basis."""
    N = FPModule(ctx, rank, basis)
    N._gb = basis
    return N


def _nonzero_forms(gens: Iterable[Vec], N: FPModule) -> list[Vec]:
    """The distinct nonzero normal forms of gens modulo N's relation basis."""
    seen: dict[Vec, None] = {}
    for g in gens:
        r = N.nf(g)
        if not vec_is_zero(r):
            seen.setdefault(r)
    return list(seen)


def present_subquotient(gens: Sequence[Vec], N: FPModule) -> FPModule:
    """Present the submodule of N generated by gens, (<gens> + <relations>)/<relations>,
    by generators and fresh syzygies; divides by N's cached relation basis
    and takes the syzygies modulo it, keeping their reduced basis as its own.
    It records no `hom_pair`."""
    kept = _nonzero_forms(gens, N)
    if not kept:
        return FPModule(N.ctx, 0)
    rels = submodule_syzygies(kept, N.rel_gb())
    return _presented_by(N.ctx, len(kept), rels)


def presented_ext(a: Ideal, J: Ideal) -> FPModule:
    """The Ext of `modules.ext1_selfdual`, Hom_{R'}(a, R'/a) over R' = R/J,
    presented over R: the same kernel in (R/(a + J))^t, presented as a
    subquotient by its nonzero normal forms and the reduced basis of their
    fresh syzygies, one engine run more than `ext1_selfdual` makes.  For
    monomial a and J it records (a + J, J) as its `hom_pair`, as
    `ext1_selfdual` does."""
    if a.ctx != J.ctx:
        raise RingError("ideals live in different rings")
    ctx = a.ctx
    aJ = ideal_sum(a, J)
    if not is_proper(aJ):
        raise ImproperIdealError("self-dual Ext wants a proper ideal")
    t = len(a.gens)
    syz = submodule_syzygies([(p,) for p in a.gens], [(h,) for h in reduced_gb(J)])
    mono_a = as_monomial(a)
    mono_J = None if mono_a is None else as_monomial(J)
    if not syz:
        kernel = [unit_vec(ctx, t, i) for i in range(t)]
    else:
        s = len(syz)
        columns = [tuple(syz[i][j] for i in range(s)) for j in range(t)]
        kernel = submodule_syzygies(columns, ideal_block(aJ, s))
    N = present_subquotient(kernel, _presented_by(ctx, t, ideal_block(aJ, t)))
    if mono_J is not None:
        N.hom_pair = (mono_sum(mono_a, mono_J), mono_J)
    return N


# ---------------------------------------------------------------------------
# Associated primes through a presented Hom.

def _is_zero_module(N: FPModule) -> bool:
    return all(vec_is_zero(N.nf(unit_vec(N.ctx, N.rank, j))) for j in range(N.rank))


def presented_cyclic(M: CyclicModule) -> FPModule:
    """R/J as the rank-one module R^1 / J, which keeps J's reduced basis as
    its relation basis."""
    return _presented_by(M.ctx, 1, ideal_block(M.ideal, 1))


def hom_kernel(a: Ideal, N: FPModule) -> list[Vec]:
    """Vectors of R^r whose images generate Hom(R/a, N), the submodule of N
    that a kills: for generators g_1..g_t of a, the syzygies of the stacked
    vectors (g_1*e_j|..|g_t*e_j), j = 1..r, modulo t block-diagonal copies
    of the relation basis, in one engine run; every e_j when a = 0."""
    if a.ctx != N.ctx:
        raise RingError("ideal and module live in different rings")
    r = N.rank
    if r == 0:
        return []
    if not a.gens:
        return [unit_vec(N.ctx, r, j) for j in range(r)]
    zero = Polynomial.zero(N.ctx)
    columns = [tuple(f if k == j else zero for f in a.gens for k in range(r)) for j in range(r)]
    return submodule_syzygies(columns, _block_diagonal(N.rel_gb(), len(a.gens)))


def fp_hom_annihilator(a: Ideal, N: FPModule) -> Ideal:
    """Ann Hom(R/a, N) without presenting Hom: the colon N : (u_1..u_k) over
    the nonzero normal forms u_i of `hom_kernel`, which generate Hom, in one
    engine run seeded with N's relation basis; the answer comes back with its
    reduced degrevlex basis cached.  The unit ideal when there are none."""
    kept = _nonzero_forms(hom_kernel(a, N), N)
    if not kept:
        return Ideal.unit(N.ctx)
    return _colon(N.ctx, kept, N.rel_gb())


def fp_ass_member(p: MonomialPrime, N: FPModule) -> bool:
    """Whether p is an associated prime of N: whether Hom(R/p, N), which p
    kills, is nonzero after localizing at p, i.e. its annihilator lies in p.
    A zero Hom has the unit annihilator, which lies in no prime."""
    return all(p.contains_poly(f) for f in fp_hom_annihilator(p.to_ideal(N.ctx), N).gens)


def hom_cyclic(a: Ideal, N: FPModule) -> FPModule:
    """Hom(R/a, N), presented as the submodule of N that a kills."""
    return present_subquotient(hom_kernel(a, N), N)


def presented_annihilator(H: FPModule) -> Ideal:
    """Ann H, the colon of H's relation basis by e_1..e_r; the unit ideal at
    rank zero."""
    if H.rank == 0:
        return Ideal.unit(H.ctx)
    return _colon(H.ctx, [unit_vec(H.ctx, H.rank, j) for j in range(H.rank)], H.rel_gb())


def ass_member_presented(p: MonomialPrime, N: FPModule) -> bool:
    """Whether p is an associated prime of N.

    p is associated iff Hom(R/p, N) is nonzero after localizing at p; for the
    module H = Hom(R/p, N), presented, which p kills, that localization is
    nonzero exactly when Ann H is contained in p.
    """
    if _is_zero_module(N):
        return False
    H = hom_cyclic(p.to_ideal(N.ctx), N)
    if _is_zero_module(H):
        return False
    return all(p.contains_poly(f) for f in presented_annihilator(H).gens)


def module_ass_scan(N: FPModule) -> PrimeSet:
    """Ass N for a multigraded N: every monomial prime p over Ann N (Ass lies
    inside the support) for which `fp_ass_member(p, N)` holds."""
    ann = fp_hom_annihilator(Ideal.zero(N.ctx), N)
    return PrimeSet(
        p for p in all_monomial_primes(N.ctx)
        if all(p.contains_poly(f) for f in ann.gens) and fp_ass_member(p, N)
    )


# ---------------------------------------------------------------------------
# Minimal primes by decomposition, meets of primes by intersection, and
# polynomial text by Fraction arithmetic.

def primes_from_ass(I: MonomialIdeal) -> tuple[PrimeSet, PrimeSet, PrimeSet, int, int]:
    """(Ass, Min, Assh, dim, height) of R/I for a proper monomial I: Ass
    from the irreducible decomposition, Min its inclusion-minimal members,
    dim from the least height among them, Assh the minimal primes of that
    dimension.  The zero ideal's one prime is (0), of dimension n."""
    n = I.ctx.n
    ass = associated_primes(I)
    pairs = [(p, set(p.vars)) for p in ass]
    mins = [p for p, ps in pairs if not any(qs < ps for _, qs in pairs)]
    dim = n - min(p.height for p in mins)
    assh = [p for p in mins if n - p.height == dim]
    return ass, PrimeSet(mins), PrimeSet(assh), dim, n - dim


def meet_of_primes_fold(ctx: RingCtx, primes: list[MonomialPrime]) -> MonomialIdeal:
    """The meet of a nonempty list of monomial primes, each written as the
    monomial ideal of its variables and met one at a time by
    `mono_intersect`."""

    def ideal(p: MonomialPrime) -> MonomialIdeal:
        units = [tuple(1 if k == i else 0 for k in range(ctx.n)) for i in p.vars]
        return MonomialIdeal.from_exponents(ctx, units)

    acc = ideal(primes[0])
    for p in primes[1:]:
        acc = mono_intersect(acc, ideal(p))
    return acc


def _written_order(primes: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    return sorted(set(primes), key=lambda t: (len(t), t))


def cover_tuples(I: MonomialIdeal) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], int, int]:
    """(Min, Assh, dim, height) of R/I for a proper monomial I, the primes as
    index tuples in written order: Min the inclusion-minimal subsets of the
    variables that meet every generator's support."""
    n = I.ctx.n
    supports = [{i for i, x in enumerate(g) if x} for g in I.min_gens]
    covers = [
        set(c) for k in range(n + 1) for c in combinations(range(n), k)
        if all(s & set(c) for s in supports)
    ]
    mins = _written_order(tuple(sorted(c)) for c in covers if not any(d < c for d in covers))
    height = min(len(t) for t in mins)
    return mins, [t for t in mins if len(t) == height], n - height, height


def ass_tuples(I: MonomialIdeal) -> list[tuple[int, ...]]:
    """Ass of R/I for a proper monomial I as index tuples in written order:
    the variables of each irreducible component."""
    return _written_order(
        tuple(sorted({i for g in comp.min_gens for i, x in enumerate(g) if x}))
        for comp in irreducible_decomposition(I)
    )


def format_poly_fractions(p: Polynomial) -> str:
    """Polynomial text with terms in decreasing degrevlex order, each
    coefficient's sign and magnitude taken by Fraction comparison, `abs`
    and `str`."""
    if p.is_zero():
        return "0"
    names = p.ctx.var_names
    pieces: list[str] = []
    for k, (e, c) in enumerate(p.terms_sorted()):
        factors = []
        for i, x in enumerate(e):
            if x == 1:
                factors.append(names[i])
            elif x > 1:
                factors.append(f"{names[i]}^{x}")
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = str(mag) + "*" + "*".join(factors)
        else:
            body = str(mag)
        if k == 0:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces)


def parse_poly_two_pass(text: str, ctx: RingCtx) -> Polynomial:
    """Polynomial text read term by term: each term matched whole by a term
    pattern (a sign, then every factor the body can take), then its factors
    found again by `finditer` inside the body; refusals name the column
    where reading stopped, with `ring.parse_poly`'s messages."""
    if not text or text.isspace():
        raise ParseError("empty polynomial text")
    names = ctx.var_names
    variable = "|".join(map(re.escape, sorted(names, key=len, reverse=True)))
    factor_text = (
        r"\s*(?:\*\s*)?"
        r"(?:(?P<num>\d+)(?:/(?P<den>\d+))?"
        rf"|(?P<var>{variable})(?:\s*\^\s*(?P<exp>\d+))?)"
    )
    term = re.compile(rf"\s*(?P<sign>[+-]?)(?P<body>(?:{factor_text})*)\s*")
    factor = re.compile(factor_text)
    index = {name: i for i, name in enumerate(names)}
    terms: dict = {}
    pos = 0
    while pos < len(text):
        m = term.match(text, pos)
        if not m["body"]:
            pos = m.end()
            if pos == len(text):
                raise ParseError("the text ended where a term was expected", pos)
            raise ParseError(f"unexpected {text[pos]!r}", pos)
        num_c, den_c = (-1 if m["sign"] == "-" else 1), 1
        exps = [0] * ctx.n
        for f in factor.finditer(text, m.start("body"), m.end("body")):
            num, den, var, exp = f.groups()
            if var is not None:
                exps[index[var]] += int(exp or 1)
                continue
            d = int(den or 1)
            if not d:
                raise ParseError("division by zero in a coefficient", f.start("num"))
            num_c, den_c = num_c * int(num), den_c * d
        key = tuple(exps)
        v = terms.get(key, 0) + (num_c if den_c == 1 else Fraction(num_c, den_c))
        if v:
            terms[key] = v
        else:
            terms.pop(key, None)
        pos = m.end()
    return Polynomial(ctx, terms)


# ---------------------------------------------------------------------------
# Shared helpers.

def mono_colon(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I : J = the intersection over J's generators of I : (m)."""
    if J.is_zero():
        return MonomialIdeal(I.ctx, (mono_one(I.ctx.n),))
    return MonomialIdeal(I.ctx, min_gens_colon(I.min_gens, J.min_gens))


def permute_exponents(e: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """The exponent of x^e after the ring automorphism x_i -> x_perm[i]:
    the entry of x_i moves to place perm[i]."""
    out = [0] * len(e)
    for i, x in zip(perm, e):
        out[i] = x
    return tuple(out)


def s_polynomial(g: Polynomial, h: Polynomial) -> Polynomial:
    """The S-polynomial of g and h in degrevlex: both leading terms are
    lifted to their lcm with coefficient 1, and the two are subtracted."""
    ctx = g.ctx
    (eg, cg), (eh, ch) = g.lead(), h.lead()
    lcm = tuple(max(a, b) for a, b in zip(eg, eh))

    def lift(f, e, c):
        return f * Polynomial.from_monomial(ctx, tuple(l - a for l, a in zip(lcm, e)), 1 / c)

    return lift(g, eg, cg) - lift(h, eh, ch)


def homogeneous_pool_by_arithmetic(rng, ctx: RingCtx, maxdeg: int) -> list[Polynomial]:
    """The t6 candidate pool, with the same RNG calls in the same order,
    each candidate built by polynomial arithmetic on the variables."""
    out: list[Polynomial] = [Polynomial.variable(ctx, v) for v in ctx.var_names]
    xs = out[: ctx.n]
    for d in range(2, maxdeg + 1):
        out.extend(x**d for x in xs)
    idx = list(range(ctx.n))
    for size in range(2, ctx.n + 1):
        for _ in range(min(4, ctx.n)):
            sub = rng.sample(idx, size)
            out.append(sum((xs[i] for i in sub[1:]), xs[sub[0]]))
    for _ in range(4):
        i, j = rng.randrange(ctx.n), rng.randrange(ctx.n)
        if i == j:
            continue
        c = rng.choice((1, 2, 3, -1))
        out.append(xs[i] + c * xs[j])
        d = rng.randint(2, max(2, maxdeg))
        out.append(xs[i] ** d + xs[j] ** d)
    uniq: dict[Polynomial, None] = {}
    for f in out:
        if not f.is_zero():
            uniq.setdefault(f)
    pool = list(uniq)
    rng.shuffle(pool)
    return pool
