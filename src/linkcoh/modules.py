"""Finitely presented modules over Q[x_1..x_n]: Groebner bases of submodules
of free modules, syzygies, Hom from cyclic quotients, annihilators, associated
prime membership, a self-dual Ext computation for cyclic quotients, Koszul
homology grades, and cyclic modules R/J caching primes, dimension and depth.

Free-module elements are plain tuples of Polynomial.  The module order is
position-over-term with lower positions dominant and degrevlex inside each
position; that makes the tag-block elimination used by the syzygy routine a
textbook module elimination.

Modules run on the one Groebner engine of `groebner.py`, which alone knows
how a vector is encoded for it; this module calls only its vector-level
operations (`module_gb`, `module_table` and `module_reduce`, `_syzygies`,
`_block_diagonal`, `_colon`).  `FPModule` tables its relation basis once.
`FPModule.annihilator` is the colon kernel's N : (e_1..e_r), and
`hom_cyclic` takes its input from the colon's block builder: one engine run
each, whatever the rank.  `koszul_grade` makes one syzygy run per level it
reads, giving that level's cycles and the boundaries below, and compares
the two reduced bases.

Every syzygy or colon run is taken modulo a Groebner basis, never raw
generators (the engine's basis contract, see `groebner.py`): the module
side passes `FPModule.rel_gb()`, an ideal side `reduced_gb` or the
`ideal_block` built from it, so no run rebuilds a basis its caller holds.
"""

from __future__ import annotations

import logging
from itertools import combinations
from typing import Iterable, Sequence

from .groebner import (
    BudgetExceeded,
    Ideal,
    ReducerTable,
    Vec,
    _block_diagonal,
    _colon,
    _syzygies,
    check_deadline,
    ideal_block,
    ideal_equal,
    ideal_quotient,
    ideal_sum,
    is_proper,
    is_unit_ideal,
    module_gb,
    module_reduce,
    module_table,
    reduced_gb,
)
from .monomial import (
    ImproperIdealError,
    MinAsshDim,
    MonomialIdeal,
    MonomialPrime,
    PrimeSet,
    all_monomial_primes,
    from_ideal,
    min_assh_dim,
)
from .simplicial import depth_monomial, dim_monomial
from .ring import Polynomial, RingCtx, RingError

log = logging.getLogger("linkcoh")


def vec_is_zero(v: Vec) -> bool:
    return all(p.is_zero() for p in v)


def unit_vec(ctx: RingCtx, rank: int, pos: int) -> Vec:
    z = Polynomial.zero(ctx)
    return tuple(Polynomial.const(ctx, 1) if k == pos else z for k in range(rank))


def submodule_syzygies(vectors: Sequence[Vec], basis: Sequence[Vec]) -> list[Vec]:
    """Generators of {a in R^k : sum a_i vectors[i] lies in <basis>}, where
    `basis` is a Groebner basis (position over degrevlex) of the submodule.

    Each input vector is tagged with a fresh unit coordinate below the main
    block; basis elements whose main block vanished carry exactly the wanted
    coefficient vectors in their tags.  No pair among the elements of
    `basis` is formed.
    """
    k = len(vectors)
    if k == 0:
        return []
    rank = len(vectors[0])
    if rank == 0:
        raise RingError("syzygies of rank-zero vectors are everything; handle that upstream")
    if any(len(v) != rank for v in vectors):
        raise RingError("syzygy input vectors have mixed ranks")
    if any(len(w) != rank for w in basis):
        raise RingError("basis vectors have the wrong rank")
    return _syzygies(vectors, basis, vectors[0][0].ctx, rank)[0]


class FPModule:
    """Cokernel of a map into a free module, held by its relation vectors.

    The module is R^rank / <relations>; a zero rank is the zero module.
    `multigraded` is a promise made by the constructor that the module admits
    a fine Z^n-grading, which is what lets associated primes be found among
    the monomial primes.
    """

    __slots__ = ("ctx", "rank", "relations", "multigraded", "_gb", "_table")

    def __init__(
        self,
        ctx: RingCtx,
        rank: int,
        relations: Iterable[Vec] = (),
        multigraded: bool = False,
    ) -> None:
        self.ctx = ctx
        self.rank = rank
        kept = []
        for v in relations:
            if len(v) != rank:
                raise RingError("relation vector has the wrong rank")
            if not vec_is_zero(v):
                kept.append(v)
        self.relations: tuple[Vec, ...] = tuple(kept)
        self.multigraded = multigraded
        self._gb: list[Vec] | None = None
        self._table: ReducerTable | None = None

    def rel_gb(self) -> list[Vec]:
        if self._gb is None:
            self._gb = module_gb(self.relations)
        return self._gb

    def nf(self, v: Vec) -> Vec:
        if len(v) != self.rank:
            raise RingError("element has the wrong rank")
        if self._table is None:
            self._table = module_table(self.rel_gb(), self.rank)
        return module_reduce(v, self._table)

    def is_zero_elt(self, v: Vec) -> bool:
        return vec_is_zero(self.nf(v))

    def is_zero_module(self) -> bool:
        return all(self.is_zero_elt(unit_vec(self.ctx, self.rank, j)) for j in range(self.rank))

    def annihilator(self) -> Ideal:
        """The colon (relations : (e_1..e_r)), found in one engine run seeded
        with the relation basis; its basis cache holds its reduced degrevlex
        basis."""
        if self.rank == 0:
            return Ideal.unit(self.ctx)
        units = [unit_vec(self.ctx, self.rank, j) for j in range(self.rank)]
        return _colon(self.ctx, units, self.rel_gb())

    def __repr__(self) -> str:
        return f"<fp module rank {self.rank}, {len(self.relations)} relations>"


def present_subquotient(gens: Sequence[Vec], N: FPModule, multigraded: bool = False) -> FPModule:
    """Present the submodule of N generated by gens, (<gens> + <relations>)/<relations>,
    by generators and fresh syzygies; divides by N's cached relation basis
    and takes the syzygies modulo it."""
    seen: dict[Vec, None] = {}
    for g in gens:
        r = N.nf(g)
        if not vec_is_zero(r):
            seen.setdefault(r)
    kept = list(seen)
    if not kept:
        return FPModule(N.ctx, 0, (), multigraded)
    rels = submodule_syzygies(kept, N.rel_gb())
    return FPModule(N.ctx, len(kept), rels, multigraded)


def hom_cyclic(a: Ideal, N: FPModule) -> FPModule:
    """Hom(R/a, N), presented; canonically the submodule of N killed by a.

    For generators g_1..g_t of a, that is the syzygies of the stacked vectors
    (g_1*e_j|..|g_t*e_j), j = 1..r, modulo t block-diagonal copies of the
    relation basis: the colon's input, with r stacked vectors in place of one.
    """
    if a.ctx != N.ctx:
        raise RingError("ideal and module live in different rings")
    ctx = N.ctx
    if N.rank == 0:
        return N
    if not a.gens:
        return N  # Hom(R, N) is N itself
    r = N.rank
    zero = Polynomial.zero(ctx)
    columns = [tuple(f if k == j else zero for f in a.gens for k in range(r)) for j in range(r)]
    kernel = submodule_syzygies(columns, _block_diagonal(N.rel_gb(), len(a.gens)))
    graded = N.multigraded and from_ideal(a) is not None
    return present_subquotient(kernel, N, graded)


def ass_member(p: MonomialPrime, N: FPModule) -> bool:
    """Whether p is an associated prime of N.

    p is associated iff Hom(R/p, N) is nonzero after localizing at p; for the
    module H = Hom(R/p, N), which p kills, that localization is nonzero
    exactly when Ann H is contained in p.
    """
    if N.is_zero_module():
        return False
    H = hom_cyclic(p.to_ideal(N.ctx), N)
    if H.is_zero_module():
        return False
    ann = H.annihilator()
    return all(p.contains_poly(f) for f in ann.gens)


def module_ass(N: FPModule) -> PrimeSet:
    """All associated primes, found by scanning monomial primes over Ann N.

    The soft deadline is checked once per candidate: a candidate outside the
    support starts no engine run, so nothing else would check it."""
    if not N.multigraded:
        raise RingError("associated-prime scan needs a multigraded module")
    if N.is_zero_module():
        return PrimeSet(())
    ann = N.annihilator()
    found = []
    for p in all_monomial_primes(N.ctx, include_zero=True):
        check_deadline("associated-prime scan")
        if not all(p.contains_poly(f) for f in ann.gens):
            continue  # Ass lies inside the support, i.e. over V(Ann)
        if ass_member(p, N):
            found.append(p)
    return PrimeSet(found)


def ext1_selfdual(a: Ideal, J: Ideal) -> FPModule:
    """Hom_{R'}(a, R'/a) over R' = R/J, presented over R.

    For a cyclic argument this module is isomorphic to Ext^1_{R'}(R'/a, R'/a):
    applying Hom(-, R'/a) to 0 -> a -> R' -> R'/a -> 0 gives a connecting map
    Hom(a, R'/a) -> Ext^1(R'/a, R'/a) whose cokernel vanishes and whose kernel
    is the image of Hom(R', R'/a); that image is zero because a*a lies in a.
    A hom is a choice of images of the generators of a, constrained by every
    syzygy among those generators over R'.
    """
    if a.ctx != J.ctx:
        raise RingError("ideals live in different rings")
    ctx = a.ctx
    aJ = ideal_sum(a, J)
    if not is_proper(aJ):
        raise ImproperIdealError("self-dual Ext wants a proper ideal")
    if not a.gens:
        return FPModule(ctx, 0, ())
    t = len(a.gens)
    syz = submodule_syzygies([(p,) for p in a.gens], [(h,) for h in reduced_gb(J)])
    graded = from_ideal(a) is not None and from_ideal(J) is not None
    if not syz:
        kernel = [unit_vec(ctx, t, i) for i in range(t)]
    else:
        s = len(syz)
        columns = [tuple(syz[i][j] for i in range(s)) for j in range(t)]
        kernel = submodule_syzygies(columns, ideal_block(aJ, s))
    return present_subquotient(kernel, FPModule(ctx, t, ideal_block(aJ, t)), graded)


# ---------------------------------------------------------------------------
# Koszul complexes and grade.

KOSZUL_SIZE_BUDGET = 10


def _koszul_columns(elements: Sequence[Polynomial], i: int) -> list[Vec]:
    """Columns of the Koszul differential d_i : K_i -> K_(i-1) on `elements`:
    one per i-subset T of their indices, in `combinations` order, holding
    (-1)^k times the element of T's k-th member at T minus that member.  A
    level above len(elements) has no columns.  The entries are signed
    elements at places fixed by the subsets, so d_(i-1) d_i = 0 on
    independent variables, which a test checks, gives it everywhere."""
    s = len(elements)
    target = {T: k for k, T in enumerate(combinations(range(s), i - 1))}
    zero = Polynomial.zero(elements[0].ctx)
    cols = []
    for T in combinations(range(s), i):
        col = [zero] * len(target)
        for k, v in enumerate(T):
            col[target[T[:k] + T[k + 1 :]]] = -elements[v] if k % 2 else elements[v]
        cols.append(tuple(col))
    return cols


def koszul_grade(
    seq: Sequence[Polynomial], base: Ideal, lower: int = 0, upper: int | None = None
) -> int:
    """grade of the ideal generated by seq on R/base, via Koszul homology.

    Equals s minus the top nonvanishing homological degree of the Koszul
    complex on the s nonzero given elements, tensored with R/base.  The
    search runs top down and stops at the first nonzero homology.

    `lower` <= grade <= `upper` are bounds the caller already knows: the
    levels above s - lower vanish and level s - upper does not, so only the
    levels s - lower down to s - upper + 1 are searched, and `upper` is the
    answer when all of them vanish.  The defaults 0 and s search every level
    from s down to 1.  `CyclicModule.depth` passes the bounds of a Groebner
    degeneration, depth R/in(J) <= depth R/J <= dim R/J; the unbounded search
    is the oracle that route is tested against.
    """
    elements = [f for f in seq if not f.is_zero()]
    if not elements:
        return 0
    if is_unit_ideal(ideal_sum(base, Ideal(base.ctx, elements))):
        raise ImproperIdealError("grade is undefined when the sequence generates everything")
    s = len(elements)
    if s > KOSZUL_SIZE_BUDGET:
        raise BudgetExceeded("koszul complex size", s, KOSZUL_SIZE_BUDGET)
    if upper is None:
        upper = s
    if not 0 <= lower <= upper <= s:
        raise RingError(f"grade bounds {lower}..{upper} do not lie in 0..{s}")
    if lower == upper:
        return upper
    # the run at level i yields the cycles Z_i and the boundaries B_(i-1), which
    # alone are read at level s - lower + 1; B_i lies in Z_i and both are reduced
    # bases under one order, so H_i vanishes exactly when the two lists agree
    boundary = ideal_block(base, 1)  # B_s = J*K_s
    for i in range(s - lower + (lower > 0), s - upper, -1):
        cols = _koszul_columns(elements, i)
        rank = len(cols[0])
        cycles, image = _syzygies(cols, ideal_block(base, rank), base.ctx, rank)
        if i <= s - lower and cycles != list(boundary):
            return s - i
        boundary = image
    return upper


def is_regular_on(X: Ideal, Q: Ideal) -> bool:
    """Whether Q : X = Q, i.e. X lies in no associated prime of R/Q; for
    X = (f), whether f is a nonzerodivisor on R/Q."""
    return ideal_equal(ideal_quotient(Q, X), Q)


def is_regular_sequence(seq: Sequence[Polynomial], base: Ideal) -> bool:
    """Whether seq is a regular sequence on R/base (in the given order)."""
    Q = base
    for f in seq:
        step = Ideal(Q.ctx, [f])
        if not is_regular_on(step, Q):
            return False
        Q = ideal_sum(Q, step)
    return is_proper(Q)


# ---------------------------------------------------------------------------
# Cyclic modules.

def maximal_ideal(ctx: RingCtx) -> Ideal:
    return Ideal(ctx, [Polynomial.variable(ctx, v) for v in ctx.var_names])


class CyclicModule:
    """The module R/J, with cached primes, dimension and depth at the
    variable ideal.

    For monomial J, `primes()` is the one record of Ass, Min, Assh, dim and
    height of R/J, which `dim()` and every prime invariant read, and depth is
    read off J itself.  For J with homogeneous generators, dimension and
    depth come from the lead-term ideal in(J) of the reduced degrevlex basis,
    a flat (Groebner) degeneration of J, which keeps the dimension and can
    only lower the depth: depth R/in(J) <= depth R/J <= dim R/J = dim R/in(J)
    (Herzog-Hibi, *Monomial Ideals*, Sec. 3.3).  When in(J) is squarefree the
    two depths are equal (Conca-Varbaro, "Square-free Groebner degenerations",
    Invent. Math. 221, 2020).  So depth R/in(J) is the answer when in(J) is
    squarefree or reaches the dimension; otherwise the Koszul search runs only
    over the levels those two bounds leave open.  A non-homogeneous J takes
    the full Koszul search.
    Each depth logs its route at debug level on the `linkcoh` logger:
    `monomial`, `degeneration`, `degeneration+koszul` with its levels, or
    `koszul`.
    """

    __slots__ = ("ctx", "ideal", "monomial", "_primes", "_lead", "_dim", "_depth")

    def __init__(self, ctx: RingCtx, J: Ideal) -> None:
        if J.ctx != ctx:
            raise RingError("defining ideal lives in a different ring")
        if not is_proper(J):
            raise ImproperIdealError("cyclic module wants a proper defining ideal")
        self.ctx = ctx
        self.ideal = J
        self.monomial: MonomialIdeal | None = from_ideal(J)
        self._primes: MinAsshDim | None = None
        self._lead: MonomialIdeal | None = None
        self._dim: int | None = None
        self._depth: int | None = None

    @classmethod
    def full_ring(cls, ctx: RingCtx) -> "CyclicModule":
        return cls(ctx, Ideal.zero(ctx))

    def lead_term_ideal(self) -> MonomialIdeal:
        if self._lead is None:
            gb = reduced_gb(self.ideal)
            self._lead = MonomialIdeal.from_exponents(self.ctx, [g.lead()[0] for g in gb])
        return self._lead

    def primes(self) -> MinAsshDim:
        """Ass, Min, Assh, dim and height of R/J; needs a monomial J."""
        if self.monomial is None:
            raise RingError("the primes of R/J here need a monomial defining ideal")
        if self._primes is None:
            self._primes = min_assh_dim(self.monomial)
        return self._primes

    def dim(self) -> int:
        if self.monomial is not None:
            return self.primes().dim
        if self._dim is None:
            # Krull dimension survives the flat degeneration to the lead-term ideal
            self._dim = dim_monomial(self.lead_term_ideal())
        return self._dim

    def depth(self) -> int:
        if self._depth is None:
            self._depth = self._compute_depth()
        return self._depth

    def _compute_depth(self) -> int:
        mono = self.monomial
        if mono is None and all(g.is_homogeneous() for g in self.ideal.gens):
            mono = self.lead_term_ideal()
        gens = [Polynomial.variable(self.ctx, v) for v in self.ctx.var_names]
        n = len(gens)
        if mono is not None:
            d0 = depth_monomial(mono)
            if self.monomial is not None:
                log.debug("depth: route monomial")
                return d0
            dim = self.dim()
            if mono.is_squarefree() or d0 == dim:
                log.debug("depth: route degeneration")
                return d0
            log.debug(
                "depth: route degeneration+koszul, levels %d down to %d", n - d0, n - dim + 1
            )
            return koszul_grade(gens, self.ideal, d0, dim)
        log.debug("depth: route koszul")
        return koszul_grade(gens, self.ideal)

    def is_cohen_macaulay(self) -> bool:
        return self.depth() == self.dim()

    def to_fp(self) -> FPModule:
        rels = [(g,) for g in self.ideal.gens]
        return FPModule(self.ctx, 1, rels, multigraded=self.monomial is not None)

    def describe(self) -> str:
        if self.ideal.is_zero_ideal():
            return "R"
        return "R/(" + ", ".join(str(g) for g in self.ideal.gens) + ")"

    def __repr__(self) -> str:
        return f"<cyclic module {self.describe()}>"
