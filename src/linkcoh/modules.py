"""Modules over Q[x_1..x_n]: syzygies of vectors of free modules,
annihilators of Hom from cyclic quotients, associated prime membership,
the generators of a self-dual Ext of cyclic quotients, Koszul homology
grades, and cyclic modules R/J caching primes, dimension and depth.

Free-module elements are plain tuples of Polynomial.  The module order is
position-over-term with lower positions dominant and degrevlex inside each
position; that makes the tag-block elimination used by the syzygy routine a
textbook module elimination.

Modules run on the one Groebner engine of `groebner.py`, which alone knows
how a vector is encoded for it; this module calls only its vector-level
operations (`module_table` and `module_reduce`, `_syzygies`).  No module
is presented by generators and relations here; that route, with a general
presented-module type, is the test reference (`tests/oracles.py`).  Over a
cyclic M = R/J, Hom(R/a, R/J) is (J : a)/J, so `hom_annihilator` is the
ideal colon J : (J : a), two `ideal_quotient` calls that J and a given by
terms answer by divisibility; Ann R/J (a = 0) is J, and `ass_member`
(a = p) reads it.  Hom is never presented: Ass Hom(R/a, N) = V(a) meet
Ass N for every finite N (Bruns-Herzog, *Cohen-Macaulay Rings*, Exercise
1.2.27), so `ass_member` on R/J answers for Hom too.  The rank-r route,
Hom(R/a, N) by one syzygy run and its annihilator by one colon on N's
relation basis, is the test reference too.  `ext1_selfdual` returns
its Ext by generators alone, the nonzero normal forms of one kernel, and
takes no relation among them.  `module_ass` answers only the self-dual
Ext of monomial a and J, which records (a + J, J) as its `hom_pair`, with
`monomial.hom_ass` and no engine run: by the same identity it is the
primes of Ass R/(a + J) that contain the monomial colon J : (a + J).  l1
calls that kernel itself and builds no module.  `koszul_grade` makes one
syzygy run per level it reads, giving that level's cycles and the
boundaries below, and compares the two reduced bases; the image, which gives the boundaries, is finished
only when a further level compares it, so the last level searched reads
its cycles alone.  Every regular
sequence grows in one routine, `regular_chain`, which returns the ideal
base + (seq) it built.
Its steps are one walk of `groebner.regular_steps`, which keeps each
outcome, the next sum Q + (f) or None, on Q, so a chain grown again from
the same base reads it.  A run of variables over a homogeneous sum not
given by terms is decided by restriction off one plain run under
degrevlex with the run's variables moved last in reverse order
(Bayer-Stillman), with no colon, and the run's last sum keeps its reduced
basis.  Any other step reads the colon Q : f, deciding whether f is
regular, and the sum off one syzygy run.  `koszul_grade` on variables
over such a base, whenever its bounds leave a level open, walks them once,
skipping the variables that are not regular, and searches only the
variables left over the sum of the base and the k kept, adding k: the
one place that walks variables for a grade.  `regseq` logs at debug level
the engine runs it made, read off `groebner.engine_runs`; `grade` on that
route logs them with the number kept and the levels left open.  The
depth of R/J reaches the Koszul layer through one bounded `koszul_grade`
call, or none for a monomial J.  R/J asks whether J is monomial only when
`CyclicModule.monomial` is read, so grade, regseq and assmember over a J
not given by terms build no basis of J for it.

Every syzygy or colon run is taken modulo a Groebner basis, never raw
generators (the engine's basis contract, see `groebner.py`): an ideal
side passes `reduced_gb` or the `ideal_block` built from it, so no run
rebuilds a basis its caller holds.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from .groebner import (
    _NOT_COMPUTED,
    BudgetExceeded,
    Ideal,
    Vec,
    _syzygies,
    engine_runs,
    ideal_block,
    ideal_quotient,
    ideal_sum,
    is_proper,
    is_unit_ideal,
    lies_in_variables,
    module_reduce,
    module_table,
    reduced_gb,
    regular_steps,
    variable_route,
)
from .monomial import (
    ImproperIdealError,
    MinAsshDim,
    MonomialIdeal,
    MonomialPrime,
    PrimeSet,
    as_monomial,
    hom_ass,
    mono_sum,
)
from .simplicial import depth_monomial, log
from .ring import Polynomial, RingCtx, RingError


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
    return _syzygies(vectors, basis, vectors[0][0].ctx, rank, image=False)[0]


def hom_annihilator(a: Ideal, M: CyclicModule) -> Ideal:
    """Ann Hom(R/a, R/J) for M = R/J: Hom is (J : a)/J, so its annihilator
    is the ideal colon J : (J : a), which comes back with its reduced
    degrevlex basis cached.  J itself when a = 0, and the unit ideal when
    Hom is zero (J : a = J)."""
    J = M.ideal
    return ideal_quotient(J, ideal_quotient(J, a))


def ass_member(p: MonomialPrime, M: CyclicModule) -> bool:
    """Whether p is an associated prime of M = R/J: whether Hom(R/p, R/J),
    which p kills, is nonzero after localizing at p, i.e. its annihilator
    lies in p.  A zero Hom has the unit annihilator, which lies in no prime."""
    return all(p.contains_poly(f) for f in hom_annihilator(p.to_ideal(M.ctx), M).gens)


class SelfDualExt(NamedTuple):
    """The self-dual Ext of `ext1_selfdual`, held by its generators: the
    distinct nonzero vectors of (R/(a + J))^t that generate it, in the
    order first seen, and its monomial pair (A, T), or None when a or J is
    not monomial.  `rank` is the number of generators; it is 0 exactly
    when the module is zero."""

    gens: tuple[Vec, ...]
    hom_pair: tuple[MonomialIdeal, MonomialIdeal] | None

    @property
    def rank(self) -> int:
        return len(self.gens)


def module_ass(N: SelfDualExt) -> PrimeSet:
    """All associated primes of a module that records its monomial pair
    (A, T) (`SelfDualExt.hom_pair`): it is Hom_{R/T}(A/T, R/A), whose Ass is
    Supp A/T ∩ Ass R/A, answered by `monomial.hom_ass` with no engine run.
    Any other module is refused."""
    if N.hom_pair is None:
        raise RingError(
            "module_ass answers the self-dual Ext of monomial a and J; this module records no pair"
        )
    return hom_ass(*N.hom_pair)


def ext1_selfdual(a: Ideal, J: Ideal) -> SelfDualExt:
    """Hom_{R'}(a, R'/a) over R' = R/J, by its generators over R.

    For a cyclic argument this module is isomorphic to Ext^1_{R'}(R'/a, R'/a):
    applying Hom(-, R'/a) to 0 -> a -> R' -> R'/a -> 0 gives a connecting map
    Hom(a, R'/a) -> Ext^1(R'/a, R'/a) whose cokernel vanishes and whose kernel
    is the image of Hom(R', R'/a); that image is zero because a*a lies in a.
    A hom is a choice of images of the generators of a, constrained by every
    syzygy among those generators over R'.  So the module is a submodule of
    (R/(a + J))^t, t the number of generators of a; its generators are the
    distinct nonzero normal forms of the kernel vectors modulo the basis of
    (a + J)^t, in the order first seen, and no relation among them is
    computed.  That is two syzygy runs at most, one when a has no syzygy
    over R/J.  For monomial a and J (read through `as_monomial`, so
    generators that are not terms count too) the module records (A, T) =
    (a + J, J) as its `hom_pair`, from which `module_ass` reads its
    associated primes; any other a and J record none, and `module_ass`
    refuses their Ext.  The presentation by generators and relations is the
    test reference (`tests/oracles.py:presented_ext`).
    """
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
    table = module_table(ideal_block(aJ, t), t)
    forms = (module_reduce(v, table) for v in kernel)
    gens = tuple(dict.fromkeys(r for r in forms if not all(f.is_zero() for f in r)))
    return SelfDualExt(gens, None if mono_J is None else (mono_sum(mono_a, mono_J), mono_J))


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
    answer when all of them vanish, or at once when the bounds meet.  The
    defaults 0 and s search every level from s down to 1.
    `CyclicModule.depth` passes the bounds of a Groebner degeneration,
    depth R/in(J) <= depth R/J <= dim R/J, for a homogeneous J not given by
    terms, and 0 and n for any other; the full search is the oracle the
    degeneration is tested against.

    Variables c*x_j over a homogeneous base not given by terms
    (`variable_route`) whose bounds leave a level open are first peeled:
    one `regular_steps` walk that skips the variables that are not regular
    keeps k of them, a regular sequence in the ideal, so the grade is k
    plus the grade of the variables left on R/Q, Q = base + kept, which
    holds the kept ones (Bruns-Herzog, *Cohen-Macaulay Rings*, 1.2.10).
    Only that search is made, on s - k elements with the bounds moved down
    by k.  All s are kept exactly when the sequence is regular, since in
    the graded case a permutation of a regular sequence is regular, and
    the grade is then s; otherwise graded H_1 is nonzero (H_1 = 0 makes
    the sequence regular, Bruns-Herzog Sec. 1.6), and the grade is at most
    s - 1.  The walk is logged at debug level with its engine runs, the
    number kept and the levels it leaves open.  A bound that misses the
    grade answers as the search does, the nearer bound (graded Koszul
    homology is nonzero at every level below the top one).

    `KOSZUL_SIZE_BUDGET` caps the number of elements searched only when a
    level is to be built, so bounds that meet answer for any s, and a walk
    counts only the variables it leaves.
    """
    elements = [f for f in seq if not f.is_zero()]
    if not elements:
        return 0
    if is_unit_ideal(ideal_sum(base, Ideal(base.ctx, elements))):
        raise ImproperIdealError("grade is undefined when the sequence generates everything")
    s = len(elements)
    upper = s if upper is None else upper
    if not 0 <= lower <= upper <= s:
        raise RingError(f"grade bounds {lower}..{upper} do not lie in 0..{s}")
    kept = 0
    if lower < upper and variable_route(base, elements):
        before = engine_runs()
        Q, kept = regular_steps(base, elements, skip=True)
        for f in Q.gens[len(base.gens) :]:
            elements.remove(f)  # one occurrence each: a repeat stays to be searched
        base, s = Q, s - kept
        lower, upper = max(lower - kept, 0), min(upper - kept, max(s - 1, 0))
        runs = _runs(engine_runs() - before)
        log.debug("grade: route revlex, %s, kept %d, %s", runs, kept, _levels(s, lower, upper))
        if upper < 0:  # the kept variables alone pass the caller's upper bound
            return kept + upper
    if lower == upper:
        return kept + upper
    if s > KOSZUL_SIZE_BUDGET:
        raise BudgetExceeded("koszul complex size", s, KOSZUL_SIZE_BUDGET)
    # the run at level i yields the cycles Z_i and the boundaries B_(i-1), which
    # alone are read at level s - lower + 1; B_i lies in Z_i and both are reduced
    # bases under one order, so H_i vanishes exactly when the two lists agree.
    # The last level searched, s - upper + 1, has no level below to compare
    # its boundaries with, so its run finishes the cycles only
    boundary = ideal_block(base, 1)  # B_s = J*K_s
    for i in range(s - lower + (lower > 0), s - upper, -1):
        cols = _koszul_columns(elements, i)
        rank = len(cols[0])
        cycles, image = _syzygies(
            cols, ideal_block(base, rank), base.ctx, rank, image=i > s - upper + 1
        )
        if i <= s - lower and cycles != list(boundary):
            return kept + s - i
        boundary = image
    return kept + upper


def regular_chain(seq: Sequence[Polynomial], base: Ideal) -> Ideal | None:
    """base + (seq), built one element at a time with its basis cached, when
    seq is a regular sequence on R/base (in the given order): each element a
    nonzerodivisor modulo base and those before it (Q : f = Q), the last sum
    proper.  None otherwise.  The steps are one `regular_steps`, which
    keeps each on the ideal it extended, so a chain grown again from the
    same base reads its steps."""
    Q, _ = regular_steps(base, seq)
    return Q if Q is not None and is_proper(Q) else None


def is_regular_sequence(seq: Sequence[Polynomial], base: Ideal) -> bool:
    """Whether seq is a regular sequence on R/base (in the given order).
    Logs the engine runs it made at debug level, read off
    `groebner.engine_runs`."""
    before = engine_runs()
    regular = regular_chain(seq, base) is not None
    log.debug("regseq: %s", _runs(engine_runs() - before))
    return regular


def _runs(k: int) -> str:
    return f"{k} run" if k == 1 else f"{k} runs"


def _levels(s: int, lower: int, upper: int) -> str:
    """The Koszul levels that the grade bounds lower..upper leave open on s
    elements."""
    return f"levels {s - lower} down to {s - upper + 1}" if lower < upper else "no levels"


# ---------------------------------------------------------------------------
# Cyclic modules.

def maximal_ideal(ctx: RingCtx) -> Ideal:
    return Ideal(ctx, [Polynomial.variable(ctx, v) for v in ctx.var_names])


class CyclicModule:
    """The module R/J, with cached primes, dimension and depth at the
    variable ideal.

    `lead_term_ideal()` is the one monomial view of R/J: J's own monomial
    form when J is monomial, else the lead-term ideal in(J) of the reduced
    degrevlex basis, a flat (Groebner) degeneration of J.  The prime record
    of that view (Ass, Min, Assh, dim and height) is the view's own
    `MonomialIdeal.primes`, kept on the ideal and not here: it is
    `primes()` for monomial J, which every prime invariant reads (its Ass
    is decomposed on first read, the rest are vertex covers), and `dim()`
    reads its dimension for every J, since the degeneration keeps the
    dimension.  It can only lower the depth: depth R/in(J) <= depth R/J <=
    dim R/J = dim R/in(J) (Herzog-Hibi, *Monomial Ideals*, Sec. 3.3).  When in(J) is
    squarefree the two depths are equal (Conca-Varbaro, "Square-free
    Groebner degenerations", Invent. Math. 221, 2020).  So for monomial J the
    depth is read off J itself.  Any other J makes one `koszul_grade` call
    on the variables, which searches only the levels its bounds leave open:
    for homogeneous J (read off its reduced basis) depth R/in(J) and, unless
    in(J) is squarefree, dim R/J; for a non-homogeneous J 0 and n, the full
    search, which gives the depth at the ideal of variables, so its
    Cohen-Macaulayness is refused when that depth is below dim R/J.  The
    variables go last first, so where the bounds leave a gap over J's
    generators the walk of `koszul_grade` starts on J's own degrevlex
    basis, already built for in(J), and peels the regular variables off
    before any level is searched.  Each depth logs its route at debug
    level on the `linkcoh` logger: `depth: route monomial`, or `depth:
    route degeneration` or `depth: route koszul` with the levels left open
    (`no levels` when the bounds meet), then the walk's `grade: route
    revlex` line when there is one.

    Nothing is computed when R/J is built: whether J is monomial
    (`monomial`, which needs J's reduced basis when its generators are not
    all terms) is asked on first read and cached, and the monomial view
    starts from that answer.  Grade and regular sequences over R/J never
    read it.
    """

    __slots__ = ("ctx", "ideal", "_monomial", "_lead", "_depth")

    def __init__(self, ctx: RingCtx, J: Ideal) -> None:
        if J.ctx != ctx:
            raise RingError("defining ideal lives in a different ring")
        if not is_proper(J):
            raise ImproperIdealError("cyclic module wants a proper defining ideal")
        self.ctx = ctx
        self.ideal = J
        self._monomial = _NOT_COMPUTED
        self._lead: MonomialIdeal | None = None
        self._depth: int | None = None

    @classmethod
    def full_ring(cls, ctx: RingCtx) -> "CyclicModule":
        return cls(ctx, Ideal.zero(ctx))

    @property
    def monomial(self) -> MonomialIdeal | None:
        """J as a monomial ideal, or None when J is not monomial; computed
        on first read (`as_monomial`: J's reduced basis when its generators
        are not all terms) and cached."""
        if self._monomial is _NOT_COMPUTED:
            self._monomial = as_monomial(self.ideal)
        return self._monomial

    def lead_term_ideal(self) -> MonomialIdeal:
        """J when J is monomial, else in(J) of the reduced degrevlex basis."""
        if self._lead is None:
            self._lead = self.monomial
            if self._lead is None:
                gb = reduced_gb(self.ideal)
                self._lead = MonomialIdeal.from_exponents(self.ctx, [g.lead()[0] for g in gb])
        return self._lead

    def primes(self) -> MinAsshDim:
        """Ass, Min, Assh, dim and height of R/J; needs a monomial J."""
        if self.monomial is None:
            raise RingError("the primes of R/J here need a monomial defining ideal")
        return self.monomial.primes

    def dim(self) -> int:
        return self.lead_term_ideal().primes.dim

    def depth(self) -> int:
        if self._depth is None:
            self._depth = self._compute_depth()
        return self._depth

    def _compute_depth(self) -> int:
        if not lies_in_variables(self.ideal):
            raise ImproperIdealError(
                "depth at the ideal of variables needs J inside it;"
                " a generator of J has a nonzero constant term"
            )
        if self.monomial is not None:
            depth = depth_monomial(self.monomial)
            log.debug("depth: route monomial")
            return depth
        n = self.ctx.n
        if self._graded():
            lead = self.lead_term_ideal()
            lower = depth_monomial(lead)
            upper = lower if lead.is_squarefree() else self.dim()
            route = "degeneration"
        else:
            lower, upper, route = 0, n, "koszul"
        log.debug("depth: route %s, %s", route, _levels(n, lower, upper))
        # last variable first: the walk's first run reads J's degrevlex basis
        return koszul_grade(maximal_ideal(self.ctx).gens[::-1], self.ideal, lower, upper)

    def _graded(self) -> bool:
        """J is monomial or homogeneous, as its reduced degrevlex basis is."""
        return self.monomial is not None or all(g.is_homogeneous() for g in reduced_gb(self.ideal))

    def is_cohen_macaulay(self) -> bool:
        """depth R/J = dim R/J.  For J neither monomial nor homogeneous the
        depth is that of the localization at the ideal of variables, whose
        dimension can be below dim R/J: equality still decides (the local
        ring is Cohen-Macaulay), and a smaller depth is refused."""
        depth, dim = self.depth(), self.dim()
        if depth < dim and not self._graded():
            raise RingError(
                f"Cohen-Macaulayness of a non-graded R/J is undecided: depth {depth} at the ideal"
                f" of variables is below dim R/J = {dim}, which the localization may not reach"
            )
        return depth == dim

    def describe(self) -> str:
        if self.ideal.is_zero_ideal():
            return "R"
        return "R/(" + ", ".join(str(g) for g in self.ideal.gens) + ")"

    def __repr__(self) -> str:
        return f"<cyclic module {self.describe()}>"
