"""Module algebra: module GBs, syzygies, Hom, Ext, Koszul grade.

Includes regression anchors for two bugs worth never reintroducing: a
module-GB S-pair schedule that missed elements whose lead position moves
during reduction (visible as order-dependent Koszul grade and as missing
syzygies), and the Ext-via-Hom computation collapsing to zero on
(z, x^2) over R/(z, x^3).
"""

import itertools
import logging
import math
import random

import pytest

from engine_routes import (
    division_koszul_grade,
    engine_gb,
    engine_quotient,
    rabinowitsch_is_maximal,
)
import oracles
from oracles import (
    FPModule,
    ass_member_presented,
    fp_ass_member,
    fp_hom_annihilator,
    hom_cyclic,
    module_ass_scan,
    module_gb,
    permute_exponents,
    presented_annihilator,
    presented_cyclic,
    presented_ext,
    radical_is_maximal,
    vec_is_zero,
)
from linkcoh import cli, groebner, modules, monomial
from linkcoh.groebner import (
    BudgetExceeded,
    Ideal,
    _gb,
    _syzygies,
    ideal_equal,
    ideal_intersect,
    ideal_quotient,
    ideal_sum,
    is_proper,
    is_unit_ideal,
    module_reduce,
    module_table,
    reduced_gb,
    set_limits,
)
from linkcoh.modules import (
    CyclicModule,
    KOSZUL_SIZE_BUDGET,
    _koszul_columns,
    ass_member,
    ext1_selfdual,
    hom_annihilator,
    ideal_block,
    is_regular_sequence,
    koszul_grade,
    maximal_ideal,
    module_ass,
    regular_chain,
    submodule_syzygies,
    unit_vec,
)
from linkcoh.monomial import (
    ImproperIdealError,
    MonomialIdeal,
    MonomialPrime,
    PrimeSet,
    all_monomial_primes,
    associated_primes,
    min_assh_dim,
)
from linkcoh.ops import OPS
from linkcoh.ring import DEGREVLEX, Polynomial, RingError, mono_divides, parse_poly, ring
from linkcoh.simplicial import depth_monomial


def P(ctx, text):
    return parse_poly(text, ctx)


def I_of(ctx, *texts):
    return Ideal(ctx, [parse_poly(t, ctx) for t in texts])


def vec(ctx, *texts):
    return tuple(parse_poly(t, ctx) for t in texts)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(f, v):
    return tuple(f * p for p in v)


def submodule_member(v, gb):
    """Whether v lies in the submodule with Groebner basis gb."""
    return vec_is_zero(module_reduce(v, module_table(gb, len(v))))


# ---------------------------------------------------------------------------
# Submodule membership and syzygies.

def test_submodule_membership():
    ctx = ring("x", "y")
    gens = [vec(ctx, "x", "0"), vec(ctx, "y", "x")]
    gb = module_gb(gens)
    assert submodule_member(vec(ctx, "x*y", "x^2"), gb)
    assert submodule_member(vec(ctx, "x^2", "0"), gb)
    assert submodule_member(vec(ctx, "0", "x^2"), gb)
    assert not submodule_member(vec(ctx, "0", "x"), gb)
    assert not submodule_member(vec(ctx, "y", "0"), gb)


def test_syzygies_are_relations():
    ctx = ring("x", "y", "z")
    vectors = [vec(ctx, "x*y"), vec(ctx, "y*z"), vec(ctx, "x*z")]
    syz = submodule_syzygies(vectors, [])
    assert syz
    for s in syz:
        total = Polynomial.zero(ctx)
        for c, v in zip(s, vectors):
            total = total + c * v[0]
        assert total.is_zero()


def test_koszul_syzygy_is_found():
    ctx = ring("x", "y")
    syz = submodule_syzygies([vec(ctx, "x"), vec(ctx, "y")], [])
    gb = module_gb(syz)
    assert submodule_member(vec(ctx, "y", "-x"), gb)


def test_syzygy_completeness_regression():
    # leads that migrate to a later position during reduction must still be
    # S-paired at their own position; these two kernel elements went missing
    ctx = ring("x", "y", "z")
    vectors = [vec(ctx, "z"), vec(ctx, "x^2")]
    modulo = ideal_block(I_of(ctx, "z", "x^3"), 1)
    syz = submodule_syzygies(vectors, modulo)
    gb = module_gb(syz)
    assert submodule_member(vec(ctx, "0", "x"), gb)
    assert submodule_member(vec(ctx, "0", "z"), gb)
    assert submodule_member(vec(ctx, "x", "0"), gb)


def test_module_gb_idempotent_membership():
    ctx = ring("x", "y")
    gens = [vec(ctx, "x^2", "y"), vec(ctx, "y^2", "x")]
    gb = module_gb(gens)
    for g in gens:
        assert submodule_member(g, gb)
    combo = vec_add(vec_scale(P(ctx, "y"), gens[0]), vec_scale(P(ctx, "x"), gens[1]))
    assert submodule_member(combo, gb)


def test_module_spair_count_is_pinned():
    # S-vectors charged under the normal strategy with the chain criterion;
    # a change to pair selection or pruning must update this count
    ctx = ring("x", "y", "z")
    gens = [
        vec(ctx, "x^2-y*z", "x*y"),
        vec(ctx, "y^2-x*z", "y*z"),
        vec(ctx, "z^2-x*y", "x*z"),
        vec(ctx, "x*y*z", "x^2+y^2"),
    ]
    with set_limits(max_spairs=46):
        gb = module_gb(gens)
    assert all(submodule_member(g, gb) for g in gens)
    with set_limits(max_spairs=45):
        with pytest.raises(BudgetExceeded):
            module_gb(gens)


def test_module_gb_engine_properties():
    # random vectors of rank 1-3 over 2-3 variables, components of degree <= 2
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def polys(draw, ctx):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            e = draw(st.lists(st.integers(0, 2), min_size=ctx.n, max_size=ctx.n))
            if sum(e) <= 2:
                terms[tuple(e)] = draw(st.sampled_from([-2, -1, 1, 3]))
        return Polynomial(ctx, terms)

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyz"[: data.draw(st.integers(2, 3))])
        rank = data.draw(st.integers(1, 3))
        gens = data.draw(st.lists(st.tuples(*[polys(ctx)] * rank), min_size=1, max_size=3))
        gb = module_gb(gens)
        assert all(submodule_member(g, gb) for g in gens)
        leads = []
        for v in gb:
            pos = next(k for k, p in enumerate(v) if not p.is_zero())
            leads.append((pos, v[pos].lead()[0]))
        for (p, e), (q, f) in itertools.permutations(leads, 2):
            assert p != q or not mono_divides(e, f)
        polys_in = [p for v in gens for p in v if not p.is_zero()]
        if polys_in:
            as_ideal = [v[0] for v in module_gb([(p,) for p in polys_in])]
            assert as_ideal == list(reduced_gb(Ideal(ctx, polys_in)))

    check()


def test_module_reduce_scales_and_lands_in_the_submodule():
    # module_reduce clears denominators and divides by the product s of its
    # step multipliers: a wrong or dropped s breaks linearity under scaling
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    ctx = ring("x", "y", "z")
    gens = [
        vec(ctx, "1/2*x^2 - 3/4*y*z", "-5/3*x*y"),
        vec(ctx, "-2/3*y^2 + x*z", "3/2*y*z"),
        vec(ctx, "5/4*z^2 - 1/3*x*y", "-x*z + 2/5*y"),
    ]
    table = module_table(module_gb(gens), 2)
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)

    @st.composite
    def vectors(draw):
        parts = []
        for _ in range(2):
            terms = {}
            for _ in range(draw(st.integers(0, 4))):
                e = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
                terms[tuple(e)] = draw(coeffs)
            parts.append(Polynomial(ctx, terms))
        return tuple(parts)

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @hyp.given(vectors(), coeffs.filter(bool))
    def check(v, lam):
        r = module_reduce(v, table)
        scale = Polynomial.const(ctx, lam)
        assert module_reduce(vec_scale(scale, v), table) == vec_scale(scale, r)
        assert vec_is_zero(module_reduce(vec_add(v, vec_scale(Polynomial.const(ctx, -1), r)), table))

    check()


# ---------------------------------------------------------------------------
# Koszul grade.

def test_grade_of_maximal_ideal_is_depth():
    for names in [("x", "y"), ("x", "y", "z")]:
        ctx = ring(*names)
        assert koszul_grade(list(maximal_ideal(ctx).gens), Ideal.zero(ctx)) == len(names)


def test_grade_basics():
    ctx = ring("x", "y")
    zero = Ideal.zero(ctx)
    assert koszul_grade([P(ctx, "x")], zero) == 1
    assert koszul_grade([P(ctx, "x^2")], zero) == 1
    # generating set independence: three generators of the maximal ideal
    assert koszul_grade([P(ctx, "x"), P(ctx, "x + y"), P(ctx, "y")], zero) == 2
    assert koszul_grade([], zero) == 0


def test_grade_order_independence_regression():
    ctx = ring("x", "y", "z")
    base = I_of(ctx, "x", "y*z")
    # the image of (x, y) on R/(x, yz) consists of zero divisors: grade 0
    assert koszul_grade([P(ctx, "x"), P(ctx, "y")], base) == 0
    assert koszul_grade([P(ctx, "y"), P(ctx, "x")], base) == 0


def test_grade_on_quotients():
    ctx = ring("x", "y")
    J = I_of(ctx, "x*y")
    assert koszul_grade([P(ctx, "x"), P(ctx, "y")], J) == 1
    assert koszul_grade([P(ctx, "x + y")], J) == 1
    # grade(a, M) only depends on a + J
    assert koszul_grade([P(ctx, "x")], J) == koszul_grade(
        [P(ctx, "x"), P(ctx, "x*y")], J
    )
    T = I_of(ctx, "x^2", "x*y")
    assert koszul_grade([P(ctx, "x"), P(ctx, "y")], T) == 0


def test_grade_error_and_budget():
    ctx = ring("x", "y")
    with pytest.raises(ImproperIdealError):
        koszul_grade([P(ctx, "x"), P(ctx, "x + 1")], Ideal.zero(ctx))
    too_many = [P(ctx, "x")] * (KOSZUL_SIZE_BUDGET + 1)
    with pytest.raises(BudgetExceeded):
        koszul_grade(too_many, Ideal.zero(ctx))
    # the budget is asked when a level is to be built, on the elements left
    # to search: over R/(a^2 + b^2, a*b) the walk over 11 variables skips a
    # and b and keeps the 9 others, so only (a, b) is searched over R/(J +
    # kept), where it has grade 0 (test_cli holds bounds that meet over 11)
    big = ring(*"abcdefghijk")
    xs = list(maximal_ideal(big).gens)
    assert len(xs) == KOSZUL_SIZE_BUDGET + 1
    assert koszul_grade(xs, I_of(big, "a^2 + b^2", "a*b")) == 9
    # over J = (a - b)*m the ideal of variables is associated, so the walk
    # keeps no variable and the search on all 11 trips the budget
    J = Ideal(big, [P(big, "a - b") * x for x in xs])
    with pytest.raises(BudgetExceeded, match="koszul complex size"):
        koszul_grade(xs, J)


def test_koszul_differentials_square_to_zero():
    # every entry is a signed element at a place fixed by the subsets, so
    # d_(i-1) d_i = 0 on s independent variables covers every complex of
    # size s; every size the budget admits is checked
    ctx2 = ring("x", "y")
    x, y = P(ctx2, "x"), P(ctx2, "y")
    assert _koszul_columns([x, y], 1) == [(x,), (y,)]
    assert _koszul_columns([x, y], 2) == [(-y, x)]
    assert _koszul_columns([x, y], 3) == []
    for s in range(1, KOSZUL_SIZE_BUDGET + 1):
        ctx = ring(*(f"x{v}" for v in range(s)))
        xs = [Polynomial.variable(ctx, name) for name in ctx.var_names]
        below = None  # nonzero entries of each column of d_(i-1)
        for i in range(1, s + 1):
            cols = _koszul_columns(xs, i)
            assert len(cols) == math.comb(s, i)
            nonzero = [[(k, f) for k, f in enumerate(c) if not f.is_zero()] for c in cols]
            assert all(len(c) == math.comb(s, i - 1) for c in cols)
            assert all(len(nz) == i for nz in nonzero)
            if below is not None:
                for nz in nonzero:
                    acc: dict[int, Polynomial] = {}
                    for j, f in nz:
                        for k, g in below[j]:
                            acc[k] = acc.get(k, Polynomial.zero(ctx)) + f * g
                    assert all(p.is_zero() for p in acc.values()), (s, i)
            below = nonzero
        assert _koszul_columns(xs, s + 1) == []


def test_bounded_koszul_grade_builds_only_the_levels_it_reads(monkeypatch):
    built: list[tuple[int, int]] = []
    real = modules._koszul_columns

    def record(elements, i):
        built.append((len(elements), i))
        return real(elements, i)

    monkeypatch.setattr(modules, "_koszul_columns", record)
    ctx = ring("a", "b", "c", "d")
    xs = [Polynomial.variable(ctx, v) for v in ctx.var_names]
    s = len(xs)
    # the walk runs over the homogeneous J not given by terms whenever the
    # bounds leave a level open, and keeps `kept` variables there; the
    # search is then made on the s - kept variables left, its bounds moved
    # down by kept and its upper bound at most s - 1 - kept
    for J, kept in (
        (I_of(ctx, "a*b"), None),
        (I_of(ctx, "a*c - b*d", "a*d - b*c"), 0),
        (I_of(ctx, "a*c - b*d", "a^2 - c*d"), 1),
        (I_of(ctx, "a*c - d^2", "a*c - c*d", "c*d - c^2"), 2),
        (I_of(ctx, "a^2", "a*b"), None),
    ):
        assert groebner.variable_route(J, xs) == (kept is not None)
        grade = koszul_grade(xs, J)
        for lower in range(grade + 1):
            for upper in range(grade, s + 1):
                built.clear()
                assert koszul_grade(xs, J, lower, upper) == grade
                left, lo, hi = s, lower, upper
                if kept is not None and lower < upper:
                    left, lo, hi = s - kept, max(lower - kept, 0), min(upper, s - 1) - kept
                # the image level above the search when lo > 0, then each
                # searched level once, down to the first nonzero homology or
                # level left - hi + 1; nothing when lo == hi
                levels = []
                if lo < hi:
                    last = left - min(grade - (s - left), hi - 1)
                    above = [left - lo + 1] if lo > 0 else []
                    levels = above + list(range(left - lo, last - 1, -1))
                assert built == [(left, i) for i in levels], (J, lower, upper)


def test_koszul_grade_makes_one_engine_run_per_level(monkeypatch):
    # each level's syzygy run yields its cycles and the boundaries below, so
    # no boundary basis is built and no cycle is divided; the last level
    # searched, s - upper + 1, has no level below to read its boundaries, so
    # its run asks for the tag block (the cycles) only
    runs: list[int | None] = []
    plain: list[None] = []  # the runs over ideals
    built: list[int] = []
    real_run, real_columns = groebner._buchberger, modules._koszul_columns

    def record_run(gens, order, rank=0, basis=(), tags=None):
        (runs if rank else plain).append(tags)
        return real_run(gens, order, rank, basis, tags)

    def record_columns(elements, i):
        built.append(i)
        return real_columns(elements, i)

    def banned(*args, **kwargs):
        raise AssertionError("koszul_grade builds no boundary basis and divides no cycle")

    monkeypatch.setattr(groebner, "_buchberger", record_run)
    monkeypatch.setattr(modules, "_koszul_columns", record_columns)
    monkeypatch.setattr(oracles, "module_gb", banned)
    for name in ("module_table", "module_reduce"):
        monkeypatch.setattr(modules, name, banned)
    ctx = ring("a", "b", "c", "d")
    xs = [Polynomial.variable(ctx, v) for v in ctx.var_names]
    for texts, grade in ((("a*b",), 3), (("a*c - b*d", "a*d - b*c"), 2), (("a^2", "a*b"), 2)):
        J = I_of(ctx, *texts)
        for lower, upper in ((0, 4), (grade, 4), (1, grade), (grade, grade)):
            runs.clear()
            built.clear()
            assert koszul_grade(xs, J, lower, upper) == grade
            assert len(runs) == len(built) == len(set(built)), (texts, lower, upper)
            # the walk over the binomial J keeps no variable, so it searches
            # all four with its upper bound at most 3; a tags-only run reads
            # the tag block of d_i, one tag per i-subset
            top = min(upper, 3) if groebner.variable_route(J, xs) and lower < upper else upper
            for i, tags in zip(built, runs):
                wanted = math.comb(4, i) if i == 4 - top + 1 else None
                assert tags == wanted, (texts, lower, upper, i)
    assert koszul_grade(xs, I_of(ctx, "a*b")) == 3 and built == [4, 3, 2, 1]
    # called without bounds, the variables over the homogeneous binomial J
    # are walked on one reverse-lex chain: none is regular there, so each
    # variable that fails starts the rest of the chain on a new plain run,
    # and the step by d, last already, reads J's own basis (4 plain runs,
    # as when each step made its own); 0 <= grade <= 3 and the search stops
    # above level 1 (it searched 4, 3, 2 with bounds 0 and 4).  Over
    # (a*c - b*d, a^2 - c*d) the walk keeps c (3 plain runs, the last sum's
    # basis seeded), so the search is on the 3 variables left over J + (c)
    # and stops at level 2, tags only; over the third binomial J it keeps
    # two and searches level 2 of the two left.  Over the term ideals every
    # level is searched
    for texts, grade, wanted_built, wanted_runs, wanted_plain in (
        (("a*b",), 3, [4, 3, 2, 1], [None, None, None, 4], 0),
        (("a*c - b*d", "a*d - b*c"), 2, [4, 3, 2], [None, None, 6], 4),
        (("a*c - b*d", "a^2 - c*d"), 2, [3, 2], [None, 3], 3),
        (("a*c - d^2", "a*c - c*d", "c*d - c^2"), 2, [2], [1], 2),
        (("a^2", "a*b"), 2, [4, 3, 2], [None, None, None], 0),
    ):
        runs.clear()
        built.clear()
        plain.clear()
        assert koszul_grade(xs, I_of(ctx, *texts)) == grade
        assert (built, runs, len(plain)) == (wanted_built, wanted_runs, wanted_plain), texts


def test_koszul_grade_matches_the_division_route():
    # the comparison of reduced bases against a route that builds each
    # boundary basis in its own run and divides the cycles by it, on random
    # homogeneous binomial ideals and every pair of bounds
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def term(ctx, variables, c):
        return Polynomial(ctx, {tuple(variables.count(k) for k in range(ctx.n)): c})

    @st.composite
    def binomial(draw, ctx):
        # x^u - c*x^v for two monomials of one degree, each a multiset of
        # variables; c = 0 now and then leaves a term, which reaches grade 0
        d = draw(st.integers(1, 2))
        u, v = (draw(st.lists(st.integers(0, ctx.n - 1), min_size=d, max_size=d)) for _ in "uv")
        return term(ctx, u, 1) - term(ctx, v, draw(st.sampled_from([1, 1, 0])))

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(3, 4))
        ctx = ring(*"abcd"[:n])
        J = Ideal(ctx, [data.draw(binomial(ctx)) for _ in range(data.draw(st.integers(1, 4)))])
        xs = [Polynomial.variable(ctx, v) for v in ctx.var_names]
        grade = division_koszul_grade(xs, J)
        assert koszul_grade(xs, J) == grade
        for lower in range(n + 1):
            for upper in range(lower, n + 1):
                expected = division_koszul_grade(xs, J, lower, upper)
                if lower <= grade <= upper:
                    assert expected == grade
                assert koszul_grade(xs, J, lower, upper) == expected, (J, lower, upper)

    check()


def test_syzygy_run_image_is_the_module_basis():
    # the elements of a syzygy run that lead in the main block are the
    # reduced basis of span(vectors) + <basis>, listed as module_gb lists it,
    # and a run that finishes only the tag block answers the same syzygies
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyz"[: data.draw(st.integers(2, 3))])
        rank = data.draw(st.integers(1, 3))

        def poly():
            terms = {}
            for _ in range(data.draw(st.integers(0, 2))):
                e = tuple(data.draw(st.lists(st.integers(0, 2), min_size=ctx.n, max_size=ctx.n)))
                terms[e] = data.draw(st.sampled_from([-2, -1, 1, 3]))
            return Polynomial(ctx, terms)

        def vectors(least):
            return [tuple(poly() for _ in range(rank)) for _ in range(data.draw(st.integers(least, 3)))]

        if data.draw(st.booleans()):
            basis = ideal_block(Ideal(ctx, [poly() for _ in range(data.draw(st.integers(0, 2)))]), rank)
        else:
            basis = module_gb(vectors(0))
        vs = vectors(1)
        syz, image = _syzygies(vs, basis, ctx, rank)
        assert list(image) == module_gb(vs + basis)
        assert _syzygies(vs, basis, ctx, rank, image=False) == (syz, None)

    check()


def test_is_regular_sequence():
    ctx = ring("x", "y")
    zero = Ideal.zero(ctx)
    assert is_regular_sequence([P(ctx, "x"), P(ctx, "y")], zero)
    assert not is_regular_sequence([P(ctx, "x"), P(ctx, "x")], zero)
    J = I_of(ctx, "x*y")
    assert is_regular_sequence([P(ctx, "x + y")], J)
    assert not is_regular_sequence([P(ctx, "x")], J)
    assert is_regular_sequence([], zero)
    # the maximality test of t6's greedy sequences: Q : X = Q, X not principal
    X = I_of(ctx, "x", "y")
    assert ideal_equal(ideal_quotient(J, X), J)
    Q = I_of(ctx, "x^2", "x*y")
    assert not ideal_equal(ideal_quotient(Q, X), Q)
    # a sequence that generates the whole ring is not regular
    assert not is_regular_sequence([P(ctx, "x"), P(ctx, "x + 1")], zero)


def test_regular_chain_returns_the_sum_it_built():
    ctx = ring("x", "y", "z")
    zero = Ideal.zero(ctx)
    for base, seq in [
        (zero, ["x", "y"]),
        (I_of(ctx, "x*y"), ["x + y", "z^2"]),
        (I_of(ctx, "x^2 - y*z"), ["y + z"]),
        (I_of(ctx, "x*z"), []),
    ]:
        elements = [P(ctx, f) for f in seq]
        Q = regular_chain(elements, base)
        assert Q is not None
        assert reduced_gb(Q) == reduced_gb(ideal_sum(base, Ideal(ctx, elements)))
    # a zero-divisor, and a sequence that generates the whole ring
    assert regular_chain([P(ctx, "x")], I_of(ctx, "x*y")) is None
    assert regular_chain([P(ctx, "x"), P(ctx, "x + 1")], zero) is None


def _binomial_ideals(st):
    """The hypothesis strategy, given a ring, of its random homogeneous
    binomial ideals: 1-3 differences x^u - x^v of one degree (1 or 2), or the
    2x2 minors of a 2x3 matrix of variables."""

    def monomial(draw, ctx, d):
        variables = draw(st.lists(st.integers(0, ctx.n - 1), min_size=d, max_size=d))
        return Polynomial(ctx, {tuple(variables.count(k) for k in range(ctx.n)): 1})

    @st.composite
    def ideal(draw, ctx):
        if draw(st.booleans()):
            gens = []
            for _ in range(draw(st.integers(1, 3))):
                d = draw(st.integers(1, 2))
                gens.append(monomial(draw, ctx, d) - monomial(draw, ctx, d))
            return Ideal(ctx, gens)
        m = [[monomial(draw, ctx, 1) for _ in range(3)] for _ in range(2)]
        return Ideal(ctx, [m[0][i] * m[1][k] - m[0][k] * m[1][i] for i, k in ((0, 1), (0, 2), (1, 2))])

    return ideal


def test_variable_steps_match_the_engine_routes(monkeypatch):
    # over random homogeneous binomial and 2x2-determinantal J, a sequence of
    # 1-4 variables (now and then 2*x, a repeat, or a non-variable element,
    # which takes the colon) has the grade of the division route, each step
    # of its chain is regular exactly when the engine colon leaves Q
    # unchanged, the sum's seeded basis is a fresh engine basis of its
    # generators, and a variable step over a homogeneous Q runs no syzygies.
    # The whole chain in one call, from a fresh J, agrees with that stepping
    # one element at a time: None exactly when a step fails, and otherwise
    # the last sum's basis is a fresh engine basis
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    syzygy_runs = []
    real = groebner._buchberger

    def counted(gens, order, rank=0, basis=(), tags=None):
        if rank:
            syzygy_runs.append(rank)
        return real(gens, order, rank, basis, tags)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    ideal = _binomial_ideals(st)

    @st.composite
    def sequence(draw, ctx):
        seq = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["variable"] * 4 + ["scaled", "repeat", "other"]))
            x = Polynomial.variable(ctx, draw(st.sampled_from(ctx.var_names)))
            if kind == "scaled":
                x = x * Polynomial.const(ctx, 2)
            elif kind == "repeat" and seq:
                x = seq[-1]
            elif kind == "other":
                x = x + Polynomial.variable(ctx, ctx.var_names[0]) if draw(st.booleans()) else x * x
            seq.append(x)
        return seq

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"abcde"[: data.draw(st.integers(3, 5))])
        J = data.draw(ideal(ctx))
        seq = [f for f in data.draw(sequence(ctx)) if not f.is_zero()]
        if not seq:
            return
        assert koszul_grade(seq, J) == division_koszul_grade(seq, Ideal(ctx, J.gens))
        Q = Ideal(ctx, J.gens)
        for f in seq:
            revlex = groebner.variable_route(Q, [f])
            del syzygy_runs[:]
            S, _ = groebner.regular_steps(Q, [f])
            assert not (revlex and syzygy_runs)
            colon = engine_quotient(Q, Ideal(ctx, [f]))
            assert (S is not None) == (colon._gb == engine_gb(Q)), (Q, f)
            if S is None:
                break
            assert S._gb == engine_gb(Ideal(ctx, S.gens)), (Q, f)
            Q = S
        revlex = groebner.variable_route(J, seq)
        del syzygy_runs[:]
        chain = regular_chain(seq, Ideal(ctx, J.gens))
        assert not (revlex and syzygy_runs)
        assert (chain is None) == (S is None), (J, seq)
        if chain is not None:
            assert chain._gb == engine_gb(Ideal(ctx, (*J.gens, *seq))), (J, seq)

    check()


def test_variable_chains_commute_with_renaming_the_variables():
    # the chain builds its order from variable indices, so renaming the
    # ring's variables by a permutation must leave its answers alone: over a
    # random homogeneous binomial J, a sequence of 1-4 variables (repeats
    # allowed) has the same regularity and the same grade after the
    # variables of J and of the sequence are permuted
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    ideal = _binomial_ideals(st)

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"abcde"[: data.draw(st.integers(3, 5))])
        J = data.draw(ideal(ctx))
        picks = data.draw(st.lists(st.integers(0, ctx.n - 1), min_size=1, max_size=4))
        perm = data.draw(st.permutations(range(ctx.n)))

        def renamed(f):
            return Polynomial(ctx, {permute_exponents(e, perm): c for e, c in f.term_map().items()})

        seq = [Polynomial.variable(ctx, ctx.var_names[i]) for i in picks]
        moved_seq, moved_J = [renamed(x) for x in seq], Ideal(ctx, [renamed(g) for g in J.gens])
        regular = is_regular_sequence(seq, J)
        assert regular == is_regular_sequence(moved_seq, moved_J), (J, seq, perm)
        fresh, moved_fresh = Ideal(ctx, J.gens), Ideal(ctx, moved_J.gens)
        assert koszul_grade(seq, fresh) == koszul_grade(moved_seq, moved_fresh), (J, seq, perm)

    check()


def test_variable_steps_at_the_edges_of_their_route(monkeypatch):
    runs = []
    real = groebner._buchberger

    def counted(gens, order, rank=0, basis=(), tags=None):
        runs.append(rank)
        return real(gens, order, rank, basis, tags)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    ctx = ring(*"abcd")
    a, b, c, d = (Polynomial.variable(ctx, v) for v in "abcd")
    # a homogeneous J holding a nonzero constant is the unit ideal: no
    # sequence is regular on it, and its grade is undefined
    unit = I_of(ctx, "a*c - b*d", "3")
    assert not groebner.variable_route(unit, [a, b])
    assert regular_chain([a, b], unit) is None
    with pytest.raises(ImproperIdealError):
        koszul_grade([a, b], unit)
    # the zero ideal and term ideals take the divisibility kernels
    del runs[:]
    assert regular_chain([a, b], Ideal.zero(ctx)) is not None
    assert regular_chain([d, c], I_of(ctx, "a*b", "c^2")) is None
    assert regular_chain([d, a * b], I_of(ctx, "a*b")) is None
    assert regular_chain([c, d], I_of(ctx, "a*b", "a^2")) is not None
    assert runs == []
    # a non-homogeneous J takes the colon: one syzygy run, of rank 2
    J = I_of(ctx, "a^2 - b")
    assert not groebner.variable_route(J, [b])
    del runs[:]
    assert regular_chain([b], J) is not None
    assert runs == [0, 2]  # J's basis, then the syzygy run
    # over a homogeneous J the step by the last variable reads J's own basis,
    # and by another variable one plain run under the moved order
    J = I_of(ctx, "a*c - b*d", "a*d - b*c")
    del runs[:]
    assert regular_chain([d], J) is None
    assert regular_chain([a], J) is None
    assert runs == [0, 0]
    assert J._steps == {d: None, a: None}
    # a regular chain of two variables is one plain run under the order with
    # b last and c just above it; each step stays on the ideal it extended,
    # and only the last sum keeps a basis, J's degrevlex basis plus (b, c)
    J = I_of(ctx, "a*d - b*c")
    del runs[:]
    S = regular_chain([b, c], J)
    assert runs == [0]
    (mid,) = J._steps.values()
    assert J._steps == {b: mid} and mid._steps == {c: S}
    assert mid._gb is None and S._gb == engine_gb(Ideal(ctx, (*J.gens, b, c)))
    # grown again from J, the chain reads its steps and runs nothing
    del runs[:]
    assert regular_chain([b, c], J) is S and runs == []


def test_regular_steps_refuse_an_element_from_another_ring():
    # over a homogeneous J not given by terms a variable would take the
    # run route, which reads exponents against J's four variables; e of
    # Q[a..e] and p of Q[p, q, r, s] are refused before any step, after a
    # variable of J's own ring too
    ctx = ring("a", "b", "c", "d")
    J = I_of(ctx, "a*c - b*d", "a*d - b*c")
    for other, name in ((ring("a", "b", "c", "d", "e"), "e"), (ring("p", "q", "r", "s"), "p")):
        f = Polynomial.variable(other, name)
        for seq in ([f], [P(ctx, "a"), f]):
            with pytest.raises(RingError, match="^mixed ring contexts$"):
                groebner.regular_steps(J, seq)
    assert J._steps is None
    with pytest.raises(RingError, match="^mixed ring contexts$"):
        is_regular_sequence([Polynomial.variable(ring("p", "q", "r", "s"), "p")], J)


def test_mixed_chains_share_one_run_per_run_of_variables(monkeypatch):
    # over J = (a*d - b*c) a run of variables is decided off one basis under
    # its moved order, and the run's last sum keeps its degrevlex basis, so a
    # colon step after the run reads that basis (one syzygy run), and a run
    # after a colon step starts from the colon's seeded basis.  Stepping one
    # element at a time made 3, 4 and 3 runs
    runs = _count_engine_runs(monkeypatch)
    ctx = ring(*"abcd")
    b, c, s = P(ctx, "b"), P(ctx, "c"), P(ctx, "a + d")
    for seq, made in (([b, c, s], 2), ([s, b, c], 3), ([b, s, c], 3)):
        runs[0] = 0
        Q = regular_chain(seq, I_of(ctx, "a*d - b*c"))
        assert runs[0] == made, seq
        assert Q._gb == engine_gb(Ideal(ctx, Q.gens)), seq


def test_regseq_and_grade_log_their_route(caplog, capsys):
    ctx = ring(*"abcd")
    a, b = P(ctx, "a"), P(ctx, "b")
    J = I_of(ctx, "a*c - b*d", "a^2 - c*d")
    c, s = P(ctx, "c"), P(ctx, "a + d")
    for call, message in (
        (lambda: is_regular_sequence([a, b], J), "regseq: 1 run"),
        (lambda: is_regular_sequence([a, P(ctx, "a + b")], J), "regseq: 0 runs"),
        (lambda: is_regular_sequence([a], I_of(ctx, "a^2 - b")), "regseq: 2 runs"),
        # a mixed sequence: one moved-order run for b, c and one syzygy run
        # for a + d, however its steps were decided
        (lambda: is_regular_sequence([b, c, s], I_of(ctx, "a*d - b*c")), "regseq: 2 runs"),
        (lambda: is_regular_sequence([b, c], I_of(ctx, "a*d - b*c")), "regseq: 1 run"),
        # the step by a, not regular, is kept on J from regseq: one run, for
        # b, which is kept, so a alone is left, with bounds that meet
        (lambda: koszul_grade([a, b], J), "grade: route revlex, 1 run, kept 1, no levels"),
        # bounds that leave a level open walk too, reading the kept steps
        (lambda: koszul_grade([a, b], J, 0, 2), "grade: route revlex, 0 runs, kept 1, no levels"),
        # neither is regular, so the step by b starts a second run
        (lambda: koszul_grade([a, b], I_of(ctx, "a*c - b*d", "a*d - b*c")),
         "grade: route revlex, 2 runs, kept 0, levels 2 down to 2"),
    ):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="linkcoh"):
            call()
        assert [r.getMessage() for r in caplog.records] == [message]
    # bounds that meet and term ideals make no walk and log nothing
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="linkcoh"):
        koszul_grade([a, b], J, 1, 1)
        koszul_grade([a, b], I_of(ctx, "a*b"))
    assert caplog.records == []
    # the log is no part of the answer: the command line prints the same
    # document at any log level
    docs = []
    for level in (logging.WARNING, logging.DEBUG):
        with caplog.at_level(level, logger="linkcoh"):
            for argv in (
                ["grade", "--ring", "a,b,c,d", "--ideal", "a, b", "--module", "a*c - b*d, a^2 - c*d"],
                ["regseq", "--ring", "a,b,c,d", "--seq", "a, b", "--module", "a*c - b*d, a^2 - c*d"],
            ):
                assert cli.run(argv) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1] and docs[0]


# ---------------------------------------------------------------------------
# Hom, Ext, annihilators, Ass membership.

def test_hom_cyclic_annihilators():
    # Hom(R/(x), R/(xy)) = (y)/(xy) has annihilator (x), presented and as the
    # ideal colon (xy) : ((xy) : x); Hom(R/(x), R) is zero
    ctx = ring("x", "y")
    M = CyclicModule(ctx, I_of(ctx, "x*y"))
    H = hom_cyclic(I_of(ctx, "x"), presented_cyclic(M))
    assert ideal_equal(fp_hom_annihilator(Ideal.zero(ctx), H), I_of(ctx, "x"))
    assert ideal_equal(hom_annihilator(I_of(ctx, "x"), M), I_of(ctx, "x"))
    free = CyclicModule.full_ring(ctx)
    H0 = hom_cyclic(I_of(ctx, "x"), presented_cyclic(free))
    assert is_unit_ideal(fp_hom_annihilator(Ideal.zero(ctx), H0))
    assert is_unit_ideal(hom_annihilator(I_of(ctx, "x"), free))


def test_annihilator_of_cyclic_and_zero():
    ctx = ring("x", "y")
    M = CyclicModule(ctx, I_of(ctx, "x^2", "x*y"))
    assert ideal_equal(hom_annihilator(Ideal.zero(ctx), M), I_of(ctx, "x^2", "x*y"))
    zero_mod = FPModule(ctx, 1, [(Polynomial.const(ctx, 1),)])
    assert is_unit_ideal(fp_hom_annihilator(Ideal.zero(ctx), zero_mod))
    free = CyclicModule.full_ring(ctx)
    assert hom_annihilator(Ideal.zero(ctx), free).is_zero_ideal()


def test_fp_module_refuses_a_negative_rank():
    # R^-2 is no module; it would read as the zero module, with the unit
    # annihilator and no associated prime
    ctx = ring("x", "y")
    for rank in (-1, -2):
        with pytest.raises(RingError, match="nonnegative rank"):
            FPModule(ctx, rank)
    assert FPModule(ctx, 0).relations == ()


def test_fp_module_refuses_a_relation_from_another_ring():
    # a relation of Q[x,y,z] in a module over Q[x,y] was kept, and nf then
    # read e_1 as zero; an element of another ring is refused by nf too
    ctx, big = ring("x", "y"), ring("x", "y", "z")
    z = Polynomial.zero(ctx)
    for rank, relation in [(1, (P(big, "z^2"),)), (2, (P(ctx, "x"), P(big, "z")))]:
        with pytest.raises(RingError, match="^relation vector lives in a different ring$"):
            FPModule(ctx, rank, [relation])
    N = FPModule(ctx, 2, [(P(ctx, "x^2"), z)])
    for v in [(P(big, "z"), z), unit_vec(big, 2, 0)]:
        with pytest.raises(RingError, match="^element lives in a different ring$"):
            N.nf(v)
    assert N.nf(unit_vec(ctx, 2, 0)) == unit_vec(ctx, 2, 0)


def _small_poly(rng, ctx):
    """One or two terms of degree 1..2 with small coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        e = [0] * ctx.n
        for _ in range(rng.randint(1, 2)):
            e[rng.randrange(ctx.n)] += 1
        terms[tuple(e)] = rng.choice([1, -1, 2])
    return Polynomial(ctx, terms)


def test_annihilator_of_higher_rank_matches_joined_colons():
    # N : (e_1..e_r) in one engine run against the join of the r colons
    # N : e_j by the tag-variable intersection
    ctx = ring("x", "y", "z")
    rng = random.Random(61)
    checked = 0
    for i in range(24):
        a = Ideal(ctx, [_small_poly(rng, ctx) for _ in range(rng.randint(2, 3))])
        J = Ideal(ctx, [f * g for f, g in zip(a.gens, a.gens[1:] + a.gens[:1])])
        try:
            N = presented_ext(a, J)
            if i % 2:
                N = hom_cyclic(Ideal(ctx, [_small_poly(rng, ctx) for _ in range(2)]), N)
        except ImproperIdealError:
            continue
        if N.rank < 2:
            continue
        ann = fp_hom_annihilator(Ideal.zero(ctx), N)
        joined = None
        for j in range(N.rank):
            tags = submodule_syzygies([unit_vec(ctx, N.rank, j)], N.rel_gb())
            colon = Ideal(ctx, [t[0] for t in tags])
            joined = colon if joined is None else ideal_intersect(joined, colon)
        assert ideal_equal(ann, joined), (i, N.rank)
        seeded = ann._gb
        assert list(seeded) == _gb(ctx, ann.gens, DEGREVLEX)
        assert seeded == ann.gens
        checked += 1
    assert checked >= 12


def test_ass_member_matches_associated_primes():
    ctx = ring("x", "y", "z")
    for texts in [("x^2", "x*y"), ("x*y", "x*z", "y*z"), ("x^2", "y^3"), ()]:
        J = I_of(ctx, *texts) if texts else Ideal.zero(ctx)
        M = CyclicModule(ctx, J)
        expected = associated_primes(M.monomial)
        for p in all_monomial_primes(ctx):
            assert ass_member(p, M) == (p in expected), (texts, p)


def test_ass_member_refuses_a_variable_outside_the_ring():
    ctx = ring("x", "y")
    M = CyclicModule(ctx, I_of(ctx, "x"))
    with pytest.raises(RingError, match="names variable index 5, outside a ring of 2"):
        ass_member(MonomialPrime((0, 5)), M)
    assert ass_member(MonomialPrime((0,)), M)


def test_module_ass_computes_each_relation_basis_once(monkeypatch):
    # R/J presented keeps its ideal's reduced basis as its relation basis,
    # and the presented Ext keeps the reduced basis of the fresh syzygies
    # presenting it, so module_gb is never reached on either: the cyclic
    # one through the scan's fp_ass_member tests, the Ext through module_ass
    inputs: list[tuple] = []
    real = oracles.module_gb

    def record(gens):
        inputs.append(tuple(gens))
        return real(gens)

    monkeypatch.setattr(oracles, "module_gb", record)
    ctx = ring("x", "y", "z")
    M = CyclicModule(ctx, I_of(ctx, "x^2*y", "x*z^2", "y^2"))
    assert module_ass_scan(presented_cyclic(M)) == associated_primes(M.monomial)
    assert inputs == []
    E = presented_ext(I_of(ctx, "x*y", "z^2"), I_of(ctx, "x^2", "y*z"))
    assert module_ass(E) == PrimeSet([MonomialPrime((0, 2)), MonomialPrime((0, 1, 2))])
    assert inputs == []


def _count_engine_runs(monkeypatch) -> list[int]:
    runs = [0]
    real = groebner._buchberger

    def counted(*args, **kwargs):
        runs[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    return runs


def test_ass_member_takes_one_colon_on_the_module_basis(monkeypatch):
    # each membership test over R/J is the ideal colon J : (J : p): by
    # divisibility with no engine run for J given by terms, and at most one
    # run per colon for a binomial J, where it agrees with the presented route
    runs = _count_engine_runs(monkeypatch)
    ctx = ring("x", "y", "z")
    M = CyclicModule(ctx, I_of(ctx, "x^2*y", "x*z^2", "y^2"))
    for vars_, member in [((0, 1), True), ((0, 2), False), ((0, 1, 2), True), ((1,), False)]:
        assert ass_member(MonomialPrime(vars_), M) is member
    assert runs[0] == 0
    M = CyclicModule(ctx, I_of(ctx, "x^2 - y*z", "x*y"))
    for p in all_monomial_primes(ctx):
        runs[0] = 0
        member = ass_member(p, M)
        assert runs[0] <= 2, p
        assert member == fp_ass_member(p, presented_cyclic(M)), p


def _small_ideals(st):
    """The hypothesis strategy `terms(ctx, binomial)`: ideals of ctx with one
    to three term generators, or one or two binomials (a term plus -1 or 2
    times another) when `binomial` is set."""

    @st.composite
    def terms(draw, ctx, binomial):
        out = []
        for _ in range(draw(st.integers(1, 2 if binomial else 3))):
            e = draw(st.lists(st.integers(0, 2), min_size=ctx.n, max_size=ctx.n))
            f = draw(st.lists(st.integers(0, 2), min_size=ctx.n, max_size=ctx.n))
            poly = {tuple(e): 1}
            if binomial and tuple(f) != tuple(e):
                poly[tuple(f)] = draw(st.sampled_from([-1, 2]))
            out.append(Polynomial(ctx, poly))
        return Ideal(ctx, out)

    return terms


def test_hom_annihilator_matches_the_presented_route():
    # Ann Hom(R/a, R/J) as the ideal colon J : (J : a) against the
    # annihilator of the presented Hom, and ass_member against the presented
    # route, over R/J with J monomial or binomial; over self-dual Ext modules
    # the rank-r route, one colon on N, against the same
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    terms = _small_ideals(st)

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyz"[: data.draw(st.integers(2, 3))])
        try:
            if data.draw(st.booleans()):
                M = CyclicModule(ctx, data.draw(terms(ctx, data.draw(st.booleans()))))
                N, annihilator, member = presented_cyclic(M), hom_annihilator, ass_member
            else:
                N = presented_ext(data.draw(terms(ctx, False)), data.draw(terms(ctx, False)))
                M, annihilator, member = N, fp_hom_annihilator, fp_ass_member
        except ImproperIdealError:
            hyp.assume(False)
        primes = all_monomial_primes(ctx)
        a = data.draw(st.one_of(
            st.sampled_from(primes).map(lambda p: p.to_ideal(ctx)),
            terms(ctx, True),
        ))
        assert ideal_equal(annihilator(a, M), presented_annihilator(hom_cyclic(a, N)))
        for p in primes:
            assert member(p, M) == ass_member_presented(p, N), p

    check()


def test_ass_of_hom_is_read_off_the_support():
    # Ass Hom(R/a, N) = V(a) meet Ass N: the containment a in p and ass_member
    # on N against presenting Hom(R/a, N), for every monomial prime p, over a
    # by terms or binomials, (0) and (1), and N cyclic (monomial or binomial
    # J, through ass_member and `assmember`) or a self-dual Ext module
    # (through fp_ass_member)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    terms = _small_ideals(st)

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyz"[: data.draw(st.integers(2, 3))])
        M = None
        try:
            if data.draw(st.booleans()):
                M = CyclicModule(ctx, data.draw(terms(ctx, data.draw(st.booleans()))))
                N = presented_cyclic(M)
            else:
                N = presented_ext(data.draw(terms(ctx, False)), data.draw(terms(ctx, False)))
        except ImproperIdealError:
            hyp.assume(False)
        a = data.draw(st.one_of(
            terms(ctx, False), terms(ctx, True), st.just(Ideal.zero(ctx)), st.just(Ideal.unit(ctx))
        ))
        H = hom_cyclic(a, N)
        for p in all_monomial_primes(ctx):
            associated = fp_ass_member(p, N) if M is None else ass_member(p, M)
            support = all(map(p.contains_poly, a.gens)) and associated
            assert support == ass_member_presented(p, H), p
            if M is not None:
                assert OPS["assmember"].doc(p, M, a)["member"] == support, p

    check()


def test_hom_outside_the_prime_starts_no_engine_run(monkeypatch):
    # an a outside p fails the containment test before ass_member runs
    ctx = ring("x", "y", "z")
    M = CyclicModule(ctx, I_of(ctx, "x^2 - y*z", "x*y"))
    runs = _count_engine_runs(monkeypatch)
    doc = OPS["assmember"].doc(MonomialPrime((1, 2)), M, I_of(ctx, "x + y"))
    assert doc["member"] is False
    assert runs[0] == 0


def test_ext_selfdual_vanishing_split_base():
    # over R' = Q[x,y]/(xy) with a = (x): Ext^1(R'/a, R'/a) = 0
    ctx = ring("x", "y")
    a, J = I_of(ctx, "x"), I_of(ctx, "x*y")
    assert module_ass(ext1_selfdual(a, J)) == PrimeSet()
    assert is_unit_ideal(fp_hom_annihilator(Ideal.zero(ctx), presented_ext(a, J)))


def test_ext_takes_no_relation_run():
    # the Ext is its generators: one syzygy run for the syzygies of a over
    # R/J and one for the kernel, none when a has no syzygy; presenting it
    # takes one more run, for the relations among the generators
    ctx = ring("x", "y", "z")
    for a, J, runs, rank, primes in (
        (I_of(ctx, "x*y", "y*z"), I_of(ctx, "x^2"), 2, 4, [(0, 1), (0, 2)]),
        (I_of(ctx, "x"), Ideal.zero(ctx), 1, 1, [(0,)]),
    ):
        before = groebner.engine_runs()
        E = ext1_selfdual(a, J)
        assert groebner.engine_runs() - before == runs, a.gens
        assert E.rank == len(E.gens) == rank
        assert module_ass(E) == PrimeSet(map(MonomialPrime, primes))
        before = groebner.engine_runs()
        assert presented_ext(a, J).rank == rank
        assert groebner.engine_runs() - before == runs + 1, a.gens


def test_zero_ext_keeps_its_grading():
    # Ext over the zero ideal is the zero module, still recording its
    # monomial pair, so module_ass reads it as (x) over R/(x) does
    ctx = ring("x", "y")
    for a, J in [(Ideal.zero(ctx), I_of(ctx, "x*y")), (I_of(ctx, "x"), I_of(ctx, "x"))]:
        E = ext1_selfdual(a, J)
        assert E.rank == 0
        assert E.hom_pair == (monomial.as_monomial(ideal_sum(a, J)), monomial.as_monomial(J))
        assert module_ass(E) == PrimeSet()


def test_ext_selfdual_regression_nonzero():
    # this one used to collapse to the zero module
    ctx = ring("x", "y", "z")
    E = ext1_selfdual(I_of(ctx, "z", "x^2"), I_of(ctx, "z", "x^3"))
    assert module_ass(E) == PrimeSet([MonomialPrime((0, 2))])


def test_ext_selfdual_selflinked_cases():
    ctx = ring("x", "y")
    E = ext1_selfdual(I_of(ctx, "x"), I_of(ctx, "x^2"))
    assert module_ass(E) == PrimeSet([MonomialPrime((0,))])
    E2 = ext1_selfdual(I_of(ctx, "x", "y"), I_of(ctx, "x^2", "y^2"))
    assert module_ass(E2) == PrimeSet([MonomialPrime((0, 1))])


def _wide_side():
    """(x, y, z)^3 and (x^3, y^3, z^3): the Ext of the first over R modulo
    the second has rank 42 and, presented, 126 relations."""
    ctx = ring("x", "y", "z")
    cube = [f"x^{i}*y^{j}*z^{3 - i - j}" for i in range(4) for j in range(4 - i)]
    return ctx, I_of(ctx, *cube), I_of(ctx, "x^3", "y^3", "z^3")


def test_hom_kernel_matches_the_scan_of_the_presented_ext():
    # the Supp ∩ Ass kernel against testing every prime over Ann N on the
    # presentation of Hom_{R/J}((a + J)/J, R/(a + J)), for monomial a and J
    # over 2-4 variables with generators of degree at most 3; module_ass on
    # the Ext takes the kernel.  About one generator in five is a binomial
    # (a term plus -1 or 2 times another), and J = 0 is drawn too: over
    # every pair the generators of the Ext number as many as the presented
    # Ext's, and both record the same monomial pair or none
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def ideal(draw, ctx, least):
        def term():
            e = [0] * ctx.n
            for i in draw(st.lists(st.integers(0, ctx.n - 1), min_size=1, max_size=3)):
                e[i] += 1
            return tuple(e)

        gens = []
        for _ in range(draw(st.integers(least, 3))):
            terms = {term(): 1}
            if draw(st.integers(0, 9)) < 3:
                terms.setdefault(term(), draw(st.sampled_from([-1, 2])))
            gens.append(Polynomial(ctx, terms))
        return Ideal(ctx, gens)

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=330)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyzw"[: data.draw(st.integers(2, 4))])
        a, J = data.draw(ideal(ctx, 1)), data.draw(ideal(ctx, 0))
        hyp.assume(is_proper(ideal_sum(a, J)))
        N, presented = ext1_selfdual(a, J), presented_ext(a, J)
        assert N.rank == presented.rank, (a.gens, J.gens)
        assert N.hom_pair == presented.hom_pair
        if N.hom_pair is not None:
            got = monomial.hom_ass(*N.hom_pair)
            assert got == module_ass_scan(presented), (a.gens, J.gens)
            assert module_ass(N) == got

    check()


def test_ext_records_its_monomial_pair_through_as_monomial(monkeypatch):
    # (2xz + y, y) = (xz, y) is monomial though its generators are not terms:
    # the Ext records (a + J, J) and module_ass answers with the kernel
    ctx = ring("x", "y", "z")
    a, J = I_of(ctx, "2*x*z + y", "y"), I_of(ctx, "x^2*z", "y^2")
    N = ext1_selfdual(a, J)
    A, T = N.hom_pair
    assert A == monomial.as_monomial(I_of(ctx, "x*z", "y"))
    assert T == monomial.as_monomial(J)
    calls = []
    real = modules.ass_member
    monkeypatch.setattr(modules, "ass_member", lambda p, M: calls.append(p) or real(p, M))
    before = groebner.engine_runs()
    got = module_ass(N)
    assert groebner.engine_runs() == before and calls == []
    assert got == module_ass_scan(presented_ext(a, J))


def test_non_monomial_ext_keeps_its_refusal():
    # a by a binomial: the Ext records no pair, so module_ass refuses it
    ctx = ring("x", "y", "z")
    N = ext1_selfdual(I_of(ctx, "x + y"), I_of(ctx, "x*y"))
    assert N.hom_pair is None
    with pytest.raises(RingError, match="self-dual Ext of monomial a and J"):
        module_ass(N)


def test_zero_ext_answers_the_empty_set_from_its_record():
    # a inside J, a = 0 included: A = T and the kernel answers no prime
    ctx = ring("x", "y")
    for a, J in [(Ideal.zero(ctx), I_of(ctx, "x*y")), (I_of(ctx, "x^2*y"), I_of(ctx, "x*y"))]:
        N = ext1_selfdual(a, J)
        A, T = N.hom_pair
        assert A == T
        assert monomial.hom_ass(A, T) == PrimeSet() == module_ass(N)
        assert module_ass_scan(presented_ext(a, J)) == PrimeSet()


def test_module_ass_requires_multigraded():
    # module_ass answers only a module that records its monomial pair:
    # R/(x^2 + y) and R/(xy), presented with no record, are refused before
    # any engine run
    ctx = ring("x", "y")
    for N in (
        FPModule(ctx, 1, [(P(ctx, "x^2 + y"),)]),
        presented_cyclic(CyclicModule(ctx, I_of(ctx, "x*y"))),
    ):
        assert N.hom_pair is None
        before = groebner.engine_runs()
        with pytest.raises(RingError, match="self-dual Ext of monomial a and J"):
            module_ass(N)
        assert groebner.engine_runs() == before
    assert module_ass_scan(presented_cyclic(CyclicModule(ctx, I_of(ctx, "x*y")))) == PrimeSet(
        [MonomialPrime((0,)), MonomialPrime((1,))]
    )


def test_hand_built_multigraded_module_takes_the_scan(monkeypatch):
    # no record: R^2 / (x*e_1, x^2*e_2, x*y*e_2) is refused by module_ass,
    # and the scan tests each prime over Ann N = (x^2, x*y) by fp_ass_member
    ctx = ring("x", "y")
    z = Polynomial.zero(ctx)
    N = FPModule(ctx, 2, [(P(ctx, "x"), z), (z, P(ctx, "x^2")), (z, P(ctx, "x*y"))])
    assert N.hom_pair is None
    before = groebner.engine_runs()
    with pytest.raises(RingError, match="self-dual Ext of monomial a and J"):
        module_ass(N)
    assert groebner.engine_runs() == before
    calls = []
    real = oracles.fp_ass_member
    monkeypatch.setattr(oracles, "fp_ass_member", lambda p, M: calls.append(p) or real(p, M))
    assert module_ass_scan(N) == PrimeSet([MonomialPrime((0,)), MonomialPrime((0, 1))])
    assert sorted(calls) == sorted([MonomialPrime((0,)), MonomialPrime((0, 1))])


def test_wide_ext_takes_no_engine_run_in_module_ass():
    # the wide side of l1: one prime, read off the monomial colon and Ass R/A
    ctx, a, J = _wide_side()
    N, presented = ext1_selfdual(a, J), presented_ext(a, J)
    assert (N.rank, presented.rank, len(presented.relations)) == (42, 42, 126)
    before = groebner.engine_runs()
    assert module_ass(N) == PrimeSet([MonomialPrime((0, 1, 2))])
    assert groebner.engine_runs() == before


def test_hom_kernel_honours_soft_timeout():
    # the kernel's first check point is the colon T : A
    ctx, a, J = _wide_side()
    N = ext1_selfdual(a, J)
    with set_limits(soft_timeout=0):
        with pytest.raises(BudgetExceeded) as trip:
            module_ass(N)
    assert trip.value.what == "monomial colon"


# ---------------------------------------------------------------------------
# Cyclic modules.

def test_cyclic_module_depth_dim_cm():
    ctx = ring("x", "y", "z")
    R = CyclicModule.full_ring(ctx)
    assert (R.depth(), R.dim(), R.is_cohen_macaulay()) == (3, 3, True)
    hyper = CyclicModule(ctx, I_of(ctx, "x*y"))
    assert (hyper.depth(), hyper.dim(), hyper.is_cohen_macaulay()) == (2, 2, True)
    bad = CyclicModule(ctx, I_of(ctx, "x^2", "x*y"))
    # z is still regular here, so depth 1 rather than 0
    assert (bad.depth(), bad.dim(), bad.is_cohen_macaulay()) == (1, 2, False)
    mixed = CyclicModule(ctx, I_of(ctx, "x*z", "y*z"))
    assert (mixed.depth(), mixed.dim(), mixed.is_cohen_macaulay()) == (1, 2, False)
    ctx2 = ring("x", "y")
    flat = CyclicModule(ctx2, Ideal(ctx2, [parse_poly("x^2", ctx2), parse_poly("x*y", ctx2)]))
    assert (flat.depth(), flat.dim(), flat.is_cohen_macaulay()) == (0, 1, False)


def test_cyclic_module_depth_reports_soft_timeout_from_colon_radicals():
    ctx = ring("x", "y", "z")
    mixed = CyclicModule(ctx, I_of(ctx, "x*z", "y*z"))
    # a deadline trip is reported as such and never falls back to Koszul
    with set_limits(soft_timeout=0):
        with pytest.raises(BudgetExceeded, match="^depth colon radicals"):
            mixed.depth()


def test_cyclic_module_nonmonomial_dim():
    ctx = ring("x", "y")
    curve = CyclicModule(ctx, I_of(ctx, "y - x^2"))
    assert curve.dim() == 1
    assert curve.depth() == 1
    assert curve.is_cohen_macaulay()
    assert curve.monomial is None
    # the record that gave dim is that of in(J), never the primes of R/J
    with pytest.raises(RingError, match="^the primes of R/J here need a monomial defining ideal$"):
        curve.primes()


def test_cyclic_module_reads_its_monomial_form_when_asked(monkeypatch):
    # R/J over a J not given by terms starts no engine run when built; the
    # first read of `monomial` runs J's basis and a second reads the cache.
    # grade and regseq over R/J never ask, so the command line pays only
    # for the chain
    runs = []
    real = groebner._buchberger

    def counted(*args, **kwargs):
        runs.append(args[2] if len(args) > 2 else 0)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    ctx = ring(*"abcd")
    M = CyclicModule(ctx, I_of(ctx, "a*c - b*d", "a*d - b*c"))
    assert runs == []
    assert M.monomial is None and runs == [0]
    assert M.monomial is None and runs == [0]
    with pytest.raises(RingError, match="^the primes of R/J here need a monomial defining ideal$"):
        M.primes()
    assert runs == [0]
    # a monomial J written by non-term generators is recognised on that read
    N = CyclicModule(ctx, I_of(ctx, "a*b + a^2", "a^2"))
    assert N.monomial.min_gens == ((1, 1, 0, 0), (2, 0, 0, 0)) and runs == [0, 0]
    assert N.lead_term_ideal() is N.monomial and runs == [0, 0]
    for argv in (
        ["regseq", "--ring", "a,b,c,d", "--seq", "b, c", "--module", "a*d - b*c"],
        ["grade", "--ring", "a,b,c,d", "--ideal", "b, c", "--module", "a*d - b*c"],
    ):
        del runs[:]
        assert cli.run(argv) == 0
        assert runs == [0], argv


def test_dim_is_the_dim_of_the_lead_terms_property():
    # dim R/J against the record of in(J) from a fresh engine basis, over
    # monomial J written by terms and by non-term generators, homogeneous
    # binomial J and non-homogeneous J
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyzw"[: data.draw(st.integers(2, 4))])
        exps = st.lists(st.integers(0, 2), min_size=ctx.n, max_size=ctx.n).map(tuple).filter(any)
        ts = data.draw(st.lists(exps, min_size=1, max_size=3, unique=True))
        term = lambda e, c=1: Polynomial.from_monomial(ctx, e, c)
        kind = data.draw(st.sampled_from(["terms", "non-term", "binomial", "non-homogeneous"]))
        if kind == "terms":
            gens = [term(e) for e in ts]
        elif kind == "non-term":
            # a unitriangular change of the terms generates the same ideal
            gens = [term(e) + term(f, 2) for e, f in zip(ts, ts[1:])] + [term(ts[-1])]
        elif kind == "binomial":
            gens = [term(e) - term(tuple(data.draw(st.permutations(e)))) for e in ts]
            gens = [g for g in gens if not g.is_zero()] or [term(ts[0])]
        else:
            i = data.draw(st.integers(0, ctx.n - 1))
            gens = [term(e) - term(tuple(x + (k == i) for k, x in enumerate(e)), 3) for e in ts]
        J = Ideal(ctx, gens)
        M = CyclicModule(ctx, J)
        if kind in ("terms", "non-term"):
            assert M.monomial is not None
        lead = MonomialIdeal.from_exponents(ctx, [g.lead()[0] for g in engine_gb(J)])
        assert M.dim() == min_assh_dim(lead).dim, (kind, J)

    check()


@pytest.mark.parametrize("texts", [("x^2", "x*y"), ("x^2 + x*y", "x*y")])
def test_monomial_view_is_j_with_one_record(monkeypatch, texts):
    # J written by terms or not: the view is J's own monomial form, read
    # without a basis, and dim, primes and Ass come from one record
    ctx = ring("x", "y", "z")
    M = CyclicModule(ctx, I_of(ctx, *texts))
    records, decompositions = [], []
    # the record is built where the ideal's `primes` reads it
    real_record, real_decompose = monomial.min_assh_dim, monomial.irreducible_decomposition
    monkeypatch.setattr(monomial, "min_assh_dim", lambda I: records.append(I) or real_record(I))
    monkeypatch.setattr(
        monomial, "irreducible_decomposition", lambda I: decompositions.append(I) or real_decompose(I)
    )
    monkeypatch.setattr(modules, "reduced_gb", None)
    assert M.lead_term_ideal() is M.monomial
    assert M.dim() == 2
    assert M.primes().ass == PrimeSet([MonomialPrime((0,)), MonomialPrime((0, 1))])
    assert M.primes().min_primes == PrimeSet([MonomialPrime((0,))])
    assert M.dim() == 2
    assert (len(records), len(decompositions)) == (1, 1)


# ---------------------------------------------------------------------------
# Depth routes: the Groebner degeneration against the full Koszul search.

CTX4 = ring("a", "b", "c", "d")

# homogeneous ideals whose lead-term ideal is not squarefree and has depth
# d0 = 1 < depth = dim = 2: a build that answers d0 without the squarefree
# test, or stops the bounded search one level early, gets these wrong
D0_BELOW_DEPTH = (
    "a*c - d^2, a*c - c*d, c*d - c^2",
    "b*c - d^2, b^2 - d^2, b*d - c*d",
    "c*d - b*c, b*d - c*d, b^2 - c*d",
    "b*c - a*b, b*d - b^2, a*d - b*c",
)
# not squarefree, d0 = depth = 1 < dim = 2: the top open level is nonzero
D0_AT_DEPTH = (
    "b*d - c*d, a*b - a*d, b^2 - c*d",
    "c^2 - b*c, d - b, a*c - b*c",
)


def _oracle_depth(J):
    return koszul_grade(list(maximal_ideal(J.ctx).gens), J)


def _ideal4(text):
    return Ideal.parse(CTX4, text)


def _monomial4(rng, degree):
    e = [0] * 4
    for _ in range(degree):
        e[rng.randrange(4)] += 1
    return tuple(e)


def _binomial4(rng):
    d = rng.randint(1, 2)
    while True:
        u, v = _monomial4(rng, d), _monomial4(rng, d)
        if u != v:
            return Polynomial(CTX4, {u: 1, v: -1})


def _minors4(rng):
    """The nonzero 2x2 minors of a 2x3 matrix of variables, at least two."""
    while True:
        m = [[Polynomial.variable(CTX4, rng.choice("abcd")) for _ in range(3)] for _ in range(2)]
        minors = [m[0][i] * m[1][j] - m[0][j] * m[1][i] for i, j in ((0, 1), (0, 2), (1, 2))]
        minors = [f for f in minors if not f.is_zero()]
        if len(minors) >= 2:
            return minors


def _homogeneous_ideals(count, seed):
    """Proper non-monomial ideals of Q[a,b,c,d], alternately 2-3 binomials
    of one degree (1 or 2) and the 2x2 minors of a matrix of variables."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = _minors4(rng) if len(out) % 2 else [_binomial4(rng) for _ in range(rng.randint(2, 3))]
        J = Ideal(CTX4, gens)
        if groebner.monomial_gens(J) is None and is_proper(J):
            out.append(J)
    return out


def _depth_case(M):
    """Which branch of the degeneration route decides M's depth."""
    lt = M.lead_term_ideal()
    d0 = depth_monomial(lt)
    if lt.is_squarefree():
        return "squarefree"
    if d0 == M.dim():
        return "d0 = dim"
    return "d0 < depth" if d0 < _oracle_depth(M.ideal) else "d0 = depth < dim"


def test_degeneration_depth_matches_koszul_on_homogeneous_ideals():
    ideals = _homogeneous_ideals(64, seed=7)
    ideals += [_ideal4(t) for t in D0_BELOW_DEPTH + D0_AT_DEPTH]
    cases = set()
    for J in ideals:
        assert all(g.is_homogeneous() for g in J.gens)
        oracle = _oracle_depth(J)
        M = CyclicModule(CTX4, J)
        assert M.depth() == oracle, J
        assert M.is_cohen_macaulay() == (oracle == M.dim()), J
        cases.add(_depth_case(M))
    assert cases == {"squarefree", "d0 = dim", "d0 < depth", "d0 = depth < dim"}


def test_degeneration_pinned_ideals():
    for text in D0_BELOW_DEPTH:
        M = CyclicModule(CTX4, _ideal4(text))
        assert depth_monomial(M.lead_term_ideal()) == 1
        assert not M.lead_term_ideal().is_squarefree()
        assert (M.depth(), M.dim(), M.is_cohen_macaulay()) == (2, 2, True), text
    for text in D0_AT_DEPTH:
        M = CyclicModule(CTX4, _ideal4(text))
        assert not M.lead_term_ideal().is_squarefree()
        assert (M.depth(), M.dim(), M.is_cohen_macaulay()) == (1, 2, False), text


def test_koszul_grade_with_known_bounds():
    gens = list(maximal_ideal(CTX4).gens)
    for text in D0_BELOW_DEPTH[:2] + D0_AT_DEPTH:
        J = _ideal4(text)
        grade = _oracle_depth(J)
        for lower in range(grade + 1):
            for upper in range(grade, 5):
                assert koszul_grade(gens, J, lower, upper) == grade, (text, lower, upper)
    J = _ideal4(D0_AT_DEPTH[0])
    for lower, upper in ((-1, 2), (3, 2), (0, 5)):
        with pytest.raises(RingError, match="grade bounds"):
            koszul_grade(gens, J, lower, upper)


def test_peeled_grade_and_depth_match_the_division_route():
    # koszul_grade on variables (repeats allowed) peels the regular ones off
    # before it searches; under any bounds that hold the true grade, and
    # through CyclicModule.depth, it must answer what the division route
    # answers with the full search on every element, over random
    # homogeneous binomial and 2x2-determinantal J and the pinned ideals
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    ideal = _binomial_ideals(st)

    @st.composite
    def case(draw):
        ctx = ring(*"abcde"[: draw(st.integers(3, 5))])
        picks = draw(st.lists(st.integers(0, ctx.n - 1), min_size=1, max_size=5))
        return draw(ideal(ctx)), picks

    every = [0, 1, 2, 3]
    pinned = [_ideal4(t) for t in D0_BELOW_DEPTH + D0_AT_DEPTH]

    def examples(check):
        for J in pinned:
            for picks, at in ((every, (0, 99)), (every + [0], (99, 0)), ([3, 1, 1], (1, 1))):
                check = hyp.example((J, picks), *at)(check)
        return check

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @hyp.given(case(), st.integers(0, 99), st.integers(0, 99))
    @examples
    def check(drawn, u, v):
        J, picks = drawn
        ctx = J.ctx
        seq = [Polynomial.variable(ctx, ctx.var_names[i]) for i in picks]
        s = len(seq)
        grade = division_koszul_grade(seq, Ideal(ctx, J.gens))
        lower, upper = u % (grade + 1), grade + v % (s - grade + 1)
        assert koszul_grade(seq, Ideal(ctx, J.gens), lower, upper) == grade, (J, picks, lower, upper)
        assert koszul_grade(seq, Ideal(ctx, J.gens)) == grade, (J, picks)
        variables = list(maximal_ideal(ctx).gens)
        depth = division_koszul_grade(variables, Ideal(ctx, J.gens))
        assert CyclicModule(ctx, Ideal(ctx, J.gens)).depth() == depth, J

    check()


def test_depth_below_the_gap_builds_no_level_on_every_variable(monkeypatch):
    # in(J) leaves a gap over each D0_BELOW_DEPTH ideal (depth 1 against 2);
    # the walk keeps regular variables there, so no Koszul level is built
    # on all four
    sizes: list[int] = []
    real = modules._koszul_columns

    def record(elements, i):
        sizes.append(len(elements))
        return real(elements, i)

    monkeypatch.setattr(modules, "_koszul_columns", record)
    for text in D0_BELOW_DEPTH:
        sizes.clear()
        M = CyclicModule(CTX4, _ideal4(text))
        assert (depth_monomial(M.lead_term_ideal()), M.dim()) == (1, 2)
        assert M.depth() == 2, text
        assert 4 not in sizes, (text, sizes)


def test_nonhomogeneous_ideal_takes_the_koszul_route():
    # in(J) = (x*y, x*z) is squarefree with depth 1, but J is not homogeneous:
    # the depth at the variable ideal is 2
    ctx = ring("x", "y", "z")
    J = I_of(ctx, "x*y - x", "x*z")
    M = CyclicModule(ctx, J)
    assert M.lead_term_ideal().is_squarefree()
    assert depth_monomial(M.lead_term_ideal()) == 1
    assert M.depth() == _oracle_depth(J) == 2


def test_cm_of_a_non_graded_ideal_is_refused_below_its_dimension():
    # J = (x, y) ∩ (z - 1): at the origin z - 1 is a unit, so the local ring
    # is that of (x, y), Cohen-Macaulay of dimension 1, while dim R/J = 2
    ctx = ring("x", "y", "z")
    M = CyclicModule(ctx, I_of(ctx, "x*z - x", "y*z - y"))
    assert (M.depth(), M.dim()) == (1, 2)
    with pytest.raises(RingError, match="^Cohen-Macaulayness of a non-graded R/J is undecided"):
        M.is_cohen_macaulay()
    # a depth that reaches dim R/J decides Cohen-Macaulayness at the origin
    M = CyclicModule(ctx, I_of(ctx, "x*y - x", "x*z"))
    assert (M.depth(), M.dim(), M.is_cohen_macaulay()) == (2, 2, True)


def test_homogeneity_is_read_off_the_reduced_basis(caplog):
    # the generators are not homogeneous, the reduced basis (x - y, z^2) is:
    # in(J) = (x, z^2) has depth 1 = dim, so the degeneration decides
    ctx = ring("x", "y", "z")
    M = CyclicModule(ctx, I_of(ctx, "x - y", "x - y + z^2"))
    with caplog.at_level(logging.DEBUG, logger="linkcoh"):
        assert (M.depth(), M.dim(), M.is_cohen_macaulay()) == (1, 1, True)
    assert caplog.records[-1].getMessage() == "depth: route degeneration, no levels"


def test_radical_is_maximal_matches_one_rabinowitsch_run_per_variable():
    ctx = ring("x", "y", "z")
    pinned = [
        (("x", "y", "z"), True),
        (("x^2 - y", "y^3", "z^2 - x*z"), True),
        (("x*y - 1", "z"), False),  # the hyperbola misses the origin
        (("x*y", "y*z", "x*z"), False),
        (("x - y^2", "y - z^2", "z - x^2"), False),  # the origin and seven more points
        (("x", "1 - x*y"), False),  # the unit ideal
        (("x + 1",), False),
    ]
    for gens, expected in pinned:
        K = I_of(ctx, *gens)
        assert radical_is_maximal(K) == rabinowitsch_is_maximal(K) == expected, gens
    rng = random.Random(5)
    terms = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]
    seen = set()
    for _ in range(40):
        gens = [
            Polynomial(ctx, {e: rng.choice((-1, 1, 2)) for e in rng.sample(terms, rng.randint(1, 3))})
            for _ in range(rng.randint(2, 4))
        ]
        K = Ideal(ctx, gens)
        got = radical_is_maximal(K)
        assert got == rabinowitsch_is_maximal(K), gens
        seen.add((got, is_proper(K)))
    assert seen == {(True, True), (False, True), (False, False)}


def test_degeneration_takes_high_exponent_lead_terms_directly(caplog):
    # in(J) = (a^8, c^8) would polarize to 18 variables; its colon radicals
    # live on the 4 original ones, so the degeneration answers with no Koszul run
    J = _ideal4("a^8 - b^8, c^8 - d^8")
    M = CyclicModule(CTX4, J)
    with caplog.at_level(logging.DEBUG, logger="linkcoh"):
        assert M.depth() == 2
    assert [r.getMessage() for r in caplog.records] == [
        "depth links: 1 faces, 0 non-cone, 0 by connectivity, 1 distinct scanned, "
        "0 GF(2) ranks (0 stopped at the bound), 0 exact ranks",
        "depth colon radicals: 1 exponent vectors, 1 distinct",
        "depth: route degeneration, no levels",
    ]


def test_degeneration_depth_reports_soft_timeout():
    M = CyclicModule(CTX4, _ideal4("a*b - c*d, a*c - b*d"))
    with set_limits(soft_timeout=0):
        with pytest.raises(BudgetExceeded):
            M.depth()


def test_depth_logs_its_route(caplog):
    ctx = ring("x", "y", "z")
    one_face = (
        "depth links: 1 faces, 0 non-cone, 0 by connectivity, 1 distinct scanned, "
        "0 GF(2) ranks (0 stopped at the bound), 0 exact ranks"
    )
    no_face = (
        "depth links: 0 faces, 0 non-cone, 0 by connectivity, 1 distinct scanned, "
        "0 GF(2) ranks (0 stopped at the bound), 0 exact ranks"
    )
    five_faces = one_face.replace("1 faces", "5 faces")
    # every route but the plain Koszul one scans the links of each distinct
    # colon radical (one line each), then sums up the colon radicals; a
    # degeneration whose bounds meet (in(J) squarefree, or d0 = dim) opens
    # no level, one that leaves a level open walks the variables, and a
    # non-homogeneous J opens every level
    squarefree = CyclicModule(CTX4, _ideal4("a*d - b*c"))
    at_dim = CyclicModule(CTX4, _ideal4("a*d - b*c, a*c - b^2, b*d - c^2"))
    assert squarefree.lead_term_ideal().is_squarefree()
    assert not at_dim.lead_term_ideal().is_squarefree()
    routes = [
        (
            CyclicModule(ctx, I_of(ctx, "x*y")),
            [one_face, "depth colon radicals: 1 exponent vectors, 1 distinct"],
            ["depth: route monomial"],
        ),
        (
            squarefree,
            [five_faces, "depth colon radicals: 1 exponent vectors, 1 distinct"],
            ["depth: route degeneration, no levels"],
        ),
        (
            at_dim,
            [one_face, "depth colon radicals: 3 exponent vectors, 1 distinct"],
            ["depth: route degeneration, no levels"],
        ),
        (
            CyclicModule(CTX4, _ideal4(D0_BELOW_DEPTH[0])),
            [one_face, no_face, "depth colon radicals: 3 exponent vectors, 2 distinct"],
            # the walk, last variable first, skips d and c (a new run
            # after each skip), keeps b and a, and closes the gap
            [
                "depth: route degeneration, levels 3 down to 3",
                "grade: route revlex, 2 runs, kept 2, no levels",
            ],
        ),
        (
            CyclicModule(ctx, I_of(ctx, "x*y - x", "x*z")),
            [],
            ["depth: route koszul, levels 3 down to 1"],
        ),
    ]
    for M, scans, messages in routes:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="linkcoh"):
            M.depth()
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert debug == scans + messages
    assert (squarefree.depth(), at_dim.depth(), at_dim.dim()) == (3, 2, 2)


def test_cyclic_module_rejects_unit_ideal():
    ctx = ring("x", "y")
    with pytest.raises(RingError):
        CyclicModule(ctx, I_of(ctx, "x", "x + 1"))


def test_describe():
    ctx = ring("x", "y")
    assert CyclicModule.full_ring(ctx).describe() == "R"
    assert "x*y" in CyclicModule(ctx, I_of(ctx, "x*y")).describe()


def test_vec_helpers():
    ctx = ring("x", "y")
    v = vec(ctx, "x", "0")
    w = vec(ctx, "0", "y")
    assert vec_is_zero(vec_add(v, vec_scale(P(ctx, "-1"), v)))
    s = vec_add(v, w)
    assert not vec_is_zero(s)
