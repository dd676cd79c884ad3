"""Module algebra: module GBs, syzygies, Hom, Ext, Koszul grade.

Includes regression anchors for two bugs worth never reintroducing: a
module-GB S-pair schedule that missed elements whose lead position moves
during reduction (visible as order-dependent Koszul grade and as missing
syzygies), and the Ext-via-Hom computation collapsing to zero on
(z, x^2) over R/(z, x^3).
"""

import itertools
import random

import pytest

from linkcoh.groebner import (
    BudgetExceeded,
    Ideal,
    _gb,
    ideal_equal,
    ideal_intersect,
    is_unit_ideal,
    is_zero_ideal,
    reduced_gb,
    set_limits,
)
from linkcoh.modules import (
    CyclicModule,
    FPModule,
    KOSZUL_SIZE_BUDGET,
    ass_member,
    ext1_selfdual,
    hom_cyclic,
    ideal_block,
    is_regular_sequence,
    koszul_grade,
    maximal_ideal,
    module_ass,
    module_gb,
    submodule_member,
    submodule_syzygies,
    unit_vec,
    vec_add,
    vec_is_zero,
    vec_scale,
)
from linkcoh.monomial import (
    ImproperIdealError,
    MonomialPrime,
    PrimeSet,
    all_monomial_primes,
    associated_primes,
)
from linkcoh.ring import DEGREVLEX, Polynomial, RingError, mono_divides, parse_poly, ring


def P(ctx, text):
    return parse_poly(text, ctx)


def I_of(ctx, *texts):
    return Ideal(ctx, [parse_poly(t, ctx) for t in texts])


def vec(ctx, *texts):
    return tuple(parse_poly(t, ctx) for t in texts)


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


def test_is_regular_sequence():
    ctx = ring("x", "y")
    zero = Ideal.zero(ctx)
    assert is_regular_sequence([P(ctx, "x"), P(ctx, "y")], zero)
    assert not is_regular_sequence([P(ctx, "x"), P(ctx, "x")], zero)
    J = I_of(ctx, "x*y")
    assert is_regular_sequence([P(ctx, "x + y")], J)
    assert not is_regular_sequence([P(ctx, "x")], J)
    assert is_regular_sequence([], zero)
    # a sequence that generates the whole ring is not regular
    assert not is_regular_sequence([P(ctx, "x"), P(ctx, "x + 1")], zero)


# ---------------------------------------------------------------------------
# Hom, Ext, annihilators, Ass membership.

def test_hom_cyclic_annihilators():
    ctx = ring("x", "y")
    N = CyclicModule(ctx, I_of(ctx, "x*y")).to_fp()
    H = hom_cyclic(I_of(ctx, "x"), N)
    assert ideal_equal(H.annihilator(), I_of(ctx, "x"))
    free = CyclicModule.full_ring(ctx).to_fp()
    H0 = hom_cyclic(I_of(ctx, "x"), free)
    assert is_unit_ideal(H0.annihilator())


def test_annihilator_of_cyclic_and_zero():
    ctx = ring("x", "y")
    M = CyclicModule(ctx, I_of(ctx, "x^2", "x*y")).to_fp()
    assert ideal_equal(M.annihilator(), I_of(ctx, "x^2", "x*y"))
    zero_mod = FPModule(ctx, 1, [(Polynomial.const(ctx, 1),)], multigraded=True)
    assert is_unit_ideal(zero_mod.annihilator())
    free = CyclicModule.full_ring(ctx).to_fp()
    assert is_zero_ideal(free.annihilator())


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
            N = ext1_selfdual(a, J)
            if i % 2:
                N = hom_cyclic(Ideal(ctx, [_small_poly(rng, ctx) for _ in range(2)]), N)
        except ImproperIdealError:
            continue
        if N.rank < 2:
            continue
        ann = N.annihilator()
        joined = None
        for j in range(N.rank):
            tags = submodule_syzygies([unit_vec(ctx, N.rank, j)], N.relations)
            colon = Ideal(ctx, [t[0] for t in tags])
            joined = colon if joined is None else ideal_intersect(joined, colon)
        assert ideal_equal(ann, joined), (i, N.rank)
        seeded = ann._gb_cache[DEGREVLEX.token()]
        assert list(seeded) == _gb(ctx, ann.gens, DEGREVLEX)
        assert seeded == ann.gens or (not seeded and ann.is_zero_ideal())
        checked += 1
    assert checked >= 12


def test_ass_member_matches_associated_primes():
    ctx = ring("x", "y", "z")
    for texts in [("x^2", "x*y"), ("x*y", "x*z", "y*z"), ("x^2", "y^3"), ()]:
        J = I_of(ctx, *texts) if texts else Ideal.zero(ctx)
        M = CyclicModule(ctx, J)
        N = M.to_fp()
        expected = associated_primes(M.monomial)
        for p in all_monomial_primes(ctx):
            assert ass_member(p, N) == (p in expected), (texts, p)


def test_module_ass_requires_multigraded():
    ctx = ring("x", "y")
    N = FPModule(ctx, 1, [(P(ctx, "x^2 + y"),)], multigraded=False)
    with pytest.raises(RingError):
        module_ass(N)


def test_ext_selfdual_vanishing_split_base():
    # over R' = Q[x,y]/(xy) with a = (x): Ext^1(R'/a, R'/a) = 0
    ctx = ring("x", "y")
    E = ext1_selfdual(I_of(ctx, "x"), I_of(ctx, "x*y"))
    assert module_ass(E) == PrimeSet()
    assert is_unit_ideal(E.annihilator())


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


def test_cyclic_module_depth_reports_soft_timeout_from_link_scan():
    ctx = ring("x", "y", "z")
    mixed = CyclicModule(ctx, I_of(ctx, "x*z", "y*z"))
    # a deadline trip is not the polarization budget: no Koszul fallback
    with set_limits(soft_timeout=0):
        with pytest.raises(BudgetExceeded, match="^depth links"):
            mixed.depth()


def test_cyclic_module_nonmonomial_dim():
    ctx = ring("x", "y")
    curve = CyclicModule(ctx, I_of(ctx, "y - x^2"))
    assert curve.dim() == 1
    assert curve.depth() == 1
    assert curve.is_cohen_macaulay()
    assert curve.monomial is None


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
