"""Monomial ideals: combinatorial operations against grid oracles.

The oracle for a binary operation is pointwise membership over the full
exponent grid: every monomial up to the relevant degree box is tested on
both sides of the identity.  Associated primes are cross-checked with
the colon characterization p in Ass(R/I) iff I : w = p for a monomial w.
"""

import itertools
import pickle
import random

import pytest

from engine_routes import engine_gb, engine_quotient, tag_intersect
from linkcoh import monomial
from linkcoh.groebner import BudgetExceeded, Ideal, min_gens_intersect, set_limits
from linkcoh.modules import CyclicModule
from linkcoh.monomial import (
    ImproperIdealError,
    MonomialIdeal,
    MonomialPrime,
    PrimeSet,
    all_monomial_primes,
    as_monomial,
    associated_primes,
    hom_ass,
    irreducible_decomposition,
    meet_of_primes,
    min_assh_dim,
    min_vertex_covers,
    minimalize,
    mono_contains,
    mono_intersect,
    mono_product,
    mono_radical,
    mono_sum,
)
from linkcoh.ring import Polynomial, RingError, mono_one, parse_poly, ring
from linkcoh.simplicial import _facet_masks
from oracles import (
    ass_tuples,
    cover_tuples,
    meet_of_primes_fold,
    mono_colon,
    permute_exponents,
    polarize,
    primes_from_ass,
)


def MI(ctx, *texts):
    return as_monomial(Ideal.parse(ctx, ", ".join(texts)))


def grid(n, box):
    return itertools.product(range(box + 1), repeat=n)


def random_ideal(rng, ctx, maxdeg=3, max_gens=4):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        e = [0] * ctx.n
        for _ in range(rng.randint(1, maxdeg)):
            e[rng.randrange(ctx.n)] += 1
        gens.append(tuple(e))
    return MonomialIdeal.from_exponents(ctx, gens)


@pytest.fixture
def ctx():
    return ring("x", "y", "z")


def test_minimalize():
    assert set(minimalize([(2, 0), (1, 0), (1, 1)])) == {(1, 0)}
    assert set(minimalize([(1, 0), (0, 1)])) == {(1, 0), (0, 1)}
    assert minimalize([]) == ()


def test_construction_and_membership(ctx):
    m = MI(ctx, "x^2", "x*y")
    assert m.contains_mono((2, 0, 0))
    assert m.contains_mono((2, 5, 1))
    assert not m.contains_mono((1, 0, 0))
    assert not m.contains_mono((0, 3, 3))
    assert set(m.min_gens) == {(2, 0, 0), (1, 1, 0)}


def test_as_monomial_sees_through_generators(ctx):
    # the generators are not terms, the ideal still is monomial
    I = Ideal(ctx, [parse_poly("x^2 + x*y", ctx), parse_poly("x*y", ctx)])
    m = as_monomial(I)
    assert m is not None
    assert set(m.min_gens) == {(2, 0, 0), (1, 1, 0)}
    assert as_monomial(Ideal(ctx, [parse_poly("x^2 + y", ctx)])) is None


def test_grid_oracle_binary_ops():
    ctx2 = ring("x", "y")
    rng = random.Random(11)
    for _ in range(40):
        A = random_ideal(rng, ctx2, maxdeg=3, max_gens=3)
        B = random_ideal(rng, ctx2, maxdeg=3, max_gens=3)
        cap = mono_intersect(A, B)
        s = mono_sum(A, B)
        prod = mono_product(A, B)
        for e in grid(2, 7):
            in_a, in_b = A.contains_mono(e), B.contains_mono(e)
            assert cap.contains_mono(e) == (in_a and in_b)
            assert s.contains_mono(e) == (in_a or in_b)
        # product generators all lie in the intersection
        for e in prod.min_gens:
            assert cap.contains_mono(e)


def test_grid_oracle_colon_and_radical():
    ctx2 = ring("x", "y")
    rng = random.Random(13)
    for _ in range(40):
        A = random_ideal(rng, ctx2, maxdeg=3, max_gens=3)
        B = random_ideal(rng, ctx2, maxdeg=3, max_gens=2)
        Q = mono_colon(A, B)
        R = mono_radical(A)
        for e in grid(2, 6):
            want = all(
                A.contains_mono(tuple(a + b for a, b in zip(e, g)))
                for g in B.min_gens
            )
            assert Q.contains_mono(e) == want
            # m in sqrt(A) iff some power of m is in A; exponent 8 is enough here
            power = tuple(8 * a for a in e)
            assert R.contains_mono(e) == A.contains_mono(power) or e == (0, 0)


def test_auto_paths_agree_with_groebner(ctx):
    # the engine routes, called directly: the public operations would answer
    # these monomial ideals with the same kernels as mono_colon/mono_intersect
    rng = random.Random(29)
    for _ in range(20):
        A = random_ideal(rng, ctx, maxdeg=2, max_gens=3)
        B = random_ideal(rng, ctx, maxdeg=2, max_gens=2)
        IA, IB = A.to_ideal(), B.to_ideal()
        assert engine_gb(engine_quotient(IA, IB)) == engine_gb(mono_colon(A, B).to_ideal())
        assert engine_gb(tag_intersect(IA, IB)) == engine_gb(mono_intersect(A, B).to_ideal())


def test_irreducible_decomposition_membership_oracle():
    for names, seed, box in (("xy", 31, 7), ("xyz", 43, 5)):
        ctx = ring(*names)
        rng = random.Random(seed)
        for _ in range(25):
            A = random_ideal(rng, ctx, maxdeg=3, max_gens=3)
            comps = irreducible_decomposition(A)
            for c in comps:
                # irreducible: generated by pure variable powers
                for e in c.min_gens:
                    assert sum(1 for a in e if a) == 1
            for e in grid(ctx.n, box):
                assert A.contains_mono(e) == all(c.contains_mono(e) for c in comps)
            # irredundant: dropping any component changes the intersection
            if len(comps) > 1:
                for k in range(len(comps)):
                    rest = [c for i, c in enumerate(comps) if i != k]
                    inter = rest[0]
                    for c in rest[1:]:
                        inter = mono_intersect(inter, c)
                    assert inter != A


def _leaves(gens):
    """The pure-power ideals the splitting I = (I + (u)) ∩ (I + (v)) ends
    in, splitting off the last variable of a generator's support."""
    for g in gens:
        sup = [i for i, x in enumerate(g) if x]
        if len(sup) >= 2:
            u = tuple(x if i == sup[-1] else 0 for i, x in enumerate(g))
            v = tuple(0 if i == sup[-1] else x for i, x in enumerate(g))
            return _leaves(minimalize(gens + (u,))) | _leaves(minimalize(gens + (v,)))
    return {gens}


def test_irredundant_components_match_pairwise_containment_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    # up to 7 variables and 6 generators of degree <= 4: the shape of the
    # ideals a monomial depth decomposes
    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @hyp.given(st.integers(2, 7), st.integers(0, 10**6))
    def check(n, seed):
        ctx = ring(*"xyzwuvt"[:n])
        I = random_ideal(random.Random(seed), ctx, maxdeg=4, max_gens=6)
        comps = [MonomialIdeal(ctx, gens) for gens in sorted(_leaves(I.min_gens))]
        # the pairwise containment pass over the leaves, as an oracle
        kept = [c for c in comps if not any(d is not c and mono_contains(c, d) for d in comps)]
        want = [c.min_gens for c in kept]
        got = irreducible_decomposition(I)
        assert [c.min_gens for c in got] == want
        inter = got[0].min_gens
        for c in got[1:]:
            inter = min_gens_intersect(inter, c.min_gens)
        assert inter == I.min_gens

    check()


def test_decomposition_checks_the_soft_deadline(ctx):
    # the first check comes with the second generator
    with set_limits(soft_timeout=0):
        with pytest.raises(BudgetExceeded, match="^irreducible decomposition"):
            irreducible_decomposition(MI(ctx, "x*y", "y*z"))
    assert len(irreducible_decomposition(MI(ctx, "x*y", "y*z"))) == 2


def test_associated_primes_hand_cases(ctx):
    assert associated_primes(MI(ctx, "x^2", "x*y")) == PrimeSet(
        [MonomialPrime((0,)), MonomialPrime((0, 1))]
    )
    assert associated_primes(MI(ctx, "x*y", "x*z", "y*z")) == PrimeSet(
        [MonomialPrime((0, 1)), MonomialPrime((0, 2)), MonomialPrime((1, 2))]
    )
    # zero ideal: the zero prime
    zero = MonomialIdeal.from_exponents(ctx, [])
    assert associated_primes(zero) == PrimeSet([MonomialPrime(())])


def test_the_zero_ideal_is_its_own_irreducible_component(ctx):
    zero = MonomialIdeal(ctx, ())
    assert irreducible_decomposition(zero) == (zero,)
    with pytest.raises(ImproperIdealError, match="^irreducible decomposition needs a proper ideal$"):
        irreducible_decomposition(MonomialIdeal(ctx, (mono_one(ctx.n),)))


def test_associated_primes_colon_oracle():
    ctx2 = ring("x", "y")
    rng = random.Random(37)
    for _ in range(30):
        A = random_ideal(rng, ctx2, maxdeg=3, max_gens=3)
        if A.is_unit():
            continue
        box = max((max(e) for e in A.min_gens), default=0) + 1
        oracle = set()
        for w in grid(2, box):
            if A.contains_mono(w):
                continue
            Q = mono_colon(A, MonomialIdeal.from_exponents(ctx2, [w]))
            vars_only = [e for e in Q.min_gens if sum(e) == 1]
            if len(vars_only) == len(Q.min_gens) and Q.min_gens:
                oracle.add(MonomialPrime(tuple(e.index(1) for e in vars_only)))
        assert associated_primes(A) == PrimeSet(oracle)


def test_min_assh_dim(ctx):
    info = min_assh_dim(MI(ctx, "x*y", "x*z"))
    # (x) and (y, z): heights 1 and 2; dim is 2, assh is {(x)}
    assert info.min_primes == PrimeSet([MonomialPrime((0,)), MonomialPrime((1, 2))])
    assert info.assh == PrimeSet([MonomialPrime((0,))])
    assert info.dim == 2
    assert info.height == 1
    with pytest.raises(ImproperIdealError):
        min_assh_dim(MI(ctx, "1"))


def _monomial_ideals(st, max_vars=7):
    """Proper monomial ideals in 1 to `max_vars` variables: any exponents up
    to 3, or squarefree ones, with pure powers of some variables added; the
    zero ideal included."""

    @st.composite
    def draw(draw):
        n = draw(st.integers(1, max_vars))
        ctx = ring(*(f"x{i}" for i in range(n)))
        top = draw(st.sampled_from((1, 3)))
        gens = draw(st.lists(st.tuples(*[st.integers(0, top)] * n), max_size=6))
        for i in draw(st.sets(st.integers(0, n - 1))):
            gens.append(tuple(draw(st.integers(1, 3)) if k == i else 0 for k in range(n)))
        return MonomialIdeal.from_exponents(ctx, [e for e in gens if any(e)])

    return draw()


def test_cover_route_matches_the_decomposition_route_property():
    # Min, Assh, dim and height from the minimal vertex covers against the
    # same read off Ass; for squarefree I the Stanley-Reisner facets are the
    # complements of the covers
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @hyp.given(_monomial_ideals(st))
    def check(I):
        info = min_assh_dim(I)
        ass, mins, assh, dim, height = primes_from_ass(I)
        assert (info.min_primes, info.assh, info.dim, info.height) == (mins, assh, dim, height)
        assert info.ass == ass
        if I.is_squarefree():
            full = (1 << I.ctx.n) - 1
            supports = [sum(1 << i for i, x in enumerate(g) if x) for g in I.min_gens]
            covers = min_vertex_covers(supports, "test")
            assert _facet_masks(I) == [full ^ c for c in covers]
            assert sorted(covers) == sorted(sum(1 << i for i in p.vars) for p in mins)

    check()


def test_hom_ass_hand_cases_and_refusals(ctx):
    # Hom_{R/(x^2)}((x)/(x^2), R/(x)) = R/(x), and the self-dual Ext of the
    # wide side (x, y, z)^3 over (x^3, y^3, z^3) has the one prime m
    x, xyz = MonomialPrime((0,)), MonomialPrime((0, 1, 2))
    assert hom_ass(MI(ctx, "x"), MI(ctx, "x^2")) == PrimeSet([x])
    cube = [f"x^{i}*y^{j}*z^{3 - i - j}" for i in range(4) for j in range(4 - i)]
    assert hom_ass(MI(ctx, *cube), MI(ctx, "x^3", "y^3", "z^3")) == PrimeSet([xyz])
    assert hom_ass(MI(ctx, "x", "y"), MI(ctx, "x", "y")) == PrimeSet()
    with pytest.raises(RingError, match="needs T inside A"):
        hom_ass(MI(ctx, "x"), MI(ctx, "y"))
    with pytest.raises(ImproperIdealError):
        hom_ass(MI(ctx, "1"), MI(ctx, "x"))


def test_hom_ass_reads_the_ass_kept_on_its_ideal(monkeypatch, ctx):
    # Ass R/A read once is kept on the value A, so hom_ass(A, T) runs no
    # decomposition; an equal ideal built afresh holds no record yet
    calls = []
    decompose = monomial.irreducible_decomposition
    monkeypatch.setattr(monomial, "irreducible_decomposition", lambda I: calls.append(I) or decompose(I))
    # A = (x^2, y) ∩ (x, z) and T : A = (x, z)
    A, T = MI(ctx, "x^2", "x*y", "y*z"), MI(ctx, "x^2", "y*z")
    assert A.ass == PrimeSet(map(MonomialPrime, [(0, 1), (0, 2)]))
    assert calls == [A]
    calls.clear()
    expected = PrimeSet([MonomialPrime((0, 2))])
    assert hom_ass(A, T) == hom_ass(A, T) == expected
    assert calls == []
    fresh = MI(ctx, "x^2", "x*y", "y*z")
    assert hom_ass(fresh, T) == expected and calls == [fresh]


def test_hom_ass_refuses_ideals_from_different_rings():
    # (x^2) of Q[x, y, z] would pass as inside (x, y) of Q[x, y], its
    # exponents read against two variables
    small, big = ring("x", "y"), ring("x", "y", "z")
    with pytest.raises(RingError, match="^ideals live in different rings$"):
        hom_ass(MI(small, "x", "y"), MI(big, "x^2"))
    with pytest.raises(RingError, match="^ideals live in different rings$"):
        hom_ass(MI(big, "x", "y"), MI(small, "x^2"))


def test_hom_ass_moves_with_the_variables_property():
    # a permutation of the variables moves the primes of Hom_{R/T}(A/T, R/A)
    # by the same permutation; x_j -> x_j^(k_j) with k in {1, 2, 3}^n is flat
    # and takes each P_S to a P_S-primary ideal, so it leaves them as they are
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(2, 4))
        term = st.tuples(*[st.integers(0, 2)] * n).filter(any)
        return (
            ring(*"xyzw"[:n]),
            draw(st.lists(term, max_size=3)),
            draw(st.lists(term, min_size=1, max_size=3)),
            draw(st.permutations(range(n))),
            draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
        )

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @hyp.given(cases())
    def check(case):
        ctx, core, extra, perm, k = case

        def hom_primes(move):
            T = MonomialIdeal.from_exponents(ctx, map(move, core))
            return hom_ass(mono_sum(T, MonomialIdeal.from_exponents(ctx, map(move, extra))), T)

        primes = hom_primes(lambda e: e)
        moved = PrimeSet(MonomialPrime(perm[i] for i in p.vars) for p in primes)
        assert hom_primes(lambda e: permute_exponents(e, perm)) == moved
        assert hom_primes(lambda e: tuple(x * y for x, y in zip(e, k))) == primes

    check()


def test_meet_of_primes_matches_the_intersection_fold_property():
    # the minimal vertex covers of the prime masks against meeting the primes
    # one at a time; repeated, comparable and zero primes included
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 7))
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
        return ring(*(f"x{i}" for i in range(n))), [MonomialPrime.from_mask(m) for m in masks]

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @hyp.given(cases())
    def check(case):
        ctx, primes = case
        assert meet_of_primes(ctx, primes) == meet_of_primes_fold(ctx, primes)

    check()


def test_meet_of_primes_pinned():
    ctx = ring("x", "y", "z")
    xy, yz, y = MonomialPrime((0, 1)), MonomialPrime((1, 2)), MonomialPrime((1,))
    assert meet_of_primes(ctx, [xy, yz]) == MI(ctx, "y", "x*z")
    assert meet_of_primes(ctx, [xy, y, xy]) == MI(ctx, "y")
    # the zero prime lies in every prime, and no prime is the whole ring
    assert meet_of_primes(ctx, [xy, MonomialPrime()]).is_zero()
    assert meet_of_primes(ctx, []).is_unit()


def test_min_primes_and_dim_run_no_decomposition(monkeypatch, ctx):
    calls = []
    decompose = monomial.irreducible_decomposition

    def counted(I):
        calls.append(I)
        return decompose(I)

    monkeypatch.setattr(monomial, "irreducible_decomposition", counted)
    I = MI(ctx, "x^2*y", "x*z^3", "y^2*z")
    info = min_assh_dim(I)
    assert (info.min_primes, info.assh, info.dim, info.height) == primes_from_ass(I)[1:]
    calls.clear()  # the oracle decomposed
    assert CyclicModule(ctx, I.to_ideal()).dim() == info.dim
    assert calls == []
    # Ass is decomposed on the first read and kept
    primes = [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
    assert info.ass == info.ass == PrimeSet(map(MonomialPrime, primes))
    assert calls == [I]


def test_render_writes_the_terms_of_the_generators_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 7))
        ctx = ring(*(f"v{i}" for i in range(n)))
        # an all-zero vector makes the unit ideal
        gens = data.draw(st.lists(st.tuples(*[st.integers(0, 12)] * n), max_size=5))
        I = MonomialIdeal.from_exponents(ctx, gens)
        assert I.render() == [str(Polynomial.from_monomial(ctx, e)) for e in I.min_gens]

    check()
    assert MonomialIdeal.from_exponents(ring("x"), [(0,)]).render() == ["1"]


def test_all_monomial_primes(ctx):
    ps = all_monomial_primes(ctx)
    assert len(ps) == 8
    assert len([p for p in all_monomial_primes(ctx) if p.height]) == 7


def test_all_monomial_primes_is_one_cached_tuple_per_variable_count():
    for n in range(1, 7):
        ps = all_monomial_primes(ring(*(f"x{i}" for i in range(n))))
        assert isinstance(ps, tuple)
        assert all_monomial_primes(ring(*(f"y{i}" for i in range(n)))) is ps
        subsets = [c for k in range(n + 1) for c in itertools.combinations(range(n), k)]
        assert [p.vars for p in ps] == sorted(subsets, key=lambda t: (len(t), t))


def test_mask_primes_match_the_tuple_reference_property():
    # Min, Assh, dim and height from the cover masks, and Ass from the
    # component masks, against index tuples, in the order they are written
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @hyp.given(_monomial_ideals(st, max_vars=6))
    def check(I):
        info = min_assh_dim(I)
        mins, assh, dim, height = cover_tuples(I)
        assert [p.vars for p in info.min_primes] == mins
        assert [p.vars for p in info.assh] == assh
        assert (info.dim, info.height) == (dim, height)
        ass = associated_primes(I)
        names = I.ctx.var_names
        assert [p.vars for p in ass] == ass_tuples(I)
        assert ass.render(I.ctx) == [[names[i] for i in t] for t in ass_tuples(I)]

    check()


def test_prime_vars_and_mask_round_trip_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @hyp.given(st.lists(st.integers(0, 9), max_size=8), st.randoms(use_true_random=False))
    def check(indices, rnd):
        p = MonomialPrime(indices)
        assert p.vars == tuple(sorted(set(indices)))
        assert p.mask == sum(1 << i for i in p.vars)
        assert p.height == len(p.vars)
        q = MonomialPrime.from_mask(p.mask)
        assert (q, q.vars, q.mask) == (p, p.vars, p.mask)
        # equality and hash ignore the order and the repeats of the indices
        shuffled = indices + indices[:2]
        rnd.shuffle(shuffled)
        r = MonomialPrime(shuffled)
        assert r == p and hash(r) == hash(p)
        assert repr(p) == f"MonomialPrime(vars={p.vars!r})"

    check()


def test_prime_set_operations_match_sets_of_index_tuples_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    families = st.sets(st.frozensets(st.integers(0, 4)), max_size=8)

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @hyp.given(families, families)
    def check(a, b):
        ta = {tuple(sorted(s)) for s in a}
        tb = {tuple(sorted(s)) for s in b}
        A = PrimeSet(map(MonomialPrime, ta))
        B = PrimeSet(map(MonomialPrime, tb))

        def written(ts):
            return sorted(ts, key=lambda t: (len(t), t))

        assert [p.vars for p in A] == [p.vars for p in A] == written(ta)
        assert [p.vars for p in A & B] == written(ta & tb)
        assert [p.vars for p in A | B] == written(ta | tb)
        assert A.issubset(B) == (ta <= tb)
        assert A.issubset(A | B) and (A & B).issubset(B)
        assert (A == B) == (ta == tb)

    check()


def test_prime_refuses_a_negative_index():
    # a negative index would wrap to the last variable when rendered
    with pytest.raises(RingError, match="nonnegative int variable index, not -1"):
        MonomialPrime((-1, 0))


def test_prime_refuses_a_bool_index():
    with pytest.raises(RingError, match="nonnegative int variable index, not True"):
        MonomialPrime((True,))


def test_prime_refuses_a_variable_name():
    with pytest.raises(RingError, match="nonnegative int variable index, not 'x'"):
        MonomialPrime(("x",))


def test_from_mask_refuses_a_negative_mask():
    with pytest.raises(RingError, match="nonnegative int vertex mask, not -1"):
        MonomialPrime.from_mask(-1)


def test_from_mask_refuses_a_bool_mask():
    with pytest.raises(RingError, match="nonnegative int vertex mask, not False"):
        MonomialPrime.from_mask(False)


def test_from_mask_refuses_a_non_int_mask():
    with pytest.raises(RingError, match=r"nonnegative int vertex mask, not 3\.0"):
        MonomialPrime.from_mask(3.0)


_OUTSIDE = "names variable index 5, outside a ring of 2 variables"


def test_meet_of_primes_refuses_a_variable_outside_the_ring():
    # the cover of (x_5) alone would be read as the empty cover, the unit
    # ideal, and the x_5 of (y, x_5) would be dropped from the meet
    ctx = ring("x", "y")
    with pytest.raises(RingError, match=_OUTSIDE):
        meet_of_primes(ctx, [MonomialPrime((5,))])
    with pytest.raises(RingError, match=_OUTSIDE):
        meet_of_primes(ctx, [MonomialPrime((0,)), MonomialPrime((1, 5))])
    assert meet_of_primes(ctx, [MonomialPrime((0, 1)), MonomialPrime((1,))]) == MI(ctx, "y")


def test_render_refuses_a_variable_outside_the_ring():
    ctx = ring("x", "y")
    with pytest.raises(RingError, match=_OUTSIDE):
        MonomialPrime((0, 5)).render(ctx)
    assert MonomialPrime((0, 1)).render(ctx) == ["x", "y"]


def test_to_ideal_refuses_a_variable_outside_the_ring():
    # without the refusal, looking up the name of x_5 raised IndexError
    ctx = ring("x", "y")
    with pytest.raises(RingError, match=_OUTSIDE):
        MonomialPrime((5,)).to_ideal(ctx)
    with pytest.raises(RingError, match=_OUTSIDE):
        MonomialPrime((0, 5)).to_ideal(ctx)
    assert MonomialPrime((0, 1)).to_ideal(ctx).gens == (parse_poly("x", ctx), parse_poly("y", ctx))


def test_contains_poly_refuses_a_variable_outside_the_ring():
    # without the refusal, (x_5) raised IndexError on x, and (x, x_5) held
    # x*y, reading only the variable x of the ring
    ctx = ring("x", "y")
    x, xy = parse_poly("x", ctx), parse_poly("x*y", ctx)
    with pytest.raises(RingError, match=_OUTSIDE):
        MonomialPrime((5,)).contains_poly(x)
    with pytest.raises(RingError, match=_OUTSIDE):
        MonomialPrime((0, 5)).contains_poly(xy)
    assert MonomialPrime((0,)).contains_poly(xy)
    assert not MonomialPrime((1,)).contains_poly(x)


def test_primes_are_immutable_and_pickle_by_mask():
    p = MonomialPrime((2, 0))
    with pytest.raises(AttributeError):
        p.mask = 1
    with pytest.raises(AttributeError):
        del p.vars
    assert pickle.loads(pickle.dumps(p)) == p
    assert (MonomialPrime(()).mask, MonomialPrime(()).vars) == (0, ())


def test_polarization_squarefree_and_depth_shift(ctx):
    m = MI(ctx, "x^2", "x*y")
    pol = polarize(m)
    for e in pol.ideal.min_gens:
        assert all(a <= 1 for a in e)
    assert len(pol.ideal.min_gens) == len(m.min_gens)
    # already squarefree: polarization is the identity
    sm = MI(ctx, "x*y", "y*z")
    pol2 = polarize(sm)
    assert pol2.ideal.ctx.n == ctx.n
    assert pol2.ideal == sm


def test_prime_contains_poly(ctx):
    p = MonomialPrime((0, 1))
    assert p.contains_poly(parse_poly("x^2 + y*z", ctx))
    assert not p.contains_poly(parse_poly("x + z", ctx))
    assert p.contains_poly(parse_poly("0", ctx))
    assert MonomialPrime(()).contains_poly(parse_poly("0", ctx))
    assert not MonomialPrime(()).contains_poly(parse_poly("x", ctx))
