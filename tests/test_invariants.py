"""Attached/associated prime sets of (formal) top local cohomology."""

import pytest

from engine_routes import rabinowitsch_is_maximal
from linkcoh.groebner import Ideal, ideal_sum, is_proper
from linkcoh.invariants import (
    GRADED_NOTE,
    _minimal_over,
    ass_formal_zeroth,
    assh,
    att_top,
    height_in_module,
    is_equidimensional,
)
from linkcoh.modules import CyclicModule, maximal_ideal
from linkcoh import monomial
from linkcoh.monomial import (
    ImproperIdealError,
    MonomialIdeal,
    MonomialPrime,
    PrimeSet,
    associated_primes,
    min_assh_dim,
)
from linkcoh.ring import Polynomial, RingError, parse_poly, ring
from linkcoh.theorems import Verdict
from oracles import att_top_via_cd, minimal_over_by_colons, radical_is_maximal

import random


def squarefree(rng, ctx):
    gens = []
    for _ in range(rng.randint(1, 4)):
        e = tuple(1 if rng.random() < 0.5 else 0 for _ in range(ctx.n))
        if any(e):
            gens.append(e)
    return MonomialIdeal.from_exponents(ctx, gens)


def I_of(ctx, *texts):
    return Ideal(ctx, [parse_poly(t, ctx) for t in texts])


def R_mod(ctx, *texts):
    if not texts:
        return CyclicModule.full_ring(ctx)
    return CyclicModule(ctx, I_of(ctx, *texts))


def primes(*var_tuples):
    return PrimeSet(MonomialPrime(v) for v in var_tuples)


# ---------------------------------------------------------------------------
# att_top hand values.

def test_att_top_picks_the_branch_that_becomes_isolated():
    # on R/(xy), the ideal (x) is cofinal with m only along the branch (y)
    ctx = ring("x", "y")
    M = R_mod(ctx, "x*y")
    assert att_top(I_of(ctx, "x"), M) == primes((1,))
    assert att_top(I_of(ctx, "y"), M) == primes((0,))


def test_att_top_of_maximal_ideal_is_assh():
    ctx = ring("x", "y", "z")
    for M in [R_mod(ctx), R_mod(ctx, "x*y"), R_mod(ctx, "x*z", "y*z")]:
        m = I_of(ctx, "x", "y", "z")
        assert att_top(m, M) == assh(M)


def test_att_top_of_maximal_ideal_is_assh_property():
    # m + p = m for every prime p, so along m every top prime is attached;
    # l15 reads assh(M) for this set
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 5))
        ctx = ring(*[f"x{i}" for i in range(n)])
        exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
        J = MonomialIdeal.from_exponents(ctx, data.draw(st.lists(exps, max_size=4)))
        hyp.assume(not J.is_unit())
        M = CyclicModule(ctx, J.to_ideal())
        assert att_top(maximal_ideal(ctx), M) == assh(M), J.min_gens

    check()


def test_att_top_along_zero_is_empty_in_positive_dimension():
    ctx = ring("x", "y")
    M = R_mod(ctx, "x*y")
    assert att_top(Ideal.zero(ctx), M) == PrimeSet()


def test_att_top_ignores_embedded_primes():
    ctx = ring("x", "y")
    M = R_mod(ctx, "x^2", "x*y")  # Ass = {(x), (x,y)}, assh = {(x)}
    assert att_top(I_of(ctx, "y"), M) == primes((0,))
    assert att_top(I_of(ctx, "x"), M) == PrimeSet()


def test_att_top_rejects_improper():
    ctx = ring("x", "y")
    M = R_mod(ctx, "x*y")
    with pytest.raises(ImproperIdealError):
        att_top(I_of(ctx, "1"), M)


def test_att_top_nonmonomial_argument_still_works():
    # a homogeneous a asks whether R/(a + p) has dimension zero
    ctx = ring("x", "y")
    M = R_mod(ctx, "x*y")
    assert att_top(I_of(ctx, "x + y"), M) == primes((0,), (1,))


def test_non_graded_a_is_answered_at_the_variables():
    # cofinality is asked at the ideal of variables: (x - x^2, z) equals
    # (x, z) after localizing there, so along the branch (y) it becomes the
    # ideal of variables, its second zero at x = 1 unseen; (x - 1) is the
    # unit ideal at the variables, so nothing qualifies; the generators of
    # (x - y, x - y + z^2) are not homogeneous, its basis is
    ctx = ring("x", "y", "z")
    M = R_mod(ctx, "x*y")
    for route in (att_top, ass_formal_zeroth):
        assert route(I_of(ctx, "x - x^2", "z"), M) == route(I_of(ctx, "x", "z"), M) == primes((1,))
        assert route(I_of(ctx, "x - x^2"), M) == PrimeSet()
        assert route(I_of(ctx, "x - 1", "z"), M) == PrimeSet()
    graded = I_of(ctx, "x - y", "x - y + z^2")
    assert att_top(graded, M) == att_top(I_of(ctx, "x - y", "z^2"), M) == primes((0,), (1,))


def test_both_sets_refuse_an_ideal_of_another_ring():
    # a from Q[x, y] against R/(xy) over Q[x, y, z], held as an Ideal,
    # monomial or not, and as a MonomialIdeal
    small, big = ring("x", "y"), ring("x", "y", "z")
    M = R_mod(big, "x*y")
    for a in (I_of(small, "x"), I_of(small, "x - y^2"), MonomialIdeal.from_exponents(small, [(1, 0)])):
        for route in (att_top, ass_formal_zeroth):
            with pytest.raises(RingError, match="^ideals live in different rings$"):
                route(a, M)


def test_minimal_over_matches_the_colon_chain():
    # the ideal of variables is minimal over K exactly when K lies in it and
    # K : m^infinity does not; the saturations by each variable agree with
    # the chain of colons K : m^N, which takes no Rabinowitsch tag
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 3))
        ctx = ring(*[f"x{i}" for i in range(n)])
        # terms of mixed degrees, none of them constant
        exps = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple).filter(any)

        def poly():
            terms = data.draw(st.lists(exps, min_size=1, max_size=3, unique=True))
            signs = data.draw(st.lists(st.sampled_from((-1, 1, 2)), min_size=len(terms), max_size=len(terms)))
            return Polynomial(ctx, dict(zip(terms, signs)))

        K = Ideal(ctx, [poly() for _ in range(data.draw(st.integers(1, 3)))])
        got = _minimal_over(K)
        assert got == minimal_over_by_colons(K), K.gens
        seen.add(got)

    seen = set()
    check()
    assert seen == {True, False}


def test_homogeneous_cofinality_matches_radical_membership():
    # for homogeneous a, a + p is primary to the ideal of variables exactly
    # when V(a + p) = {0}: the dimension test agrees with the oracle's
    # radical membership of every variable
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 3))
        ctx = ring(*[f"x{i}" for i in range(n)])

        def form(d):
            # a form of degree d: a signed sum of two or three terms
            exps = st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1).filter(
                lambda e: sum(e) <= d
            ).map(lambda e: (*e, d - sum(e)))
            terms = data.draw(st.lists(exps, min_size=2, max_size=3, unique=True))
            signs = data.draw(st.lists(st.sampled_from((-1, 1, 2)), min_size=len(terms), max_size=len(terms)))
            return Polynomial(ctx, dict(zip(terms, signs)))

        a = Ideal(ctx, [form(data.draw(st.integers(1, 2))) for _ in range(data.draw(st.integers(1, 2)))])
        J = MonomialIdeal.from_exponents(ctx, data.draw(st.lists(
            st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple).filter(any), max_size=3
        )))
        M = CyclicModule(ctx, J.to_ideal())
        expected = PrimeSet(
            p for p in M.primes().ass if radical_is_maximal(ideal_sum(a, p.to_ideal(ctx)))
        )
        assert ass_formal_zeroth(a, M) == expected, (a.gens, J.min_gens)
        seen.add((monomial.as_monomial(a) is None, bool(expected)))

    seen = set()
    check()
    assert {(True, True), (True, False)} <= seen


# ---------------------------------------------------------------------------
# agreement of the two att_top routes.

def test_att_top_routes_agree_on_random_squarefree():
    rng = random.Random(7)
    checked = 0
    for n in (2, 3, 4):
        ctx = ring(*[f"x{i}" for i in range(n)])
        for _ in range(12):
            J = squarefree(rng, ctx)
            if J.is_unit():
                continue
            M = CyclicModule(ctx, J.to_ideal())
            a = squarefree(rng, ctx)
            if not a.min_gens or a.is_unit():
                continue
            left = att_top(a.to_ideal(), M)
            right = att_top_via_cd(a.to_ideal(), M)
            assert left == right, (n, J.min_gens, a.min_gens)
            checked += 1
    assert checked >= 25


def test_monomial_cofinality_matches_radical_membership():
    # for monomial a the cofinality of a + p is read off the pure powers
    # among a's minimal generators; the reference runs one Rabinowitsch
    # basis per variable over a + p
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 4))
        ctx = ring(*[f"x{i}" for i in range(n)])

        def monomial_ideal(least):
            exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
            return MonomialIdeal.from_exponents(ctx, data.draw(st.lists(exps, min_size=least, max_size=4)))

        J, a = monomial_ideal(0), monomial_ideal(1)
        hyp.assume(not J.is_unit() and not a.is_squarefree())
        M, A = CyclicModule(ctx, J.to_ideal()), a.to_ideal()

        def cofinal(p):
            return rabinowitsch_is_maximal(ideal_sum(A, p.to_ideal(ctx)))

        expected = PrimeSet(p for p in M.primes().ass if cofinal(p))
        assert ass_formal_zeroth(A, M) == expected, (J.min_gens, a.min_gens)
        if is_proper(ideal_sum(A, M.ideal)):
            assert att_top(A, M) == PrimeSet(p for p in assh(M) if cofinal(p))
        # a + p is then the unit ideal, which is not the ideal of variables
        assert ass_formal_zeroth(Ideal.unit(ctx), M) == PrimeSet()

    check()


def test_att_sets_take_a_term_ideal_as_the_ideal_it_generates():
    # att_top and ass_formal_zeroth read a MonomialIdeal a as it is, and
    # answer, or refuse, as for a.to_ideal(): over a monomial J, and over a
    # non-monomial one, where the attached sets are refused and a + J may
    # be the unit ideal
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def outcome(f, a, M):
        try:
            return f(a, M)
        except RingError as err:
            return type(err), str(err)

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 4))
        ctx = ring(*[f"x{i}" for i in range(n)])
        exps = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
        gens = MonomialIdeal.from_exponents(ctx, data.draw(st.lists(exps.filter(any), max_size=3)))
        extra = data.draw(st.sampled_from(["", "x0 - 1", "x0 - x1"]))
        J = Ideal(ctx, [*gens.to_ideal().gens, *([parse_poly(extra, ctx)] if extra else [])])
        hyp.assume(is_proper(J))
        M = CyclicModule(ctx, J)
        a = MonomialIdeal.from_exponents(ctx, data.draw(st.lists(exps, max_size=3)))
        for f in (att_top, ass_formal_zeroth):
            assert outcome(f, a, M) == outcome(f, a.to_ideal(), M), (f, a.min_gens, J)

    check()


def test_att_top_via_cd_needs_monomial():
    ctx = ring("x", "y")
    with pytest.raises(RingError):
        att_top_via_cd(I_of(ctx, "x + y"), R_mod(ctx, "x*y"))


# ---------------------------------------------------------------------------
# zeroth formal local cohomology.

def test_ass_formal_zeroth_sees_embedded_primes():
    ctx = ring("x", "y")
    M = R_mod(ctx, "x^2", "x*y")
    # (x) survives along y; the embedded maximal ideal is always cofinal
    assert ass_formal_zeroth(I_of(ctx, "y"), M) == primes((0,), (0, 1))
    assert ass_formal_zeroth(I_of(ctx, "x"), M) == primes((0, 1))
    assert ass_formal_zeroth(Ideal.zero(ctx), M) == primes((0, 1))


def test_ass_formal_zeroth_contains_att_top():
    ctx = ring("x", "y", "z")
    M = R_mod(ctx, "x*y", "x*z")
    for texts in [("y",), ("x",), ("y", "z"), ("x + y",)]:
        a = I_of(ctx, *texts)
        assert att_top(a, M).issubset(ass_formal_zeroth(a, M))


# ---------------------------------------------------------------------------
# heights, equidimensionality, Verdict.

def test_height_in_module():
    ctx = ring("x", "y", "z")
    M = R_mod(ctx, "x*y")  # minimal primes (x), (y)
    assert height_in_module(MonomialPrime((0,)), M) == 0
    assert height_in_module(MonomialPrime((0, 1)), M) == 1
    assert height_in_module(MonomialPrime((0, 1, 2)), M) == 2
    with pytest.raises(RingError):
        height_in_module(MonomialPrime((2,)), M)  # (z) not in the support
    with pytest.raises(RingError):
        height_in_module(MonomialPrime((0,)), CyclicModule(ctx, I_of(ctx, "x + y^2")))


def test_height_in_module_refuses_a_variable_outside_the_ring():
    # the mask test alone would read (x, x_5) as height 1 over R/(x)
    ctx = ring("x", "y")
    M = R_mod(ctx, "x")
    with pytest.raises(RingError, match="names variable index 5, outside a ring of 2"):
        height_in_module(MonomialPrime((0, 5)), M)
    assert height_in_module(MonomialPrime((0, 1)), M) == 1


def test_height_in_module_takes_largest_gap():
    ctx = ring("x", "y", "z")
    M = R_mod(ctx, "x*y", "x*z")  # minimal primes (x) and (y, z)
    assert height_in_module(MonomialPrime((0, 1, 2)), M) == 2


def test_is_equidimensional():
    ctx = ring("x", "y", "z")
    assert is_equidimensional(R_mod(ctx))
    assert is_equidimensional(R_mod(ctx, "x*y"))
    assert is_equidimensional(R_mod(ctx, "x*y", "x*z", "y*z"))
    assert not is_equidimensional(R_mod(ctx, "x*y", "x*z"))
    with pytest.raises(RingError):
        is_equidimensional(CyclicModule(ctx, I_of(ctx, "x + y^2")))


def test_module_ass_primes_requires_monomial():
    ctx = ring("x", "y")
    with pytest.raises(RingError):
        CyclicModule(ctx, I_of(ctx, "x^2 + y")).primes().ass


def test_assh_hand_values():
    ctx = ring("x", "y", "z")
    assert assh(R_mod(ctx, "x*y", "x*z")) == primes((0,))
    assert assh(R_mod(ctx, "x*y")) == primes((0,), (1,))
    assert assh(R_mod(ctx)) == primes(())
    with pytest.raises(RingError):
        assh(CyclicModule(ctx, I_of(ctx, "x*y + z^2")))


# ---------------------------------------------------------------------------
# the prime record of a cyclic module.

def test_prime_invariants_share_one_decomposition(monkeypatch):
    calls = []
    real = monomial.irreducible_decomposition

    def counted(I):
        calls.append(I)
        return real(I)

    monkeypatch.setattr(monomial, "irreducible_decomposition", counted)
    ctx = ring("x", "y")
    M = R_mod(ctx, "x^2", "x*y")
    a = I_of(ctx, "y")
    att_top(a, M)
    ass_formal_zeroth(a, M)
    assh(M)
    M.primes().ass
    height_in_module(MonomialPrime((0, 1)), M)
    is_equidimensional(M)
    M.dim()
    assert len(calls) == 1


def test_prime_record_matches_its_definitions():
    # Assh read off the minimal primes is the top-dimensional part of Ass,
    # and the module's dimension is the record's
    rng = random.Random(71)
    for n in (2, 3, 4):
        ctx = ring(*[f"x{i}" for i in range(n)])
        ideals = [MonomialIdeal(ctx, ())]
        for _ in range(69):
            exps = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            ideals.append(MonomialIdeal.from_exponents(ctx, [e for e in exps if any(e)]))
        for J in ideals:
            info = min_assh_dim(J)
            assert info.ass == associated_primes(J), J
            assert info.assh == PrimeSet(p for p in info.ass if n - p.height == info.dim), J
            assert CyclicModule(ctx, J.to_ideal()).dim() == info.dim, J


def test_verdict_shapes():
    v = Verdict.passing(witnesses=("w",), notes=("n",))
    assert (v.status, v.holds) == ("pass", True)
    f = Verdict.failing("bad", notes=("n",))
    assert (f.status, f.holds, f.counterexample) == ("fail", False, "bad")
    s = Verdict.skipped("why")
    assert (s.status, s.holds, s.notes) == ("skip", None, ("why",))
    i = Verdict.inconclusive("dunno")
    assert i.status == "inconclusive" and i.holds is None
    for status, holds in (("pass", True), ("fail", False), ("skip", None), ("inconclusive", None)):
        assert Verdict(status).holds is holds
    # a verdict names no claim; the claim lab puts the claim's key in front
    assert "claim" not in f.as_json()
    doc = {"claim": "c", **f.as_json()}
    assert doc == {
        "claim": "c",
        "holds": False,
        "status": "fail",
        "witnesses": [],
        "notes": ["n"],
        "counterexample": "bad",
    }
    assert GRADED_NOTE and isinstance(GRADED_NOTE, str)
