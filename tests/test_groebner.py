"""Groebner engine: reduced bases, membership, quotients, budgets.

Membership on homogeneous inputs is cross-checked against a test-local
linear-algebra oracle: f lies in I in degree d exactly when f is a
rational combination of the monomial multiples of the generators in
degree d.
"""

import itertools
import random
from fractions import Fraction
from operator import mul

import pytest

from engine_routes import (
    engine_gb,
    engine_quotient,
    lex,
    normal_form,
    reference_lcm,
    tag_intersect,
)
from linkcoh import cli, groebner
from linkcoh.groebner import (
    BudgetExceeded,
    Ideal,
    _buchberger,
    _gb,
    eliminate,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    ideal_quotient,
    ideal_sum,
    is_proper,
    is_unit_ideal,
    module_reduce,
    module_table,
    radical_member,
    reduced_gb,
    regular_steps,
    saturate,
    set_limits,
)
from linkcoh.monomial import as_monomial
from linkcoh.ring import (
    DEGREVLEX,
    Polynomial,
    RingError,
    elimination_order,
    mono_divides,
    mono_mul,
    parse_poly,
    ring,
)
from oracles import s_polynomial


def P(ctx, text):
    return parse_poly(text, ctx)


def I_of(ctx, *texts):
    return Ideal(ctx, [parse_poly(t, ctx) for t in texts])


# ---------------------------------------------------------------------------
# Linear-algebra membership oracle for homogeneous ideals.

def monomials_of_degree(n, d):
    for bars in itertools.combinations(range(d + n - 1), n - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + n - 2 - prev)
        yield tuple(exps)


def total_degree(p):
    return max((sum(e) for e in p.term_map()), default=-1)


def homogeneous_member_oracle(f, gens, ctx):
    """Exact span test in the graded piece of f's degree."""
    d = total_degree(f)
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        dg = total_degree(g)
        if dg > d:
            continue
        for e in monomials_of_degree(ctx.n, d - dg):
            rows.append(g * Polynomial.from_monomial(ctx, e))
    basis = sorted(set(m for r in rows for m in r.term_map()) | set(f.term_map()))
    index = {m: k for k, m in enumerate(basis)}

    def vec(p):
        v = [Fraction(0)] * len(basis)
        for m, c in p.term_map().items():
            v[index[m]] = c
        return v

    matrix = [vec(r) for r in rows]
    target = vec(f)
    # Gaussian elimination; reduce target against the row space
    pivot_cols = []
    reduced = []
    for row in matrix:
        row = row[:]
        for col, rr in zip(pivot_cols, reduced):
            if row[col]:
                fac = row[col] / rr[col]
                row = [a - fac * b for a, b in zip(row, rr)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is not None:
            pivot_cols.append(lead)
            reduced.append(row)
    for col, rr in zip(pivot_cols, reduced):
        if target[col]:
            fac = target[col] / rr[col]
            target = [a - fac * b for a, b in zip(target, rr)]
    return all(a == 0 for a in target)


def random_homogeneous(rng, ctx, degree):
    p = Polynomial.zero(ctx)
    monos = list(monomials_of_degree(ctx.n, degree))
    for e in rng.sample(monos, k=min(len(monos), rng.randint(1, 3))):
        p = p + Polynomial.from_monomial(ctx, e, Fraction(rng.randint(-2, 2)))
    return p


def test_membership_matches_linear_algebra_oracle():
    ctx = ring("x", "y", "z")
    rng = random.Random(17)
    agreements = 0
    for _ in range(120):
        gens = [random_homogeneous(rng, ctx, rng.randint(1, 3)) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = Ideal(ctx, gens)
        f = random_homogeneous(rng, ctx, rng.randint(1, 4))
        if f.is_zero():
            continue
        assert ideal_member(f, I) == homogeneous_member_oracle(f, gens, ctx)
        agreements += 1
    assert agreements >= 100


def test_reduced_gb_shape_and_idempotence():
    ctx = ring("x", "y")
    I = I_of(ctx, "x^2 + y", "x*y")
    gb = reduced_gb(I)
    # monic leads, pairwise non-divisible, tails fully reduced
    leads = [g.lead()[0] for g in gb]
    for g in gb:
        assert g.lead()[1] == 1
    for i, u in enumerate(leads):
        for j, v in enumerate(leads):
            if i != j:
                assert not all(a <= b for a, b in zip(u, v))
    again = reduced_gb(Ideal(ctx, list(gb)))
    assert list(again) == list(gb)


def test_spair_closure_of_reduced_gb():
    ctx = ring("x", "y", "z")
    rng = random.Random(3)
    for _ in range(25):
        gens = [random_homogeneous(rng, ctx, rng.randint(1, 3)) for _ in range(2)]
        I = Ideal(ctx, [g for g in gens if not g.is_zero()] or [Polynomial.zero(ctx)])
        gb = reduced_gb(I)
        for g, h in itertools.combinations(gb, 2):
            assert normal_form(s_polynomial(g, h), gb).is_zero()


def test_zero_and_unit_ideals():
    ctx = ring("x", "y")
    Z = Ideal.zero(ctx)
    assert Z.is_zero_ideal()
    assert is_proper(Z)
    assert not ideal_member(P(ctx, "x"), Z)
    assert ideal_member(Polynomial.zero(ctx), Z)
    U = I_of(ctx, "x", "x + 1")
    assert is_unit_ideal(U)
    assert not is_proper(U)


def test_equality_containment_sum_product():
    ctx = ring("x", "y")
    A = I_of(ctx, "x", "y")
    B = I_of(ctx, "y", "x")
    C = I_of(ctx, "x + y", "x - y")
    assert ideal_equal(A, B)
    assert ideal_equal(A, C)
    assert all(ideal_member(g, A) for g in I_of(ctx, "x*y").gens)
    assert not all(ideal_member(g, I_of(ctx, "x*y")) for g in A.gens)
    S = ideal_sum(I_of(ctx, "x"), I_of(ctx, "y"))
    assert ideal_equal(S, A)
    Pr = Ideal(ctx, [f * g for f in I_of(ctx, "x").gens for g in I_of(ctx, "y").gens])
    assert ideal_equal(Pr, I_of(ctx, "x*y"))


def test_intersection_hand_and_membership_property():
    ctx = ring("x", "y", "z")
    T = ideal_intersect(I_of(ctx, "x"), I_of(ctx, "y"))
    assert ideal_equal(T, I_of(ctx, "x*y"))
    rng = random.Random(9)
    for _ in range(15):
        A = Ideal(ctx, [random_homogeneous(rng, ctx, rng.randint(1, 2)) for _ in range(2)])
        B = Ideal(ctx, [random_homogeneous(rng, ctx, rng.randint(1, 2)) for _ in range(2)])
        T = ideal_intersect(A, B)
        # the colon over R^2 lists the basis the tag-variable route eliminates to
        assert T.gens == tag_intersect(A, B).gens
        for g in reduced_gb(T):
            if not g.is_zero():
                assert ideal_member(g, A) and ideal_member(g, B)
        for g in reduced_gb(Ideal(ctx, [f * h for f in A.gens for h in B.gens])):
            if not g.is_zero():
                assert ideal_member(g, T)


def test_quotient_hand_cases_and_property():
    ctx = ring("x", "y")
    assert ideal_equal(ideal_quotient(I_of(ctx, "x*y"), I_of(ctx, "x")), I_of(ctx, "y"))
    assert ideal_equal(
        ideal_quotient(I_of(ctx, "x^2", "x*y"), I_of(ctx, "x")), I_of(ctx, "x", "y")
    )
    # (I : J) * J inside I
    A = I_of(ctx, "x^2", "y^3")
    B = I_of(ctx, "x*y")
    Q = ideal_quotient(A, B)
    for q in Q.gens:
        for b in B.gens:
            assert ideal_member(q * b, A)
    # the tag-variable intersection is the oracle for the engine's syzygy
    # colon, called directly since an all-term I and g would not reach it:
    # (I : g)*g = I ∩ (g), and I : (g1, g2) = (I : g1) ∩ (I : g2)
    ctx = ring("x", "y", "z")
    rng = random.Random(31)

    def terms_poly(nterms):
        while True:
            terms = {}
            for _ in range(nterms):
                e = [0, 0, 0]
                for _ in range(rng.randint(1, 3)):
                    e[rng.randrange(3)] += 1
                terms[tuple(e)] = Fraction(rng.choice([-2, -1, 1, 2]))
            p = Polynomial(ctx, terms)
            if not p.is_zero():
                return p

    def seeded(Q):
        # the colon seeds its degrevlex basis, listed as a fresh run lists it
        assert Q._gb == tuple(_gb(Q.ctx, Q.gens, DEGREVLEX))
        return Q

    for _ in range(10):
        I = Ideal(ctx, [terms_poly(2) for _ in range(rng.randint(1, 3))])
        g1, g2 = terms_poly(1), terms_poly(2)  # a monomial and a binomial
        for g in (g1, g2):
            G = Ideal(ctx, [g])
            Q = seeded(engine_quotient(I, G))
            assert seeded(ideal_quotient(I, G)).gens == Q.gens
            assert engine_gb(Ideal(ctx, [q * g for q in Q.gens])) == engine_gb(tag_intersect(I, G))
        parts = [seeded(engine_quotient(I, Ideal(ctx, [g]))) for g in (g1, g2)]
        Q = seeded(engine_quotient(I, Ideal(ctx, [g1, g2])))
        assert engine_gb(Q) == engine_gb(tag_intersect(*parts))
    # the zero colon: its generator list holds one zero, its basis is empty
    assert seeded(engine_quotient(Ideal.zero(ctx), Ideal(ctx, [g1]))).is_zero_ideal()
    assert seeded(ideal_quotient(Ideal.zero(ctx), Ideal(ctx, [g1]))).is_zero_ideal()


def test_monomial_dispatch_matches_engine():
    # ideals given by terms are answered by divisibility, without one S-pair;
    # the answers equal the engine's tuple for tuple, cache included
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def term_ideal(draw, ctx):
        gens = []
        for _ in range(draw(st.integers(0, 4))):
            e = draw(st.lists(st.integers(0, 3), min_size=ctx.n, max_size=ctx.n))
            gens.append(Polynomial(ctx, {tuple(e): draw(st.sampled_from([-2, 1, 3]))}))
        return Ideal(ctx, gens)

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=120)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyzw"[: data.draw(st.integers(2, 4))])
        I, J = data.draw(term_ideal(ctx)), data.draw(term_ideal(ctx))
        with set_limits(max_spairs=0):
            basis = reduced_gb(I)
            X = ideal_intersect(I, J)
            Q = None if J.is_zero_ideal() else ideal_quotient(I, J)
        T = tag_intersect(I, J)
        assert X.gens == T.gens
        assert basis == engine_gb(I)
        assert reduced_gb(X) == engine_gb(T)
        if Q is not None:
            E = engine_quotient(I, J)
            assert Q.gens == E.gens and Q._gb == E._gb

    check()


def test_monomial_dispatch_honours_soft_timeout():
    ctx = ring("x", "y", "z")
    I, J = I_of(ctx, "x^3*y", "y^2*z", "x*z^4"), I_of(ctx, "x*y", "z^2")
    with set_limits(soft_timeout=0):
        with pytest.raises(BudgetExceeded, match="^monomial colon"):
            ideal_quotient(I, J)
        with pytest.raises(BudgetExceeded, match="^monomial intersection"):
            ideal_intersect(I, J)
    # a term ideal's reduced basis is one quadratic minimalize scan, which
    # checks the deadline every 256 candidates: all 276 terms of degree 22
    terms = [(a, b, 22 - a - b) for a in range(23) for b in range(23 - a)]
    many = Ideal(ctx, [Polynomial(ctx, {e: 1}) for e in terms])
    with set_limits(soft_timeout=0):
        with pytest.raises(BudgetExceeded, match="^minimalize"):
            reduced_gb(many)
    assert len(reduced_gb(many)) == 276


def test_saturation():
    ctx = ring("x", "y")
    S = saturate(I_of(ctx, "x^2*y", "x*y^2"), P(ctx, "x"))
    assert ideal_equal(S, I_of(ctx, "y"))
    # saturation is idempotent
    assert ideal_equal(saturate(S, P(ctx, "x")), S)


def test_eliminate():
    ctx = ring("t", "x", "y")
    I = I_of(ctx, "x - t^2", "y - t^3")
    E = eliminate(I, ["t"])
    # the result lives over the smaller ring Q[x, y]
    assert E.ctx.var_names == ("x", "y")
    assert ideal_member(parse_poly("y^2 - x^3", E.ctx), E)
    assert ideal_equal(E, Ideal(E.ctx, [parse_poly("x^3 - y^2", E.ctx)]))


def test_radical_member():
    ctx = ring("x", "y")
    assert radical_member(P(ctx, "x"), I_of(ctx, "x^2"))
    cube = parse_poly("x + y", ctx) ** 3
    assert radical_member(P(ctx, "x + y"), Ideal(ctx, [cube]))
    assert not radical_member(P(ctx, "x"), I_of(ctx, "y"))
    assert radical_member(P(ctx, "x*y"), I_of(ctx, "x^2*y^3"))


@pytest.mark.parametrize("gens", [("x", "y*z"), ("x - y", "y*z")])
def test_membership_refuses_a_polynomial_from_another_ring(gens):
    # y of Q[x, y] is no element of Q[x, y, z]: the term ideal's divisibility
    # test and the reducer table of the other ideal would each read its
    # two-entry exponents against three variables
    small, big = ring("x", "y"), ring("x", "y", "z")
    for test in (ideal_member, radical_member):
        with pytest.raises(RingError, match="^mixed ring contexts$"):
            test(P(small, "y"), I_of(big, *gens))


def test_radical_member_asks_membership_before_a_rabinowitsch_run(monkeypatch):
    calls = []
    real = groebner._rabinowitsch

    def counted(I, f):
        calls.append(f)
        return real(I, f)

    monkeypatch.setattr(groebner, "_rabinowitsch", counted)
    ctx = ring("x", "y")
    # members of a term ideal and of a non-term one, and zero
    assert radical_member(P(ctx, "x*y"), I_of(ctx, "x^2", "y"))
    assert radical_member(P(ctx, "x^3 - x*y"), I_of(ctx, "x^2 - y", "y^3"))
    assert radical_member(Polynomial.zero(ctx), I_of(ctx, "x^2 - y"))
    assert calls == []
    # x is no member of (x^2 - y, y^3), but x^6 is
    assert radical_member(P(ctx, "x"), I_of(ctx, "x^2 - y", "y^3"))
    assert calls == [P(ctx, "x")]


def test_random_membership_of_constructed_elements():
    ctx = ring("x", "y", "z")
    rng = random.Random(23)
    for _ in range(20):
        gens = [random_homogeneous(rng, ctx, rng.randint(1, 2)) for _ in range(2)]
        I = Ideal(ctx, [g for g in gens if not g.is_zero()] or [Polynomial.zero(ctx)])
        combo = Polynomial.zero(ctx)
        for g in I.gens:
            e = tuple(rng.randint(0, 1) for _ in range(3))
            combo = combo + g * Polynomial.from_monomial(ctx, e, rng.randint(-2, 2))
        assert ideal_member(combo, I)
        if is_proper(I):
            assert not ideal_member(combo + 1, I)


def test_budget_trips():
    ctx = ring("x", "y", "z", "w")
    hard = I_of(ctx, "x^3*y - z*w^2 + x", "y^2*w - x*z^2", "z^3 - x*y*w", "w^3 - x^2*y^2")
    with set_limits(max_spairs=3):
        with pytest.raises(BudgetExceeded):
            reduced_gb(hard)
    # fresh ideal object: the capped run must not have poisoned any cache
    hard2 = I_of(ctx, "x^3*y - z*w^2 + x", "y^2*w - x*z^2", "z^3 - x*y*w", "w^3 - x^2*y^2")
    assert len(reduced_gb(hard2)) > 0


def test_ideal_parse():
    ctx = ring("x", "y")
    I = Ideal.parse(ctx, "x^2, x*y")
    assert len(I.gens) == 2
    Z = Ideal.parse(ctx, "0")
    assert Z.is_zero_ideal()


def test_the_zero_ideal_has_no_generators():
    ctx = ring("x", "y")
    x = Polynomial.variable(ctx, "x")
    assert Ideal.zero(ctx).gens == ()
    assert Ideal(ctx, [x - x]).gens == ()
    assert Ideal(ctx, [x - x, x]).gens == (x,)
    assert repr(Ideal.zero(ctx)) == "<ideal (0)>"


def test_monomial_gens_is_computed_once_per_ideal(monkeypatch):
    ctx = ring("x", "y")
    terms = Ideal.parse(ctx, "x^2*y, x*y, y^3")
    binomial = Ideal.parse(ctx, "x^2 - y, x*y")
    first = groebner.monomial_gens(terms)
    assert first == ((1, 1), (0, 3))
    assert groebner.monomial_gens(binomial) is None
    # the answers, None included, come from the ideals from now on
    monkeypatch.setattr(groebner, "minimalize", None)
    monkeypatch.setattr(Polynomial, "is_term", None)
    assert groebner.monomial_gens(terms) is first
    assert groebner.monomial_gens(binomial) is None


def _term_ideal(st, ctx):
    """A hypothesis strategy of ideals of ctx given by terms, with the zero
    ideal, constants and repeated generators among them."""
    exps = st.lists(st.integers(0, 2), min_size=ctx.n, max_size=ctx.n).map(tuple)
    terms = st.builds(lambda e, c: Polynomial(ctx, {e: c}), exps, st.sampled_from([-2, 1, 3]))
    gens = st.lists(st.one_of(terms, st.just(Polynomial.zero(ctx))), max_size=4)
    return gens.map(lambda g: Ideal(ctx, g + g[: len(g) // 2]))


def test_unit_test_of_term_ideals_reads_the_generators():
    # a term ideal is the unit ideal exactly when the engine's basis is (1);
    # the answer builds no basis and minimalizes nothing
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyz"[: data.draw(st.integers(2, 3))])
        I = data.draw(_term_ideal(st, ctx))
        unit = _gb(ctx, I.gens, DEGREVLEX) == [Polynomial.const(ctx, 1)]
        assert is_unit_ideal(I) == unit
        assert is_proper(I) != unit
        assert I._gb is None and I._monomial_gens is groebner._NOT_COMPUTED

    check()


def test_seeded_monomial_gens_match_a_fresh_look():
    # colons, intersections and `to_ideal` seed the minimal generators they
    # hold; they equal what `monomial_gens` finds on the same generators
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyz"[: data.draw(st.integers(2, 3))])
        I, J = data.draw(_term_ideal(st, ctx)), data.draw(_term_ideal(st, ctx))
        made = [ideal_intersect(I, J), as_monomial(I).to_ideal()]
        if not J.is_zero_ideal():
            made.append(ideal_quotient(I, J))
        for Q in made:
            assert Q._monomial_gens is not groebner._NOT_COMPUTED
            assert Q._monomial_gens == groebner.monomial_gens(Ideal(ctx, Q.gens))

    check()


# ---------------------------------------------------------------------------
# Answers found without the engine, held against the engine routes.

def _poly(st, ctx, constant):
    """A hypothesis strategy of nonzero polynomials of ctx with up to three
    terms of degree <= 2; `constant` decides whether one has degree 0."""
    exps = st.lists(st.integers(0, 1), min_size=ctx.n, max_size=ctx.n).map(tuple)
    coeffs = st.sampled_from([-2, -1, 1, 3])
    terms = st.dictionaries(exps.filter(any), coeffs, min_size=1, max_size=3)
    one = (0,) * ctx.n
    if constant:
        terms = st.builds(lambda t, c: {**t, one: c}, terms, coeffs)
    return terms.map(lambda t: Polynomial(ctx, t))


def _engine_runs(monkeypatch):
    """A list that gains one entry per `groebner._buchberger` call."""
    runs = []
    real = groebner._buchberger

    def counted(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    return runs


def test_unit_test_by_the_origin_matches_the_engine(monkeypatch):
    # an ideal none of whose generators has a constant term lies in the
    # ideal of the variables: proper, with no basis built; the others are
    # decided as the engine decides them
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    runs = _engine_runs(monkeypatch)
    ctx = ring("x", "y")
    assert not is_unit_ideal(I_of(ctx, "x - 1"))
    assert is_unit_ideal(I_of(ctx, "x*y + 1", "x"))
    assert len(runs) == 2  # a constant term, and no constant generator
    assert is_unit_ideal(I_of(ctx, "x^2 - y", "3")) and is_unit_ideal(I_of(ctx, "x", "2"))
    assert not is_unit_ideal(I_of(ctx, "x^2 - y", "x*y"))
    assert len(runs) == 2

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyz"[: data.draw(st.integers(1, 3))])
        flags = data.draw(st.lists(st.booleans(), max_size=3))
        I = Ideal(ctx, [data.draw(_poly(st, ctx, c)) for c in flags])
        unit = engine_gb(I) == (Polynomial.const(ctx, 1),)
        del runs[:]
        assert is_unit_ideal(I) == unit
        if not any(flags):
            assert not unit and I._gb is None and runs == []

    check()


def test_term_membership_matches_the_engine_remainder():
    # f lies in an ideal given by terms when each of its terms is divisible
    # by a minimal generator; no reducer table is built
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyz"[: data.draw(st.integers(2, 3))])
        I = data.draw(_term_ideal(st, ctx))
        f = data.draw(_poly(st, ctx, data.draw(st.booleans())))
        if data.draw(st.booleans()) and I.gens:
            # a multiple of a generator plus a term, kept or not, of I
            f = f * I.gens[0] + data.draw(_poly(st, ctx, False)) * I.gens[-1]
        assert ideal_member(f, I) == normal_form(f, engine_gb(I)).is_zero()
        assert I._table is None

    check()


def test_unit_colon_matches_the_engine_colon(monkeypatch):
    # I : J is the whole ring, its basis (1) cached, exactly when J lies in
    # I; that answer starts no syzygy run
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    ctx = ring("x", "y")
    U = ideal_quotient(Ideal.parse(ctx, "x^2 - y, x*y"), Ideal.zero(ctx))
    assert U._gb == (Polynomial.const(ctx, 1),) and U.gens == U._gb
    runs = _engine_runs(monkeypatch)

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyz"[: data.draw(st.integers(2, 3))])
        I = Ideal(ctx, [data.draw(_poly(st, ctx, False)) for _ in range(data.draw(st.integers(1, 3)))])
        mults = st.lists(_poly(st, ctx, data.draw(st.booleans())), min_size=1, max_size=3)
        J = Ideal(ctx, [sum((m * g for m, g in zip(data.draw(mults), I.gens)), Polynomial.zero(ctx))])
        if J.is_zero_ideal():
            J = Ideal(ctx, I.gens[:1])
        E = engine_quotient(I, J)
        assert E._gb == (Polynomial.const(ctx, 1),)
        reduced_gb(I)
        del runs[:]
        Q = ideal_quotient(I, J)
        assert Q._gb == E._gb and Q.gens == E.gens and runs == []

    check()


def test_regular_steps_match_the_engine_routes(monkeypatch):
    # the step of I by f is I + (f), with the reduced basis a fresh run on
    # its generators lists, exactly when the engine colon I : (f) equals I,
    # and None otherwise; f = 0, f in I, f regular and f a zero-divisor on
    # R/I all occur, and the variables among the f over the homogeneous I
    # below take the reverse-lex route.  The outcome stays on I: asked again
    # for an equal f, it comes back as the same ideal, or None, with no
    # engine run
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    seen = set()
    runs = _engine_runs(monkeypatch)

    def agree(I, f):
        S = regular_steps(I, [f])[0]
        del runs[:]
        assert regular_steps(I, [Polynomial(I.ctx, dict(f.term_map()))])[0] is S and runs == []
        if f.is_zero():
            kind = "zero"
        else:
            E = engine_quotient(I, Ideal(I.ctx, [f]))
            if E._gb == (Polynomial.const(I.ctx, 1),):
                kind = "member"
            else:
                kind = "regular" if E._gb == engine_gb(I) else "zero-divisor"
        assert (S is not None) == (kind == "regular" or engine_gb(I) == (Polynomial.const(I.ctx, 1),))
        if S is not None:
            assert S.gens == I.gens + ((f,) if f else ())
            assert S._gb == engine_gb(S)
        return kind

    ctx = ring("x", "y", "z")
    I = I_of(ctx, "x^2 - y*z", "x*y")
    hand = {
        agree(I, P(ctx, f))
        for f in ("0", "x^3 - x*y*z + x*y", "z + 1", "y + z", "x", "x^2 + y")
    }
    assert hand == {"zero", "member", "regular", "zero-divisor"}
    # term data, which the hypothesis draws below never reach with a
    # constant term: a unit f, f = 0 over a proper I, and the unit ideal
    terms = I_of(ctx, "x^2", "x*y")
    assert [agree(terms, P(ctx, f)) for f in ("0", "3", "x^2*z", "y", "z", "2*z^2")] == [
        "zero", "regular", "member", "zero-divisor", "regular", "regular"
    ]
    assert [agree(I_of(ctx, "1"), P(ctx, f)) for f in ("0", "x")] == ["zero", "member"]

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @hyp.given(st.data())
    def check(data):
        ctx = ring(*"xyz"[: data.draw(st.integers(2, 3))])
        I = Ideal(ctx, [data.draw(_poly(st, ctx, False)) for _ in range(data.draw(st.integers(0, 3)))])
        kind = data.draw(st.sampled_from(["zero", "member", "any"]))
        if kind == "zero" or (kind == "member" and not I.gens):
            f = Polynomial.zero(ctx)
        elif kind == "member":
            f = data.draw(_poly(st, ctx, True)) * I.gens[-1]
        else:
            f = data.draw(_poly(st, ctx, data.draw(st.booleans())))
        seen.add(agree(I, f))

    check()
    assert seen == {"zero", "member", "regular", "zero-divisor"}


def test_nested_limits_keep_outer_deadline():
    # an inner set_limits that only caps S-pairs must not drop the deadline
    with set_limits(soft_timeout=5) as outer:
        with set_limits(max_spairs=100) as inner:
            assert inner.deadline == outer.deadline
            assert inner.max_spairs == 100
        with set_limits(soft_timeout=60) as later:
            assert later.deadline > outer.deadline
    with set_limits(soft_timeout=-1):
        with set_limits(max_spairs=100):
            with pytest.raises(BudgetExceeded):
                reduced_gb(I_of(ring("x", "y"), "x^2 - y", "x*y - 1"))


# ---------------------------------------------------------------------------
# Pinned S-pair sequence and an outside oracle.

CYCLIC4 = ("a+b+c+d", "a*b+b*c+c*d+d*a", "a*b*c+b*c*d+c*d*a+d*a*b", "a*b*c*d-1")
KATSURA3 = ("a+2*b+2*c-1", "a^2+2*b^2+2*c^2-a", "2*a*b+2*b*c-b")
KATSURA4 = (
    "a+2*b+2*c+2*d-1", "a^2+2*b^2+2*c^2+2*d^2-a", "2*a*b+2*b*c+2*c*d-b", "b^2+2*a*c+2*b*d-c",
)


@pytest.mark.parametrize("names, gens, spairs", [
    ("abcd", CYCLIC4, 45),
    ("abc", KATSURA3, 15),
])
def test_spair_count_is_pinned(names, gens, spairs):
    # S-pairs charged under the normal strategy with the coprime and chain
    # criteria; a change to pair selection or pruning must update these
    ctx = ring(*names)
    with set_limits(max_spairs=spairs):
        assert reduced_gb(I_of(ctx, *gens))
    with set_limits(max_spairs=spairs - 1):
        with pytest.raises(BudgetExceeded):
            reduced_gb(I_of(ctx, *gens))


def test_colon_spair_count_is_pinned():
    # the colon runs modulo the reduced basis of I, none of whose pairs it
    # forms: 15 S-pairs build that basis and 216 the colon, where one run on
    # I's generators charged 380; a change to pair selection, pruning or
    # seeding must update these
    ctx = ring("x", "y", "z")
    I, f = I_of(ctx, "x^2*y-z^3", "x*y^2-z", "x*z-y^3"), P(ctx, "x+y+z")
    with set_limits(max_spairs=14):
        with pytest.raises(BudgetExceeded, match="^buchberger"):
            reduced_gb(I)
    with set_limits(max_spairs=15):
        assert reduced_gb(I)
    with set_limits(max_spairs=215):
        with pytest.raises(BudgetExceeded, match="^module buchberger"):
            ideal_quotient(I, Ideal(ctx, [f]))
    with set_limits(max_spairs=216):
        Q = ideal_quotient(I, Ideal(ctx, [f]))
    # f*(I : f) = I ∩ (f), the intersection by the independent tag route
    F = Ideal(ctx, [f])
    assert ideal_equal(Ideal(ctx, [q * f for q in Q.gens]), tag_intersect(I, F))


def test_colon_is_kept_on_the_dividend(monkeypatch):
    # I : J is kept on I under J's generators: asked again, by J or by
    # another ideal with the same generators, it is the same ideal and
    # starts no engine run; another divisor takes a colon of its own
    ctx = ring("x", "y", "z")
    I, F = I_of(ctx, "x^2*y-z^3", "x*y^2-z", "x*z-y^3"), Ideal(ctx, [P(ctx, "x+y+z")])
    runs = _engine_runs(monkeypatch)
    Q = ideal_quotient(I, F)
    assert runs
    del runs[:]
    assert ideal_quotient(I, F) is Q and ideal_quotient(I, Ideal(ctx, F.gens)) is Q
    assert runs == []
    assert ideal_quotient(I, Ideal(ctx, [P(ctx, "x+y")])) is not Q and runs


def test_seeded_run_matches_the_joined_run():
    # a run handed a reduced basis B as its known part, whose pairs it never
    # forms, ends at the reduced basis of the run on B and the generators;
    # over ideals and over R^rank, with B a random submodule's basis or the
    # block I*R^rank of an ideal's basis, under degrevlex and lex
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def term_map(draw, n):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            e = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
            terms[e] = Fraction(draw(st.sampled_from([-2, -1, 1, 3])), draw(st.sampled_from([1, 2])))
        return terms

    def at(pos, rank, terms):
        head = tuple(int(k == pos) for k in range(rank))
        return {head + e: c for e, c in terms.items()}

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @hyp.given(st.data())
    def check(data):
        n, rank = data.draw(st.integers(2, 3)), data.draw(st.integers(0, 3))
        order = data.draw(st.sampled_from([DEGREVLEX, lex(n)]))

        def vector():
            if not rank:
                return data.draw(term_map(n))
            out = {}
            for pos in range(rank):
                if data.draw(st.booleans()):
                    out.update(at(pos, rank, data.draw(term_map(n))))
            return out

        count = st.integers(1, 3)
        if rank and data.draw(st.booleans()):
            ideal = _buchberger([data.draw(term_map(n)) for _ in range(data.draw(count))], order)
            B = [at(pos, rank, g) for g in ideal for pos in range(rank)]
        else:
            B = _buchberger([vector() for _ in range(data.draw(count))], order, rank)
        gens = [vector() for _ in range(data.draw(count))]
        assert _buchberger(gens, order, rank, basis=B) == _buchberger(B + gens, order, rank)

    check()


def test_membership_builds_one_table_per_ideal(monkeypatch):
    # ideal_member divides by a reducer table cached on the ideal beside its
    # basis, and answers as normal_form by that basis does
    built = []
    real = groebner._table

    def record(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "_table", record)
    ctx = ring("x", "y", "z")
    I = I_of(ctx, "x^2 - y*z", "y^2 - x*z", "z^2 - x*y")
    probes = [
        P(ctx, t)
        for t in ("x^3 - x*y*z", "x*y - z^2", "x + y", "x^2*y - y^2*z", "1/2*z^3 - 1/2*x*y*z", "y^3")
    ]
    expected = [True, True, False, True, True, False]
    for _ in range(3):
        assert [ideal_member(f, I) for f in probes] == expected
        assert all(ideal_member(f, I) for f in probes[:2])
        assert not all(ideal_member(f, I) for f in probes)
    assert len(built) == 1 and I._table is not None
    assert [normal_form(f, reduced_gb(I)).is_zero() for f in probes] == expected


# ---------------------------------------------------------------------------
# Packed exponents: each engine run packs its exponents into ints by one
# codec and widens its fields when a term overflows them.

def _fields_fit(order, e, M):
    """Whether every field of the ring exponent e stays in [0, M]: each
    entry, and each block degree."""
    blocks = order.blocks or (tuple(range(len(e))),)
    return max(e, default=0) <= M and all(sum(e[j] for j in blk) <= M for blk in blocks)


def test_codec_packs_the_term_order_divisibility_and_products():
    # for prefix + ring exponents over rank 0-3 and 1-6 variables, under
    # degrevlex, lex and an elimination order: integer order is the term key,
    # the guard test of a division step is mono_divides, a sum less C is the
    # product (or sets a guard bit when a field overflows), and decoding
    # inverts encoding
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @hyp.given(st.data())
    def check(data):
        rank, n = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 6))
        order = data.draw(st.sampled_from([DEGREVLEX, lex(n), "block"]))
        if order == "block":
            drop = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
            order = elimination_order(drop, n)
        w = data.draw(st.sampled_from([3, 4, 15]))
        cx = groebner._codec(order, rank, n, w)

        def enc(e):
            # the affine encoding, which `pack` gives for a term of ring
            # degree at most M and refuses beyond it, even where a block
            # order's fields would hold the term
            k = cx.C + sum(map(mul, e, cx.W))
            if sum(e[rank:]) <= cx.M:
                assert cx.pack({e: 1}) == {k: 1}
            else:
                with pytest.raises(groebner._Overflow):
                    cx.pack({e: 1})
            return k

        ring_exp = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple)
        pos = st.integers(0, rank - 1) if rank else st.just(None)

        def exponent(p, e):
            return tuple(int(q == p) for q in range(rank)) + e

        def key(e):
            return e[:rank] + order.key(e[rank:])

        (p, a), (q, b), (_, m) = [data.draw(st.tuples(pos, ring_exp)) for _ in range(3)]
        if not (_fields_fit(order, a, cx.M) and _fields_fit(order, b, cx.M)):
            return
        ea, eb = exponent(p, a), exponent(q, b)
        ka, kb = enc(ea), enc(eb)
        assert cx.dec(ka) == ea and cx.dec(kb) == eb
        assert (ka < kb) == (key(ea) < key(eb)) and (ka == kb) == (ea == eb)
        # a division step by the lone term x^a reduces x^b away exactly when
        # x^a divides x^b at its position
        reducers = {ka >> cx.pshift: [groebner._primitive({ka: 1}, cx)]}
        rem, _ = groebner._reduce({enc(exponent(p, b)): 1}, reducers, cx, "test")
        assert (not rem) == mono_divides(a, b)
        if not _fields_fit(order, m, cx.M):
            return
        product = enc(ea) + enc((0,) * rank + m) - cx.C
        if _fields_fit(order, mono_mul(a, m), cx.M):
            assert product == enc(exponent(p, mono_mul(a, m)))
            assert not product & cx.G
        else:
            assert product & cx.G

    check()


def test_lex_chain_widens_past_fifteen_bits():
    # x_i - x_(i+1)^2 over 17 variables: the reduced lex basis has
    # x_i - x_16^(2^(16 - i)), and 2^16 does not fit a 15-bit field
    names = [f"x{i}" for i in range(17)]
    ctx = ring(*names)
    I = Ideal(ctx, [P(ctx, f"x{i} - x{i + 1}^2") for i in range(16)])
    expected = [P(ctx, f"x{i} - x16^{2 ** (16 - i)}") for i in range(15, -1, -1)]
    assert list(engine_gb(I, lex(17))) == expected


def test_overflowing_lcm_trips_the_run():
    # at w = 3 (M = 7) the leads x^4 and y^4 fit but their lcm's degree 8
    # does not: the pair is never queued, the run trips to be widened
    x4, y4 = {(4, 0): 1, (0, 0): 1}, {(0, 4): 1, (0, 0): 1}
    cx = groebner._codec(DEGREVLEX, 0, 2, 3)
    with pytest.raises(groebner._Overflow):
        groebner._run([], [x4, y4], cx, "buchberger")
    assert groebner._run([], [x4], cx, "buchberger") == [{(4, 0): 1, (0, 0): 1}]


def test_packed_lcm_matches_the_per_variable_formula():
    # `_Codec.lcm` on two packed leads of one position against the affine
    # encoding of their entry-wise maximum, over ranks 0-5, degrevlex,
    # elimination and lex blocks, and widths 3 to 30; leads reach degree M
    # now and then, so some lcms overflow, and those must raise
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    outcomes = set()

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 5))
        rank = data.draw(st.integers(0, 5))
        orders = [DEGREVLEX, lex(n)]
        if n > 1:
            drop = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
            orders.append(elimination_order(drop, n))
        order = data.draw(st.sampled_from(orders))
        cx = groebner._codec(order, rank, n, data.draw(st.sampled_from([3, 4, 5, 8, 15, 30])))
        head = data.draw(st.sampled_from(groebner._heads(rank))) if rank else ()

        def exponent():
            e = data.draw(st.lists(st.integers(0, cx.M // n), min_size=n, max_size=n))
            if data.draw(st.booleans()):
                e[data.draw(st.integers(0, n - 1))] += cx.M - sum(e)  # degree M
            return head + tuple(e)

        a, b = exponent(), exponent()
        (ka,), (kb,) = cx.pack({a: 1}), cx.pack({b: 1})
        want = reference_lcm(cx, a, b)
        if want & cx.G:
            outcomes.add("overflow")
            with pytest.raises(groebner._Overflow):
                cx.lcm(ka, kb)
        else:
            outcomes.add("fits")
            assert cx.lcm(ka, kb) == want == cx.lcm(kb, ka)
            assert cx.dec(want) == tuple(map(max, a, b))

    check()
    assert outcomes == {"overflow", "fits"}


def test_overflowing_lcm_widens_the_run(monkeypatch):
    # x^20000 + 1 and y^20000 + 1 pack at 15 bits (M = 32767), but their
    # lcm's degree 40000 does not: pairing them raises _Overflow
    trips = []
    real_lcm = groebner._Codec.lcm

    def recorded(cx, a, b):
        try:
            return real_lcm(cx, a, b)
        except groebner._Overflow:
            trips.append(cx.w)
            raise

    monkeypatch.setattr(groebner._Codec, "lcm", recorded)
    x, y = {(20000, 0): 1, (0, 0): 1}, {(0, 20000): 1, (0, 0): 1}
    with pytest.raises(groebner._Overflow):
        groebner._run([], [x, y], groebner._codec(DEGREVLEX, 0, 2, 15), "buchberger")
    assert trips == [15]
    widths = []

    def run(f, g):
        def at(cx):
            widths.append(cx.w)
            return groebner._run([], [f, g], cx, "buchberger")

        return at

    # from the honest degree hint the run starts at 17 bits (M = 131071),
    # where the lcm fits, and gives the basis
    out = groebner._widening(run(x, y), DEGREVLEX, 0, 2, 20000)
    assert trips == [15] and widths == [17]
    assert out == [{(0, 20000): 1, (0, 0): 1}, {(20000, 0): 1, (0, 0): 1}]
    # x^4 + 1 and y^4 + 1 from a degree hint of 0: they pack at 3 bits
    # (M = 7), their lcm's degree 8 trips, and the run widens to 6 bits
    x4, y4 = {(4, 0): 1, (0, 0): 1}, {(0, 4): 1, (0, 0): 1}
    out = groebner._widening(run(x4, y4), DEGREVLEX, 0, 2, 0)
    assert trips == [15, 3] and widths == [17, 3, 6]
    assert out == [{(0, 4): 1, (0, 0): 1}, {(4, 0): 1, (0, 0): 1}]


def test_widened_run_has_its_own_spair_budget(monkeypatch):
    # the 17-variable lex chain with one more generator starts at 4 bits and
    # overflows 4-, 8- and 16-bit fields after 106 S-pairs each, then runs
    # 153 at 32 bits: the budget bounds each run, so 153 suffice and 152
    # trip the widened run
    widths = []
    real = groebner._codec

    def record(order, rank, n, w):
        widths.append(w)
        return real(order, rank, n, w)

    monkeypatch.setattr(groebner, "_codec", record)
    ctx = ring(*[f"x{i}" for i in range(17)])
    gens = [P(ctx, f"x{i} - x{i + 1}^2") for i in range(16)] + [P(ctx, "x0*x16 - x1")]
    with set_limits(max_spairs=152):
        with pytest.raises(BudgetExceeded, match=r"\(153 of 152\)"):
            engine_gb(Ideal(ctx, gens), lex(17))
    assert widths == [4, 8, 16, 32]
    with set_limits(max_spairs=153):
        assert engine_gb(Ideal(ctx, gens), lex(17))
    assert widths == [4, 8, 16, 32, 4, 8, 16, 32]


def test_engine_runs_count_each_engine_call_once(monkeypatch, capsys):
    # `engine_runs` advances by one per `_buchberger` call, as a wrapped
    # engine records them, over ideal runs, syzygy runs and runs under a
    # moved order; a run that widens its packing is one call
    runs = _engine_runs(monkeypatch)
    for argv in (
        ["gb", "--ring", "x,y,z", "--ideal", "x^2 - y*z, x*y - z^2"],
        ["colon", "--ring", "x,y,z", "--ideal", "x^2 - y*z, x*y", "--by", "y + z"],
        ["grade", "--ring", "a,b,c,d", "--ideal", "a, b", "--module", "a*c - b*d, a*d - b*c"],
        ["regseq", "--ring", "a,b,c,d", "--seq", "b, a + d, c", "--module", "a*d - b*c"],
    ):
        del runs[:]
        before = groebner.engine_runs()
        assert cli.run(argv) == 0
        assert groebner.engine_runs() - before == len(runs) > 0, argv
    capsys.readouterr()
    ctx = ring(*[f"x{i}" for i in range(17)])
    gens = [P(ctx, f"x{i} - x{i + 1}^2") for i in range(16)] + [P(ctx, "x0*x16 - x1")]
    before = groebner.engine_runs()
    with set_limits(max_spairs=153):
        assert engine_gb(Ideal(ctx, gens), lex(17))
    assert groebner.engine_runs() - before == 1


def test_cached_table_widens_for_a_high_degree_member():
    # the table cached by a low-degree membership test is packed again at
    # the width a degree-70000 member needs
    ctx = ring("x", "y")
    I = I_of(ctx, "x - y")
    assert ideal_member(P(ctx, "x^2 - y^2"), I)
    assert ideal_member(P(ctx, "x^70000 - y^70000"), I)
    assert not ideal_member(P(ctx, "x^70000 - y^69999"), I)
    assert sorted(I._table._packed) == [4, 19]
    assert normal_form(P(ctx, "x^70000 + 1"), reduced_gb(I)) == P(ctx, "y^70000 + 1")


def test_pack_refuses_a_field_far_past_m():
    # at 3 bits (M = 7) x^16 packs to 4199 with every guard bit clear: its
    # degree field carries past the top of the word.  `pack` refuses it by
    # its ring degree, and the run widens to 6 bits and gives the basis
    cx = groebner._codec(DEGREVLEX, 0, 2, 3)
    assert (cx.C + 16 * cx.W[0]) & cx.G == 0
    f = {(16, 0): 1, (0, 0): 1}
    with pytest.raises(groebner._Overflow):
        cx.pack(f)
    widths = []

    def run(cx):
        widths.append(cx.w)
        return groebner._run([], [f], cx, "buchberger")

    assert groebner._widening(run, DEGREVLEX, 0, 2, 0) == [f]
    assert widths == [3, 6]
    # a codec whose position field cannot hold r - p for p = 0 is refused,
    # and a run starts wide enough for its rank: over R^20 at degree 1 the
    # degree asks for 4 bits (M = 15) and the rank for 5
    assert groebner._codec(DEGREVLEX, 7, 1, 3).M == 7
    with pytest.raises(groebner._Overflow):
        groebner._codec(DEGREVLEX, 8, 1, 3)
    del widths[:]
    groebner._widening(lambda cx: widths.append(cx.w), DEGREVLEX, 20, 1, 1)
    assert widths == [5]


def _int_terms(st, n, top):
    """A hypothesis strategy of integer term maps over n variables with one
    to three terms, each exponent entry at most `top`."""
    exps = st.lists(st.integers(0, top), min_size=n, max_size=n).map(tuple)
    return st.dictionaries(exps, st.sampled_from([-2, -1, 1, 3]), min_size=1, max_size=3)


def test_run_answers_do_not_depend_on_the_width(monkeypatch):
    # `_buchberger` from its start width gives what one run at 30 bits
    # gives: ideals under degrevlex and elimination orders, and syzygy runs
    # of rank 1-3 (vectors with unit tags, as `_syzygies` builds them) that
    # answer every block or the tags alone
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    widths = []
    real = groebner._codec

    def record(order, rank, n, w):
        widths.append(w)
        return real(order, rank, n, w)

    monkeypatch.setattr(groebner, "_codec", record)
    seen = set()

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=120)
    @hyp.given(st.data())
    def check(data):
        n, rank = data.draw(st.integers(2, 4)), data.draw(st.integers(0, 3))
        tags = None
        if not rank:
            drop = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
            order = elimination_order(drop, n)
            gens = data.draw(st.lists(_int_terms(st, n, 2), min_size=1, max_size=3))
            size = 0
        else:
            order, k = DEGREVLEX, data.draw(st.integers(1, 2))
            heads = groebner._heads(rank + k)
            gens = []
            for i in range(k):
                g = {heads[rank + i] + (0,) * n: 1}
                for pos in range(rank):
                    if data.draw(st.booleans()):
                        g.update({heads[pos] + e: c for e, c in data.draw(_int_terms(st, n, 2)).items()})
                gens.append(g)
            tags = data.draw(st.sampled_from([None, k]))
            size = rank + k
        del widths[:]
        got = _buchberger(gens, order, size, tags=tags)
        start = widths[0]
        seen.add((bool(order.blocks), rank > 0, start))
        assert start < 30
        what = "module buchberger" if size else "buchberger"
        assert got == groebner._run([], gens, real(order, size, n, 30), what, tags)

    check()
    # both kinds of run, at more than one start width
    assert {(b, m) for b, m, _ in seen} == {(False, False), (True, False), (False, True)}
    assert len({w for *_, w in seen}) > 1


def test_eliminate_seeds_the_reduced_basis():
    # the basis `eliminate` caches, and `saturate` through it, is the one a
    # fresh engine run on its generators in the smaller ring gives
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 4))
        ctx = ring(*"wxyz"[:n])
        poly = _int_terms(st, n, 2).map(lambda t: Polynomial(ctx, t))
        I = Ideal(ctx, data.draw(st.lists(poly, min_size=1, max_size=3)))
        drop = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(2, n - 1)))
        E = eliminate(I, [ctx.var_names[i] for i in sorted(drop)])
        assert E._gb == E.gens
        assert E._gb == engine_gb(Ideal(E.ctx, E.gens))
        S = saturate(I, data.draw(poly))
        assert S._gb == S.gens
        assert S._gb == engine_gb(Ideal(S.ctx, S.gens))

    check()


def test_saturate_and_eliminate_make_one_engine_run(monkeypatch, capsys):
    # the operation's answer is the basis of its one elimination run
    runs = _engine_runs(monkeypatch)
    assert cli.run(["eliminate", "--ring", "t,x,y", "--ideal", "x - t^2, y - t^3", "--drop", "t"]) == 0
    assert '"x^3 - y^2"' in capsys.readouterr().out
    assert len(runs) == 1
    argv = ["saturate", "--ring", "x,y,z", "--ideal", "x*y - z^2, x*z - y", "--poly", "x"]
    assert cli.run(argv) == 0
    assert '"saturation"' in capsys.readouterr().out
    assert len(runs) == 2


def _sparse_system(seed):
    rng = random.Random(seed)
    ctx = ring("x", "y", "z")
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(2, 3)):
            e = [0, 0, 0]
            for _ in range(rng.randint(1, 3)):
                e[rng.randrange(3)] += 1
            terms[tuple(e)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        gens.append(Polynomial(ctx, terms))
    return Ideal(ctx, gens)


@pytest.mark.parametrize("case", ["cyclic4", "katsura3", "katsura4"] + [f"sparse{s}" for s in range(6)])
def test_reduced_gb_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    if case.startswith("sparse"):
        I = _sparse_system(int(case[len("sparse"):]))
    else:
        gens = {"cyclic4": CYCLIC4, "katsura3": KATSURA3, "katsura4": KATSURA4}[case]
        I = I_of(ring(*"abcd"[: 3 if case == "katsura3" else 4]), *gens)
    ctx = I.ctx
    syms = sympy.symbols(ctx.var_names)
    polys = [
        sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in g.term_map().items()},
            *syms, domain="QQ",
        )
        for g in I.gens
    ]
    oracle = sympy.groebner(polys, *syms, order="grevlex", domain="QQ")
    expected = {
        Polynomial(ctx, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()})
        for p in oracle.polys
    }
    ours = reduced_gb(I)
    assert len(ours) == len(expected)
    assert set(ours) == expected


# ---------------------------------------------------------------------------
# Rational coefficients: the engine clears denominators on entry and divides
# by the product of its step multipliers on exit, so sympy checks both ends.

def _sympy_polys(sympy, polys, syms):
    return [
        sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.term_map().items()},
            *syms, domain="QQ",
        )
        for p in polys
    ]


def _from_sympy(ctx, p):
    return Polynomial(ctx, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()})


def _sympy_basis(ctx, polys, order):
    """The sympy polynomials `polys` over ctx, in increasing order of their
    leads under `order`, as the engine lists a reduced basis."""
    return sorted((_from_sympy(ctx, p) for p in polys), key=lambda p: max(map(order.key, p.term_map())))


RATIONAL_SYSTEMS = {
    "quadrics": ("1/2*x^2 - 3/4*y*z", "-5/3*x*y + 1/2*z^2", "-3/4*y^2 + 5/3*x"),
    "negative_leads": ("-3/4*x^3 + 1/2*y", "-5/3*y^2 - 1/2*x*z", "-1/2*z^2 + 3/4"),
    "scaled_katsura3": (
        "-1/2*x + 5/3*y + 5/3*z - 3/4",
        "5/3*x^2 - 2/7*y^2 + 1/2*z^2 - 3/4*x",
        "-3/4*x*y + 5/3*y*z - 1/2*y",
    ),
    "binomials": ("3/4*x^2*y - 5/3*z^3", "-1/2*x*y^2 + 2/7*z", "5/3*x*z - 3/4*y^3"),
}
RATIONAL_REMAINDERS = (
    "5/3*x^3*y - 1/2*x*z^2 + 3/4*y^3 - 2/7",
    "-3/4*x^2*y*z + 1/2*y^2 - 5/3*z",
    "2/7*x^4 - 5/3*y^2*z^2 + x*y*z",
)


@pytest.mark.parametrize("case", sorted(RATIONAL_SYSTEMS))
def test_rational_gb_and_remainders_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    ctx = ring("x", "y", "z")
    I = I_of(ctx, *RATIONAL_SYSTEMS[case])
    syms = sympy.symbols(ctx.var_names)
    G = sympy.groebner(_sympy_polys(sympy, I.gens, syms), *syms, order="grevlex", domain="QQ")
    ours = reduced_gb(I)
    assert set(ours) == {_from_sympy(ctx, p) for p in G.polys}
    assert len(ours) == len(G.polys)
    # the remainder modulo a Groebner basis is unique: exact agreement
    for text in RATIONAL_REMAINDERS:
        f = P(ctx, text)
        (g,) = _sympy_polys(sympy, [f], syms)
        expected = sympy.Poly(G.reduce(g.as_expr())[1], *syms, domain="QQ")
        assert normal_form(f, ours) == _from_sympy(ctx, expected)
        assert normal_form(f * Fraction(-7, 5), ours) == _from_sympy(ctx, expected) * Fraction(-7, 5)


def test_reduced_gb_and_eliminate_match_sympy_property():
    # random systems over 2-3 variables, 1-3 generators of degree <= 3 with
    # integer and rational coefficients: the reduced degrevlex basis and the
    # engine's lex basis are sympy's, and eliminating the first variable
    # leaves the ideal of sympy's lex basis elements free of it
    sympy = pytest.importorskip("sympy")
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coeff = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([1, 1, 2, 3]))

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 3))
        ctx = ring(*"xyz"[:n])
        exp = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda e: sum(e) <= 3)
        term_map = st.dictionaries(exp.map(tuple), coeff, min_size=1, max_size=3)
        gens = [Polynomial(ctx, t) for t in data.draw(st.lists(term_map, min_size=1, max_size=3))]
        I = Ideal(ctx, gens)
        syms = sympy.symbols(ctx.var_names)
        polys = _sympy_polys(sympy, I.gens, syms)
        G = sympy.groebner(polys, *syms, order="grevlex", domain="QQ")
        assert list(reduced_gb(I)) == _sympy_basis(ctx, G.polys, DEGREVLEX) == list(engine_gb(I))
        G = sympy.groebner(polys, *syms, order="lex", domain="QQ")
        assert list(engine_gb(I, lex(n))) == _sympy_basis(ctx, G.polys, lex(n))
        # G is the lex basis: its elements free of x are the reduced lex
        # basis of the elimination ideal
        small = ring(*ctx.var_names[1:])
        free = [sympy.Poly(p.as_expr(), *syms[1:]) for p in G.polys if not p.degree(syms[0])]
        ours = engine_gb(eliminate(I, ctx.var_names[:1]), lex(n - 1))
        assert list(ours) == _sympy_basis(small, free, lex(n - 1))

    check()


@pytest.mark.parametrize("gens", [
    ("3*x^2*y", "-2*y^3", "1/5*x*z"),
    ("-7/2*x*y*z", "4/9*x^2", "-x^3*z", "5/3*y^2*z^2", "2*x*y^3*z"),
    ("1/3*z^2", "-z^3*x", "0", "-3/4*y"),
])
def test_monomial_dispatch_matches_sympy(gens):
    # term ideals never reach the engine; their reduced basis is still the
    # unique one: the monic minimal generators, in the engine's order, as
    # the engine's lex basis is under lex
    sympy = pytest.importorskip("sympy")
    ctx = ring("x", "y", "z")
    I = I_of(ctx, *gens)
    syms = sympy.symbols(ctx.var_names)
    polys = _sympy_polys(sympy, I.gens, syms)
    G = sympy.groebner(polys, *syms, order="grevlex", domain="QQ")
    with set_limits(max_spairs=0):
        ours = reduced_gb(I)
    assert list(ours) == _sympy_basis(ctx, G.polys, DEGREVLEX)
    assert all(c == 1 for p in ours for c in p.term_map().values())
    G = sympy.groebner(polys, *syms, order="lex", domain="QQ")
    assert list(engine_gb(I, lex(3))) == _sympy_basis(ctx, G.polys, lex(3))


def test_division_outside_buchberger_honours_soft_timeout():
    # normal_form and module_reduce check the soft deadline every 256
    # reduction steps: x^600 takes 600 steps to reduce by x - 1, x^200 only 200
    ctx = ring("x", "y")
    basis = [P(ctx, "x - 1")]
    table = module_table([(P(ctx, "x - 1"), P(ctx, "0"))], 2)
    with set_limits(soft_timeout=-1):
        assert normal_form(P(ctx, "x^200"), basis) == P(ctx, "1")
        assert module_reduce((P(ctx, "x^200"), P(ctx, "y")), table) == (P(ctx, "1"), P(ctx, "y"))
        with pytest.raises(BudgetExceeded, match="^normal form"):
            normal_form(P(ctx, "x^600"), basis)
        with pytest.raises(BudgetExceeded, match="^module normal form"):
            module_reduce((P(ctx, "x^600"), P(ctx, "y")), table)
    assert normal_form(P(ctx, "3/2*x^600 + y"), basis) == P(ctx, "y + 3/2")
