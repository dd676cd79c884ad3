"""Polynomial arithmetic, parsing, formatting, and monomial orders."""

import random
from fractions import Fraction

import pytest

from linkcoh.ring import (
    DEGREVLEX,
    MonomialOrder,
    ParseError,
    Polynomial,
    RingCtx,
    RingError,
    elimination_order,
    format_poly,
    mono_divides,
    parse_poly,
    ring,
)
from oracles import format_poly_fractions, parse_poly_two_pass


@pytest.fixture
def ctx():
    return ring("x", "y", "z")


def test_ring_ctx_validation():
    with pytest.raises(RingError):
        RingCtx(())
    with pytest.raises(RingError):
        RingCtx(("x", "x"))
    with pytest.raises(RingError):
        RingCtx(("x", ""))
    r = RingCtx.parse(" x , y ")
    assert r.var_names == ("x", "y")
    assert r.index("y") == 1
    with pytest.raises(RingError):
        r.index("q")
    assert r.extend(["z"]).n == 3
    assert r.fresh_name("x") != "x"
    assert r.fresh_name("t") == "t"
    # user-facing names must be identifiers; internal tag variables need not be
    for text in ("1,x", "x y,z", "x,y-z"):
        with pytest.raises(RingError):
            RingCtx.parse(text)
    assert r.extend(["t@0"]).var_names[-1] == "t@0"


def test_monomial_helpers():
    u, v = (2, 0, 1), (1, 3, 0)
    assert mono_divides((1, 0, 0), u)
    assert not mono_divides(v, u)


def test_parse_and_format_round_trip(ctx):
    cases = [
        "x",
        "x + y",
        "x^2*y - 3*z + 1/2",
        "-x*y*z",
        "2/3*x^4 - y^2*z^2 + 7",
        "0",
        "1",
        "x^2 - 2*x*y + y^2",
    ]
    for text in cases:
        p = parse_poly(text, ctx)
        assert parse_poly(str(p), ctx) == p


def test_parse_and_format_round_trip_property():
    # random polynomials over 1-4 variables with rational coefficients
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coeffs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @hyp.given(st.data())
    def check(data):
        names = data.draw(st.sampled_from(["x", "xy", "xyz", "xyzw"]))
        ctx = ring(*names)
        exps = st.tuples(*[st.integers(0, 4)] * ctx.n)
        p = Polynomial(ctx, data.draw(st.dictionaries(exps, coeffs, max_size=6)))
        assert parse_poly(format_poly(p), ctx) == p

    check()


def test_text_boundary_property():
    # terms with negative, fractional and constant coefficients, some
    # cancelled by their negation, written with and without denominators:
    # the text parses to the sum of the terms, the formatter writes what the
    # Fraction formatter writes, and its text parses back
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coeffs = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 12))

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @hyp.given(st.data())
    def check(data):
        names = data.draw(st.sampled_from(["x", "xy", "xyz", "xyzw"]))
        ctx = ring(*names)
        exps = st.tuples(*[st.integers(0, 3)] * ctx.n)
        terms = data.draw(st.lists(st.tuples(exps, coeffs), min_size=1, max_size=6))
        cancelled = data.draw(st.lists(st.sampled_from(terms), max_size=3))
        terms += [(e, -c) for e, c in cancelled]
        pieces = []
        for e, c in terms:
            mag, den = abs(c.numerator), c.denominator
            written = data.draw(st.sampled_from([f"{mag}/{den}", f"{mag * 2}/{den * 2}"]))
            if den == 1 and data.draw(st.booleans()):
                written = str(mag)
            factors = [f"{names[i]}^{x}" for i, x in enumerate(e) if x]
            pieces.append(("- " if c < 0 else "+ ") + "*".join([written] + factors))
        want = Polynomial.zero(ctx)
        for e, c in terms:
            want = want + Polynomial.from_monomial(ctx, e, c)
        got = parse_poly(" ".join(pieces), ctx)
        assert got == want
        assert all(type(c) is Fraction for c in got.term_map().values())
        text = format_poly(want)
        assert text == format_poly_fractions(want)
        assert parse_poly(text, ctx) == want

    check()


def test_parse_errors(ctx):
    for bad in [")", "x +", "x^", "q", "x**2", "x^-1", "1/0", "(x"]:
        with pytest.raises(ParseError):
            parse_poly(bad, ctx)


def test_parse_grammar_corners(ctx):
    x, y = (Polynomial.variable(ctx, v) for v in "xy")
    accepted = {
        "*x": x,
        "-*x": -x,
        "2 3x": 6 * x,
        "x y": x * y,
        "1/2x y": Fraction(1, 2) * x * y,
        "x ^ 2": x**2,
        "x^0": Polynomial.const(ctx, 1),
        "x^2y": x**2 * y,
        "+x": x,
        "3 x^2 - 3x^2": Polynomial.zero(ctx),
    }
    for text, want in accepted.items():
        assert parse_poly(text, ctx) == want, text
    # the longest name is read first, and only names the ring declares
    shared = ring("x", "x1", "y")
    x_, x1 = Polynomial.variable(shared, "x"), Polynomial.variable(shared, "x1")
    assert parse_poly("x1", shared) == x1
    assert parse_poly("xx1", shared) == x_ * x1
    assert parse_poly("x1", ring("x", "y")) == Polynomial.variable(ring("x", "y"), "x")
    refused = [
        "x**2", "x^-1", "x^1/2", "1/2/3", "x--y", "x + - y", "x +", "+", "2^3", "x^2^3",
        "x*", "x^", "q", "(x",
    ]
    for text in refused:
        with pytest.raises(ParseError) as err:
            parse_poly(text, ctx)
        assert 0 <= err.value.position <= len(text), text
        assert f"(column {err.value.position + 1})" in str(err.value)


def test_parse_matches_the_two_pass_reference():
    # random texts over the names x and x1 (one a prefix of the other), with
    # fractions, zero denominators and stray `*`, `^` and `(`: the one-pass
    # parser returns the reference's polynomial, or refuses with its message
    # at its column
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    pieces = [
        "x", "x1", "x11", "0", "1", "2", "12", "/", "/0", "/3", "3/4", "^", "^2", "*", "(",
        " ", "  ", "+", "-", "\t",
    ]
    outcomes = set()

    def outcome(parse, text, ctx):
        try:
            return "ok", parse(text, ctx)
        except ParseError as err:
            return "refused", str(err), err.position

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=800)
    @hyp.given(st.lists(st.sampled_from(pieces), max_size=12), st.booleans())
    def check(parts, shared):
        ctx = ring("x", "x1") if shared else ring("x", "y")
        text = "".join(parts)
        got = outcome(parse_poly, text, ctx)
        assert got == outcome(parse_poly_two_pass, text, ctx), text
        outcomes.add(got[1].split(" (")[0] if got[0] == "refused" else "ok")

    check()
    assert outcomes >= {
        "ok", "empty polynomial text", "division by zero in a coefficient",
        "the text ended where a term was expected", "unexpected '('", "unexpected '*'",
        "unexpected '^'", "unexpected '/'",
    }


def test_parse_arithmetic_identities(ctx):
    x = Polynomial.variable(ctx, "x")
    y = Polynomial.variable(ctx, "y")
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x + y) ** 3 == parse_poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3", ctx)
    half = Polynomial.const(ctx, Fraction(1, 2))
    assert half + half == Polynomial.const(ctx, 1)
    assert parse_poly("1/2*x + 1/2*x", ctx) == x


def test_ring_axioms_random(ctx):
    rng = random.Random(5)

    def rand_poly():
        p = Polynomial.zero(ctx)
        for _ in range(rng.randint(0, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            p = p + Polynomial.from_monomial(ctx, e, Fraction(rng.randint(-3, 3)))
        return p

    for _ in range(60):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f - f == Polynomial.zero(ctx)
        assert (f * g) * h == f * (g * h)


def test_degrevlex_order(ctx):
    # degree first, then the variable missing from the tail wins
    x = parse_poly("x", ctx)
    assert x.lead()[0] == (1, 0, 0)
    f = parse_poly("x*z + y^2", ctx)
    # same degree: degrevlex prefers y^2 over x*z (smaller last exponent)
    assert f.lead()[0] == (0, 2, 0)
    g = parse_poly("x^3 + x*y*z", ctx)
    assert g.lead()[0] == (3, 0, 0)
    # an order without blocks is degrevlex, and the key ranks as the leads do
    assert MonomialOrder() == DEGREVLEX
    assert DEGREVLEX.key((0, 2, 0)) > DEGREVLEX.key((1, 0, 1))
    assert DEGREVLEX.key((3, 0, 0)) > DEGREVLEX.key((1, 1, 1)) > DEGREVLEX.key((0, 0, 2))


def test_elimination_order():
    order = elimination_order([0], 3)
    assert order == MonomialOrder(((0,), (1, 2)))
    assert elimination_order([], 3) == DEGREVLEX
    # anything involving the dropped variable beats anything without it
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))
    # inside a block the key is degrevlex: one block of every variable ranks
    # exponents as the order without blocks does
    whole = MonomialOrder(((0, 1, 2),))
    exps = [(0, 2, 0), (1, 0, 1), (3, 0, 0), (1, 1, 1), (0, 0, 2), (2, 0, 0)]
    assert sorted(exps, key=whole.key) == sorted(exps, key=DEGREVLEX.key)


def test_format_poly_stable(ctx):
    p = parse_poly("y^2 + x*z - 1", ctx)
    assert format_poly(p) == str(p)
    assert str(parse_poly(str(p), ctx)) == str(p)


def test_total_degree_and_support(ctx):
    p = parse_poly("x^2*y + z", ctx)
    assert max(map(sum, p.term_map())) == 3
    assert p.support() == {0, 1, 2}
    assert parse_poly("0", ctx).is_zero()
    assert parse_poly("5", ctx).is_constant()
    assert parse_poly("x*y", ctx).is_term()
    assert not parse_poly("x + y", ctx).is_term()
