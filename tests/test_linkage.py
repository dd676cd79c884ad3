"""Linkage of ideals over a cyclic module: certification, partners, sampling."""

import hashlib
import json

import pytest

from linkcoh import groebner, linkage, modules
from linkcoh.groebner import (
    Ideal,
    ideal_equal,
    ideal_quotient,
    ideal_sum,
    is_proper,
    is_unit_ideal,
    minimalize,
    reduced_gb,
)
from linkcoh.linkage import (
    GenParams,
    LinkageCertificate,
    LinkageError,
    check_linked,
    link_of,
    minimal_primes_in_core_ass,
    random_linked_pairs,
    support_identity,
)
from linkcoh.modules import CyclicModule, is_regular_sequence, regular_chain
from linkcoh.monomial import MonomialIdeal, as_monomial, associated_primes
from linkcoh.ring import Polynomial, RingError, mono_mask, mono_power, parse_poly, ring
from oracles import permute_exponents


def I_of(ctx, *texts):
    return Ideal(ctx, [parse_poly(t, ctx) for t in texts])


def R_mod(ctx, *texts):
    if not texts:
        return CyclicModule.full_ring(ctx)
    return CyclicModule(ctx, I_of(ctx, *texts))


# ---------------------------------------------------------------------------
# Hand instances.

def test_two_lines_through_their_union():
    ctx = ring("x", "y")
    cert = check_linked(I_of(ctx, "x"), I_of(ctx, "y"), I_of(ctx, "x*y"), R_mod(ctx))
    assert cert.geometric
    assert not cert.selflinked
    assert support_identity(cert)
    assert minimal_primes_in_core_ass(cert) is True
    doc = cert.as_json()
    assert doc["a"] == ["x"] and doc["b"] == ["y"] and doc["I"] == ["x*y"]


def test_selflinked_maximal_ideal():
    ctx = ring("x", "y")
    a = I_of(ctx, "x", "y")
    cert = check_linked(a, a, I_of(ctx, "x^2", "y"), R_mod(ctx))
    assert cert.selflinked
    assert not cert.geometric
    # one quotient M/aM = M/bM, built once
    assert cert.quotient_b is cert.quotient_a


def test_principal_selflink():
    ctx = ring("x", "y")
    cert = check_linked(I_of(ctx, "x"), I_of(ctx, "x"), I_of(ctx, "x^2"), R_mod(ctx))
    assert cert.selflinked
    assert not cert.geometric
    assert support_identity(cert)
    assert cert.quotient_b is cert.quotient_a
    assert cert.quotient_core is not cert.module


def test_zero_link_over_hypersurface_module():
    ctx = ring("x", "y")
    M = R_mod(ctx, "x*y")
    cert = check_linked(I_of(ctx, "x"), I_of(ctx, "y"), Ideal.zero(ctx), M)
    assert cert.geometric
    assert not cert.selflinked
    assert ideal_equal(cert.quotient_core.ideal, I_of(ctx, "x*y"))
    assert ideal_equal(cert.quotient_a.ideal, I_of(ctx, "x"))
    assert ideal_equal(cert.quotient_b.ideal, I_of(ctx, "y"))
    assert support_identity(cert)
    # the core M/IM of a zero link is M itself, and its quotients stay apart
    assert cert.quotient_core is cert.module
    assert cert.quotient_b is not cert.quotient_a


def test_height_two_link():
    # two lines in 3-space linked through the complete intersection (xy, z)
    ctx = ring("x", "y", "z")
    I = I_of(ctx, "x*y", "z")
    cert = check_linked(I_of(ctx, "x", "z"), I_of(ctx, "y", "z"), I, R_mod(ctx))
    assert cert.geometric
    assert not cert.selflinked
    assert support_identity(cert)
    assert minimal_primes_in_core_ass(cert) is True


# ---------------------------------------------------------------------------
# Rejections.

def test_rejects_colon_mismatch():
    ctx = ring("x", "y")
    with pytest.raises(LinkageError) as e:
        check_linked(I_of(ctx, "x"), I_of(ctx, "x"), I_of(ctx, "x*y"), R_mod(ctx))
    assert e.value.reason == "colon-mismatch-a"


def test_rejects_non_regular_core():
    ctx = ring("x", "y")
    with pytest.raises(LinkageError) as e:
        check_linked(
            I_of(ctx, "x"), I_of(ctx, "x"), I_of(ctx, "x^2", "x*y"), R_mod(ctx)
        )
    assert e.value.reason == "not-regular"


def test_rejects_core_not_contained():
    ctx = ring("x", "y")
    with pytest.raises(LinkageError) as e:
        check_linked(I_of(ctx, "x"), I_of(ctx, "y"), I_of(ctx, "x^2"), R_mod(ctx))
    assert e.value.reason == "not-contained"


def test_rejects_improper_side():
    ctx = ring("x", "y")
    M = R_mod(ctx, "x*y")
    with pytest.raises(LinkageError) as e:
        check_linked(I_of(ctx, "x", "x + 1"), I_of(ctx, "y"), Ideal.zero(ctx), M)
    assert e.value.reason == "improper-a"


def test_rejects_foreign_ring():
    # a foreign a, b or I is refused by both entries before the chain is
    # grown: I = (x) is not regular on R/(x*y), yet neither answers
    # not-regular, and a foreign I is not read as generators
    ctx = ring("x", "y")
    other = ring("x", "y", "z")
    M = R_mod(ctx, "x*y")
    for slot in range(3):
        a, b, I = (I_of(other if k == slot else ctx, "x") for k in range(3))
        entries = [lambda: check_linked(a, b, I, M)]
        if slot != 1:
            entries.append(lambda: link_of(a, I, M))
        for entry in entries:
            with pytest.raises(RingError, match="linkage data lives in different rings") as e:
                entry()
            assert not isinstance(e.value, LinkageError)


# ---------------------------------------------------------------------------
# Colon partners.

def test_link_of_line_through_union():
    ctx = ring("x", "y")
    cert = link_of(I_of(ctx, "x"), I_of(ctx, "x*y"), R_mod(ctx))
    assert ideal_equal(cert.b, I_of(ctx, "y"))
    assert cert.geometric


def test_link_of_unstable_ideal_needs_close():
    # a = (x^2, xy) is not its own double colon through (x^2)
    ctx = ring("x", "y")
    a = I_of(ctx, "x^2", "x*y")
    I = I_of(ctx, "x^2")
    with pytest.raises(LinkageError) as e:
        link_of(a, I, R_mod(ctx))
    assert e.value.reason == "colon-mismatch-b"
    cert = link_of(a, I, R_mod(ctx), close=True)
    assert ideal_equal(cert.a, I_of(ctx, "x"))
    assert cert.selflinked


def _outcome(route, *args):
    """The certificate a linkage route returns, or its refusal reason."""
    try:
        return route(*args)
    except LinkageError as err:
        return err.reason


def _same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
        return want
    assert got.as_json() == want.as_json()
    for side in ("quotient_a", "quotient_b", "quotient_core"):
        assert ideal_equal(getattr(got, side).ideal, getattr(want, side).ideal)
    return "linked"


def _link_input(data, st):
    """(M, copy, I, trial), drawn as the sampler draws them: M = R/J with J
    given by terms or by one binomial, I up to two of the sampler's elements
    (a power of a variable, or a sum of two variables), M-regular or not,
    and trial I plus up to two terms, at least one when I is zero.  `copy`
    is M on fresh ideals, so that a reference route shares no cached step
    with `link_of`."""
    ctx = ring("x", "y", "z")
    var = st.sampled_from(ctx.var_names)
    term = st.lists(var, min_size=1, max_size=3).map(lambda vs: parse_poly("*".join(vs), ctx))
    if data.draw(st.booleans()):
        J = data.draw(st.lists(term, max_size=2))
    else:
        J = [data.draw(term) - data.draw(term)]
    element = st.one_of(
        st.builds(lambda v, d: parse_poly(f"{v}^{d}", ctx), var, st.integers(1, 2)),
        st.builds(lambda v, w: parse_poly(f"{v} + {w}", ctx), var, var),
    )
    I = Ideal(ctx, data.draw(st.lists(element, max_size=2)))
    extras = data.draw(st.lists(term, min_size=0 if I.gens else 1, max_size=2))
    M, copy = (CyclicModule(ctx, Ideal(ctx, J)) for _ in range(2))
    return M, copy, I, ideal_sum(I, Ideal(ctx, extras))


def test_closed_link_of_matches_the_inline_double_colon():
    # link_of(trial, I, M, close=True) answers as the double colon the
    # sampler and p1 once took inline (b = T : trial, a = T : b over
    # T = I + J, then check_linked), and refuses a unit b as improper-b
    # before taking a; improper-b occurs exactly when b is the unit ideal
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    seen = set()

    def inline(trial, I, M):
        T = ideal_sum(I, M.ideal)
        b = ideal_quotient(T, trial)
        return _outcome(check_linked, ideal_quotient(T, b), b, I, M), is_unit_ideal(b)

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @hyp.given(st.data())
    def check(data):
        M, copy, I, trial = _link_input(data, st)
        want, unit_b = inline(trial, I, copy)
        got = _outcome(link_of, trial, I, M, True)
        seen.add(_same_outcome(got, want))
        assert (got == "improper-b") == (unit_b and want != "not-regular")

    check()
    assert {"linked", "improper-a", "improper-b", "not-regular"} <= seen


def test_closed_link_of_reads_repeated_colons_off_the_core(monkeypatch):
    # link_of(a, I, M, close=True) takes b = T : a and a' = T : b over the
    # core T = I + J, and check_linked takes T : a' and T : b again; here
    # a' = b = (x, y, z), so both are read off T, and the three colon runs
    # left are T : a, T : b and the intersection's (five before colons were
    # kept on the dividend)
    calls = []
    real = groebner._colon

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_colon", counted)
    ctx = ring("x", "y", "z")
    cert = link_of(I_of(ctx, "x", "z"), I_of(ctx, "x", "y"), R_mod(ctx, "x*y - z^2"), close=True)
    assert cert.selflinked and cert.as_json()["b"] == ["z", "y", "x"]
    assert len(calls) == 3


def test_open_link_of_refuses_as_check_linked_does():
    # without close, link_of certifies (a, (I+J) : a) and nothing else: its
    # answer is check_linked's on that unclosed pair, reason for reason, and
    # a unit partner is not refused early (a = (xy) through (y) is not-contained)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    seen = set()
    ctx = ring("x", "y")
    assert _outcome(link_of, I_of(ctx, "x*y"), I_of(ctx, "y"), R_mod(ctx)) == "not-contained"

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @hyp.given(st.data())
    def check(data):
        M, copy, I, trial = _link_input(data, st)
        # the trial, or its extra terms alone, which need not hold I
        a = data.draw(st.sampled_from([trial, Ideal(I.ctx, trial.gens[len(I.gens):])]))
        b = ideal_quotient(ideal_sum(I, copy.ideal), a)
        seen.add(_same_outcome(_outcome(link_of, a, I, M), _outcome(check_linked, a, b, I, copy)))

    check()
    assert {"linked", "not-contained", "colon-mismatch-b"} <= seen


def test_link_refusal_answers_as_closed_link_of():
    # over monomial J and a monomial M-regular sequence I, the colon of the
    # core T = I + J by the extra terms names the reason link_of(trial, I,
    # M, close=True) refuses a trial of them, and is None exactly when
    # link_of certifies
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    seen = set()

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 4))
        ctx = ring(*[f"x{i}" for i in range(n)])
        term = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple).filter(any)
        J = MonomialIdeal.from_exponents(ctx, data.draw(st.lists(term, max_size=3)))
        seq = data.draw(st.lists(term, max_size=2))
        extras = data.draw(st.lists(term, min_size=0 if seq else 1, max_size=3))
        M = CyclicModule(ctx, J.to_ideal())
        I = Ideal(ctx, [Polynomial.from_monomial(ctx, e) for e in seq])
        T = regular_chain(I.gens, Ideal(ctx, M.ideal.gens))
        hyp.assume(T is not None)
        core = as_monomial(T)
        got = linkage._TermChain(core).refusal(extras)
        trial = ideal_sum(I, Ideal(ctx, [Polynomial.from_monomial(ctx, e) for e in extras]))
        want = _outcome(link_of, trial, I, M, True)
        assert got == (None if isinstance(want, LinkageCertificate) else want), (
            J.min_gens, seq, extras
        )
        seen.add(got)

    check()
    assert seen == {None, "improper-a", "improper-b"}


def test_term_chain_answers_as_regular_chain_and_link_of():
    # over monomial J a chain of monomials and up to three sums x_k + x_l
    # keeps a term form: each candidate is regular exactly when
    # regular_chain grows the chain, and exactly when no prime of Ass of
    # the core holds it (a sum: both representatives), a sum over two
    # representatives folds the core, one over a single representative r is
    # 0 (never regular) or 2*x_r, a monomial over R is regular as p1 takes
    # it, and the chain's refusal of the extras is link_of's reason, None
    # exactly when it certifies
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    seen, regular = set(), set()

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 4))
        ctx = ring(*[f"x{i}" for i in range(n)])
        term = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple).filter(any)
        J = MonomialIdeal.from_exponents(ctx, data.draw(st.lists(term, max_size=3)))
        M = CyclicModule(ctx, J.to_ideal())
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        sums = st.lists(pair, min_size=1, max_size=3)
        if n > 2:
            # x_a + x_b, x_a + x_c, x_b + x_c: the first two give x_b = x_c,
            # so the third is 2*x_b, where x_a + x_b again would cancel
            sums |= st.permutations(range(3)).map(lambda p: [p[:2], p[::2], p[1:]])
        terms = st.lists(term.map(lambda e: (e,)), max_size=1)
        seq = [
            c
            for ij in data.draw(sums)
            for c in (*data.draw(terms), tuple(mono_power(n, k) for k in ij))
        ] + data.draw(terms)
        # over R the chain starts as p1's does
        chain = linkage._TermChain(MonomialIdeal(ctx, ()) if J.is_zero() else M.monomial)
        for k, cand in enumerate(seq):
            # the masks a prime of Ass must meet to hold the candidate; 0
            # lies in every prime
            kind, needs = "term", [mono_mask(linkage._image(chain.rep, cand[0]))]
            if len(cand) == 2:
                (r, s), (r2, s2) = (chain.rep[e.index(1)] for e in cand)
                kind = "fold" if r != r2 else "double" if s == s2 else "cancel"
                needs = [1 << r, 1 << r2]
            ass = associated_primes(chain.core)
            held = kind == "cancel" or any(all(m & p.mask for m in needs) for p in ass)
            nxt = chain.step(cand)
            polys = [linkage._polynomial(ctx, c) for c in seq[: k + 1]]
            want = regular_chain(polys, Ideal(ctx, M.ideal.gens)) is not None
            assert (nxt is not None) == want == (not held), (J.min_gens, seq[: k + 1])
            regular.add((kind, want))
            if not want:
                seq = seq[:k]
                break
            chain = nxt
        extras = data.draw(st.lists(term, max_size=3))
        got = chain.refusal(extras)
        I = Ideal(ctx, [linkage._polynomial(ctx, c) for c in seq])
        trial = ideal_sum(I, Ideal(ctx, [Polynomial.from_monomial(ctx, e) for e in extras]))
        want = _outcome(link_of, trial, I, M, True)
        assert got == (None if isinstance(want, LinkageCertificate) else want), (
            J.min_gens, seq, extras
        )
        seen.add(got)

    check()
    assert regular == {
        ("term", True), ("term", False), ("fold", True), ("fold", False),
        ("double", True), ("double", False), ("cancel", False),
    }
    assert seen == {None, "improper-a", "improper-b"}


def test_term_chain_moves_with_the_variables():
    # a permutation of the variables is a ring automorphism: over the
    # permuted J the chain steps the permuted candidates to the same
    # regular/None pattern, holds the permuted core after each step and
    # refuses the permuted extras for the same reason
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    steps, seen = set(), set()

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 4))
        ctx = ring(*[f"x{i}" for i in range(n)])
        perm = data.draw(st.permutations(range(n)))

        def moved(exps):
            return [permute_exponents(e, perm) for e in exps]

        term = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple).filter(any)
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        cands = st.one_of(
            term.map(lambda e: (e,)), pair.map(lambda ij: tuple(mono_power(n, k) for k in ij))
        )
        J = data.draw(st.lists(term, max_size=3))
        chain = linkage._TermChain(MonomialIdeal.from_exponents(ctx, J))
        image = linkage._TermChain(MonomialIdeal.from_exponents(ctx, moved(J)))
        for cand in data.draw(st.lists(cands, max_size=5)):
            nxt, nxt_image = chain.step(cand), image.step(tuple(moved(cand)))
            assert (nxt is None) == (nxt_image is None), (J, perm, cand)
            steps.add((len(cand), nxt is not None))
            if nxt is not None:
                chain, image = nxt, nxt_image
                assert image.core.min_gens == minimalize(moved(chain.core.min_gens)), (J, perm)
        extras = data.draw(st.lists(term, max_size=3))
        got = chain.refusal(extras)
        assert image.refusal(moved(extras)) == got, (J, perm, extras)
        seen.add(got)

    check()
    assert steps == {(1, True), (1, False), (2, True), (2, False)}
    assert seen == {None, "improper-a", "improper-b"}


# ---------------------------------------------------------------------------
# Random sampling.

def test_sampler_sends_link_of_only_draws_a_term_core_certifies(monkeypatch):
    # over a monomial J the term chain refuses what link_of would refuse,
    # whatever the number of sums x_i + x_j in the sequence, so every call
    # the sampler makes there certifies
    ctx = ring("x", "y", "z")
    real = linkage.link_of
    calls, refused = [], []

    def binomials(I):
        return sum(not g.is_term() for g in I.gens)

    def recorded(trial, I, M, close=False):
        calls.append(binomials(I))
        try:
            return real(trial, I, M, close)
        except LinkageError:
            refused.append(binomials(I))
            raise

    monkeypatch.setattr(linkage, "link_of", recorded)
    produced = 0
    for seq_len_max in (2, 3):
        for gens in [(), ("x*y",), ("x^2", "y*z")]:
            params = GenParams(count=5, maxdeg=2, seq_len_max=seq_len_max)
            produced += len(list(random_linked_pairs(R_mod(ctx, *gens), params, seed=7)))
    assert produced == 30 and len(calls) > produced
    assert {1, 2} <= set(calls)  # cores folded once and twice reached link_of
    assert refused == []
def test_random_pairs_deterministic_and_certified():
    ctx = ring("x", "y", "z")
    M = R_mod(ctx)
    params = GenParams(count=8, maxdeg=2)
    first = [c.as_json() for c in random_linked_pairs(M, params, seed=5)]
    second = [c.as_json() for c in random_linked_pairs(M, params, seed=5)]
    assert first == second
    assert len(first) == 8
    keys = {(tuple(d["a"]), tuple(d["b"]), tuple(d["I"])) for d in first}
    assert len(keys) == len(first)


def test_random_pairs_recertify():
    ctx = ring("x", "y")
    for M in [R_mod(ctx), R_mod(ctx, "x*y"), R_mod(ctx, "x^2")]:
        for cert in random_linked_pairs(M, GenParams(count=5, maxdeg=2), seed=3):
            again = check_linked(cert.a, cert.b, cert.I, M)
            assert again.geometric == cert.geometric
            assert again.selflinked == cert.selflinked
            assert support_identity(cert)


def test_link_reduces_to_zero_link_over_core():
    # (a, b) linked through I over M  <=>  linked through 0 over M/(I+J)
    ctx = ring("x", "y", "z")
    M = R_mod(ctx)
    zero = Ideal.zero(ctx)
    n = 0
    for cert in random_linked_pairs(M, GenParams(count=6, maxdeg=2), seed=9):
        flat = check_linked(cert.a, cert.b, zero, cert.quotient_core)
        assert flat.geometric == cert.geometric
        assert flat.selflinked == cert.selflinked
        n += 1
    assert n == 6


def test_partner_is_involutive_on_certificates():
    ctx = ring("x", "y", "z")
    M = R_mod(ctx, "x*y")
    for cert in random_linked_pairs(M, GenParams(count=5, maxdeg=2), seed=21):
        T = ideal_sum(cert.I, M.ideal)
        back = ideal_quotient(T, Ideal(ctx, reduced_gb(ideal_quotient(T, cert.a))))
        assert ideal_equal(back, cert.quotient_a.ideal)


# Certificates drawn before the sampler kept its chains per call; the draws
# must not change.  The first module has a monomial J, the others do not.
PINNED_DRAWS = [
    (("x*y", "z^2"), 3, 11, [
        {"module": "R/(x*y, z^2)", "I": ["0"], "a": ["y", "z^2"], "b": ["x", "z^2"],
         "geometric": True, "selflinked": False},
        {"module": "R/(x*y, z^2)", "I": ["x + y"], "a": ["y", "x", "z^2"], "b": ["y", "x", "z^2"],
         "geometric": False, "selflinked": True},
        {"module": "R/(x*y, z^2)", "I": ["x + y"], "a": ["x + y", "z^2", "y*z", "y^2"],
         "b": ["z", "y", "x"], "geometric": False, "selflinked": False},
    ]),
    (("x^2 - y*z",), 3, 12, [
        {"module": "R/(x^2 - y*z)", "I": ["x^2"], "a": ["z", "x^2"], "b": ["y", "x^2"],
         "geometric": True, "selflinked": False},
        {"module": "R/(x^2 - y*z)", "I": ["x"], "a": ["z", "x"], "b": ["y", "x"],
         "geometric": True, "selflinked": False},
        {"module": "R/(x^2 - y*z)", "I": ["y + z", "z^2"], "a": ["y + z", "z^2", "x*z", "x^2"],
         "b": ["z", "y", "x"], "geometric": False, "selflinked": False},
    ]),
    (("x*y - z^2", "x*z"), 2, 13, [
        {"module": "R/(x*y - z^2, x*z)", "I": ["x + y"], "a": ["y", "x", "z^2"],
         "b": ["z", "x + y", "y^2"], "geometric": False, "selflinked": False},
        {"module": "R/(x*y - z^2, x*z)", "I": ["x + y"], "a": ["x + y", "z^2", "y*z", "y^2"],
         "b": ["z", "y", "x"], "geometric": False, "selflinked": False},
    ]),
]


@pytest.mark.parametrize("gens, count, seed, expected", PINNED_DRAWS)
def test_random_pairs_are_pinned(gens, count, seed, expected):
    ctx = ring("x", "y", "z")
    M = R_mod(ctx, *gens)
    got = [c.as_json() for c in random_linked_pairs(M, GenParams(count=count, maxdeg=2), seed=seed)]
    assert got == expected


# sha256 (first 16 hex digits) of json.dumps([c.as_json() for c in
# random_linked_pairs(M, GenParams(count=5, maxdeg=2, seq_len_max=3),
# seed)], sort_keys=True), as drawn when link_of alone decided a sequence
# holding two sums x_i + x_j; the term chain must draw the same pairs, and
# one certificate holds two sums
PINNED_MULTI_SUM_DRAWS = [
    (("x*y",), 1, "3e1ac1a433546fba"),
    (("x*y",), 2, "d001a791687d0779"),
    (("x*y",), 3, "62ad0578f8e51ab3"),
    (("x*y",), 7, "4187dc87911f8164"),
    (("x^2", "y*z"), 1, "956a56b5354d0865"),
    (("x^2", "y*z"), 2, "bf4f0a2a9e7f15e3"),
    (("x^2", "y*z"), 3, "0b314556e8fdc6cf"),
    (("x^2", "y*z"), 7, "991ca0f3c5d4b1e3"),
]


def test_multi_sum_draws_are_pinned():
    ctx = ring("x", "y", "z")
    sums = set()
    for gens, seed, digest in PINNED_MULTI_SUM_DRAWS:
        params = GenParams(count=5, maxdeg=2, seq_len_max=3)
        got = [c.as_json() for c in random_linked_pairs(R_mod(ctx, *gens), params, seed=seed)]
        assert hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest()[:16] == digest
        sums |= {sum("+" in g for g in d["I"]) for d in got}
    assert 2 in sums


@pytest.mark.parametrize("gens, count, seed", [d[:3] for d in PINNED_DRAWS])
def test_sampler_tests_each_chain_prefix_once(monkeypatch, gens, count, seed):
    # within one call, each chain step is computed once: a prefix (*seq,
    # cand) drawn again reads the step kept on the chain it extended, the
    # term chain's over a monomial J (`_TermChain._steps`) and the ideal's
    # (`regular_steps`) otherwise, and the chain that certification grows
    # again from J reads the ideal's
    ctx = ring("x", "y", "z")
    M = R_mod(ctx, *gens)
    computed, calls, drawn = [], [], []
    walk, term_step, pool = modules.regular_steps, linkage._TermChain.step, linkage._sequence_pool

    def kept_steps(Q, seq):
        # the (ideal, element) steps of seq from Q already kept on the ideals
        out = []
        for f in seq:
            if Q is None or f not in (Q._steps or ()):
                break
            out.append((Q.gens, f))
            Q = Q._steps[f]
        return out

    def counted_walk(Q, seq, skip=False):
        calls.extend(seq)
        before = kept_steps(Q, seq)
        got = walk(Q, seq, skip)
        computed.extend(kept_steps(Q, seq)[len(before) :])
        return got

    def counted_term_step(chain, cand):
        # every chain of the call lives on in the first one's steps, so an
        # id names one chain throughout
        calls.append(cand)
        if cand not in chain._steps:
            computed.append((id(chain), cand))
        return term_step(chain, cand)

    def counted_draw(*args):
        drawn.append(pool(*args))
        return drawn[-1]

    monkeypatch.setattr(modules, "regular_steps", counted_walk)
    monkeypatch.setattr(linkage._TermChain, "step", counted_term_step)
    monkeypatch.setattr(linkage, "_sequence_pool", counted_draw)
    list(random_linked_pairs(M, GenParams(count=count, maxdeg=2), seed=seed))
    assert computed and len(set(computed)) == len(computed)
    assert len(drawn) > len(computed) and len(calls) > len(drawn)
    # the term chain takes the steps exactly when J is monomial
    assert any(isinstance(key, int) for key, _ in computed) == (M.monomial is not None)


@pytest.mark.parametrize("gens, count, seed", [d[:3] for d in PINNED_DRAWS[1:]])
def test_certificate_quotients_keep_their_bases(monkeypatch, gens, count, seed):
    # certification computed the bases of a+J, b+J and I+J, and the
    # certificate's quotients keep them: over a non-monomial J, reading a
    # basis or a monomial form runs no engine, and neither does the support
    # identity, whose radical tests membership answers (T lies in a+J and in
    # b+J, and (a+J)(b+J) in T), so no Rabinowitsch run starts
    ctx = ring("x", "y", "z")
    certs = list(random_linked_pairs(R_mod(ctx, *gens), GenParams(count=count, maxdeg=2), seed=seed))
    widths = []
    real = groebner._buchberger

    def counted(maps, order, rank=0, basis=()):
        maps = list(maps)
        widths.append(len(next(iter(maps[0]))) - rank)
        return real(maps, order, rank, basis)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    for cert in certs:
        for X in (cert.quotient_a, cert.quotient_b, cert.quotient_core):
            assert X.ideal._gb is not None
            reduced_gb(X.ideal)
            X.monomial  # derived on this first read from the cached basis
    assert widths == []
    assert all(support_identity(cert) for cert in certs)
    assert widths == []


def test_engine_runs_are_pinned(monkeypatch):
    # a regular chain reads a chain of variables over a homogeneous ideal off
    # one reverse-lex basis, any other step's colon and sum off one syzygy
    # run, and keeps each outcome on the ideal it extended; membership in a
    # term ideal divides by its generators, a colon by an ideal inside I is
    # the unit ideal, and an ideal whose generators all vanish at the origin
    # is proper, none of them with an engine run.  The counts in the
    # comments were made by the route that read each variable step off a
    # reverse-lex basis of its own, before it by the route that took every
    # step's colon and sum off one syzygy run, and before that by the route
    # that took each step's colon, then the sum's own basis.  The sampler's
    # count fell when colons were kept on the dividend, so check_linked
    # reads the colons link_of took.  A change to any of these must update
    # them.
    runs = []
    real = groebner._buchberger

    def counted(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    ctx = ring(*"abcd")
    b, c = parse_poly("b", ctx), parse_poly("c", ctx)
    assert is_regular_sequence([b, c], I_of(ctx, "a*d - b*c"))
    # was 2 (one run per step), 3 (J's basis, then one run per step), and 5
    assert len(runs) == 1
    del runs[:]
    assert is_proper(ideal_sum(I_of(ctx, "a^2 - b*c", "a*d + c"), I_of(ctx, "b^3 - d")))
    assert runs == []  # was 1
    ctx = ring("x", "y", "z")
    gens, count, seed, expected = PINNED_DRAWS[1]
    got = list(random_linked_pairs(R_mod(ctx, *gens), GenParams(count=count, maxdeg=2), seed=seed))
    assert len(runs) == 45  # was 50, 54, and 121 before
    assert [cert.as_json() for cert in got] == expected
