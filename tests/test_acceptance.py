"""End-to-end acceptance battery.

Thirteen independent checks, one per test, each ending in a single
`ACCEPT nn <tag>: PASS` line (the pytest row itself is the fail line when an
assertion trips).  Together they pin down: hand-verified linkage ground
truth, agreement of independent computation routes (depth two ways, attached
primes two ways, combinatorial vs basis-driven ideal arithmetic), the
randomized structural identities behind the claim catalog, and byte-level
determinism of the command line.
"""

import itertools
import json
import random

import pytest

from engine_routes import engine_gb, engine_quotient, normal_form, tag_intersect
from linkcoh.cli import run
from linkcoh.groebner import (
    Ideal,
    ideal_intersect,
    ideal_quotient,
    ideal_sum,
    radical_member,
    reduced_gb,
)
from linkcoh.invariants import (
    ass_formal_zeroth,
    assh,
    att_top,
    height_in_module,
    is_equidimensional,
)
from linkcoh.linkage import (
    GenParams,
    check_linked,
    minimal_primes_in_core_ass,
    random_linked_pairs,
    support_identity,
)
from linkcoh.modules import (
    CyclicModule,
    ext1_selfdual,
    koszul_grade,
    maximal_ideal,
    module_ass,
)
from linkcoh.monomial import (
    MonomialIdeal,
    all_monomial_primes,
    as_monomial,
    associated_primes,
    min_assh_dim,
    mono_intersect,
    mono_product,
    mono_radical,
    mono_sum,
)
from linkcoh.ring import Polynomial, parse_poly, ring
from linkcoh.simplicial import depth_monomial
from linkcoh.theorems import bipartition_zero_link, check_cm_criteria
from oracles import att_top_via_cd, fp_ass_member, mono_colon, presented_ext, s_polynomial

# each random battery uses its own named generator so that adding or
# reordering tests never shifts another test's stream
def _rng(tag):
    return random.Random(f"acceptance:{tag}")


def _ok(tag):
    print(f"ACCEPT {tag}: PASS")


def I_of(ctx, *texts):
    return Ideal(ctx, [parse_poly(t, ctx) for t in texts])


def _vars_ctx(n):
    return ring(*[f"x{i}" for i in range(1, n + 1)])


def _random_mono_ideal(rng, ctx, max_exp=3, max_gens=4):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        e = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
        if any(e):
            gens.append(e)
    if not gens:
        gens = [tuple(1 if i == 0 else 0 for i in range(ctx.n))]
    return MonomialIdeal.from_exponents(ctx, gens)


def _random_squarefree(rng, ctx):
    gens = []
    for _ in range(rng.randint(1, 4)):
        e = tuple(1 if rng.random() < 0.45 else 0 for _ in range(ctx.n))
        if any(e) and not all(e):
            gens.append(e)
    return MonomialIdeal.from_exponents(ctx, gens)


# ---------------------------------------------------------------------------

def test_01_linkage_ground_truth():
    ctx = ring("x", "y")
    R = CyclicModule.full_ring(ctx)

    cert = check_linked(I_of(ctx, "x"), I_of(ctx, "y"), I_of(ctx, "x*y"), R)
    assert cert.geometric and not cert.selflinked
    assert support_identity(cert) and minimal_primes_in_core_ass(cert) is True

    m = I_of(ctx, "x", "y")
    cert2 = check_linked(m, m, I_of(ctx, "x^2", "y"), R)
    assert cert2.selflinked and not cert2.geometric
    assert support_identity(cert2) and minimal_primes_in_core_ass(cert2) is True

    M = CyclicModule(ctx, I_of(ctx, "x*y"))
    cert3 = check_linked(I_of(ctx, "x"), I_of(ctx, "y"), Ideal.zero(ctx), M)
    assert cert3.geometric and not cert3.selflinked
    assert support_identity(cert3) and minimal_primes_in_core_ass(cert3) is True

    _ok("01 linkage-ground-truth")


@pytest.mark.slow
def test_02_depth_two_routes():
    rng = _rng("depth")
    checked = 0
    for n in (2, 3, 4):
        ctx = _vars_ctx(n)
        vars_ = [Polynomial.variable(ctx, v) for v in ctx.var_names]
        for _ in range(70):
            # exponents capped at 3, biased small so the Koszul route stays quick
            gens = []
            for _ in range(rng.randint(1, 3 if n < 4 else 2)):
                e = tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n))
                if any(e):
                    gens.append(e)
            if not gens:
                continue
            J = MonomialIdeal.from_exponents(ctx, gens)
            if J.is_unit():
                continue
            combinatorial = depth_monomial(J)
            koszul = koszul_grade(vars_, J.to_ideal())
            assert combinatorial == koszul, (J.min_gens, combinatorial, koszul)
            checked += 1
    assert checked >= 200, checked
    _ok(f"02 depth-two-routes ({checked} ideals)")


def test_03_attached_primes_two_routes():
    rng = _rng("att-routes")
    checked = 0
    while checked < 100:
        n = rng.choice((2, 3, 4))
        ctx = _vars_ctx(n)
        J = _random_squarefree(rng, ctx)
        if J.is_unit():
            continue
        a = _random_squarefree(rng, ctx)
        if a.is_unit() or not a.min_gens:
            continue
        M = CyclicModule(ctx, J.to_ideal())
        assert att_top(a.to_ideal(), M) == att_top_via_cd(a.to_ideal(), M), (
            J.min_gens,
            a.min_gens,
        )
        checked += 1
    _ok(f"03 attached-primes-two-routes ({checked} instances)")


def test_04_attached_set_calculus():
    rng = _rng("att-calculus")
    plain = 0
    while plain < 200:
        n = rng.choice((2, 3))
        ctx = _vars_ctx(n)
        a = _random_mono_ideal(rng, ctx, max_exp=2, max_gens=3)
        b = _random_mono_ideal(rng, ctx, max_exp=2, max_gens=3)
        J = _random_mono_ideal(rng, ctx, max_exp=2, max_gens=3)
        if a.is_unit() or b.is_unit() or J.is_unit():
            continue
        M = CyclicModule(ctx, J.to_ideal())
        cap = mono_intersect(a, b).to_ideal()
        aI, bI = a.to_ideal(), b.to_ideal()
        # intersection laws, attached and formal
        assert att_top(cap, M) == att_top(aI, M) & att_top(bI, M)
        assert ass_formal_zeroth(cap, M) == (
            ass_formal_zeroth(aI, M) & ass_formal_zeroth(bI, M)
        )
        plain += 1

    killing = 0
    while killing < 50:
        n = rng.choice((2, 3))
        ctx = _vars_ctx(n)
        a = _random_mono_ideal(rng, ctx, max_exp=2, max_gens=2)
        b = _random_mono_ideal(rng, ctx, max_exp=2, max_gens=2)
        if a.is_unit() or b.is_unit():
            continue
        # J contains a*b (sometimes strictly), so both sum laws must fire
        J = mono_product(a, b)
        if rng.random() < 0.5:
            J = mono_sum(J, _random_mono_ideal(rng, ctx, max_exp=3, max_gens=1))
        if J.is_unit() or J.is_zero():
            continue
        M = CyclicModule(ctx, J.to_ideal())
        plus = mono_sum(a, b).to_ideal()
        aI, bI = a.to_ideal(), b.to_ideal()
        assert att_top(plus, M) == att_top(aI, M) | att_top(bI, M)
        assert ass_formal_zeroth(plus, M) == (
            ass_formal_zeroth(aI, M) | ass_formal_zeroth(bI, M)
        )
        killing += 1
    _ok(f"04 attached-set-calculus ({plain} plain + {killing} product-killing)")


def test_05_zero_link_top_prime_transfer():
    rng = _rng("transfer")
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 600:
        attempts += 1
        n = rng.choice((3, 4))
        ctx = _vars_ctx(n)
        cert = bipartition_zero_link(rng, ctx, equal_height=rng.random() < 0.5)
        if not cert.geometric:
            continue
        M = cert.module
        if M.dim() <= 0:
            continue
        att_a = att_top(cert.a, M)
        att_b = att_top(cert.b, M)
        assh_a = assh(cert.quotient_a)
        assh_b = assh(cert.quotient_b)
        # containment both ways round
        assert att_a.issubset(assh_b) and att_b.issubset(assh_a)
        if is_equidimensional(M):
            # fullness on one side forces it on the other
            assert (att_a == assh_b) == (att_b == assh_a)
        checked += 1
    assert checked >= 50, checked
    _ok(f"05 zero-link-top-prime-transfer ({checked} geometric links)")


def test_06_cm_forcing_and_sequence_oracle():
    rng = _rng("cm")
    passes = 0
    fails = 0
    inconclusive = 0
    tries = 0
    while passes < 50 and tries < 250:
        tries += 1
        n = rng.choice((2, 3))
        ctx = _vars_ctx(n)
        J = _random_mono_ideal(rng, ctx, max_exp=2, max_gens=3)
        if J.is_unit():
            continue
        M = CyclicModule(ctx, J.to_ideal())
        v = check_cm_criteria(M, rng, maxdeg=2)
        if v.status == "fail":
            fails += 1
        elif v.status == "pass":
            passes += 1
        elif v.status == "inconclusive":
            inconclusive += 1
    assert fails == 0, fails
    assert passes >= 50, (passes, inconclusive, tries)
    _ok(f"06 cm-forcing-and-sequence-oracle ({passes} modules, {inconclusive} inconclusive excluded)")


@pytest.mark.slow
def test_07_grade_one_links_unmixed_principal_radical():
    rng = _rng("grade-one")
    gated = 0
    for n in (2, 3):
        ctx = _vars_ctx(n)
        R = CyclicModule.full_ring(ctx)
        for seed in range(6):
            params = GenParams(count=8, maxdeg=3, seq_len_max=1)
            for cert in random_linked_pairs(R, params, seed=rng.randrange(1 << 20)):
                if len(cert.I.gens) != 1:
                    continue
                # a link through (f) has grade one, so p1 computes no grade
                assert koszul_grade(list(reduced_gb(cert.a)), R.ideal) == 1
                am, bm = as_monomial(cert.a), as_monomial(cert.b)
                if am is None or bm is None:
                    continue
                for side in (am, bm):
                    info = min_assh_dim(side)
                    assert all(p.height == 1 for p in info.ass), side.min_gens
                    assert len(mono_radical(side).min_gens) == 1, side.min_gens
                gated += 1
    assert gated >= 30, gated
    _ok(f"07 grade-one-links ({gated} gated instances)")


@pytest.mark.slow
def test_08_support_identities_across_corpus():
    rng = _rng("support")
    total = 0
    decided = 0
    for n in (2, 3):
        ctx = _vars_ctx(n)
        modules = [CyclicModule.full_ring(ctx)]
        for _ in range(3):
            J = _random_mono_ideal(rng, ctx, max_exp=2, max_gens=2)
            if not J.is_unit():
                modules.append(CyclicModule(ctx, J.to_ideal()))
        for M in modules:
            params = GenParams(count=10, maxdeg=2)
            for cert in random_linked_pairs(
                M, params, seed=rng.randrange(1 << 20)
            ):
                assert support_identity(cert), cert.as_json()
                flag = minimal_primes_in_core_ass(cert)
                assert flag in (True, None), cert.as_json()
                total += 1
                if flag is True:
                    decided += 1
    assert total >= 40 and decided >= 30, (total, decided)
    _ok(f"08 support-identities ({total} certificates, {decided} with the monomial route)")


@pytest.mark.slow
def test_09_module_height_equals_grade():
    rng = _rng("heights")
    gated = 0
    for n in (2, 3):
        ctx = _vars_ctx(n)
        modules = [CyclicModule.full_ring(ctx)]
        for texts in (("x1*x2",), ("x1^2",)):
            modules.append(CyclicModule(ctx, I_of(ctx, *texts)))
        for M in modules:
            for cert in random_linked_pairs(
                M, GenParams(count=5, maxdeg=2), seed=rng.randrange(1 << 20)
            ):
                core = cert.quotient_core
                if core.monomial is None or core.primes().ass != core.primes().min_primes:
                    continue
                for side, quot in ((cert.a, cert.quotient_a), (cert.b, cert.quotient_b)):
                    if quot.monomial is None:
                        continue
                    gens = [g for g in reduced_gb(side) if not g.is_zero()]
                    g = koszul_grade(gens, M.ideal)
                    for p in quot.primes().ass:
                        assert height_in_module(p, M) == g, (p, g, cert.as_json())
                    gated += 1
    assert gated >= 30, gated
    _ok(f"09 module-height-equals-grade ({gated} gated sides)")


def test_10_ext_against_common_associated_primes():
    ctx = ring("x", "y")

    # split base: the two branch ideals share no associated primes
    E = ext1_selfdual(I_of(ctx, "x"), I_of(ctx, "x*y"))
    assert len(module_ass(E)) == 0
    shared = associated_primes(as_monomial(I_of(ctx, "x"))) & associated_primes(
        as_monomial(I_of(ctx, "y"))
    )
    assert len(shared) == 0

    hand = [
        ("x^2",),  # a below
        ("x^2*y^2",),
        ("x^2,y^2",),
        ("x^3",),
        ("x^2*y",),
    ]
    sides = [("x",), ("x*y^2",), ("x,y",), ("x^2",), ("x*y",)]
    confirmed = 0
    for J_texts, a_texts in zip(hand, sides):
        J = I_of(ctx, *[t for part in J_texts for t in part.split(",")])
        a = I_of(ctx, *[t for part in a_texts for t in part.split(",")])
        b = Ideal(ctx, reduced_gb(ideal_quotient(J, a)))
        expected = associated_primes(as_monomial(ideal_sum(a, J))) & associated_primes(
            as_monomial(ideal_sum(b, J))
        )
        assert len(expected) > 0, (J_texts, a_texts)
        E = ext1_selfdual(a, J)
        got = module_ass(E)
        assert got == expected, (J_texts, a_texts, got.render(ctx), expected.render(ctx))
        # the presented membership test agrees with the enumerated set in
        # both directions
        presented = presented_ext(a, J)
        for p in all_monomial_primes(ctx):
            assert fp_ass_member(p, presented) == (p in got), (J_texts, p)
        confirmed += 1
    assert confirmed >= 5
    _ok(f"10 ext-common-associated-primes ({confirmed} quotient bases)")


def test_11_basis_engine_self_consistency():
    rng = _rng("engine")

    # closure: every S-polynomial of an emitted reduced basis reduces to zero
    closures = 0
    for n in (2, 3):
        ctx = _vars_ctx(n)
        pool = [
            "x1^2 - x2", "x1*x2 - 1", "x1 + x2", "x1^3 - x2^2",
            "x1^2*x2 + x1", "x1 - x2^2",
        ] if n == 2 else [
            "x1*x2 - x3", "x1^2 - x3^2", "x2*x3 - x1", "x1 + x2 + x3",
            "x2^2 - x3", "x1*x3 - x2^2",
        ]
        for _ in range(30):
            gens = [parse_poly(t, ctx) for t in rng.sample(pool, rng.randint(2, 3))]
            gb = reduced_gb(Ideal(ctx, gens))
            for g, h in itertools.combinations(gb, 2):
                assert normal_form(s_polynomial(g, h), gb).is_zero()
            closures += 1

    # agreement of basis-driven and combinatorial arithmetic on monomial pairs
    pairs = 0
    while pairs < 500:
        n = 2 if pairs % 2 == 0 else 3
        ctx = _vars_ctx(n)
        A = _random_mono_ideal(rng, ctx, max_exp=2, max_gens=3)
        B = _random_mono_ideal(rng, ctx, max_exp=2, max_gens=3)
        if A.is_unit() or B.is_unit() or A.is_zero() or B.is_zero():
            continue
        AI, BI = A.to_ideal(), B.to_ideal()
        assert engine_gb(engine_quotient(AI, BI)) == engine_gb(mono_colon(A, B).to_ideal())
        assert engine_gb(tag_intersect(AI, BI)) == engine_gb(mono_intersect(A, B).to_ideal())
        rad = mono_radical(A)
        for e in B.min_gens:
            w = Polynomial.from_monomial(ctx, e)
            assert radical_member(w, AI) == rad.contains_mono(e)
        pairs += 1
    _ok(f"11 basis-engine-self-consistency ({closures} closures, {pairs} monomial pairs)")


def test_12_pure_height_split():
    rng = _rng("split")
    checked = 0
    attempts = 0
    while checked < 30 and attempts < 400:
        attempts += 1
        n = rng.choice((3, 4))
        ctx = _vars_ctx(n)
        a = _random_squarefree(rng, ctx)
        if a.is_unit() or a.is_zero():
            continue
        info = min_assh_dim(a)
        t = info.height
        pure = [p for p in info.min_primes if p.height == t]
        rest = [p for p in info.min_primes if p.height > t]
        if not rest:
            continue  # only mixed-height inputs count here
        ap = pure[0].to_ideal(ctx)
        for p in pure[1:]:
            ap = ideal_intersect(ap, p.to_ideal(ctx))
        b = rest[0].to_ideal(ctx)
        for p in rest[1:]:
            b = ideal_intersect(b, p.to_ideal(ctx))
        apm, bm = as_monomial(ap), as_monomial(b)
        assert mono_radical(a) == mono_intersect(apm, bm)
        assert min_assh_dim(mono_sum(apm, bm)).height > t
        checked += 1
    assert checked >= 30, checked
    _ok(f"12 pure-height-split ({checked} mixed-height radicals)")


def test_13_cli_verify_byte_determinism(capsys):
    for claim, jobs in (("l08", None), ("t2", None), ("l08", 2)):
        argv = ["verify", claim, "--random", "4", "--vars", "3", "--maxdeg", "2", "--seed", "9"]
        code1 = run(argv)
        first = capsys.readouterr().out
        code2 = run(argv + (["--jobs", str(jobs)] if jobs else []))
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second, claim
        json.loads(first)
    _ok("13 cli-verify-byte-determinism")
