"""Claim checkers and the randomized claim runner."""

import ast
import hashlib
import itertools
import json
import multiprocessing
import pickle
import random
import re
from pathlib import Path

import pytest

from oracles import homogeneous_pool_by_arithmetic, module_ass_scan, presented_ext, radical_is_maximal
from linkcoh.groebner import (
    BudgetExceeded,
    Ideal,
    engine_runs,
    ideal_equal,
    ideal_quotient,
    ideal_sum,
    reduced_gb,
    set_limits,
)
from linkcoh.linkage import (
    GenParams,
    LinkageCertificate,
    LinkageError,
    _random_monomial,
    check_linked,
    link_of,
    random_linked_pairs,
)
from linkcoh.modules import (
    KOSZUL_SIZE_BUDGET,
    CyclicModule,
    koszul_grade,
    maximal_ideal,
    regular_chain,
)
from linkcoh.monomial import ImproperIdealError, MonomialIdeal, as_monomial
from linkcoh.invariants import GRADED_NOTE, height_in_module, is_equidimensional
from linkcoh.ring import ParseError, Polynomial, RingError, parse_poly, ring
from linkcoh.session import SessionError
from linkcoh import cli, monomial, theorems
from linkcoh.theorems import (
    CLAIMS,
    InstanceParams,
    bipartition_zero_link,
    check_att_calculus,
    check_cm_criteria,
    check_equidim_transfer,
    check_grade_one_links,
    check_height_and_self_ext,
    check_pure_height_split,
    check_top_prime_transfer,
    run_claim,
)


def I_of(ctx, *texts):
    return Ideal(ctx, [parse_poly(t, ctx) for t in texts])


def R_mod(ctx, *texts):
    if not texts:
        return CyclicModule.full_ring(ctx)
    return CyclicModule(ctx, I_of(ctx, *texts))


# ---------------------------------------------------------------------------
# Hand certificates through each checker.

def test_height_and_ext_checker_passes_on_clean_link():
    ctx = ring("x", "y")
    cert = check_linked(I_of(ctx, "x"), I_of(ctx, "y"), I_of(ctx, "x*y"), R_mod(ctx))
    v = check_height_and_self_ext(cert)
    assert v.status == "pass", v.notes


def _monomial_modules(ns, seeds):
    """Seeded R/J with J a random proper monomial ideal of one or two
    generators of degree at most two."""
    for n in ns:
        ctx = theorems.ctx_for(n)
        for seed in seeds:
            rng = random.Random(seed)
            J = MonomialIdeal.from_exponents(
                ctx, [_random_monomial(rng, ctx, 2) for _ in range(rng.randint(1, 2))]
            )
            yield seed, CyclicModule(ctx, J.to_ideal())


def _sampled_certs():
    """Certified pairs from `random_linked_pairs` over monomial J in 2-4
    variables and over the binomial J = (x*y - z^2)."""
    for seed, M in _monomial_modules((2, 3, 4), range(4)):
        yield from random_linked_pairs(M, GenParams(count=3, maxdeg=2), seed=seed)
    ctx = theorems.ctx_for(3)
    B = CyclicModule(ctx, I_of(ctx, "x*y - z^2"))
    yield from random_linked_pairs(B, GenParams(count=4, maxdeg=2), seed=1)


def _unclosed_certs():
    """Pairs certified by `link_of` without closing: a colon (I+J) : c is
    colon-stable, since T : (T : (T : c)) = T : c for any ideal T."""
    for n in (2, 3):
        ctx = theorems.ctx_for(n)
        bases = [(), ("x*y",)] + ([("x*y - z^2",)] if n == 3 else [])
        for texts in bases:
            M = R_mod(ctx, *texts)
            for seed in range(24):
                rng = random.Random(seed)

                def mono():
                    return Polynomial.from_monomial(ctx, _random_monomial(rng, ctx, 2))

                I = Ideal(ctx, [mono() for _ in range(rng.randint(0, n - 1))])
                a = ideal_quotient(ideal_sum(I, M.ideal), Ideal(ctx, [mono()]))
                try:
                    yield link_of(a, I, M)
                except LinkageError:
                    continue


def test_linked_sides_have_the_grade_of_the_linking_sequence():
    # what l1 reads off the certificate: each side has grade len(I.gens) on
    # M, the length of the M-regular sequence that links it
    sides = 0
    for certs in (_sampled_certs(), _unclosed_certs()):
        for cert in certs:
            for side in (cert.a, cert.b):
                gens = reduced_gb(side)
                if len(gens) <= KOSZUL_SIZE_BUDGET:
                    g = koszul_grade(gens, cert.module.ideal)
                    assert g == len(cert.I.gens), cert.as_json()
                    sides += 1
    assert sides >= 100, sides


@pytest.mark.slow
def test_height_checker_reads_sides_past_the_koszul_size_gate():
    # (x,y,z)^3 ~ (x^3,y^3,z^3) + (x,y,z)^4 through (x^3,y^3,z^3): the sides
    # have 10 and 9 reduced generators, which a Koszul complex of at most
    # eight generators never saw
    ctx = ring("x", "y", "z")
    cube = [f"x^{i}*y^{j}*z^{3 - i - j}" for i in range(4) for j in range(4 - i)]
    quart = [f"x^{i}*y^{j}*z^{4 - i - j}" for i in range(5) for j in range(5 - i)]
    I = I_of(ctx, "x^3", "y^3", "z^3")
    cert = check_linked(I_of(ctx, *cube), I_of(ctx, "x^3", "y^3", "z^3", *quart), I, R_mod(ctx))
    assert (len(reduced_gb(cert.a)), len(reduced_gb(cert.b))) == (10, 9)
    v = check_height_and_self_ext(cert)
    assert v.status == "pass", v
    assert v.witnesses[:2] == ("heights[a]=grade=3", "heights[b]=grade=3")
    assert v.notes == (GRADED_NOTE,)


def _l1_both_sides(cert):
    """l1 checked side by side: each side's grade by its Koszul complex, and
    the self-dual Ext of each side, selflinked or not, presented and
    scanned by the engine (`module_ass_scan`)."""
    M, Ma, Mb, core = cert.module, cert.quotient_a, cert.quotient_b, cert.quotient_core
    if M.monomial is None:
        return theorems.Verdict.skipped("needs a monomial base ideal")
    if core.monomial is None or Ma.monomial is None or Mb.monomial is None:
        return theorems.Verdict.skipped("needs a monomial core and monomial sides")
    if core.primes().ass != core.primes().min_primes:
        return theorems.Verdict.skipped("core has embedded primes")
    witnesses = []
    for label, side, quot in (("a", cert.a, Ma), ("b", cert.b, Mb)):
        g = koszul_grade(reduced_gb(side), M.ideal)
        for p in quot.primes().ass:
            if height_in_module(p, M) != g:
                return theorems.Verdict.failing(f"height on side {label}", (GRADED_NOTE,))
        witnesses.append(f"heights[{label}]=grade={g}")
    common = Ma.primes().ass & Mb.primes().ass
    base = core.monomial.to_ideal()
    for label, quot in (("a", Ma), ("b", Mb)):
        if module_ass_scan(presented_ext(quot.monomial.to_ideal(), base)) != common:
            return theorems.Verdict.failing(f"ext on side {label}", (GRADED_NOTE,))
    witnesses.append(f"ext-ass={common.render(cert.ctx)}")
    return theorems.Verdict.passing(witnesses, (GRADED_NOTE,))


def test_height_and_ext_checker_takes_one_ext_of_a_selflinked_pair(monkeypatch):
    # a selflinked pair has one quotient M/aM = M/bM, so one kernel call;
    # the verdict is the one that checks both sides by the engine route
    calls = []
    real = theorems.hom_ass

    def counted(A, T):
        calls.append(A)
        return real(A, T)

    monkeypatch.setattr(theorems, "hom_ass", counted)
    seen = {True: 0, False: 0}
    for seed, M in _monomial_modules((2, 3), range(8)):
        for cert in random_linked_pairs(M, GenParams(count=3, maxdeg=2), seed=seed):
            calls.clear()
            v = check_height_and_self_ext(cert)
            assert v == _l1_both_sides(cert), cert.as_json()
            if v.status == "pass":
                assert len(calls) == (1 if cert.selflinked else 2), cert.as_json()
                seen[cert.selflinked] += 1
    assert seen[True] >= 10 and seen[False] >= 5, seen


def test_height_and_ext_checker_reads_each_distinct_side_once(monkeypatch):
    # (z^2, x*z, x*y) ~ (y, z) through 0 over R/(z^2, x*y) is not
    # selflinked: two distinct sides, one kernel call each, and no engine
    # run for the Ext part; both Ext modules are R/(y, z)
    ctx = ring("x", "y", "z")
    cert = check_linked(
        I_of(ctx, "z^2", "x*z", "x*y"), I_of(ctx, "y", "z"), Ideal.zero(ctx), R_mod(ctx, "z^2", "x*y")
    )
    assert not cert.selflinked
    for quot in (cert.quotient_a, cert.quotient_b, cert.quotient_core, cert.module):
        quot.primes()
    calls = []
    real = theorems.hom_ass

    def counted(A, T):
        calls.append(A)
        return real(A, T)

    monkeypatch.setattr(theorems, "hom_ass", counted)
    before = engine_runs()
    v = check_height_and_self_ext(cert)
    assert engine_runs() == before
    assert v == _l1_both_sides(cert) and v.status == "pass"
    assert calls == [cert.quotient_a.monomial, cert.quotient_b.monomial]


def test_height_and_ext_checker_skips_embedded_core():
    # 0-link over R/(x^2, xy): the base has the embedded prime (x, y)
    ctx = ring("x", "y")
    M = R_mod(ctx, "x^2", "x*y")
    cert = check_linked(I_of(ctx, "x"), I_of(ctx, "x", "y"), Ideal.zero(ctx), M)
    v = check_height_and_self_ext(cert)
    assert v.status == "skip"
    assert any("embedded" in n for n in v.notes)


def test_top_prime_checker_skips_dimension_zero():
    ctx = ring("x", "y", "z")
    M = R_mod(ctx, "z", "y", "x^3")
    cert = check_linked(
        I_of(ctx, "x", "y", "z"), I_of(ctx, "y", "z", "x^2"), Ideal.zero(ctx), M
    )
    v = check_top_prime_transfer(cert)
    assert v.status == "skip"
    assert any("positive dimension" in n for n in v.notes)


def test_zero_link_gates():
    ctx = ring("x", "y")
    m = I_of(ctx, "x", "y")
    cert = check_linked(m, m, I_of(ctx, "x + y"), R_mod(ctx, "x*y"))
    assert cert.selflinked and not cert.geometric
    v = check_top_prime_transfer(cert)
    assert v.status == "skip" and any("zero-link" in n for n in v.notes)
    w = check_equidim_transfer(cert)
    assert w.status == "skip" and any("geometric zero-link" in n for n in w.notes)


def test_transfer_checkers_pass_on_branch_split():
    ctx = ring("x", "y", "z")
    M = R_mod(ctx, "x*y")
    cert = check_linked(I_of(ctx, "x"), I_of(ctx, "y"), Ideal.zero(ctx), M)
    assert cert.geometric
    assert check_equidim_transfer(cert).status == "pass"
    assert check_top_prime_transfer(cert).status == "pass"


def test_top_prime_transfer_fires_dimension_gap_and_exhaustive_case():
    # the zero-link ((x, y), (x)) over R/(x^2, xy): M/aM has dimension 0 and
    # M/bM dimension 1, and a = (x, y) pushes both of Ass M = {(x), (x, y)}
    # up to the ideal of variables
    ctx = ring("x", "y")
    M = R_mod(ctx, "x^2", "x*y")
    cert = check_linked(I_of(ctx, "x", "y"), I_of(ctx, "x"), Ideal.zero(ctx), M)
    v = check_top_prime_transfer(cert)
    assert v.status == "pass", v
    assert "dimension-gap: one side empty" in v.witnesses
    assert "exhaustive-case fired" in v.witnesses


def test_grade_one_checker():
    ctx = ring("x", "y")
    cert = check_linked(I_of(ctx, "x"), I_of(ctx, "y"), I_of(ctx, "x*y"), R_mod(ctx))
    v = check_grade_one_links(cert)
    assert v.status == "pass"
    assert any("radical" in w for w in v.witnesses)
    # non-principal core gets refused
    ctx3 = ring("x", "y", "z")
    cert2 = check_linked(
        I_of(ctx3, "x", "z"), I_of(ctx3, "y", "z"), I_of(ctx3, "x*y", "z"), R_mod(ctx3)
    )
    assert check_grade_one_links(cert2).status == "skip"


def test_grade_one_checker_reads_every_associated_prime():
    # (x^2, x*y) = (x) ∩ (x, y)^2 has only the height-one minimal prime (x)
    # and a principal radical; its embedded prime (x, y) makes it mixed
    ctx = ring("x", "y")
    cert = check_linked(I_of(ctx, "x"), I_of(ctx, "y"), I_of(ctx, "x*y"), R_mod(ctx))
    mixed = I_of(ctx, "x^2", "x*y")
    forged = LinkageCertificate(
        cert.module, cert.I, mixed, cert.b, CyclicModule(ctx, mixed), cert.quotient_b,
        cert.quotient_core, cert.geometric, cert.selflinked,
    )
    v = check_grade_one_links(forged)
    assert v.status == "fail"
    assert v.counterexample == "side a has an associated prime of height above one"


def _principal_grade_one(side):
    gens = reduced_gb(side)
    return len(gens) == 1 and koszul_grade(gens, Ideal.zero(side.ctx)) == 1


def test_principal_core_links_have_principal_sides_of_grade_one():
    # what p1 no longer computes: a certified link through (f) over R has
    # grade one, and in the UFD R both of its sides are principal
    linked = 0
    for n in (2, 3, 4):
        ctx = theorems.ctx_for(n)
        R = CyclicModule.full_ring(ctx)
        for seed in range(60):
            # drawn as the p1 instances are
            rng = random.Random(seed)
            core = Ideal(ctx, [Polynomial.from_monomial(ctx, _random_monomial(rng, ctx, 3))])
            extras = [
                Polynomial.from_monomial(ctx, _random_monomial(rng, ctx, 3))
                for _ in range(rng.randint(1, 2))
            ]
            try:
                cert = link_of(ideal_sum(core, Ideal(ctx, extras)), core, R, close=True)
            except LinkageError:
                continue
            assert _principal_grade_one(cert.a) and _principal_grade_one(cert.b), (n, seed)
            linked += 1
    assert linked >= 60, linked
    # a link that is not monomial: f = x*y*(x + y), a = (x*y), b = (x + y)
    ctx = ring("x", "y")
    cert = check_linked(I_of(ctx, "x*y"), I_of(ctx, "x + y"), I_of(ctx, "x^2*y + x*y^2"), R_mod(ctx))
    assert _principal_grade_one(cert.a) and _principal_grade_one(cert.b)
    assert check_grade_one_links(cert).notes == ("needs monomial sides",)


def test_pure_height_split_checker():
    ctx = ring("x", "y", "z")
    mixed = as_monomial(I_of(ctx, "x*y", "x*z"))
    v = check_pure_height_split(mixed)
    assert v.status == "pass"
    assert "height=1" in v.witnesses
    pure = as_monomial(I_of(ctx, "x*y", "x*z", "y*z"))
    w = check_pure_height_split(pure)
    assert w.status == "pass"
    assert any("trivial" in n for n in w.notes)


def test_att_calculus_checker():
    ctx = ring("x", "y")
    a = as_monomial(I_of(ctx, "x"))
    b = as_monomial(I_of(ctx, "y"))
    M = R_mod(ctx, "x*y")  # here a*b kills M, so sum/union laws fire too
    v = check_att_calculus(a, b, M)
    assert v.status == "pass"
    assert any(w.startswith("att(a)") for w in v.witnesses)
    free = check_att_calculus(a, b, R_mod(ctx))
    assert free.status == "pass"


def test_cm_checker_smoke():
    rng = random.Random(0)
    ctx = ring("x", "y", "z")
    assert check_cm_criteria(R_mod(ctx, "x*y"), rng, 2).status == "pass"
    assert check_cm_criteria(R_mod(ctx, "x*z", "y*z"), rng, 2).status == "pass"


def _t6_draws(seeds):
    """Base modules and candidate pools shaped like t6's: a seeded monomial
    J (or the zero ideal) over 2-4 variables, and the binomial x*y - z^2."""
    for seed in seeds:
        rng = random.Random(seed)
        ctx = theorems.ctx_for(2 + seed % 3)
        maxdeg = 2 + seed % 2
        M = theorems._random_module(rng, ctx, maxdeg, allow_zero=True)
        yield M, theorems._homogeneous_pool(rng, ctx, maxdeg)
    ctx = ring("x", "y", "z")
    for seed in seeds[:8]:
        yield R_mod(ctx, "x*y - z^2"), theorems._homogeneous_pool(random.Random(seed), ctx, 2)


def test_homogeneous_pool_matches_the_arithmetic_route():
    # t6's pool writes each candidate's exponent map; the reference builds
    # it by polynomial arithmetic: the same polynomials, terms in the same
    # order, in the same order, and the RNG left in the same state
    for n in range(1, 5):
        ctx = theorems.ctx_for(n)
        for maxdeg in (1, 2, 3):
            for seed in range(12):
                rng, ref = random.Random(seed), random.Random(seed)
                got = theorems._homogeneous_pool(rng, ctx, maxdeg)
                want = homogeneous_pool_by_arithmetic(ref, ctx, maxdeg)
                assert got == want
                assert [list(f.term_map().items()) for f in got] == [
                    list(f.term_map().items()) for f in want
                ]
                assert rng.getstate() == ref.getstate()


def _greedy_to_n(M, pool):
    """The sequence search bounded by the number of variables, on a fresh
    copy of J, as the reference for the search bounded by dim M."""
    ctx = M.ctx
    Q = Ideal(ctx, M.ideal.gens)
    seq = []
    for f in pool:
        if len(seq) == ctx.n:
            break
        nxt = regular_chain([f], Q)
        if nxt is not None:
            seq.append(f)
            Q = nxt
    return seq, Q, not ideal_equal(ideal_quotient(Q, maximal_ideal(ctx)), Q)


def test_quotient_dimension_zero_matches_the_radical_test_on_graded_draws():
    # t6 reads "dimension zero" off the record of R/Q; on graded Q that is
    # V(Q) = {0}, the Rabinowitsch test of every variable in sqrt(Q)
    answers = []
    for M, pool in _t6_draws(list(range(120))):
        _, Q, certified = theorems._greedy_maximal_sequence(M, pool)
        if certified:
            answers.append(radical_is_maximal(Q))
            assert answers[-1] == (CyclicModule(M.ctx, Q).dim() == 0), Q.gens
    assert len(answers) >= 100 and answers.count(False) >= 5


def test_sequence_search_stops_at_the_module_dimension(monkeypatch):
    # a regular sequence lowers dim R/(J + seq) by at least one per element,
    # so once it has dim M elements every further candidate fails; none is
    # tried, and the answer is that of the search bounded by n
    real = theorems.regular_chain
    tries: list[bool] = []

    def counted(seq, base):
        got = real(seq, base)
        tries.append(got is not None)
        return got

    monkeypatch.setattr(theorems, "regular_chain", counted)
    saved = 0
    for M, pool in _t6_draws(list(range(60))):
        tries.clear()
        seq, Q, certified = theorems._greedy_maximal_sequence(M, pool)
        d = M.dim()
        found_before = list(itertools.accumulate(tries, initial=0))[:-1]
        assert all(k < d for k in found_before), (M.describe(), d, tries)
        ref_seq, ref_Q, ref_certified = _greedy_to_n(M, pool)
        assert (seq, certified) == (ref_seq, ref_certified)
        assert reduced_gb(Q) == reduced_gb(ref_Q)
        saved += len(seq) == d and len(tries) < len(pool)
    assert saved >= 20


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("module", ["x - x^2", "x*y - x"])
def test_t6_passes_non_graded_cohen_macaulay_hypersurfaces(n, module):
    # R/J is Cohen-Macaulay, a hypersurface; V(J + seq) can hold points off
    # the origin, such as x = 1, so the quotient's dimension, not whether
    # V(J + seq) = {0}, decides
    doc = run_claim("t6", InstanceParams(n_vars=n, count=12, module=module))
    assert doc["counts"]["fail"] == 0
    assert doc["counts"]["pass"] == 12


def test_bipartition_zero_link_shapes():
    ctx = ring("x", "y", "z", "w")
    for seed in range(6):
        rng = random.Random(seed)
        cert = bipartition_zero_link(rng, ctx, equal_height=True)
        assert cert.geometric
        assert cert.I.is_zero_ideal()
        assert is_equidimensional(cert.module)
    found_unequal = False
    for seed in range(12):
        rng = random.Random(seed)
        cert = bipartition_zero_link(rng, ctx, equal_height=False)
        if not is_equidimensional(cert.module):
            found_unequal = True
    assert found_unequal


# ---------------------------------------------------------------------------
# The batch runner.

def test_run_claim_smoke_all_claims():
    params = InstanceParams(n_vars=3, count=3, maxdeg=2, seed=2)
    for claim in CLAIMS:
        doc = run_claim(claim, params)
        assert doc["ok"], (claim, doc["verdicts"])
        counts = doc["counts"]
        assert counts["pass"] + counts["fail"] + counts["skip"] + counts["inconclusive"] == 3
        assert doc["claim"] == claim
        assert doc["params"]["seed"] == 2
        assert len(doc["verdicts"]) == 3


def test_run_claim_parallel_matches_serial():
    params = InstanceParams(n_vars=3, count=6, maxdeg=2, seed=4)
    serial = run_claim("l08", params, jobs=1)
    parallel = run_claim("l08", params, jobs=2)
    assert serial == parallel


def test_run_claim_runs_spawned_workers_under_the_callers_limits(monkeypatch):
    # a spawned worker starts from the default limits, so the caller's (here
    # a soft deadline already past) travel with each instance; run_claim
    # takes Pool from multiprocessing only when it fans out
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    params = InstanceParams(n_vars=3, count=4, maxdeg=2, seed=4)
    with set_limits(soft_timeout=-1):
        serial = run_claim("l08", params, jobs=1)
        spawned = run_claim("l08", params, jobs=2)
    assert spawned == serial
    assert serial["counts"]["skip"] == 4
    assert all(v["notes"][0].startswith("budget exhausted") for v in serial["verdicts"])


@pytest.mark.parametrize("exc, fields", [
    (RingError("bad ring"), {}),
    (ParseError("bad text", 3), {"position": 3}),
    (SessionError("line 2: bad task"), {"position": None}),
    (ImproperIdealError("wants a proper ideal"), {}),
    (LinkageError("improper-b", "b kills the module: bM = M"), {"reason": "improper-b"}),
    (BudgetExceeded("buchberger", 12, 10), {"what": "buchberger", "spent": 12, "limit": 10}),
], ids=["RingError", "ParseError", "SessionError", "ImproperIdealError", "LinkageError", "BudgetExceeded"])
def test_exceptions_survive_pickling(exc, fields):
    # a worker of a fanned-out run_claim hands its exception to the parent by pickle
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert {k: getattr(back, k) for k in fields} == fields


@pytest.fixture
def spawned(monkeypatch):
    """The process counts of the worker pools built, each an in-process
    stand-in that maps serially."""
    spawned = []

    class FakePool:
        def __init__(self, processes):
            spawned.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    return spawned


@pytest.mark.parametrize("jobs, count, cpus, workers", [
    (64, 3, 2, 2),
    (64, 3, 8, 3),
    (3, 10, 8, 3),
    (64, 1, 8, None),
    (1, 10, 8, None),
])
def test_run_claim_clamps_pool(monkeypatch, spawned, jobs, count, cpus, workers):
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: cpus)
    params = InstanceParams(n_vars=3, count=count, maxdeg=2, seed=4)
    doc = run_claim("t2", params, jobs=jobs)
    assert len(doc["verdicts"]) == count
    assert spawned == ([] if workers is None else [workers])


@pytest.mark.parametrize("n_vars", [0, 7])
def test_verify_refuses_a_variable_count_before_building_a_pool(monkeypatch, capsys, spawned, n_vars):
    # InstanceParams refuses the count with ctx_for's message, so no pool of
    # workers is built for an instance list that cannot be drawn
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 8)
    assert cli.run(["verify", "p1", "--random", "4", "--vars", str(n_vars), "--jobs", "2"]) == 1
    assert "supported variable counts are 1..6" in capsys.readouterr().err
    assert spawned == []
    with pytest.raises(RingError, match=r"^supported variable counts are 1\.\.6$"):
        InstanceParams(n_vars=n_vars)


def test_run_claim_asks_for_cpus_only_with_several_jobs(monkeypatch):
    # one job runs serially whatever the CPU count, so the count is not read
    def cpu_count():
        raise AssertionError("os.cpu_count() called for jobs=1")

    monkeypatch.setattr(theorems.os, "cpu_count", cpu_count)
    params = InstanceParams(n_vars=3, count=2, maxdeg=2, seed=4)
    assert len(run_claim("t2", params)["verdicts"]) == 2


@pytest.mark.parametrize("jobs", [0, -4])
def test_run_claim_rejects_nonpositive_jobs(jobs):
    with pytest.raises(RingError):
        run_claim("l08", InstanceParams(count=2), jobs=jobs)


def test_run_claim_rejects_unknown():
    with pytest.raises(RingError):
        run_claim("nope", InstanceParams())


@pytest.mark.parametrize("claim, params, note", [
    ("l1", InstanceParams(module="0", count=1), "needs a proper base module"),
    ("r1", InstanceParams(n_vars=1, count=2), "needs at least two variables"),
    ("l15", InstanceParams(n_vars=1, count=2), "needs at least two variables"),
])
def test_run_claim_skips_a_draw_it_cannot_check(claim, params, note):
    # l1 refuses the zero base ideal; r1 and l15 split an antichain of
    # primes of height 1..n-1, which one variable does not have
    doc = run_claim(claim, params)
    assert doc["counts"]["skip"] == params.count
    assert all(v["notes"] == [note] for v in doc["verdicts"])


@pytest.mark.parametrize("claim", ["r1", "l15", "p1", "t2"])
def test_run_claim_refuses_a_module_the_claim_never_reads(claim):
    # these claims draw their own base module, so a pinned one would be
    # echoed in the report without being checked
    params = InstanceParams(n_vars=3, count=4, maxdeg=2, seed=7, module="x^2 - y*z")
    with pytest.raises(RingError, match="only l1, l08 and t6 take a pinned module"):
        run_claim(claim, params)


def test_p1_draws_reach_the_linked_path():
    # seed 2 of the smoke run skips every p1 draw at the unit colon; these
    # draws certify linked pairs and check them
    doc = run_claim("p1", InstanceParams(n_vars=2, count=20, maxdeg=2, seed=7))
    assert doc["counts"]["pass"] >= 1
    assert doc["counts"]["fail"] == doc["counts"]["inconclusive"] == 0
    for v in doc["verdicts"]:
        if v["status"] == "skip":
            (note,) = v["notes"]
            assert note == "trial collapsed to a unit colon" or note.startswith("draw not linked: ")


# sha256 (first 16 hex digits) of json.dumps(run_claim(claim, params),
# sort_keys=True): every verdict of the claims whose pairs come from the
# sampler or the p1 draw, as they were when every draw went through link_of;
# refusing a draw before any colon must not change one of them
PINNED_REPORTS = [
    ("l1", 2, 1, None, "21522b9dcaed969c"),
    ("l1", 3, 41, None, "b446eaea0611b63b"),
    ("l1", 4, 7, None, "03a4b66cbd174ace"),
    ("l1", 3, 5, "x*y, z^2", "f8945f5637bfe271"),
    ("l1", 3, 9, "x^2 - y*z", "51fafba2c2da0d1b"),
    ("t6", 2, 1, None, "38cf4971e42ec2eb"),
    ("t6", 3, 41, None, "eafee3436406b7ff"),
    ("t6", 4, 7, None, "6bbe7e4b7fca4007"),
    ("l15", 2, 1, None, "0c44baa26c589276"),
    ("l15", 3, 41, None, "739809691d33e8e4"),
    ("l15", 4, 7, None, "23ecff88aaa3ddab"),
    ("p1", 2, 1, None, "f28f3cff416d2c15"),
    ("p1", 3, 41, None, "ff178fe4c67a4e8a"),
    ("p1", 4, 7, None, "8aaeba6baa987b08"),
]


@pytest.mark.parametrize("claim, n_vars, seed, module, digest", PINNED_REPORTS)
def test_claim_reports_are_pinned(claim, n_vars, seed, module, digest):
    params = InstanceParams(n_vars=n_vars, count=40, seed=seed, module=module)
    text = json.dumps(run_claim(claim, params), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# l1 over 200 draws (maxdeg 2, seed 1): the verdicts by status and first
# note, and the report's digest as above, both as they were when each side's
# Ext was presented and scanned by the engine
L1_COVERAGE = [
    (3, {"pass": 165, "needs a monomial core and monomial sides": 25,
         "core has embedded primes": 6, "no linked pair found for this draw": 4},
     "1ba43db4db2054f3"),
    (4, {"pass": 172, "needs a monomial core and monomial sides": 22,
         "core has embedded primes": 6},
     "95c6bb078e674fd0"),
]


@pytest.mark.parametrize("n_vars, tally, digest", L1_COVERAGE)
def test_l1_coverage_is_pinned(n_vars, tally, digest):
    doc = run_claim("l1", InstanceParams(n_vars=n_vars, count=200, maxdeg=2, seed=1))
    seen: dict = {}
    for v in doc["verdicts"]:
        key = v["notes"][0] if v["status"] == "skip" else v["status"]
        seen[key] = seen.get(key, 0) + 1
    assert seen == tally
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# l15 over 200 seeds (maxdeg 3, seed 1): the report's digest as above, as
# it was when every odd-seed draw went to the linked-pair sampler
L15_PRIME_SKIPS = [(3, 52, "b7530bbd9cac9580"), (4, 44, "8b668aca58cb7d43")]


@pytest.mark.parametrize("n_vars, skips, digest", L15_PRIME_SKIPS)
def test_l15_skips_a_prime_base_before_drawing(monkeypatch, n_vars, skips, digest):
    # over a prime J (every minimal generator a variable) R/J is a domain,
    # so no pair links through I = 0: the odd-seed draw skips it without
    # entering the sampler, and every draw that does enter finds a pair
    entered = []
    draw = theorems.random_linked_pairs

    def record(M, *args, **kwargs):
        entered.append(M.monomial)
        return draw(M, *args, **kwargs)

    monkeypatch.setattr(theorems, "random_linked_pairs", record)
    doc = run_claim("l15", InstanceParams(n_vars=n_vars, count=200, seed=1))
    assert not [J for J in entered if all(sum(e) == 1 for e in J.min_gens)]
    odd = sum(v["seed"] % 2 for v in doc["verdicts"])
    assert doc["counts"]["skip"] == skips == odd - len(entered)
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_l1_decomposes_each_ideal_once_per_value(monkeypatch):
    # each side's Ass is kept on its monomial ideal, so the self-dual Ext
    # reads the decomposition its height check made: 71 decompositions,
    # not the 110 of a record kept per module, and the same report
    calls = []
    decompose = monomial.irreducible_decomposition
    monkeypatch.setattr(monomial, "irreducible_decomposition", lambda I: calls.append(I) or decompose(I))
    doc = run_claim("l1", InstanceParams(n_vars=3, count=40, maxdeg=2, seed=1))
    assert len(calls) <= 71
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "1567740697db8e11"


def test_run_claim_pinned_module():
    params = InstanceParams(n_vars=2, count=2, maxdeg=2, seed=1, module="x*y")
    doc = run_claim("t6", params)
    assert doc["params"]["module"] == "x*y"
    assert doc["ok"]


def test_t6_refuses_a_non_graded_pinned_module_below_its_dimension():
    # J = (x, y) ∩ (z - 1) has depth 1 at the origin and dim R/J = 2, yet
    # R/J is Cohen-Macaulay there: the depth/dimension oracle is undecided,
    # so t6 refuses instead of reporting the claim as failed
    params = InstanceParams(n_vars=3, count=2, maxdeg=2, seed=0, module="x*z - x, y*z - y")
    with pytest.raises(RingError, match="^Cohen-Macaulayness of a non-graded R/J is undecided"):
        run_claim("t6", params)


def test_run_claim_non_monomial_pinned_module():
    # the attached and associated sets need a monomial J: l1 and l08 skip,
    # and t6 keeps its sequence route, which needs no monomial J
    params = InstanceParams(n_vars=3, count=4, maxdeg=2, seed=7, module="x^2 - y*z")
    for claim in ("l1", "l08"):
        doc = run_claim(claim, params)
        assert doc["counts"]["skip"] == 4
        assert all("needs a monomial base ideal" in v["notes"] for v in doc["verdicts"])
    doc = run_claim("t6", params)
    assert doc["ok"] and doc["counts"]["pass"] == 4
    assert all(any("linkage route skipped" in n for n in v["notes"]) for v in doc["verdicts"])
    # l1 asks whether M is monomial before it draws a pair: one basis per
    # instance, where certifying pairs that are then skipped took 124 runs
    before = engine_runs()
    doc = run_claim("l1", InstanceParams(n_vars=3, count=10, maxdeg=2, seed=1, module="x*y - z^2"))
    assert engine_runs() - before <= 10
    assert doc["counts"]["skip"] == 10
    assert all(v["notes"] == ["needs a monomial base ideal"] for v in doc["verdicts"])


def test_run_claim_names_each_verdict_by_its_key():
    doc = run_claim("t2", InstanceParams(n_vars=3, count=3, maxdeg=2, seed=1))
    for v in doc["verdicts"]:
        assert list(v) == ["claim", "holds", "status", "witnesses", "notes", "counterexample", "seed"]
        assert v["claim"] == "t2"


# ---------------------------------------------------------------------------
# The claim table is the one place a claim is named and pinned.

README = Path(__file__).resolve().parent.parent / "README.md"
PINNABLE = [name for name, info in CLAIMS.items() if info.pinnable]


def test_claims_are_named_only_by_the_claim_table():
    tree = ast.parse(Path(theorems.__file__).read_text(encoding="utf-8"))
    (table,) = (
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "CLAIMS"
    )
    keys = {id(k) for k in table.keys}
    assert len(keys) == len(CLAIMS)
    stray = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in CLAIMS
        and id(node) not in keys
    ]
    assert stray == []


def _readme_section(title):
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end]


def test_readme_catalog_lists_exactly_the_claims():
    rows = re.findall(r"^\| `(\w+)` \|", _readme_section("The claim catalog"), re.M)
    assert rows == list(CLAIMS)


def test_readme_pinning_sentence_names_exactly_the_pinnable_claims():
    prose = " ".join(_readme_section("The claim catalog").split())
    (named,) = re.findall(r"`--module J` pins the base module of ([^;]*);", prose)
    assert re.findall(r"`(\w+)`", named) == PINNABLE
