"""Batch command-line front end: subcommand dispatch and JSON reports.

Machine output is one JSON document on stdout (sorted keys, two-space
indent, a `schema_version` field); a one-line human summary goes to
stderr.  Identical argv and seed give byte-identical stdout.

Exit codes: 0 the computation ran (negative verdicts included), 1 usage
or input error, 2 resource budget tripped.  The global `--max-spairs`
and `--timeout-soft` flags go before the subcommand and bound every
Groebner computation of the invocation; the soft deadline also bounds the
Stanley-Reisner depth scan and the irreducible decomposition.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Sequence

from .groebner import (
    BudgetExceeded,
    Ideal,
    eliminate,
    ideal_member,
    reduced_gb,
    saturate,
    set_limits,
)
from .invariants import (
    GRADED_NOTE,
    ass_formal_zeroth,
    assh,
    att_top,
    height_in_module,
    is_equidimensional,
)
from .linkage import (
    GenParams,
    LinkageCertificate,
    LinkageError,
    check_linked,
    link_of,
    minimal_primes_in_core_ass,
    random_linked_pairs,
    support_identity,
)
from .modules import (
    CyclicModule,
    FPModule,
    ass_member,
    hom_cyclic,
    is_regular_sequence,
    koszul_grade,
)
from .monomial import (
    MonomialIdeal,
    MonomialPrime,
    as_monomial,
    associated_primes,
    colon_auto,
    intersect_auto,
    irreducible_decomposition,
    min_assh_dim,
    mono_radical,
)
from .ring import RingCtx, RingError, parse_poly
from .session import SessionFile, SessionTask, parse_session, render_session
from .simplicial import cd_squarefree
from .theorems import CLAIMS, InstanceParams, run_claim

SCHEMA_VERSION = 1


class _Usage(Exception):
    """Bad invocation; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this artifact reserves 2 for
    # budget trips, so route usage failures through an exception instead
    def error(self, message: str):
        raise _Usage(message)


# ---------------------------------------------------------------------------
# Input parsing helpers.

def _ring(args: argparse.Namespace) -> RingCtx:
    return RingCtx.parse(args.ring)


def _module_arg(ctx: RingCtx, text: str | None) -> CyclicModule:
    if text is None:
        return CyclicModule.full_ring(ctx)
    return CyclicModule(ctx, Ideal.parse(ctx, text))


def _mono_of(I: Ideal) -> MonomialIdeal:
    m = as_monomial(I)
    if m is None:
        raise RingError("this operation is only certified for monomial ideals")
    return m


def _prime(ctx: RingCtx, text: str) -> MonomialPrime:
    t = text.strip()
    if t in ("", "0"):
        return MonomialPrime(())
    return MonomialPrime(tuple(ctx.index(s.strip()) for s in t.split(",") if s.strip()))


def _seq(ctx: RingCtx, text: str):
    return [parse_poly(s.strip(), ctx) for s in text.split(",") if s.strip()]


def _gens(I: Ideal) -> list[str]:
    """Canonical generator strings: minimal monomial generators when the
    ideal is monomial, the reduced Groebner basis otherwise."""
    m = as_monomial(I)
    if m is not None:
        return m.render() or ["0"]
    return [str(g) for g in reduced_gb(I)] or ["0"]


# ---------------------------------------------------------------------------
# Result documents, shared by argv handlers and session tasks.

def _doc_gb(I: Ideal) -> dict:
    gb = reduced_gb(I)
    return {
        "generators": [str(g) for g in I.gens],
        "reduced_gb": [str(g) for g in gb] or ["0"],
    }


def _doc_decompose(m: MonomialIdeal) -> dict:
    comps = irreducible_decomposition(m)
    return {"components": [c.render() for c in comps]}


def _doc_ass(ctx: RingCtx, m: MonomialIdeal) -> dict:
    return {"associated_primes": associated_primes(m).render(ctx)}


def _doc_minprimes(ctx: RingCtx, m: MonomialIdeal) -> dict:
    info = min_assh_dim(m)
    return {
        "minimal_primes": info.min_primes.render(ctx),
        "height": info.height,
        "dim": info.dim,
    }


def _doc_assh(M: CyclicModule) -> dict:
    return {"assh": assh(M).render(M.ctx), "dim": M.dim()}


def _doc_radical(m: MonomialIdeal) -> dict:
    return {"radical": mono_radical(m).render() or ["0"]}


def _doc_depth(M: CyclicModule) -> dict:
    return {"depth": M.depth(), "dim": M.dim(), "cm": M.is_cohen_macaulay()}


def _doc_grade(a: Ideal, M: CyclicModule) -> dict:
    return {"grade": koszul_grade(list(a.gens), M.ideal)}


def _doc_equidim(M: CyclicModule) -> dict:
    return {"equidimensional": is_equidimensional(M)}


def _doc_att_top(ctx: RingCtx, a: Ideal, M: CyclicModule) -> dict:
    return {"attached_primes": att_top(a, M).render(ctx), "note": GRADED_NOTE}


def _doc_assf0(ctx: RingCtx, a: Ideal, M: CyclicModule) -> dict:
    return {
        "associated_primes": ass_formal_zeroth(a, M).render(ctx),
        "note": GRADED_NOTE,
    }


def _cert_doc(cert: LinkageCertificate) -> dict:
    return {
        "linked": True,
        **cert.as_json(),
        "support_identity": support_identity(cert),
        "min_primes_in_core_ass": minimal_primes_in_core_ass(cert),
    }


def _hom_target(ctx: RingCtx, module_text: str | None, hom_text: str | None) -> FPModule:
    N = _module_arg(ctx, module_text).to_fp()
    if hom_text is not None:
        N = hom_cyclic(Ideal.parse(ctx, hom_text), N)
    return N


# ---------------------------------------------------------------------------
# argv handlers; each returns (json document, stderr summary).

def _cmd_gb(args):
    I = Ideal.parse(_ring(args), args.ideal)
    doc = _doc_gb(I)
    return doc, f"{len(doc['reduced_gb'])} basis element(s)"


def _cmd_member(args):
    ctx = _ring(args)
    f = parse_poly(args.poly, ctx)
    I = Ideal.parse(ctx, args.ideal)
    inside = ideal_member(f, I)
    return {"poly": str(f), "ideal": _gens(I), "member": inside}, f"member: {inside}"


def _cmd_colon(args):
    ctx = _ring(args)
    Q = colon_auto(Ideal.parse(ctx, args.ideal), Ideal.parse(ctx, args.by))
    doc = {"quotient": _gens(Q)}
    return doc, "quotient: (" + ", ".join(doc["quotient"]) + ")"


def _cmd_intersect(args):
    ctx = _ring(args)
    T = intersect_auto(Ideal.parse(ctx, args.ideal), Ideal.parse(ctx, args.other))
    doc = {"intersection": _gens(T)}
    return doc, "intersection: (" + ", ".join(doc["intersection"]) + ")"


def _cmd_saturate(args):
    ctx = _ring(args)
    S = saturate(Ideal.parse(ctx, args.ideal), parse_poly(args.poly, ctx))
    doc = {"saturation": _gens(S)}
    return doc, "saturation: (" + ", ".join(doc["saturation"]) + ")"


def _cmd_eliminate(args):
    ctx = _ring(args)
    drop = [s.strip() for s in args.drop.split(",") if s.strip()]
    E = eliminate(Ideal.parse(ctx, args.ideal), drop)
    doc = {"dropped": drop, "eliminated": _gens(E)}
    return doc, "elimination ideal: (" + ", ".join(doc["eliminated"]) + ")"


def _cmd_decompose(args):
    m = _mono_of(Ideal.parse(_ring(args), args.ideal))
    doc = _doc_decompose(m)
    return doc, f"{len(doc['components'])} irreducible component(s)"


def _cmd_ass(args):
    ctx = _ring(args)
    doc = _doc_ass(ctx, _mono_of(Ideal.parse(ctx, args.ideal)))
    return doc, f"{len(doc['associated_primes'])} associated prime(s)"


def _cmd_minprimes(args):
    ctx = _ring(args)
    doc = _doc_minprimes(ctx, _mono_of(Ideal.parse(ctx, args.ideal)))
    return doc, f"{len(doc['minimal_primes'])} minimal prime(s), height {doc['height']}"


def _cmd_assh(args):
    ctx = _ring(args)
    doc = _doc_assh(CyclicModule(ctx, Ideal.parse(ctx, args.ideal)))
    return doc, f"{len(doc['assh'])} top-dimensional prime(s), dim {doc['dim']}"


def _cmd_radical(args):
    ctx = _ring(args)
    doc = _doc_radical(_mono_of(Ideal.parse(ctx, args.ideal)))
    return doc, "radical: (" + ", ".join(doc["radical"]) + ")"


def _cmd_dim(args):
    ctx = _ring(args)
    M = CyclicModule(ctx, Ideal.parse(ctx, args.ideal))
    return {"dim": M.dim()}, f"dim {M.dim()}"


def _cmd_depth(args):
    ctx = _ring(args)
    M = _module_arg(ctx, args.ideal)
    doc = _doc_depth(M)
    return doc, f"depth {doc['depth']}, dim {doc['dim']}, cm: {doc['cm']}"


def _cmd_cd(args):
    ctx = _ring(args)
    m = _mono_of(Ideal.parse(ctx, args.ideal))
    rad = mono_radical(m)
    radicalized = rad.min_gens != m.min_gens
    doc = {"cd": cd_squarefree(rad), "radicalized": radicalized}
    note = " (input radicalized first)" if radicalized else ""
    return doc, f"cohomological dimension {doc['cd']}{note}"


def _cmd_grade(args):
    ctx = _ring(args)
    M = _module_arg(ctx, args.module)
    doc = _doc_grade(Ideal.parse(ctx, args.ideal), M)
    return doc, f"grade {doc['grade']}"


def _cmd_regseq(args):
    ctx = _ring(args)
    M = _module_arg(ctx, args.module)
    seq = _seq(ctx, args.seq)
    ok = is_regular_sequence(seq, M.ideal)
    doc = {"sequence": [str(f) for f in seq], "regular": ok}
    if args.all_permutations:
        doc["regular_all_permutations"] = all(
            is_regular_sequence(list(p), M.ideal)
            for p in itertools.permutations(seq)
        )
    return doc, f"regular: {ok}"


def _cmd_ann(args):
    ctx = _ring(args)
    N = _hom_target(ctx, args.module, args.hom)
    doc = {"annihilator": _gens(N.annihilator())}
    return doc, "annihilator: (" + ", ".join(doc["annihilator"]) + ")"


def _cmd_assmember(args):
    ctx = _ring(args)
    p = _prime(ctx, args.prime)
    N = _hom_target(ctx, args.module, args.hom)
    inside = ass_member(p, N)
    return {"prime": p.render(ctx), "member": inside}, f"associated: {inside}"


def _cmd_linkage_check(args):
    ctx = _ring(args)
    M = _module_arg(ctx, args.module)
    a = Ideal.parse(ctx, args.a)
    b = Ideal.parse(ctx, args.b)
    I = Ideal.parse(ctx, args.I)
    try:
        cert = check_linked(a, b, I, M)
    except LinkageError as exc:
        return {"linked": False, "reason": str(exc)}, f"not linked: {exc}"
    doc = _cert_doc(cert)
    flags = ["linked"]
    if cert.geometric:
        flags.append("geometric")
    if cert.selflinked:
        flags.append("selflinked")
    return doc, ", ".join(flags)


def _cmd_linkage_link_of(args):
    ctx = _ring(args)
    M = _module_arg(ctx, args.module)
    a = Ideal.parse(ctx, args.a)
    I = Ideal.parse(ctx, args.I)
    try:
        cert = link_of(a, I, M, close=args.close)
    except LinkageError as exc:
        return {"linked": False, "reason": str(exc)}, f"no link: {exc}"
    return _cert_doc(cert), "link: (" + ", ".join(_gens(cert.b)) + ")"


def _cmd_linkage_random(args):
    ctx = _ring(args)
    M = _module_arg(ctx, args.module)
    params = GenParams(
        count=args.count,
        maxdeg=args.maxdeg,
        max_extra=args.max_extra,
        seq_len_max=args.seq_len_max,
    )
    certs = list(random_linked_pairs(M, params, seed=args.seed))
    doc = {
        "requested": args.count,
        "produced": len(certs),
        "seed": args.seed,
        "certificates": [_cert_doc(c) for c in certs],
    }
    return doc, f"{len(certs)} certificate(s)"


def _cmd_att_top(args):
    ctx = _ring(args)
    doc = _doc_att_top(ctx, Ideal.parse(ctx, args.ideal), _module_arg(ctx, args.module))
    return doc, f"{len(doc['attached_primes'])} attached prime(s)"


def _cmd_assf0(args):
    ctx = _ring(args)
    doc = _doc_assf0(ctx, Ideal.parse(ctx, args.ideal), _module_arg(ctx, args.module))
    return doc, f"{len(doc['associated_primes'])} associated prime(s)"


def _cmd_htm(args):
    ctx = _ring(args)
    h = height_in_module(_prime(ctx, args.prime), _module_arg(ctx, args.module))
    return {"height": h}, f"height {h}"


def _cmd_equidim(args):
    ctx = _ring(args)
    doc = _doc_equidim(_module_arg(ctx, args.module))
    return doc, f"equidimensional: {doc['equidimensional']}"


def _cmd_verify(args):
    params = InstanceParams(
        n_vars=args.vars,
        count=args.random,
        maxdeg=args.maxdeg,
        seed=args.seed,
        module=args.module,
        max_spairs=args.max_spairs,
    )
    report = run_claim(args.claim, params, jobs=args.jobs)
    counts = report["counts"]
    doc = {
        "claim": report["claim"],
        "title": report["title"],
        "params": report["params"],
        "instances": sum(counts.values()),
        "passes": counts["pass"],
        "fails": counts["fail"],
        "skips": counts["skip"],
        "inconclusive": counts["inconclusive"],
        "ok": report["ok"],
        "counterexamples": [
            {"seed": v["seed"], "detail": v["counterexample"], "witnesses": v["witnesses"]}
            for v in report["verdicts"]
            if v["status"] == "fail"
        ],
    }
    summary = (
        f"{args.claim}: {counts['pass']} pass / {counts['fail']} fail / "
        f"{counts['skip']} skip / {counts['inconclusive']} inconclusive"
    )
    return doc, summary


def _run_task(sf: SessionFile, task: SessionTask) -> dict:
    ctx = sf.ctx
    op = task.op
    try:
        if op == "linkage check":
            a, b, I = (sf.ideals[n] for n in task.args)
            try:
                cert = check_linked(a, b, I, sf.modules[task.over])
            except LinkageError as exc:
                return {"result": {"linked": False, "reason": str(exc)}}
            return {"result": _cert_doc(cert)}
        if op == "linkage link-of":
            a, I = (sf.ideals[n] for n in task.args)
            try:
                cert = link_of(a, I, sf.modules[task.over])
            except LinkageError as exc:
                return {"result": {"linked": False, "reason": str(exc)}}
            return {"result": _cert_doc(cert)}
        if op == "gb":
            return {"result": _doc_gb(sf.ideals[task.args[0]])}
        if op == "decompose":
            return {"result": _doc_decompose(_mono_of(sf.ideals[task.args[0]]))}
        if op == "ass":
            return {"result": _doc_ass(ctx, _mono_of(sf.ideals[task.args[0]]))}
        if op == "minprimes":
            return {"result": _doc_minprimes(ctx, _mono_of(sf.ideals[task.args[0]]))}
        if op == "assh":
            return {"result": _doc_assh(CyclicModule(ctx, sf.ideals[task.args[0]]))}
        if op == "radical":
            return {"result": _doc_radical(_mono_of(sf.ideals[task.args[0]]))}
        if op == "dim":
            return {"result": {"dim": CyclicModule(ctx, sf.ideals[task.args[0]]).dim()}}
        if op in ("depth", "cm"):
            return {"result": _doc_depth(sf.modules[task.args[0]])}
        if op == "equidim":
            return {"result": _doc_equidim(sf.modules[task.args[0]])}
        if op == "grade":
            return {"result": _doc_grade(sf.ideals[task.args[0]], sf.modules[task.over])}
        if op == "att-top":
            return {"result": _doc_att_top(ctx, sf.ideals[task.args[0]], sf.modules[task.over])}
        if op == "assf0":
            return {"result": _doc_assf0(ctx, sf.ideals[task.args[0]], sf.modules[task.over])}
        raise RingError(f"task {op!r} has no runner")
    except BudgetExceeded:
        raise
    except RingError as exc:
        return {"error": str(exc)}


def _cmd_session(args):
    sf = parse_session(args.path)
    results = [
        {"task": " ".join(task.words()), **_run_task(sf, task)} for task in sf.tasks
    ]
    doc = {
        "source": args.path,
        "ring": list(sf.ctx.var_names),
        "ideals": {name: _gens(I) for name, I in sf.ideals.items()},
        "modules": {name: M.describe() for name, M in sf.modules.items()},
        "canonical": render_session(sf).splitlines(),
        "tasks": results,
    }
    errors = sum(1 for r in results if "error" in r)
    summary = f"{len(results)} task(s)" + (f", {errors} error(s)" if errors else "")
    return doc, summary


# ---------------------------------------------------------------------------
# Parser construction and entry point.

def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="linkcoh",
        description=(
            "exact commutative algebra over Q[x1..xn]: Groebner bases,"
            " monomial prime invariants, ideal linkage over cyclic modules,"
            " attached primes of top local cohomology, and randomized claim"
            " verification"
        ),
    )
    top.add_argument(
        "--max-spairs",
        type=int,
        default=None,
        help="abort any single Groebner run after this many S-pairs",
    )
    top.add_argument(
        "--timeout-soft",
        type=float,
        default=None,
        metavar="SECONDS",
        help="soft wall-clock budget checked between reduction steps, depth links "
        "and decomposition nodes",
    )
    sub = top.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add(name: str, handler, help_text: str, ring: bool = True):
        p = sub.add_parser(name, help=help_text)
        if ring:
            p.add_argument("--ring", required=True, help="comma-separated variable names")
        p.set_defaults(func=handler)
        return p

    p = add("gb", _cmd_gb, "reduced Groebner basis (degrevlex)")
    p.add_argument("--ideal", required=True, help="comma-separated generators")

    p = add("member", _cmd_member, "ideal membership via normal form")
    p.add_argument("--ideal", required=True)
    p.add_argument("--poly", required=True)

    p = add("colon", _cmd_colon, "ideal quotient I : J")
    p.add_argument("--ideal", required=True)
    p.add_argument("--by", required=True)

    p = add("intersect", _cmd_intersect, "ideal intersection")
    p.add_argument("--ideal", required=True)
    p.add_argument("--with", dest="other", required=True)

    p = add("saturate", _cmd_saturate, "saturation I : f^infinity")
    p.add_argument("--ideal", required=True)
    p.add_argument("--poly", required=True)

    p = add("eliminate", _cmd_eliminate, "elimination ideal after dropping variables")
    p.add_argument("--ideal", required=True)
    p.add_argument("--drop", required=True, help="comma-separated variables to drop")

    p = add("decompose", _cmd_decompose, "irreducible decomposition (monomial)")
    p.add_argument("--ideal", required=True)

    p = add("ass", _cmd_ass, "associated primes of R/I (monomial)")
    p.add_argument("--ideal", required=True)

    p = add("minprimes", _cmd_minprimes, "minimal primes, height and dim (monomial)")
    p.add_argument("--ideal", required=True)

    p = add("assh", _cmd_assh, "top-dimensional associated primes of R/I (monomial)")
    p.add_argument("--ideal", required=True)

    p = add("radical", _cmd_radical, "radical of a monomial ideal")
    p.add_argument("--ideal", required=True)

    p = add("dim", _cmd_dim, "Krull dimension of R/I")
    p.add_argument("--ideal", required=True)

    p = add("depth", _cmd_depth, "depth, dimension and Cohen-Macaulayness of R/I")
    p.add_argument("--ideal", default=None, help="defaults to the zero ideal")

    p = add("cm", _cmd_depth, "Cohen-Macaulay test for R/I")
    p.add_argument("--ideal", default=None, help="defaults to the zero ideal")

    p = add("cd", _cmd_cd, "cohomological dimension along a monomial ideal")
    p.add_argument("--ideal", required=True)

    p = add("grade", _cmd_grade, "Koszul grade of an ideal on R/J")
    p.add_argument("--ideal", required=True)
    p.add_argument("--module", default=None, help="defining ideal J; defaults to 0")

    p = add("regseq", _cmd_regseq, "regular-sequence test on R/J (given order)")
    p.add_argument("--seq", required=True, help="comma-separated elements, in order")
    p.add_argument("--module", default=None)
    p.add_argument(
        "--all-permutations",
        action="store_true",
        help="also test every ordering (debug aid)",
    )

    p = add("ann", _cmd_ann, "annihilator of R/J or of Hom(R/a, R/J)")
    p.add_argument("--module", default=None, help="defining ideal J; defaults to 0")
    p.add_argument("--hom", default=None, help="take Hom(R/THIS, module) first")

    p = add("assmember", _cmd_assmember, "associated-prime membership test")
    p.add_argument("--prime", required=True, help="comma-separated variables, or 0")
    p.add_argument("--module", default=None)
    p.add_argument("--hom", default=None, help="take Hom(R/THIS, module) first")

    lk = sub.add_parser("linkage", help="linkage of ideals over a cyclic module")
    lksub = lk.add_subparsers(dest="verb", metavar="VERB")

    q = lksub.add_parser("check", help="certify a ~ b through I over R/J")
    q.add_argument("--ring", required=True)
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--I", default="0", help="linking ideal; defaults to 0")
    q.add_argument("--module", default=None)
    q.set_defaults(func=_cmd_linkage_check)

    q = lksub.add_parser("link-of", help="compute the link (I+J) : a and certify it")
    q.add_argument("--ring", required=True)
    q.add_argument("--a", required=True)
    q.add_argument("--I", default="0")
    q.add_argument("--module", default=None)
    q.add_argument(
        "--close",
        action="store_true",
        help="replace a by its double link before certifying",
    )
    q.set_defaults(func=_cmd_linkage_link_of)

    q = lksub.add_parser("random", help="seeded random certified linkage instances")
    q.add_argument("--ring", required=True)
    q.add_argument("--count", type=int, default=10)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--maxdeg", type=int, default=3)
    q.add_argument("--max-extra", type=int, default=2)
    q.add_argument("--seq-len-max", type=int, default=2)
    q.add_argument("--module", default=None)
    q.set_defaults(func=_cmd_linkage_random)

    p = add("att-top", _cmd_att_top, "attached primes of the top local cohomology")
    p.add_argument("--ideal", required=True)
    p.add_argument("--module", default=None)

    p = add("assf0", _cmd_assf0, "associated primes of the zeroth formal cohomology")
    p.add_argument("--ideal", required=True)
    p.add_argument("--module", default=None)

    p = add("htm", _cmd_htm, "height of a prime over a module")
    p.add_argument("--prime", required=True)
    p.add_argument("--module", default=None)

    p = add("equidim", _cmd_equidim, "equidimensionality of R/J")
    p.add_argument("--module", default=None)

    p = add("verify", _cmd_verify, "batch-check one claim on seeded instances", ring=False)
    p.add_argument("claim", choices=sorted(CLAIMS))
    p.add_argument("--random", type=int, required=True, metavar="N", help="instance count")
    p.add_argument("--vars", type=int, default=3)
    p.add_argument("--maxdeg", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--module", default=None, help="pin the base module's defining ideal")
    p.add_argument("--jobs", type=int, default=1)

    p = add("session", _cmd_session, "run every task of a session file", ring=False)
    p.add_argument("path")

    return top


def _print_doc(doc: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **doc}
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits directly only for --help
        return 0 if not exc.code else int(exc.code)
    func = getattr(args, "func", None)
    if func is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        with set_limits(max_spairs=args.max_spairs, soft_timeout=args.timeout_soft):
            doc, summary = func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        _print_doc({"error": "budget-exceeded", "detail": str(exc)})
        print(f"budget tripped: {exc}", file=sys.stderr)
        return 2
    except (RingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_doc(doc)
    if summary:
        print(summary, file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
