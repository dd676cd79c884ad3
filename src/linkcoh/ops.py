"""The operation table: every command of the `linkcoh` front end, once.

An entry names the operation, gives its help text, its operands as
(flag, kind, default) and the functions that build the result document
and the one-line stderr summary.  Both front ends are derived from it:
`cli` reads argv against it, generates the help from it and turns each
operand's text into a value, and a session file (`session`) names
declared ideals and modules in place of the text.  Verbs under one
command word, such as `linkage check`, sit in a `Group`.

A document function takes the operand values in table order.  Operand
kinds: the ring kinds (an ideal, a monomial ideal, a module R/J given by
its defining ideal, a polynomial, a sequence of polynomials, a monomial
prime, a list of variable names) need `--ring`; the scalar kinds do not.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .groebner import (
    Ideal,
    eliminate,
    ideal_intersect,
    ideal_member,
    ideal_quotient,
    reduced_gb,
    saturate,
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
    DEFAULT_SEED,
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
    ass_member,
    hom_annihilator,
    is_regular_sequence,
    koszul_grade,
)
from .monomial import (
    MonomialIdeal,
    as_monomial,
    irreducible_decomposition,
    mono_radical,
)
from .ring import RingError
from .simplicial import cd_squarefree
from .theorems import CLAIMS, DEFAULT_JOBS, InstanceParams, run_claim

__all__ = ["Group", "OPS", "Op", "Operand", "TABLE", "run_task", "session_shape"]

# operand kinds that are written with the ring's variables
IDEAL, MONOMIAL, MODULE = "ideal", "monomial ideal", "module"
POLY, SEQUENCE, PRIME, VARIABLES = "poly", "sequence", "prime", "variables"
RING_KINDS = frozenset({IDEAL, MONOMIAL, MODULE, POLY, SEQUENCE, PRIME, VARIABLES})
# scalar kinds: an integer, an on/off switch, free text, a claim name, a file path
INT, SWITCH, TEXT, CLAIM, PATH = "int", "switch", "text", "claim", "path"

REQUIRED = object()  # default of an operand that must be given


class Operand(NamedTuple):
    """One operand: `flag` is `--name`, or a bare name for a positional."""

    flag: str
    kind: str
    default: object = REQUIRED
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


class Op(NamedTuple):
    """One subcommand; `doc` takes the operand values in table order."""

    name: str
    help: str
    operands: tuple[Operand, ...]
    doc: Callable[..., dict]
    summary: Callable[[dict], str]

    @property
    def ring(self) -> bool:
        return any(o.kind in RING_KINDS for o in self.operands)


class Group(NamedTuple):
    """Verbs under one command word; an entry's full name is `name verb`."""

    name: str
    help: str
    ops: tuple[Op, ...]


def session_shape(op: Op) -> tuple[str, ...] | None:
    """The operand slots of `op` as a session task, or None when only the
    command line runs it.

    A session task names ideals and modules declared earlier in the file:
    an ideal operand is a positional name, and a module operand is one too
    when it stands alone; after ideals it is written `over M` and closes
    the task.  Switches keep their defaults.  Any other operand, or a module
    before an ideal, makes the entry command-line only.
    """
    kinds = [o.kind for o in op.operands if o.kind != SWITCH]
    if not kinds or any(o.kind not in (IDEAL, MONOMIAL, MODULE, SWITCH) for o in op.operands):
        return None
    if kinds == [MODULE]:
        return ("module",)
    if MODULE in kinds[:-1]:
        return None
    return tuple("over" if k == MODULE else "ideal" for k in kinds)


# ---------------------------------------------------------------------------
# Shared pieces of result documents.

def _mono_of(I: Ideal) -> MonomialIdeal:
    m = as_monomial(I)
    if m is None:
        raise RingError("this operation is only certified for monomial ideals")
    return m


def _gens(I: Ideal) -> list[str]:
    """Canonical generator strings: minimal monomial generators when the
    ideal is monomial, the reduced Groebner basis otherwise."""
    m = as_monomial(I)
    if m is not None:
        return m.render() or ["0"]
    return [str(g) for g in reduced_gb(I)] or ["0"]


def _cert_doc(cert: LinkageCertificate) -> dict:
    return {
        "linked": True,
        **cert.as_json(),
        "support_identity": support_identity(cert),
        "min_primes_in_core_ass": minimal_primes_in_core_ass(cert),
    }


def _count(key: str, noun: str) -> Callable[[dict], str]:
    return lambda doc: f"{len(doc[key])} {noun}"


def _listed(label: str, key: str) -> Callable[[dict], str]:
    return lambda doc: f"{label}: (" + ", ".join(doc[key]) + ")"


# ---------------------------------------------------------------------------
# Result documents and summaries named in the table.

def _doc_gb(I: Ideal) -> dict:
    return {
        "generators": [str(g) for g in I.gens] or ["0"],
        "reduced_gb": [str(g) for g in reduced_gb(I)] or ["0"],
    }


def _summary_gb(doc: dict) -> str:
    # the document shows the zero ideal's empty basis as "0"
    return f"{sum(g != '0' for g in doc['reduced_gb'])} basis element(s)"


def _doc_member(I: Ideal, f) -> dict:
    inside = ideal_member(f, I)
    return {"poly": str(f), "ideal": _gens(I), "member": inside}


def _doc_minprimes(m: MonomialIdeal) -> dict:
    info = m.primes
    return {
        "minimal_primes": info.min_primes.render(m.ctx),
        "height": info.height,
        "dim": info.dim,
    }


def _doc_assh(I: Ideal) -> dict:
    M = CyclicModule(I.ctx, I)
    return {"assh": assh(M).render(M.ctx), "dim": M.dim()}


def _doc_depth(M: CyclicModule) -> dict:
    return {"depth": M.depth(), "dim": M.dim(), "cm": M.is_cohen_macaulay()}


def _summary_depth(doc: dict) -> str:
    return f"depth {doc['depth']}, dim {doc['dim']}, cm: {doc['cm']}"


def _doc_cd(m: MonomialIdeal) -> dict:
    rad = mono_radical(m)
    return {"cd": cd_squarefree(rad), "radicalized": rad.min_gens != m.min_gens}


def _summary_cd(doc: dict) -> str:
    note = " (input radicalized first)" if doc["radicalized"] else ""
    return f"cohomological dimension {doc['cd']}{note}"


def _doc_regseq(seq: list, M: CyclicModule) -> dict:
    return {"sequence": [str(f) for f in seq], "regular": is_regular_sequence(seq, M.ideal)}


def _certified(certify, *args, **kwargs) -> dict:
    """The certificate document, or the refusal and its reason."""
    try:
        cert = certify(*args, **kwargs)
    except LinkageError as exc:
        return {"linked": False, "reason": str(exc)}
    return _cert_doc(cert)


def _summary_check(doc: dict) -> str:
    if not doc["linked"]:
        return f"not linked: {doc['reason']}"
    return ", ".join(["linked"] + [f for f in ("geometric", "selflinked") if doc[f]])


def _summary_link_of(doc: dict) -> str:
    if not doc["linked"]:
        return f"no link: {doc['reason']}"
    return "link: (" + ", ".join(doc["b"] or ["0"]) + ")"


def _doc_random(count, seed, maxdeg, max_extra, seq_len_max, M: CyclicModule) -> dict:
    params = GenParams(count=count, maxdeg=maxdeg, max_extra=max_extra, seq_len_max=seq_len_max)
    certs = list(random_linked_pairs(M, params, seed=seed))
    return {
        "requested": count,
        "produced": len(certs),
        "seed": seed,
        "certificates": [_cert_doc(c) for c in certs],
    }


def _doc_verify(claim, count, n_vars, maxdeg, seed, module, jobs) -> dict:
    params = InstanceParams(n_vars=n_vars, count=count, maxdeg=maxdeg, seed=seed, module=module)
    report = run_claim(claim, params, jobs=jobs)
    counts = report["counts"]
    return {
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


def _summary_verify(doc: dict) -> str:
    return (
        f"{doc['claim']}: {doc['passes']} pass / {doc['fails']} fail / "
        f"{doc['skips']} skip / {doc['inconclusive']} inconclusive"
    )


def _doc_session(sf) -> dict:
    tasks = [{"task": " ".join(task.words()), **run_task(sf, task)} for task in sf.tasks]
    return {
        "source": sf.source,
        "ring": list(sf.ctx.var_names),
        "ideals": {name: _gens(I) for name, I in sf.ideals.items()},
        "modules": {name: M.describe() for name, M in sf.modules.items()},
        "canonical": sf.render().splitlines(),
        "tasks": tasks,
    }


def _summary_session(doc: dict) -> str:
    errors = sum(1 for r in doc["tasks"] if "error" in r)
    return f"{len(doc['tasks'])} task(s)" + (f", {errors} error(s)" if errors else "")


# ---------------------------------------------------------------------------
# The table, in the order of `linkcoh --help`.

_IDEAL = Operand("--ideal", IDEAL)
_MONO = Operand("--ideal", MONOMIAL)
_MODULE = Operand("--module", MODULE, "0")
_MODULE_J = Operand("--module", MODULE, "0", "defining ideal J; defaults to 0")
_QUOTIENT = Operand("--ideal", MODULE, "0", "defaults to the zero ideal")
_HOM = Operand("--hom", IDEAL, "0", "take Hom(R/THIS, module) first; defaults to 0")
_PRIME = Operand("--prime", PRIME, help="comma-separated variables, or 0")
_RANDOM, _VERIFY = GenParams(), InstanceParams()  # the defaults of `linkage random`, `verify`


TABLE: tuple[Op | Group, ...] = (
    Op("gb", "reduced Groebner basis (degrevlex)",
       (Operand("--ideal", IDEAL, help="comma-separated generators"),),
       _doc_gb, _summary_gb),
    Op("member", "ideal membership via normal form", (_IDEAL, Operand("--poly", POLY)),
       _doc_member, lambda doc: f"member: {doc['member']}"),
    Op("colon", "ideal quotient I : J", (_IDEAL, Operand("--by", IDEAL)),
       lambda I, J: {"quotient": _gens(ideal_quotient(I, J))}, _listed("quotient", "quotient")),
    Op("intersect", "ideal intersection", (_IDEAL, Operand("--with", IDEAL)),
       lambda I, J: {"intersection": _gens(ideal_intersect(I, J))},
       _listed("intersection", "intersection")),
    Op("saturate", "saturation I : f^infinity", (_IDEAL, Operand("--poly", POLY)),
       lambda I, f: {"saturation": _gens(saturate(I, f))}, _listed("saturation", "saturation")),
    Op("eliminate", "elimination ideal after dropping variables",
       (_IDEAL, Operand("--drop", VARIABLES, help="comma-separated variables to drop")),
       lambda I, drop: {"dropped": drop, "eliminated": _gens(eliminate(I, drop))},
       _listed("elimination ideal", "eliminated")),
    Op("decompose", "irreducible decomposition (monomial)", (_MONO,),
       lambda m: {"components": [c.render() or ["0"] for c in irreducible_decomposition(m)]},
       _count("components", "irreducible component(s)")),
    Op("ass", "associated primes of R/I (monomial)", (_MONO,),
       lambda m: {"associated_primes": m.ass.render(m.ctx)},
       _count("associated_primes", "associated prime(s)")),
    Op("minprimes", "minimal primes, height and dim (monomial)", (_MONO,), _doc_minprimes,
       lambda doc: f"{len(doc['minimal_primes'])} minimal prime(s), height {doc['height']}"),
    Op("assh", "top-dimensional associated primes of R/I (monomial)", (_IDEAL,), _doc_assh,
       lambda doc: f"{len(doc['assh'])} top-dimensional prime(s), dim {doc['dim']}"),
    Op("radical", "radical of a monomial ideal", (_MONO,),
       lambda m: {"radical": mono_radical(m).render() or ["0"]}, _listed("radical", "radical")),
    Op("dim", "Krull dimension of R/I", (_IDEAL,),
       lambda I: {"dim": CyclicModule(I.ctx, I).dim()}, lambda doc: f"dim {doc['dim']}"),
    Op("depth", "depth, dimension and Cohen-Macaulayness of R/I", (_QUOTIENT,),
       _doc_depth, _summary_depth),
    Op("cm", "Cohen-Macaulay test for R/I", (_QUOTIENT,), _doc_depth, _summary_depth),
    Op("cd", "cohomological dimension along a monomial ideal", (_MONO,), _doc_cd, _summary_cd),
    Op("grade", "Koszul grade of an ideal on R/J", (_IDEAL, _MODULE_J),
       lambda a, M: {"grade": koszul_grade(list(a.gens), M.ideal)},
       lambda doc: f"grade {doc['grade']}"),
    Op("regseq", "regular-sequence test on R/J (given order)",
       (Operand("--seq", SEQUENCE, help="comma-separated elements, in order"), _MODULE),
       _doc_regseq, lambda doc: f"regular: {doc['regular']}"),
    Op("ann", "annihilator of R/J or of Hom(R/a, R/J)", (_MODULE_J, _HOM),
       lambda M, hom: {"annihilator": _gens(hom_annihilator(hom, M))},
       _listed("annihilator", "annihilator")),
    Op("assmember", "associated-prime membership test", (_PRIME, _MODULE, _HOM),
       # Ass Hom(R/a, R/J) = V(a) meet Ass R/J, and Ass R/J lies in V(J), so an
       # a or a J outside p starts no engine run; else p is associated when
       # J : (J : p) lies in p, two ideal colons
       lambda p, M, hom: {"prime": p.render(M.ctx), "member": all(
           map(p.contains_poly, (*M.ideal.gens, *hom.gens))) and ass_member(p, M)},
       lambda doc: f"associated: {doc['member']}"),
    Group("linkage", "linkage of ideals over a cyclic module", (
        Op("check", "certify a ~ b through I over R/J",
           (Operand("--a", IDEAL), Operand("--b", IDEAL),
            Operand("--I", IDEAL, "0", "linking ideal; defaults to 0"), _MODULE),
           lambda a, b, I, M: _certified(check_linked, a, b, I, M), _summary_check),
        Op("link-of", "compute the link (I+J) : a and certify it",
           (Operand("--a", IDEAL), Operand("--I", IDEAL, "0"), _MODULE,
            Operand("--close", SWITCH, False, "replace a by its double link before certifying")),
           lambda a, I, M, close: _certified(link_of, a, I, M, close=close), _summary_link_of),
        Op("random", "seeded random certified linkage instances",
           (Operand("--count", INT, _RANDOM.count),
            Operand("--seed", INT, DEFAULT_SEED),
            Operand("--maxdeg", INT, _RANDOM.maxdeg),
            Operand("--max-extra", INT, _RANDOM.max_extra),
            Operand("--seq-len-max", INT, _RANDOM.seq_len_max), _MODULE),
           _doc_random, _count("certificates", "certificate(s)")),
    )),
    Op("att-top", "attached primes of the top local cohomology", (_IDEAL, _MODULE),
       lambda a, M: {"attached_primes": att_top(a, M).render(M.ctx), "note": GRADED_NOTE},
       _count("attached_primes", "attached prime(s)")),
    Op("assf0", "associated primes of the zeroth formal cohomology", (_IDEAL, _MODULE),
       lambda a, M: {"associated_primes": ass_formal_zeroth(a, M).render(M.ctx),
                     "note": GRADED_NOTE},
       _count("associated_primes", "associated prime(s)")),
    Op("htm", "height of a prime over a module", (Operand("--prime", PRIME), _MODULE),
       lambda p, M: {"height": height_in_module(p, M)}, lambda doc: f"height {doc['height']}"),
    Op("equidim", "equidimensionality of R/J", (_MODULE,),
       lambda M: {"equidimensional": is_equidimensional(M)},
       lambda doc: f"equidimensional: {doc['equidimensional']}"),
    Op("verify", "batch-check one claim on seeded instances",
       (Operand("claim", CLAIM, help=", ".join(sorted(CLAIMS))),
        Operand("--random", INT, help="instance count"),
        Operand("--vars", INT, _VERIFY.n_vars),
        Operand("--maxdeg", INT, _VERIFY.maxdeg),
        Operand("--seed", INT, _VERIFY.seed),
        Operand("--module", TEXT, _VERIFY.module, "pin the base module's defining ideal"),
        Operand("--jobs", INT, DEFAULT_JOBS)),
       _doc_verify, _summary_verify),
    Op("session", "run every task of a session file", (Operand("path", PATH),),
       _doc_session, _summary_session),
)

OPS: dict[str, Op] = {
    (f"{item.name} {op.name}" if isinstance(item, Group) else op.name): op
    for item in TABLE
    for op in (item.ops if isinstance(item, Group) else (item,))
}


# ---------------------------------------------------------------------------
# The session route.

def _named(sf, kind: str, name: str):
    if kind == MODULE:
        return sf.modules[name]
    I = sf.ideals[name]
    return _mono_of(I) if kind == MONOMIAL else I


def run_task(sf, task) -> dict:
    """Run one task of a parsed session file: `{"result": document}`, or
    `{"error": message}` when the inputs are refused."""
    op = OPS[task.op]
    names = iter(task.args + ((task.over,) if task.over is not None else ()))
    try:
        values = [
            o.default if o.kind == SWITCH else _named(sf, o.kind, next(names))
            for o in op.operands
        ]
        return {"result": op.doc(*values)}
    except RingError as exc:
        return {"error": str(exc)}
