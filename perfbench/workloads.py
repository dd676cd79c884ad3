"""Seeded operation lists for the four benchmark workloads.

Every workload draws its operations from fixed pools.  Pool item `i` of a
stratum is generated from its own RNG, seeded by the stratum name and `i`,
by a rule fixed here in advance; a run's `--seed` only chooses which pool
items run, without replacement, and in which order.  Because the pools are
finite, `expected/<workload>.json` holds the output digest of every pool
item, so a run on any seed is checked against committed answers.

Counts are fixed per stratum (stratified sampling) so that two seeds run the
same mix of operation kinds; this keeps the run-to-run spread of the
end-to-end metrics small without ever dropping a draw for being slow.

This module imports nothing from linkcoh: the inputs are plain text and
integers, and the program under test sees only those.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

# Operation counts below are sized for runs of this many seconds at the
# commit that introduced the benchmark; `--seconds` scales them linearly.
CALIBRATED_SECONDS = 20

# Pool size per stratum, as a multiple of the stratum's count at the
# calibrated length; the `--seconds` scaling is capped at the pool size.
# A seed draws about 95 % of each pool: enough that seeds differ, little
# enough that the few heavy items of the heavy-tailed strata (depth of a
# monomial ideal, the l1/t6/l15 claims) keep the seed-to-seed spread of the
# end-to-end metrics well inside the bounds in BENCHMARK.json.
POOL_FACTOR = 1.05


@dataclass(frozen=True)
class Op:
    """One operation: `kind` selects the runner, `payload` is its input."""

    key: str
    kind: str  # "cli", "ext_ass" or "claim"
    payload: tuple


def _keyed(stratum: str, index: int, kind: str, payload: tuple) -> Op:
    body = json.dumps([kind, list(payload)])
    tag = hashlib.sha256(body.encode()).hexdigest()[:8]
    return Op(f"{stratum}:{index}:{tag}", kind, payload)


def _item_rng(stratum: str, index: int) -> random.Random:
    return random.Random(f"linkcoh-perfbench/{stratum}/{index}")


# ---------------------------------------------------------------------------
# Polynomial text helpers.

def _mono_text(names: str, e) -> str:
    parts = []
    for i, k in enumerate(e):
        if k == 1:
            parts.append(names[i])
        elif k > 1:
            parts.append(f"{names[i]}^{k}")
    return "*".join(parts) or "1"


def _random_exp(rng: random.Random, n: int, lo: int, hi: int) -> tuple[int, ...]:
    e = [0] * n
    for _ in range(rng.randint(lo, hi)):
        e[rng.randrange(n)] += 1
    return tuple(e)


def _sparse_poly(rng: random.Random, names: str, maxdeg: int, max_terms: int) -> str:
    """A non-monomial polynomial: 2..max_terms terms of degree 1..maxdeg."""
    n = len(names)
    exps: set[tuple[int, ...]] = set()
    want = rng.randint(2, max_terms)
    while len(exps) < want:
        exps.add(_random_exp(rng, n, 1, maxdeg))
    text = ""
    for e in sorted(exps, reverse=True):
        c = rng.randint(1, 9)
        sign = "-" if rng.random() < 0.5 else "+"
        body = _mono_text(names, e) if c == 1 else f"{c}*{_mono_text(names, e)}"
        text = (("-" if sign == "-" else "") + body) if not text else f"{text} {sign} {body}"
    return text


def _system(rng: random.Random, names: str, k: int, maxdeg: int, max_terms: int) -> str:
    return ", ".join(_sparse_poly(rng, names, maxdeg, max_terms) for _ in range(k))


# ---------------------------------------------------------------------------
# gb_systems: classic systems once each, padded with sparse random systems.

_CYCLIC4 = "a+b+c+d, a*b+b*c+c*d+d*a, a*b*c+b*c*d+c*d*a+d*a*b, a*b*c*d-1"
_CYCLIC5 = (
    "a+b+c+d+e, a*b+b*c+c*d+d*e+e*a, a*b*c+b*c*d+c*d*e+d*e*a+e*a*b,"
    " a*b*c*d+b*c*d*e+c*d*e*a+d*e*a*b+e*a*b*c, a*b*c*d*e-1"
)
_KATSURA3 = "a+2*b+2*c-1, a^2+2*b^2+2*c^2-a, 2*a*b+2*b*c-b"
_KATSURA4 = (
    "a+2*b+2*c+2*d-1, a^2+2*b^2+2*c^2+2*d^2-a, 2*a*b+2*b*c+2*c*d-b,"
    " b^2+2*a*c+2*b*d-c"
)

GB_CLASSICS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("cyclic4", ("gb", "--ring", "a,b,c,d", "--ideal", _CYCLIC4)),
    ("cyclic5", ("gb", "--ring", "a,b,c,d,e", "--ideal", _CYCLIC5)),
    ("katsura3", ("gb", "--ring", "a,b,c", "--ideal", _KATSURA3)),
    ("katsura4", ("gb", "--ring", "a,b,c,d", "--ideal", _KATSURA4)),
    ("cyclic4-member", ("member", "--ring", "a,b,c,d", "--ideal", _CYCLIC4,
                        "--poly", "b^2+2*b*d+d^2")),
    ("roadmap-colon", ("colon", "--ring", "x,y,z", "--ideal",
                       "x^2*y-z^3, x*y^2-z, x*z-y^3", "--by", "x+y+z")),
    ("twisted-cubic", ("eliminate", "--ring", "t,x,y,z", "--ideal",
                       "x-t, y-t^2, z-t^3", "--drop", "t")),
    ("saturation", ("saturate", "--ring", "x,y,z", "--ideal",
                    "x*y^2-x*z, x^2*z-x*y, x^3-x*y*z", "--poly", "x")),
    ("intersection", ("intersect", "--ring", "x,y,z", "--ideal", "x^2-y, z",
                      "--with", "y^2-x*z, x")),
)


def _gb_item(stratum: str, i: int) -> tuple:
    """Pool rule: 3-4 variables, 2-3 generators of degree <= 3 with 2-3
    terms; the tag-variable constructions (colon, intersect, saturate,
    eliminate) run over 3 variables, colon and intersect at degree <= 2."""
    rng = _item_rng(stratum, i)
    cmd = stratum.split(".", 1)[1]
    if cmd in ("gb", "member"):
        names = "xyzw"[: rng.randint(3, 4)]
        argv = ["gb" if cmd == "gb" else "member", "--ring", ",".join(names),
                "--ideal", _system(rng, names, rng.randint(2, 3), 3, 3)]
        if cmd == "member":
            argv += ["--poly", _sparse_poly(rng, names, 3, 4)]
    elif cmd == "saturate":
        names = "xyz"
        argv = ["saturate", "--ring", ",".join(names),
                "--ideal", _system(rng, names, rng.randint(2, 3), 3, 3),
                "--poly", rng.choice(names)]
    elif cmd == "eliminate":
        names = "xyz"
        argv = ["eliminate", "--ring", ",".join(names),
                "--ideal", _system(rng, names, rng.randint(2, 3), 3, 3),
                "--drop", rng.choice(names)]
    elif cmd == "colon":
        names = "xyz"
        argv = ["colon", "--ring", ",".join(names),
                "--ideal", _system(rng, names, 2, 2, 3),
                "--by", _sparse_poly(rng, names, 2, 2)]
    else:  # intersect
        names = "xyz"
        argv = ["intersect", "--ring", ",".join(names),
                "--ideal", _system(rng, names, rng.randint(1, 2), 2, 3),
                "--with", _system(rng, names, 1, 2, 2)]
    return tuple(argv)


GB_PADDING = {
    "gb.gb": 120,
    "gb.member": 95,
    "gb.saturate": 35,
    "gb.eliminate": 35,
    "gb.colon": 17,
    "gb.intersect": 27,
}


# ---------------------------------------------------------------------------
# depth_monomial: proper monomial ideals in 5-7 variables, stratified by
# their number of minimal generators (g) and the number of variables their
# polarization needs (pv).  pv bounds the size of the Stanley-Reisner
# complex, so no single draw can take most of the run; few generators of
# high degree put the weight on the simplicial depth rather than on the
# irreducible decomposition.

DEPTH_STRATA = {
    "depth.g3pv10": 50,
    "depth.g4pv10": 20,
}
DEPTH_COMMANDS = ("depth", "decompose", "ass", "minprimes", "cd")


def _minimal(exps) -> list[tuple[int, ...]]:
    uniq = sorted(set(exps), key=lambda e: (sum(e), e))
    kept: list[tuple[int, ...]] = []
    for e in uniq:
        if not any(all(a <= b for a, b in zip(g, e)) for g in kept):
            kept.append(e)
    return kept


def _depth_item(stratum: str, i: int) -> tuple[str, str]:
    """(ring, ideal): 5-7 variables and exactly g minimal generators of
    degree 2-4 whose polarization has exactly pv variables."""
    g_text, pv_text = stratum.split(".", 1)[1][1:].split("pv")
    n_gens, target = int(g_text), int(pv_text)
    rng = _item_rng(stratum, i)
    names = "abcdefg"
    while True:
        n = rng.randint(5, 7)
        gens = _minimal(_random_exp(rng, n, 2, 4) for _ in range(n_gens))
        pv = sum(max(1, max(g[v] for g in gens)) for v in range(n))
        if len(gens) == n_gens and pv == target:
            text = ", ".join(_mono_text(names, g) for g in gens)
            return ",".join(names[:n]), text


# ---------------------------------------------------------------------------
# claim_lab: single claim instances of `verify --vars 3 --maxdeg 2`.  The
# l1, t6 and l15 instances and about half of the r1 instances take 5 ms or
# more, the rest well under 5 ms; the counts keep the slow group near 8 % of
# the operations, so that the 90th percentile falls inside the dense upper
# end of the fast group rather than in the gap above it, where a few
# operations more or less would move it a lot.

CLAIM_COUNTS = {
    "l1": 24,
    "t2": 300,
    "p1": 400,
    "l08": 400,
    "t6": 24,
    "r1": 30,
    "l15": 30,
}


# ---------------------------------------------------------------------------
# koszul_modules: non-monomial ideals through the Koszul and module layers,
# and self-dual Ext on monomial pairs.  One pool item is one operation.  The
# counts put the median inside the grade/regseq cluster and the 90th
# percentile inside the Koszul depth cluster, rather than in a gap between
# clusters where a few operations more or less move it a lot.

KOSZUL_STRATA = {
    "koszul.depth": 65,
    "koszul.grade": 130,
    "koszul.regseq": 130,
    "koszul.ann": 17,
    "koszul.assmember": 17,
    "ext.mono3": 31,
}


def _binomial(rng: random.Random, names: str) -> str:
    n = len(names)
    d = rng.randint(1, 2)
    while True:
        a, b = _random_exp(rng, n, d, d), _random_exp(rng, n, d, d)
        if a != b:
            return f"{_mono_text(names, a)} - {_mono_text(names, b)}"


def _determinantal(rng: random.Random, names: str) -> str:
    """2x2 minors of a 2x3 matrix of variables, at least two of them nonzero."""
    while True:
        m = [[rng.choice(names) for _ in range(3)] for _ in range(2)]
        minors = []
        for c1, c2 in ((0, 1), (0, 2), (1, 2)):
            p = "*".join(sorted((m[0][c1], m[1][c2])))
            q = "*".join(sorted((m[0][c2], m[1][c1])))
            if p != q:
                minors.append(f"{p} - {q}")
        if len(minors) >= 2:
            return ", ".join(minors)


def _koszul_item(stratum: str, i: int) -> tuple[str, tuple]:
    """(kind, payload) of pool item `i`: depth/cm on binomial (even i) or
    2x2-determinantal (odd i) ideals in 4 variables; grade, regseq, ann
    --hom and assmember on binomial ideals in 4 (even i) or 5 variables;
    Ext on monomial pairs in 3 variables."""
    rng = _item_rng(stratum, i)
    if stratum == "ext.mono3":
        names = "xyz"
        while True:
            a = _minimal(_random_exp(rng, 3, 1, 2) for _ in range(rng.randint(1, 3)))
            J = _minimal(_random_exp(rng, 3, 1, 2) for _ in range(rng.randint(1, 3)))
            # a not inside J, so the Ext module is not zero; a + J is proper
            # because every generator has positive degree
            if not all(any(all(x <= y for x, y in zip(g, e)) for g in J) for e in a):
                break
        return "ext_ass", (",".join(names),
                           ", ".join(_mono_text(names, e) for e in a),
                           ", ".join(_mono_text(names, e) for e in J))
    cmd = stratum.split(".", 1)[1]
    names = "abcd" if cmd == "depth" or i % 2 == 0 else "abcde"
    ring = ",".join(names)
    if cmd == "depth" and i % 2:
        J = _determinantal(rng, names)
    else:
        J = ", ".join(_binomial(rng, names) for _ in range(rng.randint(2, 3)))
    two = rng.sample(names, 2)
    if cmd == "depth":
        return "cli", ("depth" if i % 4 < 2 else "cm", "--ring", ring, "--ideal", J)
    if cmd == "grade":
        return "cli", ("grade", "--ring", ring, "--ideal", ", ".join(two), "--module", J)
    if cmd == "regseq":
        return "cli", ("regseq", "--ring", ring, "--seq", ", ".join(two), "--module", J)
    if cmd == "ann":
        return "cli", ("ann", "--ring", ring, "--module", J, "--hom", ", ".join(two))
    return "cli", ("assmember", "--ring", ring, "--prime", ",".join(two), "--module", J)


# ---------------------------------------------------------------------------
# Drawing a run's operation list.

WORKLOADS = ("gb_systems", "depth_monomial", "claim_lab", "koszul_modules")


def _pool_size(count: int) -> int:
    return math.ceil(POOL_FACTOR * count)


def _scaled(count: int, seconds: float) -> int:
    return max(1, min(_pool_size(count), round(count * seconds / CALIBRATED_SECONDS)))


def _pool_ops(workload: str, stratum: str, i: int) -> list[Op]:
    """All operations of pool item `i` of one stratum."""
    if workload == "gb_systems":
        return [_keyed(stratum, i, "cli", _gb_item(stratum, i))]
    if workload == "depth_monomial":
        ring, ideal = _depth_item(stratum, i)
        return [
            _keyed(f"{stratum}.{cmd}", i, "cli", (cmd, "--ring", ring, "--ideal", ideal))
            for cmd in DEPTH_COMMANDS
        ]
    if workload == "claim_lab":
        claim = stratum.split(".", 1)[1]
        return [_keyed(stratum, i, "claim", (claim, 3, 2, i))]
    return [_keyed(stratum, i, *_koszul_item(stratum, i))]


def strata(workload: str) -> dict[str, int]:
    """Stratum name -> operation-group count at the calibrated run length."""
    return {
        "gb_systems": GB_PADDING,
        "depth_monomial": DEPTH_STRATA,
        "claim_lab": {f"claim.{c}": n for c, n in CLAIM_COUNTS.items()},
        "koszul_modules": KOSZUL_STRATA,
    }[workload]


def fixed_ops(workload: str) -> list[Op]:
    """Seed-independent operations that every run of the workload includes."""
    if workload == "gb_systems":
        return [_keyed(f"classic.{name}", 0, "cli", argv) for name, argv in GB_CLASSICS]
    return []


def draw(workload: str, seed: int, seconds: float = CALIBRATED_SECONDS) -> list[Op]:
    """The run's operation list: the fixed operations, then a seeded sample
    of pool items from every stratum, shuffled together."""
    rng = random.Random(f"linkcoh-perfbench/{workload}/run/{seed}")
    groups: list[list[Op]] = []
    for stratum, count in strata(workload).items():
        for i in rng.sample(range(_pool_size(count)), _scaled(count, seconds)):
            groups.append(_pool_ops(workload, stratum, i))
    rng.shuffle(groups)
    return fixed_ops(workload) + [op for g in groups for op in g]


def pool(workload: str) -> list[Op]:
    """Every operation any seed can draw, for writing the expected digests."""
    ops = fixed_ops(workload)
    for stratum, count in strata(workload).items():
        for i in range(_pool_size(count)):
            ops.extend(_pool_ops(workload, stratum, i))
    return ops
