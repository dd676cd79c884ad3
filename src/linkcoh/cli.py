"""Batch command-line front end: subcommand dispatch and JSON reports.

Every subcommand is an entry of the operation table in `linkcoh.ops`, and
the argparse parser is generated from it: one subcommand per entry, the
verbs of a group (`linkage check`, ...) as nested subcommands, one flag or
positional per operand, and `--ring` exactly when an operand is written
with the ring's variables.  `run` turns each operand's text into a value
of its kind and passes the values to the entry's document function; a
session file reaches the same entries by naming declared ideals and
modules (`linkcoh.session`).  The parser is built once per process, on the
first `run`.

Machine output is one JSON document on stdout (sorted keys, two-space
indent, a `schema_version` field); a one-line human summary goes to
stderr.  Identical argv and seed give byte-identical stdout.

Exit codes: 0 the computation ran (negative verdicts included), 1 usage
or input error, 2 resource budget tripped.  The global `--max-spairs`
and `--timeout-soft` flags go before the subcommand and bound every
Groebner computation of the invocation; the soft deadline also bounds the
monomial kernels, the Stanley-Reisner depth scan, the associated-prime
scan and the irreducible decomposition (README lists every check point).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .groebner import BudgetExceeded, Ideal, set_limits
from .modules import CyclicModule
from .monomial import MonomialPrime
from .ops import (
    CLAIM,
    IDEAL,
    INT,
    MODULE,
    MONOMIAL,
    PATH,
    POLY,
    PRIME,
    REQUIRED,
    SEQUENCE,
    SWITCH,
    TABLE,
    VARIABLES,
    Group,
    Op,
    Operand,
    _mono_of,
)
from .ring import RingCtx, RingError, parse_poly
from .session import parse_session
from .theorems import CLAIMS

SCHEMA_VERSION = 1


class _Usage(Exception):
    """Bad invocation; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; this artifact reserves 2 for
    # budget trips, so route usage failures through an exception instead
    def error(self, message: str):
        raise _Usage(message)


# ---------------------------------------------------------------------------
# Operand text.

def _prime(ctx: RingCtx, text: str) -> MonomialPrime:
    t = text.strip()
    if t in ("", "0"):
        return MonomialPrime(())
    return MonomialPrime(tuple(ctx.index(s) for s in _items(t)))


def _items(text: str) -> list[str]:
    return [s.strip() for s in text.split(",")]


# the value of an operand's text, per kind; the other kinds keep argparse's value
_FROM_TEXT = {
    IDEAL: lambda ctx, t: Ideal.parse(ctx, t),
    MONOMIAL: lambda ctx, t: _mono_of(Ideal.parse(ctx, t)),
    MODULE: lambda ctx, t: CyclicModule(ctx, Ideal.parse(ctx, t)),
    POLY: lambda ctx, t: parse_poly(t, ctx),
    SEQUENCE: lambda ctx, t: [parse_poly(s, ctx) for s in _items(t)],
    PRIME: _prime,
    VARIABLES: lambda ctx, t: _items(t),
    PATH: lambda ctx, t: parse_session(t),
}


def _value(ctx: RingCtx | None, operand: Operand, text):
    convert = _FROM_TEXT.get(operand.kind)
    return text if convert is None or text is None else convert(ctx, text)


def _nonnegative(convert):
    """An argparse type: `convert`, refusing negative values and NaN."""

    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}")
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be a nonnegative number, got {text!r}")
        return value

    return check


# ---------------------------------------------------------------------------
# Parser generation and entry point.

# argparse settings of the scalar kinds
_ARGPARSE = {
    INT: {"type": int},
    SWITCH: {"action": "store_true"},
    CLAIM: {"choices": sorted(CLAIMS)},
}


def _add_op(sub, op: Op) -> None:
    p = sub.add_parser(op.name, help=op.help)
    if op.ring:
        p.add_argument("--ring", required=True, help="comma-separated variable names")
    for o in op.operands:
        kw = dict(_ARGPARSE.get(o.kind, {}), help=o.help)
        if o.flag.startswith("-") and o.kind != SWITCH:
            kw.update({"required": True} if o.default is REQUIRED else {"default": o.default})
        p.add_argument(o.flag, **kw)
    p.set_defaults(op=op)


@functools.cache
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
        type=_nonnegative(int),
        default=None,
        help="abort any single Groebner run after this many S-pairs",
    )
    top.add_argument(
        "--timeout-soft",
        type=_nonnegative(float),
        default=None,
        metavar="SECONDS",
        help="soft wall-clock budget checked at S-pairs, division steps, minimalize, "
        "the monomial colon and intersection kernels, colon radicals, vertex covers, "
        "depth links, the associated-prime scan and the irreducible decomposition",
    )
    sub = top.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for item in TABLE:
        if isinstance(item, Group):
            verbs = sub.add_parser(item.name, help=item.help)
            verbs_sub = verbs.add_subparsers(dest="verb", metavar="VERB")
            for op in item.ops:
                _add_op(verbs_sub, op)
        else:
            _add_op(sub, item)
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
    op = getattr(args, "op", None)
    if op is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        with set_limits(max_spairs=args.max_spairs, soft_timeout=args.timeout_soft):
            ctx = RingCtx.parse(args.ring) if op.ring else None
            doc = op.doc(*(_value(ctx, o, getattr(args, o.dest)) for o in op.operands))
    except BudgetExceeded as exc:
        _print_doc({"error": "budget-exceeded", "detail": str(exc)})
        print(f"budget tripped: {exc}", file=sys.stderr)
        return 2
    except (RingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_doc(doc)
    print(op.summary(doc), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
