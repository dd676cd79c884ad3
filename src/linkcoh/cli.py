"""Batch command-line front end: subcommand dispatch and JSON reports.

Every subcommand is an entry of the operation table in `linkcoh.ops`, and
argv is read straight off it (`_read`): the command word, then the verb
when the word names a group (`linkage check`, ...), then one flag or
positional per operand, and `--ring` exactly when an operand is written
with the ring's variables.  A value flag takes the next word verbatim, so
a value may begin with `-`; `--flag=value` works too, and a unique prefix
of a flag names it.  Help is generated from the same table.  `run` turns
each operand's text into a value of its kind and passes the values to the
entry's document function; a session file reaches the same entries by
naming declared ideals and modules (`linkcoh.session`).

Machine output is one JSON document on stdout (sorted keys, two-space
indent, a `schema_version` field); a one-line human summary goes to
stderr.  Identical argv and seed give byte-identical stdout.

Exit codes: 0 the computation ran (negative verdicts included), 1 usage
or input error, 2 resource budget tripped.  The global `--max-spairs`
and `--timeout-soft` flags go before the subcommand and bound every
Groebner computation of the invocation; the soft deadline also bounds the
monomial kernels, the Stanley-Reisner depth scan and the irreducible
decomposition (README lists every check point).
"""

from __future__ import annotations

import json
import sys
from typing import Sequence

from .groebner import BudgetExceeded, Ideal, set_limits
from .modules import CyclicModule
from .monomial import MonomialPrime
from .ops import (
    CLAIM, IDEAL, INT, MODULE, MONOMIAL, OPS, PATH, POLY, PRIME, REQUIRED, SEQUENCE, SWITCH, TABLE,
    TEXT, VARIABLES, Group, Op, Operand, _mono_of,
)
from .ring import RingCtx, RingError, parse_poly
from .session import parse_session
from .theorems import CLAIMS

SCHEMA_VERSION = 1


class _Usage(Exception):
    """Bad invocation; reported on stderr with exit code 1."""


class _Shown(Exception):
    """Help (exit code 0, on stdout) or a bare usage (exit code 1, on stderr)."""


# ---------------------------------------------------------------------------
# Operand text.

def _prime(ctx: RingCtx, text: str) -> MonomialPrime:
    t = text.strip()
    if t in ("", "0"):
        return MonomialPrime(())
    return MonomialPrime(tuple(ctx.index(s) for s in _items(t)))


def _items(text: str) -> list[str]:
    return [s.strip() for s in text.split(",")]


# the value of an operand's text, per kind; the other kinds keep the reader's value
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


# ---------------------------------------------------------------------------
# Reading argv off the table.

_ABOUT = ("exact commutative algebra over Q[x1..xn]: Groebner bases, monomial prime invariants,"
          " ideal linkage over cyclic modules, attached primes of top local cohomology, and"
          " randomized claim verification")
_HELP = {"-h": None, "--help": None}
_SECONDS = "seconds"  # the kind of --timeout-soft, a float
_RING = Operand("--ring", TEXT, help="comma-separated variable names")
# the global flags, before the subcommand: nonnegative budgets of the invocation
_LIMITS = (
    Operand("--max-spairs", INT, None, "abort any single Groebner run after this many S-pairs"),
    Operand("--timeout-soft", _SECONDS, None, "soft wall-clock budget, checked in the Groebner"
            " engine and the monomial kernels (README lists every check point)"),
)
_ITEMS = {item.name: item for item in TABLE}


def _shape(o: Operand) -> str:
    return o.flag if o.kind == SWITCH or o.flag[0] != "-" else f"{o.flag} {o.dest.upper()}"


def _help(head: str, operands, tail: str, about: str = "", rows=None) -> str:
    """The usage line; with `about`, the help: `about`, then one row per
    (name, text), by default one per operand."""
    words = [_shape(o) if o.default is REQUIRED else f"[{_shape(o)}]" for o in operands]
    usage = " ".join(["usage: linkcoh", *head.split(), "[-h]", *words, *tail.split()]) + "\n"
    if not about:
        return usage
    rows = [(_shape(o), o.help or o.kind) for o in operands] if rows is None else rows
    width = max(len(name) for name, _ in rows) + 2
    body = "".join(f"  {name.ljust(width)}{line}\n" for name, line in rows)
    return f"{usage}\n{about}\n\n{body}"


def _scalar(o: Operand, text: str):
    """The value of an operand's text for the scalar kinds; others keep the text."""
    if o.kind == CLAIM and text not in CLAIMS:
        choices = ", ".join(sorted(CLAIMS))
        raise _Usage(f"argument {o.flag}: invalid choice: {text!r} (choose from {choices})")
    convert = {INT: int, _SECONDS: float}.get(o.kind)
    try:
        return text if convert is None else convert(text)
    except ValueError:
        raise _Usage(f"argument {o.flag}: invalid {convert.__name__} value: {text!r}") from None


def _take(words: list[str], i: int, flags: dict, spots: list | None, helptext) -> tuple[dict, int]:
    """Read `flags` from words[i:], and positional words into `spots` in
    order; with `spots` None, stop at the first word that is no flag.
    Returns the values by flag and the index of the first unread word."""
    given = {}
    while i < len(words):
        word = words[i]
        i += 1
        if word[:1] != "-":
            if spots is None:
                return given, i - 1
            if not spots:
                raise _Usage(f"unrecognized arguments: {word}")
            o = spots.pop(0)
            given[o.flag] = _scalar(o, word)
            continue
        flag, eq, text = word.partition("=")
        if flag not in flags:  # a unique prefix names a flag
            hits = [f for f in flags if f.startswith(flag)] if flag[:2] == "--" else []
            if len(hits) != 1:
                raise _Usage(f"ambiguous option: {flag} could match {', '.join(hits)}" if hits
                             else f"unrecognized arguments: {word}")
            flag = hits[0]
        o = flags[flag]
        if o is None:
            raise _Shown(helptext(), 0)
        if o.kind == SWITCH and eq:
            raise _Usage(f"argument {flag}: ignored explicit argument {text!r}")
        if o.kind != SWITCH and not eq:
            if i == len(words):
                raise _Usage(f"argument {flag}: expected one argument")
            text, i = words[i], i + 1
        given[flag] = True if o.kind == SWITCH else _scalar(o, text)
    return given, i


def _read(argv: Sequence[str]) -> tuple[dict, Op, dict]:
    """(global flag values, table entry, operand values by flag) of an
    invocation, with defaults filled and required operands present."""
    words = list(argv)
    top, i = _take(words, 0, {o.flag: o for o in _LIMITS} | _HELP, None, lambda: _help(
        "", _LIMITS, "SUBCOMMAND ...", _ABOUT,
        [(item.name, item.help) for item in TABLE] + [(_shape(o), o.help) for o in _LIMITS]))
    for flag, value in top.items():
        if not value >= 0:
            raise _Usage(f"argument {flag}: must be a nonnegative number, got {value!r}")
    if i == len(words):
        raise _Shown(_help("", _LIMITS, "SUBCOMMAND ..."), 1)
    name, op = words[i], _ITEMS.get(words[i])
    if op is None:
        raise _Usage(f"argument SUBCOMMAND: invalid choice: {name!r}"
                     f" (choose from {', '.join(_ITEMS)})")
    if isinstance(op, Group):
        group = op

        def verbs() -> str:
            return _help(name, (), "VERB ...", group.help, [(v.name, v.help) for v in group.ops])

        _, i = _take(words, i + 1, _HELP, None, verbs)
        if i == len(words):
            raise _Shown(verbs(), 1)
        name = f"{name} {words[i]}"
        op = OPS.get(name)
        if op is None:
            choices = ", ".join(v.name for v in group.ops)
            raise _Usage(f"argument VERB: invalid choice: {words[i]!r} (choose from {choices})")
    operands = (_RING, *op.operands) if op.ring else op.operands
    given, _ = _take(
        words, i + 1, {o.flag: o for o in operands if o.flag[0] == "-"} | _HELP,
        [o for o in operands if o.flag[0] != "-"], lambda: _help(name, operands, "", op.help),
    )
    missing = [o.flag for o in operands if o.default is REQUIRED and o.flag not in given]
    if missing:
        raise _Usage(f"the following arguments are required: {', '.join(missing)}")
    return top, op, {o.flag: given.get(o.flag, o.default) for o in operands}


# ---------------------------------------------------------------------------
# Writing the document and the entry point.

_quote = json.encoder.encode_basestring_ascii


def _json(v, pad: str = "") -> str:
    """`v` as `json.dumps(v, sort_keys=True, indent=2)` writes it, nested at
    indent `pad`, without the pure-Python encoder that `indent` selects."""
    if isinstance(v, str):
        return _quote(v)
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    inner = pad + "  "
    if isinstance(v, dict):
        items = [f"{_quote(k)}: {_json(x, inner)}" for k, x in sorted(v.items())]
        return "{\n" + inner + f",\n{inner}".join(items) + f"\n{pad}}}" if v else "{}"
    if isinstance(v, (list, tuple)):
        items = [_json(x, inner) for x in v]
        return "[\n" + inner + f",\n{inner}".join(items) + f"\n{pad}]" if v else "[]"
    return json.dumps(v)


def _print_doc(doc: dict) -> None:
    sys.stdout.write(_json({"schema_version": SCHEMA_VERSION, **doc}) + "\n")


def run(argv: Sequence[str] | None = None) -> int:
    try:
        top, op, values = _read(sys.argv[1:] if argv is None else argv)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _Shown as exc:
        text, code = exc.args
        (sys.stderr if code else sys.stdout).write(text)
        return code
    try:
        limits = {"max_spairs": top.get("--max-spairs"), "soft_timeout": top.get("--timeout-soft")}
        with set_limits(**limits):
            ctx = RingCtx.parse(values[_RING.flag]) if op.ring else None
            doc = op.doc(*(_value(ctx, o, values[o.flag]) for o in op.operands))
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
