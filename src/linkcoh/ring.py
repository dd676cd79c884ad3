"""Exact sparse multivariate polynomial arithmetic over the rationals.

This layer is the substrate for everything else in the package.  Coefficients
are arbitrary-precision ``fractions.Fraction`` values -- machine floats would
silently corrupt the discrete prime-set answers computed downstream -- and
every value is immutable so results can be cached and shared freely.

Polynomial text is read by `parse_poly` against one grammar per variable
tuple, compiled once and cached, and written back by `format_poly`.  Both
`format_poly` and `monomial.MonomialIdeal.render` write a monomial from its
exponents with `mono_text`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import neg
from typing import Iterable, NamedTuple

Exponents = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RingError(ValueError):
    """Invalid ring-level input or mismatched contexts."""


class ParseError(RingError):
    """Malformed polynomial text."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (column {position + 1})"
        super().__init__(message)
        self.position = position


class RingCtx(namedtuple("RingCtx", "var_names")):
    """The polynomial ring Q[x_1..x_n], given by its ordered variable names."""

    __slots__ = ()

    def __new__(cls, var_names: Iterable[str]) -> "RingCtx":
        var_names = tuple(var_names)
        if not var_names:
            raise RingError("a ring needs at least one variable")
        if any(not name for name in var_names):
            raise RingError("variable names must be nonempty")
        if len(set(var_names)) != len(var_names):
            raise RingError("variable names must be unique")
        return super().__new__(cls, var_names)

    @classmethod
    def parse(cls, text: str) -> "RingCtx":
        names = [part.strip() for part in text.split(",")]
        for name in names:
            if not name.isidentifier():
                raise RingError(f"variable name {name!r} is not an identifier")
        return cls(tuple(names))

    @property
    def n(self) -> int:
        return len(self.var_names)

    def index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise RingError(f"unknown variable {name!r}") from None

    def extend(self, extra: Iterable[str]) -> "RingCtx":
        return RingCtx(self.var_names + tuple(extra))

    def fresh_name(self, stem: str) -> str:
        """A variable name not already declared, for internal tag variables."""
        if stem not in self.var_names:
            return stem
        k = 0
        while f"{stem}{k}" in self.var_names:
            k += 1
        return f"{stem}{k}"

    def __str__(self) -> str:
        return "Q[" + ", ".join(self.var_names) + "]"


def ring(*names: str) -> RingCtx:
    return RingCtx(tuple(names))


# ---------------------------------------------------------------------------
# Monomials as bare exponent tuples.

def mono_one(n: int) -> Exponents:
    return (0,) * n


def mono_power(n: int, i: int, d: int = 1) -> Exponents:
    """The exponent of x_i^d in n variables."""
    return (0,) * i + (d,) + (0,) * (n - i - 1)


def mono_mul(u: Exponents, v: Exponents) -> Exponents:
    return tuple(a + b for a, b in zip(u, v))


def mono_divides(u: Exponents, v: Exponents) -> bool:
    """True when the monomial with exponents u divides the one with v."""
    return all(a <= b for a, b in zip(u, v))


def mono_mask(u: Exponents) -> int:
    """The support of x^u as a vertex mask: bit i is set when u_i > 0."""
    return sum(1 << i for i, e in enumerate(u) if e)


def mono_text(names: tuple[str, ...], e: Exponents) -> str:
    """The monomial x^e as text, ``x^2*y``; empty for x^0 = 1."""
    return "*".join(name if x == 1 else f"{name}^{x}" for name, x in zip(names, e) if x)


def _degrevlex_key(e: Exponents):
    # u > v iff deg u > deg v, else the last nonzero entry of u - v is < 0;
    # one flat tuple (deg, -x_n, .., -x_1)
    return (sum(e), *map(neg, reversed(e)))


class MonomialOrder(NamedTuple):
    """A multiplicative monomial well-order usable as a max-selection key,
    held by its index blocks alone.

    With no blocks it is degrevlex, the term order of every ideal and module
    answer.  With blocks it is the elimination order that `eliminate` runs
    the engine under: exponents are compared degrevlex on the first
    (dominant) index block, then on the next, so any monomial involving a
    dominant variable beats every monomial that avoids them.  Lex is the
    block order with one singleton block per variable.
    """

    blocks: tuple[tuple[int, ...], ...] = ()

    def key(self, e: Exponents):
        if not self.blocks:
            return _degrevlex_key(e)
        return tuple(_degrevlex_key(tuple(e[i] for i in blk)) for blk in self.blocks)


DEGREVLEX = MonomialOrder()


def elimination_order(drop: Iterable[int], n: int) -> MonomialOrder:
    drop_t = tuple(sorted(set(drop)))
    if not drop_t:
        return DEGREVLEX
    keep_t = tuple(i for i in range(n) if i not in set(drop_t))
    return MonomialOrder((drop_t, keep_t))


# ---------------------------------------------------------------------------
# Polynomials.

class Polynomial:
    """An immutable sparse polynomial: exponent tuple -> nonzero Fraction."""

    __slots__ = ("ctx", "_terms", "_hash")

    def __init__(self, ctx: RingCtx, terms: dict | None = None) -> None:
        cleaned: dict[Exponents, Fraction] = {}
        if terms:
            n = ctx.n
            for e, c in terms.items():
                if len(e) != n:
                    raise RingError("exponent tuple has wrong length")
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    cleaned[tuple(e)] = c
        self.ctx = ctx
        self._terms = cleaned
        self._hash: int | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: RingCtx) -> "Polynomial":
        return cls(ctx)

    @classmethod
    def const(cls, ctx: RingCtx, c) -> "Polynomial":
        return cls(ctx, {mono_one(ctx.n): Fraction(c)})

    @classmethod
    def variable(cls, ctx: RingCtx, name: str) -> "Polynomial":
        return cls(ctx, {mono_power(ctx.n, ctx.index(name)): _ONE})

    @classmethod
    def from_monomial(cls, ctx: RingCtx, e: Exponents, c=1) -> "Polynomial":
        return cls(ctx, {tuple(e): Fraction(c)})

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self._terms)

    def is_term(self) -> bool:
        """Exactly one monomial (with any coefficient)."""
        return len(self._terms) == 1

    def term_map(self) -> dict[Exponents, Fraction]:
        """Read-only view of the term dict; callers must not mutate it."""
        return self._terms

    def support(self) -> set[int]:
        out: set[int] = set()
        for e in self._terms:
            for i, x in enumerate(e):
                if x:
                    out.add(i)
        return out

    def is_homogeneous(self) -> bool:
        """Every term has the same total degree; zero counts as homogeneous."""
        return len({sum(e) for e in self._terms}) <= 1

    def lead(self) -> tuple[Exponents, Fraction]:
        """The degrevlex-largest term."""
        if not self._terms:
            raise RingError("zero polynomial has no leading term")
        e = max(self._terms, key=_degrevlex_key)
        return e, self._terms[e]

    def terms_sorted(self) -> list[tuple[Exponents, Fraction]]:
        """The terms, degrevlex-largest first."""
        return sorted(self._terms.items(), key=lambda t: _degrevlex_key(t[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.ctx != self.ctx:
                raise RingError("mixed ring contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.ctx, other)
        return None

    def __add__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in o._terms.items():
            v = out.get(e, _ZERO) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Polynomial(self.ctx, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ctx, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.ctx)
            return Polynomial(self.ctx, {e: v * c for e, v in self._terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in o._terms.items():
                e = mono_mul(e1, e2)
                v = out.get(e, _ZERO) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return Polynomial(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise RingError("negative powers are not polynomials")
        out = Polynomial.const(self.ctx, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ctx == other.ctx
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ctx, frozenset(self._terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"<poly {self} over {self.ctx}>"

    def map_vars(self, new_ctx: RingCtx, index_map: dict[int, int]) -> "Polynomial":
        """Reinterpret over new_ctx, sending old variable i to index_map[i].

        Every variable actually appearing in the polynomial must be mapped.
        """
        out: dict[Exponents, Fraction] = {}
        for e, c in self._terms.items():
            ne = [0] * new_ctx.n
            for i, x in enumerate(e):
                if x:
                    if i not in index_map:
                        raise RingError("variable lost by context remap")
                    ne[index_map[i]] = x
            key = tuple(ne)
            v = out.get(key, _ZERO) + c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return Polynomial(new_ctx, out)


# ---------------------------------------------------------------------------
# Text format: signed terms, each a product of factors with `*` optional
# between them; a factor is an integer or rational coefficient, or a variable
# with an optional `^` and nonnegative integer exponent.  No parentheses.

_SIGN = re.compile(r"\s*(?P<sign>[+-]?)\s*")


@lru_cache(maxsize=64)
def _grammar(names: tuple[str, ...]):
    """The factor pattern of a ring with these variable names, and each
    name's index.  Longer names are tried first, so ``x1`` is one variable
    when the ring has one."""
    variable = "|".join(map(re.escape, sorted(names, key=len, reverse=True)))
    factor = (
        r"\s*(?:\*\s*)?"
        r"(?:(?P<num>\d+)(?:/(?P<den>\d+))?"
        rf"|(?P<var>{variable})(?:\s*\^\s*(?P<exp>\d+))?)"
    )
    return re.compile(factor), {name: i for i, name in enumerate(names)}


def parse_poly(text: str, ctx: RingCtx) -> Polynomial:
    """Parse polynomial text like ``x^2*y - 3*z`` or ``1/2x y``, term by
    term: a sign, then each factor matched once, where the last one ended;
    a refusal names the column where reading stopped."""
    if not text or text.isspace():
        raise ParseError("empty polynomial text")
    factor, index = _grammar(ctx.var_names)
    terms: dict[Exponents, int | Fraction] = {}
    end, size = 0, len(text)
    while end < size:
        m = _SIGN.match(text, end)
        pos, sign = m.end(), m["sign"]
        f = factor.match(text, pos)
        if f is None:
            # no factor follows; this also catches a later term without its
            # sign, as the term before it read every factor it could
            if pos == size:
                if not sign:
                    break  # the blank tail of the last term
                raise ParseError("the text ended where a term was expected", pos)
            raise ParseError(f"unexpected {text[pos]!r}", pos)
        num_c, den_c = (-1 if sign == "-" else 1), 1
        exps = [0] * ctx.n
        while f is not None:
            num, den, var, exp = f.groups()
            if var is not None:
                exps[index[var]] += int(exp or 1)
            else:
                d = int(den or 1)
                if not d:
                    raise ParseError("division by zero in a coefficient", f.start("num"))
                num_c, den_c = num_c * int(num), den_c * d
            end = f.end()
            f = factor.match(text, end)
        key = tuple(exps)
        # integers stay integers; `Polynomial` makes every coefficient a Fraction
        v = terms.get(key, 0) + (num_c if den_c == 1 else Fraction(num_c, den_c))
        if v:
            terms[key] = v
        else:
            terms.pop(key, None)
    return Polynomial(ctx, terms)


def format_poly(p: Polynomial) -> str:
    """Canonical text form, terms in decreasing degrevlex order;
    ``parse_poly(format_poly(p), ctx) == p``."""
    if p.is_zero():
        return "0"
    names = p.ctx.var_names
    pieces: list[str] = []
    for e, c in p.terms_sorted():
        mono = mono_text(names, e)
        num, den = c.numerator, c.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = mag + "*" + mono
        if pieces:
            pieces.append(("- " if num < 0 else "+ ") + body)
        else:
            pieces.append(("-" if num < 0 else "") + body)
    return " ".join(pieces)
