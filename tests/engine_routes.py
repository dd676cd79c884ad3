"""The Groebner routes of the ideal operations, called directly.

`reduced_gb`, `ideal_quotient` and `ideal_intersect` answer ideals given by
terms with divisibility arithmetic and never start the engine there, so a
test comparing the combinatorial route with the basis-driven one calls these
instead: a fresh engine basis, the engine's syzygy colon (taken modulo such
a basis, as its contract asks), and the tag-variable intersection, which
shares no construction with the colon and is therefore the colon's oracle.
`division_koszul_grade` is the oracle of `koszul_grade`: it divides each
cycle by a boundary basis built in a run of its own.  The ideal API is
degrevlex only, so a test that wants a lex basis asks the engine for one
under `lex(n)`.  `reference_lcm` packs a pair's lcm variable by variable,
the way the engine did before `_Codec.lcm` built it from the packed leads.
`rabinowitsch_is_maximal` decides whether a radical is the ideal of the
variables by one Rabinowitsch run per variable, with no membership test
first, against which the oracle `radical_is_maximal` is held.
"""

from operator import mul

from linkcoh.groebner import (
    Ideal,
    _colon,
    _gb,
    _rabinowitsch,
    eliminate,
    is_proper,
    ideal_block,
    module_reduce,
    _divide,
    _table,
    module_table,
)
from linkcoh.modules import _koszul_columns, submodule_syzygies
from oracles import module_gb, vec_is_zero
from linkcoh.ring import DEGREVLEX, MonomialOrder, Polynomial


def normal_form(f, basis):
    """Full remainder of f under degrevlex division by `basis`, by the
    engine's division kernel."""
    table = _table(g.term_map() for g in basis)
    return Polynomial(f.ctx, _divide(f.term_map(), table))


def reference_lcm(cx, a, b):
    """The packed lcm of the exponent tuples a and b, one position prefix
    and ring part each, under the codec `cx`: the affine encoding of their
    entry-wise maximum, whose guard bits (`cx.G`) flag an overflow."""
    return cx.C + sum(map(mul, map(max, a, b), cx.W))


def lex(n):
    """Lex over n variables, x_1 > .. > x_n: the block order of n singleton
    blocks, which the engine packs as it packs an elimination order."""
    return MonomialOrder(tuple((i,) for i in range(n)))


def engine_gb(I, order=DEGREVLEX):
    """The reduced basis of I under `order` from a fresh engine run, cache
    unread."""
    return tuple(_gb(I.ctx, I.gens, order))


def rabinowitsch_is_maximal(K):
    """Whether sqrt(K) is the ideal of the variables: K is proper and, for
    every variable x, a fresh engine basis of K + (1 - t*x) is (1)."""
    if not is_proper(K):
        return False
    for v in K.ctx.var_names:
        T = _rabinowitsch(K, Polynomial.variable(K.ctx, v))
        basis = engine_gb(T)
        if not (len(basis) == 1 and basis[0].is_constant()):
            return False
    return True


def engine_quotient(I, J):
    """I : J as one syzygy run of the engine, modulo a fresh engine basis of
    I; J must be nonzero."""
    return _colon(I.ctx, [(g,) for g in J.gens], [(f,) for f in engine_gb(I)])


def tag_intersect(I, J):
    """I ∩ J by eliminating a tag variable t from t*I + (1 - t)*J.

    Every product of a generator of I with one of J must lie in the result;
    that self-check runs against an engine basis on every call.
    """
    ctx = I.ctx
    big = ctx.extend([ctx.fresh_name("t@")])
    up = {i: i for i in range(ctx.n)}
    t = Polynomial.variable(big, big.var_names[-1])
    gens = [t * f.map_vars(big, up) for f in I.gens]
    gens += [(1 - t) * g.map_vars(big, up) for g in J.gens]
    result = eliminate(Ideal(big, gens), big.var_names[-1:])
    basis = engine_gb(result)
    for f in I.gens:
        for g in J.gens:
            assert normal_form(f * g, basis).is_zero(), "intersection self-check failed"
    return result


def division_koszul_grade(seq, base, lower=0, upper=None):
    """The bounded Koszul grade search of `koszul_grade`, deciding each level
    by division.  At level i the boundary basis of B_i = im d_(i+1) + base*K_i
    comes from an unseeded `module_gb` of the columns of d_(i+1) and the
    block base*K_i, and H_i vanishes when every generator of the cycles Z_i
    reduces to zero by it.  Bounds are those of `koszul_grade`, unchecked.
    """
    elements = [f for f in seq if not f.is_zero()]
    s = len(elements)
    upper = s if upper is None else upper
    for i in range(s - lower, s - upper, -1):
        cols = _koszul_columns(elements, i)
        rank = len(cols)
        cycles = submodule_syzygies(cols, ideal_block(base, len(cols[0])))
        boundary = module_gb(_koszul_columns(elements, i + 1) + ideal_block(base, rank))
        table = module_table(boundary, rank)
        if any(not vec_is_zero(module_reduce(z, table)) for z in cycles):
            return s - i
    return upper
