"""Simplicial cohomology, Hochster-route depth, cohomological dimension.

Cohomology ranks are cross-checked against a test-local rank oracle
(straight Gaussian elimination on the coboundary matrices) and against
the reduced Euler characteristic computed from face counts alone.
"""

import itertools
import logging
import random
from fractions import Fraction

import pytest

from linkcoh import groebner, simplicial
from linkcoh.groebner import BudgetExceeded, Ideal, set_limits
from linkcoh.modules import koszul_grade
from linkcoh.monomial import (
    ImproperIdealError,
    MonomialIdeal,
    MonomialPrime,
    as_monomial,
    associated_primes,
    min_assh_dim,
)
from linkcoh.ring import Polynomial, RingError, mono_one, ring
from linkcoh.simplicial import cd_squarefree, depth_monomial, depth_squarefree
from oracles import (
    CohomologyProfile,
    SimplicialComplex,
    _coboundary,
    cd_on_quotient,
    complex_of,
    polarize,
    reduced_cohomology,
)


def MI(ctx, *texts):
    return as_monomial(Ideal.parse(ctx, ", ".join(texts)))


# ---------------------------------------------------------------------------
# Independent cohomology oracle: coboundary ranks by Gaussian elimination.

def _rank(matrix):
    rows = [list(r) for r in matrix if any(r)]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    used = [False] * len(rows)
    for c in range(cols):
        pivot = None
        for i, row in enumerate(rows):
            if not used[i] and row[c]:
                pivot = i
                break
        if pivot is None:
            continue
        used[pivot] = True
        rank += 1
        prow = rows[pivot]
        for i, row in enumerate(rows):
            if i != pivot and row[c]:
                fac = row[c] / prow[c]
                rows[i] = [a - fac * b for a, b in zip(row, prow)]
    return rank


def cohomology_oracle(cx: SimplicialComplex) -> CohomologyProfile:
    if cx.is_void():
        return CohomologyProfile({})
    if cx.is_irrelevant():
        return CohomologyProfile({-1: 1})
    faces = {}
    for k in range(0, cx.dim + 2):
        faces[k - 1] = sorted(cx.faces_of_size(k), key=sorted)

    def coboundary(j):
        # map from j-cochains to (j+1)-cochains
        dom = faces.get(j, [])
        cod = faces.get(j + 1, [])
        idx = {f: i for i, f in enumerate(dom)}
        rows = []
        for g in cod:
            row = [Fraction(0)] * len(dom)
            verts = sorted(g)
            for pos, v in enumerate(verts):
                sub = frozenset(g - {v})
                if sub in idx:
                    row[idx[sub]] = Fraction((-1) ** pos)
            rows.append(row)
        return rows

    ranks = {}
    for j in range(-1, cx.dim + 1):
        dom = len(faces.get(j, []))
        up = coboundary(j)
        down = coboundary(j - 1)
        rank_up = _rank(up) if up else 0
        rank_down = _rank(down) if down else 0
        ranks[j] = dom - rank_up - rank_down
    return CohomologyProfile(ranks)


def random_complex(rng, n):
    sets = []
    for _ in range(rng.randint(1, 5)):
        k = rng.randint(1, n)
        sets.append(rng.sample(range(n), k))
    return SimplicialComplex.from_facets(n, sets)


def test_known_profiles():
    # two isolated points: one extra connected component
    two_pts = SimplicialComplex.from_facets(2, [[0], [1]])
    assert reduced_cohomology(two_pts) == CohomologyProfile({0: 1})
    # hollow triangle: a circle
    circle = SimplicialComplex.from_facets(3, [[0, 1], [1, 2], [0, 2]])
    assert reduced_cohomology(circle) == CohomologyProfile({1: 1})
    # boundary of the tetrahedron: a 2-sphere
    sphere = SimplicialComplex.from_facets(
        4, [s for s in itertools.combinations(range(4), 3)]
    )
    assert reduced_cohomology(sphere) == CohomologyProfile({2: 1})
    # solid simplex: contractible
    solid = SimplicialComplex.from_facets(3, [[0, 1, 2]])
    assert reduced_cohomology(solid) == CohomologyProfile({})
    # the complex {emptyset}
    irrelevant = SimplicialComplex.from_facets(3, [[]])
    assert irrelevant.is_irrelevant()
    assert reduced_cohomology(irrelevant) == CohomologyProfile({-1: 1})
    # void complex
    void = SimplicialComplex.from_facets(3, [])
    assert reduced_cohomology(void) == CohomologyProfile({})


def test_cohomology_matches_oracle_and_euler():
    rng = random.Random(7)
    for _ in range(30):
        cx = random_complex(rng, rng.randint(2, 5))
        prof = reduced_cohomology(cx)
        assert prof == cohomology_oracle(cx)
        # reduced Euler characteristic from face counts
        chi = 0
        for k in range(0, cx.dim + 2):
            chi += (-1) ** (k - 1) * len(cx.faces_of_size(k))
        assert prof.euler_reduced() == chi


def test_cones_are_acyclic():
    rng = random.Random(19)
    for _ in range(10):
        base = random_complex(rng, 4)
        if base.is_void() or base.is_irrelevant():
            continue
        coned = SimplicialComplex.from_facets(
            5, [set(f) | {4} for f in base.facets]
        )
        assert coned.is_cone()
        assert reduced_cohomology(coned) == CohomologyProfile({})


def test_complex_of_and_links():
    ctx = ring("x", "y", "z")
    cx = complex_of(MI(ctx, "x*y*z"))
    # hollow triangle
    assert set(cx.facets) == {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}
    lk = cx.link([0])
    assert set(lk.facets) == {frozenset({1}), frozenset({2})}
    with pytest.raises(RingError):
        complex_of(MI(ctx, "x^2"))
    with pytest.raises(RingError):
        cx.link([0, 1, 2])


def test_complex_of_cover_enumeration_honours_soft_timeout():
    # each branch of the cover enumeration checks the deadline
    ctx = ring(*(f"x{i}" for i in range(11)))
    with set_limits(soft_timeout=0):
        with pytest.raises(BudgetExceeded, match="^Stanley-Reisner vertex covers"):
            complex_of(MI(ctx, "x0*x1"))
    assert len(complex_of(MI(ctx, "x0*x1")).facets) == 2


def test_facets_are_complements_of_associated_primes_property():
    # cover enumeration against irreducible decomposition: for squarefree I
    # the associated primes are the minimal vertex covers
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 10))
        ctx = ring(*(f"x{i}" for i in range(n)))
        support = st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
        supports = data.draw(st.lists(support, max_size=8))
        I = MonomialIdeal.from_exponents(ctx, [tuple(int(i in s) for i in range(n)) for s in supports])
        complements = {frozenset(range(n)) - frozenset(p.vars) for p in associated_primes(I)}
        facets = complex_of(I).facets
        assert len(facets) == len(set(facets))
        assert set(facets) == complements

    check()


def test_complete_graph_covers_branch_without_repeats(monkeypatch):
    # K_20: the minimal covers are the 20 sets of all vertices but one, so
    # the facets are the 20 points; without the bans on earlier branches the
    # enumeration would take more than 2^19 branches; the enumeration is
    # `monomial.min_vertex_covers`, which checks the deadline through groebner
    checks = []
    deadline = groebner.check_deadline

    def counted(what):
        checks.append(what)
        deadline(what)

    monkeypatch.setattr(groebner, "check_deadline", counted)
    n = 20
    ctx = ring(*(f"x{i}" for i in range(n)))
    edges = [tuple(int(k in (i, j)) for k in range(n)) for i, j in itertools.combinations(range(n), 2)]
    I = MonomialIdeal.from_exponents(ctx, edges)
    assert complex_of(I).facets == tuple(frozenset({v}) for v in range(n))
    assert 0 < checks.count("Stanley-Reisner vertex covers") <= 1000
    assert depth_squarefree(I) == 1


def test_depth_squarefree_known_values():
    ctx = ring("x", "y", "z")
    # three coordinate points: 1-dimensional, connected enough to be CM
    pts = MI(ctx, "x*y", "x*z", "y*z")
    assert depth_squarefree(pts) == 1
    assert min_assh_dim(pts).dim == 1
    assert depth_monomial(pts) == min_assh_dim(pts).dim
    # an edge plus an isolated vertex: depth 1 < dim 2
    mixed = MI(ctx, "x*z", "y*z")
    assert depth_squarefree(mixed) == 1
    assert min_assh_dim(mixed).dim == 2
    assert depth_monomial(mixed) < min_assh_dim(mixed).dim
    # hypersurface: depth = dim = 2
    assert depth_squarefree(MI(ctx, "x*y")) == 2
    # the zero ideal: the full ring
    zero = MonomialIdeal.from_exponents(ctx, [])
    assert depth_squarefree(zero) == 3
    assert min_assh_dim(zero).dim == 3


def test_depth_monomial_polarizes():
    ctx = ring("x", "y")
    m = MI(ctx, "x^2", "x*y")
    # embedded maximal ideal forces depth 0
    assert depth_monomial(m) == 0
    assert min_assh_dim(m).dim == 1
    ctx3 = ring("x", "y", "z")
    assert depth_monomial(MI(ctx3, "x^2*y")) == 2
    pol = polarize(MI(ctx3, "x^2*y"))
    assert depth_squarefree(pol.ideal) - pol.added == 2


# ---------------------------------------------------------------------------
# Depth of monomial quotients: colon radicals against the polarization and
# against the Koszul search.

def polarized_depth(J: MonomialIdeal) -> int:
    """Hochster's formula on the squarefree polarization, shifted back."""
    pol = polarize(J)
    return depth_squarefree(pol.ideal) - pol.added


def test_depth_monomial_matches_polarization_and_koszul_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4))
        ctx = ring(*"wxyz"[:n])
        exps = st.tuples(*[st.integers(0, 3)] * n)
        # pure powers are drawn on their own too, so (x^a, y^b, ...) and
        # mixtures with them turn up often; no generators is the zero ideal
        powers = st.builds(
            lambda i, a: tuple(a if k == i else 0 for k in range(n)),
            st.integers(0, n - 1),
            st.integers(1, 3),
        )
        gens = data.draw(st.lists(st.one_of(exps, powers), max_size=4))
        J = MonomialIdeal.from_exponents(ctx, gens)
        hyp.assume(J.is_proper())
        variables = [Polynomial.variable(ctx, v) for v in ctx.var_names]
        assert depth_monomial(J) == polarized_depth(J) == koszul_grade(variables, J.to_ideal())

    check()


def test_depth_monomial_matches_polarization_on_larger_rings():
    rng = random.Random(16)
    checked = 0
    while checked < 60:
        n = rng.randint(5, 6)
        ctx = ring(*"abcdef"[:n])
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        J = MonomialIdeal.from_exponents(ctx, gens)
        # the polarized oracle's cost grows with its vertex count
        if not J.is_proper() or polarize(J).ctx.n > 11:
            continue
        assert depth_monomial(J) == polarized_depth(J)
        checked += 1


def test_depth_monomial_honours_soft_timeout():
    ctx = ring("x", "y", "z")
    with set_limits(soft_timeout=0):
        with pytest.raises(BudgetExceeded, match="^depth colon radicals"):
            depth_monomial(MI(ctx, "x^2*y", "y^3*z"))


def test_cd_squarefree_known_values():
    ctx = ring("x", "y", "z")
    assert cd_squarefree(MI(ctx, "x")) == 1
    assert cd_squarefree(MI(ctx, "x", "y", "z")) == 3
    # three points: pd of the quotient is 2
    assert cd_squarefree(MI(ctx, "x*y", "x*z", "y*z")) == 2
    assert cd_squarefree(MI(ctx, "x*y")) == 1
    assert cd_squarefree(MonomialIdeal(ctx, ())) == 0


def test_cd_on_quotient():
    ctx = ring("x", "y", "z")
    a = MI(ctx, "x")
    # on R/(y): a still cuts a hypersurface, cd 1
    assert cd_on_quotient(a, MonomialPrime((1,))) == 1
    # on R/(x): a becomes 0, cd 0
    assert cd_on_quotient(a, MonomialPrime((0,))) == 0


def restricted_cd(a: MonomialIdeal, p: MonomialPrime) -> int:
    """cd of a on R/p by restriction: kill the variables of p, drop the
    generators that meet p, and take cd_squarefree on the smaller ring."""
    keep = [i for i in range(a.ctx.n) if i not in p.vars]
    if not keep:
        return 0
    small = ring(*(a.ctx.var_names[i] for i in keep))
    gens = [tuple(g[i] for i in keep) for g in a.min_gens if not any(g[i] for i in p.vars)]
    return cd_squarefree(MonomialIdeal.from_exponents(small, gens))


def test_cd_on_quotient_matches_ring_restriction_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 6))
        ctx = ring(*"uvwxyz"[:n])
        support = st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
        supports = data.draw(st.lists(support, max_size=6))
        a = MonomialIdeal.from_exponents(ctx, [tuple(int(i in s) for i in range(n)) for s in supports])
        p = MonomialPrime(tuple(data.draw(st.sets(st.integers(0, n - 1)))))
        assert cd_on_quotient(a, p) == restricted_cd(a, p)

    check()


def test_cd_on_quotient_refuses_unit_ideal():
    ctx = ring("x", "y", "z")
    unit = MonomialIdeal(ctx, (mono_one(ctx.n),))
    for p in [MonomialPrime((0,)), MonomialPrime((0, 1, 2))]:
        with pytest.raises(ImproperIdealError):
            cd_on_quotient(unit, p)
    with pytest.raises(ImproperIdealError):
        cd_squarefree(unit)


def test_squarefree_operations_name_themselves_on_bad_input():
    ctx = ring("x", "y")
    for fn in (depth_squarefree, cd_squarefree):
        with pytest.raises(RingError, match=f"^{fn.__name__} needs a squarefree ideal$"):
            fn(MI(ctx, "x^2", "y"))


# ---------------------------------------------------------------------------
# Depth against Hochster's formula with exact ranks only.

def stanley_reisner_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    n = cx.n_vertices
    ctx = ring(*"abcdefgh"[:n])
    nonfaces = [
        c
        for k in range(1, n + 1)
        for c in itertools.combinations(range(n), k)
        if not cx.has_face(c)
    ]
    return MonomialIdeal.from_exponents(
        ctx, [tuple(int(i in c) for i in range(n)) for c in nonfaces]
    )


def hochster_depth_oracle(cx: SimplicialComplex) -> int:
    """min |W| + 1 + j over faces W with exact reduced H^j(link W) nonzero."""
    faces = [
        c
        for k in range(cx.n_vertices + 1)
        for c in itertools.combinations(range(cx.n_vertices), k)
        if cx.has_face(c)
    ]
    return min(
        len(w) + 1 + j
        for w in faces
        for j in reduced_cohomology(cx.link(w)).nonzero_degrees()
    )


def test_depth_squarefree_matches_exact_hochster_oracle():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 7)
        cx = random_complex(rng, n)
        for k in range(n + 1):
            # faces read off the facets, in the order of a full subset scan
            scan = [frozenset(c) for c in itertools.combinations(cx.vertices(), k) if cx.has_face(c)]
            assert cx.faces_of_size(k) == scan
        I = stanley_reisner_ideal(cx)
        assert complex_of(I) == cx
        assert depth_squarefree(I) == hochster_depth_oracle(cx)
        # links are built without the maximality filter of from_facets
        for v in cx.vertices():
            star = [f - {v} for f in cx.facets if v in f]
            assert cx.link([v]) == SimplicialComplex.from_facets(n, star)


# The 6-vertex triangulation of the real projective plane.  It is acyclic
# over Q, but H^1 and H^2 over GF(2) are nonzero, so the GF(2) vanishing
# filter cannot clear H^1 of the whole complex and the exact route must.
RP2_FACETS = ("012", "023", "034", "045", "051", "124", "235", "341", "452", "513")


def test_rp2_torsion_is_cleared_by_exact_ranks(monkeypatch):
    exact_calls = []
    rank_exact = simplicial._LinkScanner.rank_exact

    def counted(self, j):
        exact_calls.append(j)
        return rank_exact(self, j)

    monkeypatch.setattr(simplicial._LinkScanner, "rank_exact", counted)
    rp2 = SimplicialComplex.from_facets(6, [[int(v) for v in f] for f in RP2_FACETS])
    I = stanley_reisner_ideal(rp2)
    assert len(I.min_gens) == 10
    assert complex_of(I) == rp2
    # Cohen-Macaulay over Q; an answer from GF(2) ranks alone would be depth 2
    assert depth_squarefree(I) == min_assh_dim(I).dim == 3
    assert exact_calls


# ---------------------------------------------------------------------------
# The bitmask link scan of depth_squarefree.

def _mask(face) -> int:
    return sum(1 << v for v in face)


def test_scanner_faces_match_faces_of_size():
    # the 40 seeded complexes of the Hochster test above
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 7)
        cx = random_complex(rng, n)
        scan = simplicial._LinkScanner(tuple(sorted(_mask(f) for f in cx.facets)))
        assert scan.dim == cx.dim
        for k in range(n + 1):
            assert scan.faces(k) == [_mask(f) for f in cx.faces_of_size(k)]


def _rank_mod2(rows):
    """Rank over GF(2) of int bitset rows, kept as a basis with distinct
    leading bits in decreasing order."""
    basis = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return len(basis)


def test_capped_gf2_rank_is_the_rank_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @hyp.given(st.lists(st.integers(0, (1 << 12) - 1), max_size=14), st.integers(0, 3))
    def check(rows, slack):
        rank = _rank_mod2(rows)
        # any cap at or above the rank gives the rank itself
        assert simplicial._rank_gf2(iter(rows), rank + slack) == rank

    check()


def test_scanner_low_ranks_match_exact_coboundaries():
    rng = random.Random(61)
    complexes = [SimplicialComplex.from_facets(3, [[]])]
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        a, b = random_complex(rng, n), random_complex(rng, m)
        complexes.append(a)
        # a disjoint union: at least two components
        shifted = [[v + n for v in f] for f in b.facets]
        complexes.append(SimplicialComplex.from_facets(n + m, list(a.facets) + shifted))
    disconnected = 0
    for cx in complexes:
        scan = simplicial._LinkScanner(tuple(sorted(_mask(f) for f in cx.facets)))
        faces = [cx.faces_of_size(k) for k in range(3)]
        for j in (-1, 0):
            want = simplicial._rank_exact(_coboundary(faces[j + 1], faces[j + 2]))
            assert scan.rank_filter(j) == scan.rank_exact(j) == want
        assert scan.h_nonzero(0) == (reduced_cohomology(cx).rank(0) > 0)
        # the closed forms need no face list
        assert not scan._faces
        disconnected += scan.components > 1
    assert disconnected >= 30


OCTAHEDRON = ("x0*x1", "x2*x3", "x4*x5")
# boundary of the 4-dimensional cross-polytope: a 3-sphere whose vertex links
# are octahedra
CROSS_POLYTOPE = OCTAHEDRON + ("x6*x7",)


def _scanners_built(monkeypatch):
    built = []
    init = simplicial._LinkScanner.__init__

    def counted(self, facets):
        built.append(facets)
        init(self, facets)

    monkeypatch.setattr(simplicial._LinkScanner, "__init__", counted)
    return built


def test_link_memo_shares_relabelled_links(monkeypatch):
    built = _scanners_built(monkeypatch)
    ctx = ring(*(f"x{i}" for i in range(6)))
    # boundary of the octahedron: a 2-sphere, Cohen-Macaulay of dimension 3;
    # its vertex links (4-cycles) only need H~^0, which connectivity decides,
    # so the only scanner is the one of the whole complex
    assert depth_squarefree(MI(ctx, *OCTAHEDRON)) == 3
    octahedron = (0b010101, 0b010110, 0b011001, 0b011010, 0b100101, 0b100110, 0b101001, 0b101010)
    assert built == [octahedron]
    built.clear()
    # the eight vertex links of the 3-sphere need H~^1 and share one scanner,
    # the octahedron after relabelling
    ctx = ring(*(f"x{i}" for i in range(8)))
    assert depth_squarefree(MI(ctx, *CROSS_POLYTOPE)) == 4
    assert len(built) == 2
    assert built[1] == octahedron


def test_link_scan_logs_its_work(caplog):
    with caplog.at_level(logging.DEBUG, logger="linkcoh"):
        ctx = ring(*(f"x{i}" for i in range(6)))
        assert depth_squarefree(MI(ctx, *OCTAHEDRON)) == 3
        ctx = ring(*(f"x{i}" for i in range(8)))
        assert depth_squarefree(MI(ctx, *CROSS_POLYTOPE)) == 4
    assert [r.getMessage() for r in caplog.records] == [
        "depth links: 7 faces, 7 non-cone, 6 by connectivity, 1 distinct scanned, "
        "1 GF(2) ranks (1 stopped at the bound), 0 exact ranks",
        "depth links: 33 faces, 33 non-cone, 24 by connectivity, 2 distinct scanned, "
        "3 GF(2) ranks (3 stopped at the bound), 0 exact ranks",
    ]


def test_depth_squarefree_matches_hochster_oracle_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 8))
        # facets of at most 5 vertices keep the exact oracle's matrices small
        faces = st.sets(st.integers(0, n - 1), min_size=1, max_size=5)
        cx = SimplicialComplex.from_facets(n, data.draw(st.lists(faces, min_size=1, max_size=6)))
        assert depth_squarefree(stanley_reisner_ideal(cx)) == hochster_depth_oracle(cx)

    check()
