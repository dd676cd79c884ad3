"""Stanley-Reisner machinery: simplicial complexes of squarefree ideals,
exact reduced simplicial cohomology over Q, depth of monomial quotients via
the graded local-cohomology support formula, and cohomological dimension
along the squarefree path.

Rank decisions are exact.  A GF(2) rank is used only as a *vanishing
filter*: each coboundary row is a Python int whose set bits are the columns
it touches (signs vanish mod 2), and elimination is XOR against one pivot row
per lowest set bit.  The rank of an integer matrix over any F_p is at most
its rank over Q, so the cohomology rank computed mod 2 bounds the rational
one from above and a zero there proves vanishing.  Every nonzero rank that
influences an answer is recomputed with Fraction arithmetic, which also
clears the 2-torsion (for example RP^2) that the filter cannot see past.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .groebner import BudgetExceeded, check_deadline
from .monomial import (
    ImproperIdealError,
    MonomialIdeal,
    MonomialPrime,
    min_assh_dim,
    polarize,
)
from .ring import RingCtx, RingError, mono_support

log = logging.getLogger("linkcoh")

POLARIZATION_VAR_BUDGET = 16


def _facet_key(s: frozenset):
    return (len(s), sorted(s))


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its facets over an ambient vertex index set.

    No facets at all is the void complex; the single facet ∅ is the complex
    {∅} (these two are genuinely different: only the latter has reduced
    cohomology, in degree -1).
    """

    n_vertices: int
    facets: tuple[frozenset, ...]

    @classmethod
    def from_facets(cls, n_vertices: int, sets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        cand = [frozenset(s) for s in sets]
        maximal = [s for s in cand if not any(s < t for t in cand)]
        return cls(n_vertices, tuple(sorted(set(maximal), key=_facet_key)))

    def is_void(self) -> bool:
        return not self.facets

    def is_irrelevant(self) -> bool:
        return self.facets == (frozenset(),)

    @property
    def dim(self) -> int:
        if self.is_void():
            return -2  # conventional sentinel; the void complex has no faces
        return max(len(f) for f in self.facets) - 1

    def vertices(self) -> tuple[int, ...]:
        out: set[int] = set()
        for f in self.facets:
            out.update(f)
        return tuple(sorted(out))

    def has_face(self, s: Iterable[int]) -> bool:
        fs = frozenset(s)
        return any(fs <= f for f in self.facets)

    def faces_of_size(self, k: int) -> list[frozenset]:
        """The faces with k vertices, in lexicographic order of their sorted
        vertex tuples; every face lies in a facet, so they are read off the
        facets instead of testing each vertex subset."""
        if self.is_void():
            return []
        if k == 0:
            return [frozenset()]
        subsets = {c for f in self.facets if len(f) >= k for c in combinations(sorted(f), k)}
        return [frozenset(c) for c in sorted(subsets)]


    def link(self, w: Iterable[int]) -> "SimplicialComplex":
        fw = frozenset(w)
        if not self.has_face(fw):
            raise RingError("link requested at a non-face")
        # no maximality filter: the facets are distinct and an antichain, and
        # so are their links, since F - w <= G - w with w <= F, G gives F <= G
        star = [f - fw for f in self.facets if fw <= f]
        return SimplicialComplex(self.n_vertices, tuple(sorted(star, key=_facet_key)))

    def is_cone(self) -> bool:
        """Some vertex lies in every facet (then all reduced cohomology is 0)."""
        if self.is_void() or self.is_irrelevant():
            return False
        common = set(self.facets[0])
        for f in self.facets[1:]:
            common &= f
            if not common:
                return False
        return bool(common)


def complex_of(I: MonomialIdeal) -> SimplicialComplex:
    """The complex whose non-faces are the supports of I's generators.

    I must be squarefree and proper; the zero ideal gives the full simplex.
    The two 2^n mask scans check the soft deadline once per 1,024 masks.
    """
    if not I.is_squarefree():
        raise RingError("complex_of needs a squarefree ideal")
    if not I.is_proper():
        raise ImproperIdealError("complex_of needs a proper ideal")
    n = I.ctx.n
    if n > 20:
        raise BudgetExceeded("complex_of vertex budget", n, 20)
    nonfaces = [0] * len(I.min_gens)
    for k, g in enumerate(I.min_gens):
        m = 0
        for i in mono_support(g):
            m |= 1 << i
        nonfaces[k] = m
    is_face = [True] * (1 << n)
    for mask in range(1 << n):
        if mask and not mask & 1023:
            check_deadline("complex_of mask scan")
        for nf in nonfaces:
            if mask & nf == nf:
                is_face[mask] = False
                break
    facets = []
    for mask in range(1 << n):
        if mask and not mask & 1023:
            check_deadline("complex_of mask scan")
        if not is_face[mask]:
            continue
        maximal = True
        for i in range(n):
            if not mask & (1 << i) and is_face[mask | (1 << i)]:
                maximal = False
                break
        if maximal:
            facets.append(frozenset(i for i in range(n) if mask & (1 << i)))
    return SimplicialComplex.from_facets(n, facets)


# ---------------------------------------------------------------------------
# Exact ranks.

def _rank_exact(rows: Sequence[Sequence]) -> int:
    mat = [list(map(Fraction, r)) for r in rows if any(r)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        prow = [v * inv for v in mat[rank]]
        mat[rank] = prow
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [a - c * b for a, b in zip(mat[r], prow)]
        rank += 1
        col += 1
    return rank


def _rank_gf2(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows given as int bitsets, by XOR elimination
    against one pivot row per lowest set bit."""
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            low = r & -r
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                break
            r ^= p
    return len(pivots)


def _coboundary(faces_k: list[frozenset], faces_k1: list[frozenset]) -> list[list[int]]:
    """Matrix of d: C^k -> C^{k+1}; rows indexed by (k+1)-faces."""
    index = {f: i for i, f in enumerate(faces_k)}
    rows = []
    for g in faces_k1:
        row = [0] * len(faces_k)
        verts = sorted(g)
        for pos, v in enumerate(verts):
            sub = g - {v}
            j = index.get(sub)
            if j is not None:
                row[j] = -1 if pos % 2 else 1
        rows.append(row)
    return rows


class CohomologyProfile:
    """Reduced cohomology ranks over Q, indexed by degree (nonzero only)."""

    __slots__ = ("ranks",)

    def __init__(self, ranks: dict[int, int]) -> None:
        self.ranks = {j: r for j, r in ranks.items() if r}

    def rank(self, j: int) -> int:
        return self.ranks.get(j, 0)

    def nonzero_degrees(self) -> list[int]:
        return sorted(self.ranks)

    def euler_reduced(self) -> int:
        return sum((-1) ** j * r for j, r in self.ranks.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, CohomologyProfile) and self.ranks == other.ranks

    def __repr__(self) -> str:
        return f"CohomologyProfile({self.ranks})"


def reduced_cohomology(cx: SimplicialComplex) -> CohomologyProfile:
    """Full reduced cohomology of the complex, computed exactly."""
    if cx.is_void():
        return CohomologyProfile({})
    if cx.is_irrelevant():
        return CohomologyProfile({-1: 1})
    faces: dict[int, list[frozenset]] = {}
    for k in range(0, cx.dim + 2):
        faces[k] = cx.faces_of_size(k)
    ranks: dict[int, int] = {}
    d_rank: dict[int, int] = {}
    # degree j cochains live on faces of size j+1
    for j in range(-1, cx.dim + 1):
        rows = _coboundary(faces.get(j + 1, []), faces.get(j + 2, []))
        d_rank[j] = _rank_exact(rows) if rows else 0
    for j in range(-1, cx.dim + 1):
        dim_cj = len(faces.get(j + 1, []))
        h = dim_cj - d_rank[j] - d_rank.get(j - 1, 0)
        if h:
            ranks[j] = h
    return CohomologyProfile(ranks)


class _LinkScanner:
    """Lazy per-link cohomology: GF(2) bitset ranks as the vanishing filter,
    exact ranks only where the filter leaves a nonzero bound."""

    def __init__(self, cx: SimplicialComplex) -> None:
        self.cx = cx
        self._faces: dict[int, list[frozenset]] = {}
        self._dr_filter: dict[int, int] = {}
        self._dr_exact: dict[int, int] = {}

    def faces(self, k: int) -> list[frozenset]:
        if k not in self._faces:
            self._faces[k] = self.cx.faces_of_size(k)
        return self._faces[k]

    def rank_filter(self, j: int) -> int:
        if j not in self._dr_filter:
            index = {f: 1 << i for i, f in enumerate(self.faces(j + 1))}
            rows = (sum(index[g - {v}] for v in g) for g in self.faces(j + 2))
            self._dr_filter[j] = _rank_gf2(rows)
        return self._dr_filter[j]

    def rank_exact(self, j: int) -> int:
        if j not in self._dr_exact:
            rows = _coboundary(self.faces(j + 1), self.faces(j + 2))
            self._dr_exact[j] = _rank_exact(rows) if rows else 0
        return self._dr_exact[j]

    def h_nonzero(self, j: int) -> bool:
        dim_cj = len(self.faces(j + 1))
        if dim_cj == 0:
            return False
        # GF(2) ranks never exceed the rational ones, so this difference is an
        # upper bound for the true rank: zero here is a proof of vanishing
        if dim_cj - self.rank_filter(j) - self.rank_filter(j - 1) == 0:
            return False
        return dim_cj - self.rank_exact(j) - self.rank_exact(j - 1) > 0


def depth_squarefree(I: MonomialIdeal) -> int:
    """depth of R/I for squarefree proper I.

    The graded pieces of local cohomology at the irrelevant ideal are the
    reduced link cohomologies, so depth is the least |W| + 1 + j over faces W
    and degrees j with nonzero reduced cohomology of the link at W; facet
    links contribute their size, which seeds the minimum.
    """
    cx = complex_of(I)
    if cx.is_irrelevant():
        return 0
    best = min(len(f) for f in cx.facets)
    size = 0
    while size < best:
        for w in cx.faces_of_size(size):
            if size >= best:
                break
            check_deadline("depth links")
            link = cx.link(w)
            if link.is_cone():
                continue
            top = min(best - size - 2, link.dim)
            scan = _LinkScanner(link)
            for j in range(0, top + 1):
                if scan.h_nonzero(j):
                    cand = size + 1 + j
                    if cand < best:
                        best = cand
                    break
        size += 1
    return best


def depth_monomial(J: MonomialIdeal) -> int:
    """depth of R/J for proper monomial J, via polarization.

    Polarization adds one variable per repeated exponent and shifts depth by
    exactly that count.
    """
    if not J.is_proper():
        raise ImproperIdealError("depth needs a proper ideal")
    pol = polarize(J)
    if pol.ctx.n > POLARIZATION_VAR_BUDGET:
        raise BudgetExceeded("polarization variable budget", pol.ctx.n, POLARIZATION_VAR_BUDGET)
    return depth_squarefree(pol.ideal) - pol.added


def dim_monomial(J: MonomialIdeal) -> int:
    return min_assh_dim(J).dim


def is_cohen_macaulay_ideal(J: MonomialIdeal) -> bool:
    """Whether R/J is Cohen-Macaulay (depth equals dimension)."""
    return depth_monomial(J) == dim_monomial(J)


def cd_squarefree(a: MonomialIdeal) -> int:
    """Cohomological dimension of a squarefree ideal acting on the full ring.

    For squarefree ideals this equals the projective dimension of R/a,
    i.e. n - depth R/a.
    """
    if a.is_zero():
        return 0
    if not a.is_proper():
        raise ImproperIdealError("cd needs a proper ideal")
    return a.ctx.n - depth_squarefree(a)


def cd_on_quotient(a: MonomialIdeal, p: MonomialPrime) -> int:
    """Cohomological dimension of a acting on R/p, for a squarefree, p monomial.

    Variables of p are killed; generators meeting p map to zero.
    """
    if not a.is_squarefree():
        raise RingError("cd_on_quotient needs a squarefree ideal")
    ctx = a.ctx
    kill = set(p.vars)
    keep = [i for i in range(ctx.n) if i not in kill]
    if not keep:
        return 0  # the quotient is the ground field
    small = RingCtx(tuple(ctx.var_names[i] for i in keep))
    pos = {old: new for new, old in enumerate(keep)}
    exps = []
    for g in a.min_gens:
        if any(i in kill for i in mono_support(g)):
            continue
        e = [0] * small.n
        for i in mono_support(g):
            e[pos[i]] = 1
        exps.append(tuple(e))
    image = MonomialIdeal.from_exponents(small, exps)
    if image.is_zero():
        return 0
    if not image.is_proper():
        log.warning("cd_on_quotient: image is the unit ideal; returning 0 by convention")
        return 0
    return cd_squarefree(image)
