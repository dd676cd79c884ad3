"""Stanley-Reisner machinery: facets of the complexes of squarefree ideals,
exact reduced cohomology of their links over Q, depth of monomial quotients
via Hochster's formula for local cohomology, and cohomological dimension
along the squarefree path.

Depth of R/J for a monomial J that is not squarefree needs no polarization:
Takayama's formula writes each graded piece of H^i_m(R/J) as the reduced
homology of a degree complex (Takayama, Bull. Math. Soc. Sci. Math.
Roumanie 48, 2005), and each degree complex is a link in the Stanley-Reisner
complex of a colon radical √(J : x^b) (Minh-Trung, J. Algebra 322, 2009).
So `depth_monomial` is the least `depth_squarefree` over the finitely many
distinct radicals, all on the n original vertices.

The facets of the Stanley-Reisner complex of a squarefree I are the
complements of the minimal vertex covers of its generator supports
(Bruns-Herzog, Cohen-Macaulay Rings, 5.1); `_facet_masks` reads them off
`monomial.min_vertex_covers`, the bitmask cover enumeration that also gives
the minimal primes.

Everything here works on those masks.  The depth scan (`depth_squarefree`)
reads them directly: facets, faces and links are ints whose set bits are the
vertices, the link at a face w is ``[f ^ w for f in facets if f & w == w]``,
and a link is a cone when the AND of its facets is nonzero.  Within one
call, each non-cone link is relabelled monotonically onto vertices 0..k-1
and looked up in a dict of scanners, so links of the same shape share one
set of ranks; the dict is dropped when the call returns.  A face of size s
can only give depth candidates of at least s + 1, so the scan stops as soon
as the best candidate is that small.  A link that can only lower the best
candidate through H~^0 is decided inline by whether it is connected, with no
relabelling and no scanner.  The plain route on frozensets (complexes,
links, exact reduced cohomology) that the tests compare this scan against
lives in `tests/oracles.py`.

Rank decisions are exact.  Over every field rank d_-1 = 1 and rank d_0 =
V - c (V vertices, c connected components), so each scanner starts with
those two and H~^0 needs no matrix.  A GF(2) rank is used only as a
*vanishing filter*: each coboundary row is a Python int whose set bits are
the columns it touches (signs vanish mod 2), and elimination is XOR against
one pivot row per lowest set bit.  Since d_j d_(j-1) = 0, rank d_j is at
most dim C^j - rank d_(j-1), and the elimination stops once it holds that
many pivots; the rank it returns is still the true one.  The rank of an
integer matrix over any F_p is at most its rank over Q, so the cohomology
rank computed mod 2 bounds the rational one from above and a zero there
proves vanishing.  Every nonzero rank that influences an answer is
recomputed with Fraction arithmetic, which also clears the 2-torsion (for
example RP^2) that the filter cannot see past.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

from .groebner import BudgetExceeded, check_deadline
from .monomial import ImproperIdealError, MonomialIdeal, min_vertex_covers
from .ring import RingError, mono_mask

_DEBUG = 10  # logging.DEBUG


class _Log:
    """The `linkcoh` logger of `logging`, reached only once the application
    has imported `logging`: until then no handler can be configured, so a
    debug line has nowhere to go, and the package never imports `logging`
    on its own account.  Shared by simplicial.py and modules.py."""

    __slots__ = ()

    def isEnabledFor(self, level: int) -> bool:
        logging = sys.modules.get("logging")
        return logging is not None and logging.getLogger("linkcoh").isEnabledFor(level)

    def debug(self, msg: str, *args) -> None:
        logging = sys.modules.get("logging")
        if logging is not None:
            # the record names the caller's line, not this method's
            logging.getLogger("linkcoh").debug(msg, *args, stacklevel=2)


log = _Log()


def _facet_masks(I: MonomialIdeal) -> list[int]:
    """The facets of the complex of the squarefree proper I, as vertex masks.

    A facet is the complement of a minimal vertex cover of the generator
    supports (Bruns-Herzog, Cohen-Macaulay Rings, 5.1), and
    `min_vertex_covers` enumerates those, checking the soft deadline once
    per branch.  More than 20 vertices are refused outright, which bounds
    the link scan that reads these facets.  The messages name the
    Stanley-Reisner facets, and a budget trip prints them on the command
    line.
    """
    if not I.is_squarefree():
        raise RingError("Stanley-Reisner facets need a squarefree ideal")
    if not I.is_proper():
        raise ImproperIdealError("Stanley-Reisner facets need a proper ideal")
    n = I.ctx.n
    if n > 20:
        raise BudgetExceeded("Stanley-Reisner vertex budget", n, 20)
    supports = [mono_mask(g) for g in I.min_gens]
    full = (1 << n) - 1
    return [full ^ c for c in min_vertex_covers(supports, "Stanley-Reisner vertex covers")]


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


def _rank_gf2(rows: Iterable[int], cap: int) -> int:
    """Rank over GF(2) of rows given as int bitsets, by XOR elimination
    against one pivot row per lowest set bit.

    `cap` must bound the rank from above; the elimination stops as soon as
    it holds that many pivots, so the value returned is the true rank."""
    if cap <= 0:
        return 0
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            low = r & -r
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                if len(pivots) == cap:
                    return cap
                break
            r ^= p
    return len(pivots)


def _bits(m: int) -> tuple[int, ...]:
    """The set bits of m as single-bit masks, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low)
        m ^= low
    return tuple(out)


def _compress(facets: list[int]) -> tuple[int, ...]:
    """Facet masks relabelled onto vertices 0..k-1 in their order, sorted.

    The relabelling is monotone, so sorted vertex tuples, coboundary signs
    and ranks carry over: two links with the same key have the same
    cohomology."""
    union = 0
    for f in facets:
        union |= f
    gaps = ~union & ((1 << union.bit_length()) - 1)
    while gaps:
        # squeeze out the highest unused vertex: the bits above it move down
        g = 1 << (gaps.bit_length() - 1)
        gaps ^= g
        low = g - 1
        facets = [f & low | f >> 1 & ~low for f in facets]
    return tuple(sorted(facets))


def _component_count(facets: Iterable[int]) -> int:
    """The number of connected components of the complex with these facet
    masks; the empty facet of {∅} spans none."""
    comps: list[int] = []
    for f in facets:
        if f:
            joined = f
            apart = []
            for c in comps:
                if c & f:
                    joined |= c
                else:
                    apart.append(c)
            apart.append(joined)
            comps = apart
    return len(comps)


class _LinkScanner:
    """Lazy cohomology of one complex given by facet masks: GF(2) bitset
    ranks as the vanishing filter, exact ranks only where the filter leaves
    a nonzero bound.  Each face is split into its bits once.

    Over every field rank d_-1 = 1 and rank d_0 = V - c, for V vertices in c
    connected components (H~^0 has dimension c - 1), so both rank tables
    start with these two and H~^0 is decided by c alone.  `capped` counts
    the GF(2) eliminations that stopped at their bound."""

    def __init__(self, facets: tuple[int, ...]) -> None:
        self.facets = facets
        self.dim = max(f.bit_count() for f in facets) - 1
        self._split: dict[int, tuple[int, ...]] = {f: _bits(f) for f in facets}
        self._faces: dict[int, list[int]] = {}
        union = 0
        for f in facets:
            union |= f
        vertices = union.bit_count()
        self.components = _component_count(facets)
        low = {-1: min(vertices, 1), 0: vertices - self.components}
        self._dr_filter: dict[int, int] = dict(low)
        self._dr_exact: dict[int, int] = dict(low)
        self._h: dict[int, bool] = {}
        self.capped = 0

    def faces(self, k: int) -> list[int]:
        """The k-vertex faces, in lexicographic order of their vertex tuples
        (the order of `faces_of_size` of the frozenset complex in
        `tests/oracles.py`)."""
        faces = self._faces.get(k)
        if faces is None:
            found: dict[int, tuple[int, ...]] = {}
            for f in self.facets:
                for c in combinations(self._split[f], k):
                    found[sum(c)] = c
            self._split.update(found)
            faces = self._faces[k] = sorted(found, key=found.__getitem__)
        return faces

    def rank_filter(self, j: int) -> int:
        if j not in self._dr_filter:
            index = {f: 1 << i for i, f in enumerate(self.faces(j + 1))}
            split = self._split
            rows = (sum(index[g ^ b] for b in split[g]) for g in self.faces(j + 2))
            # d_j d_(j-1) = 0 also mod 2, so the image of d_(j-1) lies in the
            # kernel of d_j and bounds its rank
            cap = len(index) - self.rank_filter(j - 1)
            rank = self._dr_filter[j] = _rank_gf2(rows, cap)
            self.capped += rank == cap
        return self._dr_filter[j]

    def rank_exact(self, j: int) -> int:
        if j not in self._dr_exact:
            index = {f: i for i, f in enumerate(self.faces(j + 1))}
            rows = []
            for g in self.faces(j + 2):
                row = [0] * len(index)
                for pos, b in enumerate(self._split[g]):
                    row[index[g ^ b]] = -1 if pos % 2 else 1
                rows.append(row)
            self._dr_exact[j] = _rank_exact(rows) if rows else 0
        return self._dr_exact[j]

    def h_nonzero(self, j: int) -> bool:
        verdict = self._h.get(j)
        if verdict is None:
            if j == 0:
                verdict = self.components > 1
            else:
                dim_cj = len(self.faces(j + 1))
                # GF(2) ranks never exceed the rational ones, so this difference
                # is an upper bound for the true rank: zero proves vanishing
                verdict = (
                    dim_cj > 0
                    and dim_cj - self.rank_filter(j) - self.rank_filter(j - 1) > 0
                    and dim_cj - self.rank_exact(j) - self.rank_exact(j - 1) > 0
                )
            self._h[j] = verdict
        return verdict


def depth_squarefree(I: MonomialIdeal) -> int:
    """depth of R/I for squarefree proper I.

    The graded pieces of local cohomology at the irrelevant ideal are the
    reduced link cohomologies (Hochster), so depth is the least |W| + 1 + j
    over faces W and degrees j with nonzero reduced cohomology of the link
    at W; facet links contribute their size, which seeds the minimum.

    Faces and links are vertex bitmasks: the link at w is the facets over w
    with w removed, and it is a cone (no cohomology) when its facets share a
    vertex.  The other links are relabelled onto vertices 0..k-1 and looked
    up in a memo of scanners that lives for this call only, so each distinct
    link shape is ranked once.  A face of size s gives candidates of at
    least s + 1, so the scan stops once the best candidate is that small;
    when only s + 1 itself is left to beat, the link matters only through
    H~^0, and it is nonzero exactly when the link is disconnected.
    """
    if not I.is_squarefree():
        raise RingError("depth_squarefree needs a squarefree ideal")
    facets = _facet_masks(I)
    best = min(f.bit_count() for f in facets)
    root = _LinkScanner(_compress(facets))
    memo = {root.facets: root}
    visited = non_cone = connectivity = 0
    size = 0
    while size < best:
        for w in root.faces(size):
            check_deadline("depth links")
            if best <= size + 1:
                break
            visited += 1
            link = [f ^ w for f in root.facets if f & w == w]
            common = -1
            for f in link:
                common &= f
            if common:
                continue
            non_cone += 1
            top = best - size - 2
            if not top:
                # only H~^0 could lower the best: it is nonzero exactly when
                # the link is disconnected
                connectivity += 1
                if _component_count(link) > 1:
                    best = size + 1
                continue
            key = _compress(link)
            scan = memo.get(key)
            if scan is None:
                scan = memo[key] = _LinkScanner(key)
            for j in range(min(top, scan.dim) + 1):
                if scan.h_nonzero(j):
                    best = size + 1 + j
                    break
        size += 1
    if log.isEnabledFor(_DEBUG):
        log.debug(
            "depth links: %d faces, %d non-cone, %d by connectivity, %d distinct scanned, "
            "%d GF(2) ranks (%d stopped at the bound), %d exact ranks",
            visited,
            non_cone,
            connectivity,
            len(memo),
            # the two closed-form ranks every scanner starts with are not counted
            sum(len(s._dr_filter) - 2 for s in memo.values()),
            sum(s.capped for s in memo.values()),
            sum(len(s._dr_exact) - 2 for s in memo.values()),
        )
    return best


def depth_monomial(J: MonomialIdeal) -> int:
    """depth of R/J for proper monomial J, from the radicals of its colons
    by monomials, on the n original vertices.

    Takayama's formula gives each graded piece H^i_m(R/J)_a as the reduced
    homology of a degree complex (Takayama, Bull. Math. Soc. Sci. Math.
    Roumanie 48, 2005); that complex is a link in the Stanley-Reisner
    complex of √(J : x^b), b the positive part of a (Minh-Trung, J. Algebra
    322, 2009).  So depth R/J is the least depth R/√(J : x^b) over x^b ∉ J.
    The piece vanishes once some a_j reaches ρ_j, the largest exponent of
    x_j among J's generators, so b_j < ρ_j; and the radical only changes
    where some generator's exponent g_j > b_j stops holding, so b_j runs over
    0 and the exponents of x_j that occur below ρ_j.  √(J : x^b) is
    generated by the supports {j : g_j > b_j} over J's generators g (an
    empty one means x^b ∈ J); its minimal generators key it, and
    `depth_squarefree` runs once per distinct radical, on the facet masks of
    its minimal vertex covers, so more than 20 variables trip the vertex
    budget of `_facet_masks`.  The debug line
    `depth colon radicals: V exponent vectors, K distinct` counts the
    vectors outside J and the radicals scanned.
    """
    if not J.is_proper():
        raise ImproperIdealError("depth needs a proper ideal")
    ctx, gens = J.ctx, J.min_gens
    choices = []
    for j in range(ctx.n):
        rho = max((g[j] for g in gens), default=0)
        choices.append(sorted({0} | {g[j] for g in gens if g[j] < rho}))
    depths: dict[tuple, int] = {}
    vectors = 0
    for b in product(*choices):
        check_deadline("depth colon radicals")
        radical = MonomialIdeal.from_exponents(
            ctx, [tuple(int(x > y) for x, y in zip(g, b)) for g in gens]
        )
        if radical.is_unit():
            continue  # some generator divides x^b, so x^b lies in J
        vectors += 1
        if radical.min_gens not in depths:
            depths[radical.min_gens] = depth_squarefree(radical)
    log.debug("depth colon radicals: %d exponent vectors, %d distinct", vectors, len(depths))
    # b = 0 lies outside the proper J, so there is at least one radical
    return min(depths.values())


def cd_squarefree(a: MonomialIdeal) -> int:
    """Cohomological dimension of a squarefree ideal acting on the full ring.

    For squarefree ideals this equals the projective dimension of R/a,
    i.e. n - depth R/a.
    """
    if not a.is_squarefree():
        raise RingError("cd_squarefree needs a squarefree ideal")
    if not a.is_proper():
        raise ImproperIdealError("cd needs a proper ideal")
    return a.ctx.n - depth_squarefree(a)
