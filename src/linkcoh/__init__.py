"""Exact commutative algebra over Q[x1..xn].

The package computes with ideals and cyclic modules over rational
polynomial rings: Groebner bases with budgets, monomial prime structure
(associated primes, irreducible decomposition, radicals), Stanley-Reisner
depth and cohomological dimension, Koszul grade and regular sequences,
linkage of ideals over cyclic modules, attached primes of top local
cohomology, and a randomized batch verifier for a small catalog of
structural claims about all of the above.  Everything is exact; nothing
floats.
"""

from .groebner import (
    BudgetExceeded,
    Ideal,
    eliminate,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    ideal_quotient,
    ideal_sum,
    is_proper,
    radical_member,
    reduced_gb,
    saturate,
    set_limits,
)
from .invariants import (
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
    ass_member,
    ext1_selfdual,
    hom_annihilator,
    is_regular_sequence,
    koszul_grade,
    maximal_ideal,
    module_ass,
)
from .monomial import (
    MonomialIdeal,
    MonomialPrime,
    PrimeSet,
    as_monomial,
    associated_primes,
    hom_ass,
    irreducible_decomposition,
    min_assh_dim,
    mono_radical,
)
from .ring import ParseError, Polynomial, RingCtx, RingError, parse_poly, ring
from .session import SessionFile, parse_session, parse_session_text
from .simplicial import cd_squarefree, depth_monomial
from .theorems import CLAIMS, InstanceParams, Verdict, run_claim

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CLAIMS",
    "CyclicModule",
    "GenParams",
    "Ideal",
    "InstanceParams",
    "LinkageCertificate",
    "LinkageError",
    "MonomialIdeal",
    "MonomialPrime",
    "ParseError",
    "Polynomial",
    "PrimeSet",
    "RingCtx",
    "RingError",
    "SessionFile",
    "Verdict",
    "as_monomial",
    "ass_formal_zeroth",
    "ass_member",
    "assh",
    "associated_primes",
    "att_top",
    "cd_squarefree",
    "check_linked",
    "depth_monomial",
    "eliminate",
    "ext1_selfdual",
    "height_in_module",
    "hom_annihilator",
    "hom_ass",
    "ideal_equal",
    "ideal_intersect",
    "ideal_member",
    "ideal_quotient",
    "ideal_sum",
    "irreducible_decomposition",
    "is_equidimensional",
    "is_proper",
    "is_regular_sequence",
    "koszul_grade",
    "link_of",
    "maximal_ideal",
    "min_assh_dim",
    "minimal_primes_in_core_ass",
    "module_ass",
    "mono_radical",
    "parse_poly",
    "parse_session",
    "parse_session_text",
    "radical_member",
    "random_linked_pairs",
    "reduced_gb",
    "ring",
    "run_claim",
    "saturate",
    "set_limits",
    "support_identity",
]
