"""Virtual Betti numbers and mod-2 homology for combinatorial models of
real algebraic varieties: exact GF(2) linear algebra, simplicial
(co)homology, scissor-calculus evaluation, Mayer-Vietoris spectral
sequences, and weight-filtration arithmetic."""

from .errors import VirtBettiError, Verdict
from .gf2 import GF2Matrix, rank
from .polynomial import IntPolynomial, NEG_INFINITY, degree_and_leading, parse_polynomial
from .simplicial import (
    BettiVector,
    PairSpace,
    SimplicialComplex,
    Subcomplex,
    disjoint_union,
    product_complex,
)
from .scissor import (
    Atom,
    AtomRegistry,
    Blowup,
    ClosedDifference,
    DisjointUnion,
    Empty,
    Product,
    check_blowup_relation,
    degree_report,
    evaluate_beta,
    evaluate_chi_c,
)
from .stratified import (
    CompactModel,
    DeclaredBeta,
    OpenModel,
    StratifiedSpec,
    StratumRecord,
    beta_of_stratified,
    beta_of_stratum,
    inclusion_exclusion,
    refinement_check,
)
from .spectral import Arrangement, MVSpectralSequence, row_alternating_sums
from .weights import (
    LinearConstraint,
    WeightArray,
    WeightSystemInput,
    check_conditions,
    constraint_filter,
    mv_profile_vs_virtual_betti,
    solve_weight_system,
)
from .scene import Scene, load_scene, dump_scene, scene_from_dict, scene_to_dict

__version__ = "0.1.0"
