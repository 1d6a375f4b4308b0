"""Exact graph-homomorphism counting and biclique dominance analysis.

The library computes exact homomorphism counts between small graphs (plain
and 2-coloured bipartite), analyzes which biclique phases dominate decorated
complete-bipartite gadgets, classifies full non-trivial targets into the
reduction stages those dominance patterns support, searches for separating
test graphs, and materializes the reduction gadgets whose phase counts obey
exact closed forms.
"""

from .bicliques import (
    DominanceContext,
    ExponentPair,
    GammaValue,
    ZetaProfile,
    all_bicliques,
    analyze,
    dominating_set,
    dominating_set_rational,
    exponent_pair,
    extremal_pair,
    gamma,
    gamma_dominating_set,
    maximal_bicliques,
    zeta_profile,
)
from .classifier import (
    ColReduction,
    HardnessCaseReport,
    case2_identity_check,
    classify,
    reduce_col_to_fixcol,
)
from .counting import (
    WorkBudgetExceeded,
    contractions,
    count_bis,
    count_bis_naive,
    count_col,
    count_col_naive,
    count_fixcol,
    count_fixcol_naive,
    count_inj_fixcol,
    partition_sum_check,
    partition_sum_checks,
    set_partitions,
    surjection_count,
)
from .distinguisher import (
    DistinguisherResult,
    TargetsIsomorphic,
    build_selector,
    find_pair_distinguisher,
    recount_verify,
)
from .exactcmp import (
    EQUAL,
    GREATER,
    LESS,
    ComparisonUncertain,
    LogForm,
    certified_compare,
    log_ratio_as_fraction,
)
from .gadgets import (
    BracketReport,
    GadgetParams,
    PhaseReport,
    approx_bracket_report,
    build_bis_gadget,
    build_col_gadget,
    build_kab_gamma_gadget,
    dirichlet,
    phase_decompose_bis,
    phase_decompose_col,
    phase_decompose_kab,
    xz_bound_check,
)
from .graphs import (
    Graph,
    ParseError,
    TwoColouredGraph,
    bip_double_cover,
    canonical_form,
    canonical_side_bounded,
    canonical_two_coloured,
    colour_iso,
    component_graphs,
    disjoint_union,
    induced_subgraph,
    iso_colour_preserving,
    parse_bigraph,
    parse_graph,
    quotient,
    strip_isolated_right,
    tensor,
    two_colourings,
)
from .structure import (
    Biclique,
    ComponentInfo,
    DegreeProfile,
    FullnessProfile,
    InvariantViolation,
    PreconditionError,
    classify_components,
    degree_machinery,
    derived_subgraph,
    fullness,
    h_uv,
    is_maximal_biclique,
    make_biclique,
    neighbourhood_joint,
    neighbourhood_union,
)

__version__ = "0.1.0"
