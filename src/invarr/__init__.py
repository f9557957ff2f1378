"""Statistics of permutation inversion arrangements.

Six quantities attached to a permutation w of {1..n}:

    wk(w)    elements below w in left weak order
    br(w)    elements below w in Bruhat order
    prod(w)  product of (Lehmer code entries + 1)
    ao(w)    acyclic orientations of the inversion graph
    rk(w)    rook placements on the complement of the south-west diagram
    re(w)    regions of the inversion hyperplane arrangement

linked by wk <= prod <= rk = ao = re <= br, with each equality
characterized by pattern avoidance.  The verify module sweeps whole
symmetric groups checking every relation; the invarr CLI exposes the
same machinery.
"""

from .arrangement import (
    InversionGraph,
    chromatic_polynomial,
    count_acyclic_orientations,
    count_acyclic_orientations_by_enumeration,
    distance_enumerator,
    distance_of_regions,
    inversion_graph,
    regions,
    regions_by_sort,
)
from .orders import (
    IntervalSummary,
    bruhat_interval,
    bruhat_interval_by_chains,
    code_monotone_check,
    product_q_formula,
    weak_interval,
    weak_leq,
    witness_231_reduction,
)
from .perm import (
    PATTERN_231,
    PATTERN_312,
    POINCARE_MATCH_PATTERNS,
    REGION_BRUHAT_EQUALITY_PATTERNS,
    WEAK_EQUALITY_PATTERNS,
    Permutation,
    avoids_all,
    code_product,
    contains_pattern,
    inverse,
    lehmer_code,
    parse_permutation,
    unrank_lex,
)
from .qpoly import QPolynomial
from .rook import (
    Board,
    count_rook_placements_by_backtracking,
    is_right_justified_ferrers,
    rook_count,
    southwest_diagram,
)
from .verify import (
    OracleCheckResult,
    StatRecord,
    SweepReport,
    emit_report,
    oracle_checks,
    stat_record,
    sweep,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "Board",
    "IntervalSummary",
    "InversionGraph",
    "OracleCheckResult",
    "PATTERN_231",
    "PATTERN_312",
    "POINCARE_MATCH_PATTERNS",
    "Permutation",
    "QPolynomial",
    "REGION_BRUHAT_EQUALITY_PATTERNS",
    "StatRecord",
    "SweepReport",
    "WEAK_EQUALITY_PATTERNS",
    "avoids_all",
    "bruhat_interval",
    "bruhat_interval_by_chains",
    "chromatic_polynomial",
    "code_monotone_check",
    "code_product",
    "contains_pattern",
    "count_acyclic_orientations",
    "count_acyclic_orientations_by_enumeration",
    "count_rook_placements_by_backtracking",
    "distance_enumerator",
    "distance_of_regions",
    "emit_report",
    "inverse",
    "inversion_graph",
    "is_right_justified_ferrers",
    "lehmer_code",
    "oracle_checks",
    "parse_permutation",
    "product_q_formula",
    "regions",
    "regions_by_sort",
    "rook_count",
    "southwest_diagram",
    "stat_record",
    "sweep",
    "unrank_lex",
    "weak_interval",
    "weak_leq",
    "witness_231_reduction",
    "write_report",
]
