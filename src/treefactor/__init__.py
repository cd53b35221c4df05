"""Exact weighted spanning tree enumerators and their factorizations.

Sparse Laurent polynomial arithmetic over the integers, graph Laplacians
under several symbolic weight schemes, brute-force tree enumeration as an
independent oracle, closed-form products, and mechanical verification of
the factorization and nullvector claims tying them together.
"""

from .polyring import (
    DivisionByZero,
    ExponentOverflow,
    Family,
    Monomial,
    NonInvertibleSubstitution,
    NotDivisible,
    Polynomial,
    Variable,
    div_exact,
    evar,
    poly_product,
    poly_sum,
    q,
    x,
    xd,
    y,
)
from .graphs import (
    Edge,
    EmptyFactor,
    Graph,
    InvalidSize,
    NotThresholdSequence,
    Partition,
    SpanningTree,
    cartesian_product,
    complete_graph,
    conjugate,
    connected_threshold_sequences,
    durfee,
    hypercube,
    is_connected,
    multigraph_kn,
    threshold_graph,
)
from .laplacian import (
    IndexOutOfRange,
    PolyMatrix,
    SchemeMismatch,
    WeightScheme,
    determinant,
    edge_weight,
    reduce_matrix,
    tree_enumerator_det,
    weighted_laplacian,
)
from .treebrute import (
    DEFAULT_CAP,
    CapExceeded,
    DisconnectedGraph,
    SCHEME_FOR_STATISTIC,
    TreeStatistic,
    all_spanning_trees,
    enumerate_sum,
    spanning_tree_count,
    statistic_monomial,
)
from .formulas import (
    Disconnected,
    FormMismatch,
    NotDivisibleCount,
    Spectrum,
    cayley_prufer_rhs,
    coordinate_sum,
    count_from_spectrum,
    cube_rhs,
    cube_subset_factor,
    decoupled_enumerator_factors,
    directions_rhs,
    merris_count,
    product_spectrum,
    threshold_degree_rhs,
    threshold_f_factor,
    threshold_g_factor,
    threshold_rewrite_rhs,
    threshold_rhs,
)
from .verify import (
    Verdict,
    conjecture_scan,
    decoupled_enumerator,
    report_json,
    verify_cayley,
    verify_cube,
    verify_cube_nullvector,
    verify_decoupled_nullvectors,
    verify_directions,
    verify_divisibility,
    verify_identity,
    verify_threshold,
    verify_threshold_nullvectors,
)

__version__ = "0.1.0"
