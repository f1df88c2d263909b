"""Imbalanced low-degree partitions of Hamming graphs, exact degree and
sensitivity of functions on finite grids, and brute-force verification
oracles."""

from .bounds import (
    BoundsReport,
    cayley_degree_bound,
    check_partition,
    check_subgraph,
    complete_graph_imbalance,
    construction_degree_upper_bound,
    degree_one_imbalance,
    domination_threshold,
    lift_imbalance,
    markov_degree_lower_bound,
    sensitivity_floor,
    sigma_closed_form,
    sigma_report,
    theorem_imbalance_bound,
    tribes_degree_sensitivity,
)
from .errors import (
    BoundNotApplicableError,
    ContractViolationError,
    DEFAULT_VERTEX_CAP,
    InvalidInputError,
    ResourceLimitError,
)
from .functions import (
    FiniteFunction,
    GridPolynomial,
    RestrictionWitness,
    SensitivityBoundReport,
    boolean_restriction_witness,
    degree,
    indicator_decomposition,
    interpolant_terms,
    interpolate,
    lifted_tribes,
    local_sensitivity,
    sensitivity,
    tribes,
    verify_sensitivity_bound,
)
from .graph import (
    GraphParams,
    VertexSet,
    hamming_distance,
    independence_number,
    induced_max_degree,
    iter_vertices,
    neighbors,
    rank,
    unrank,
)
from .oracle import (
    FunctionCheckReport,
    SearchBudget,
    brute_force_metrics,
    exhaustive_function_check,
    min_max_degree_subsets,
    sigma_exact,
)
from .partitions import (
    Partition,
    PartitionMetrics,
    block_sum_map,
    complete_graph_partition,
    coordinate_blocks,
    degree_one_partition,
    lift_partition,
    low_degree_subgraph,
    part_vertex_set,
    partition_metrics,
    theorem_partition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
