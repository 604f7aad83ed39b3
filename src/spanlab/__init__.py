"""spanlab: uniform spanning trees, exact counts, and leaf reconfiguration.

A small laboratory for randomized spanning-tree algorithms on graphs of
large minimum degree: exact Kirchhoff-style counting, three independent
uniform samplers, a reversible leaf-reconfiguration move, canonical tree
codes, and Monte Carlo anticoncentration experiments over the degree
sequences that reconfiguration produces.
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    GraphSpec,
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    generate,
    gnp_min_degree,
    path_graph,
    random_regular,
    read_graph_file,
    write_graph_file,
)
from .trees import NotATreeError, SpanningTree
from .exact import (
    CapExceededError,
    MatrixTooLargeError,
    bareiss_determinant,
    count_spanning_trees,
    degree_product,
    enumerate_spanning_trees,
    kostochka_upper_bound_holds,
)
from .sampling import (
    AttemptsExhaustedError,
    LeafStatsReport,
    leaf_stats,
    one_out_census,
    one_out_leaf_probability,
    neighbour_degree_sum,
    sample_aldous_broder,
    sample_rejection_one_out,
    sample_wilson,
)
from .reconfig import (
    HIGH_BRANCH,
    LOW_BRANCH,
    AuditReport,
    StrategyOutcome,
    audit_reversibility,
    reconfigure,
    sample_vertex_subset,
    select_leaves,
    validate_selection,
)
from .canonical import (
    canonical_code,
    code_from_neighbors,
    code_from_parents,
    count_non_isomorphic,
    histogram_key,
)
from .experiments import (
    BipartiteOneOutInstance,
    CollisionReport,
    estimate_max_point_mass,
    exact_vector_distribution,
    instance_from_selection,
    multinomial_baseline,
    pipeline_collision,
    pipeline_reconfigured_tree,
    sample_degree_vector,
    scaling_experiment,
    uniformity_experiment,
)
from .rng import resolve_seed, stream
