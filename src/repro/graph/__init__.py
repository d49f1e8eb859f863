"""Graph substrate: containers, normalisation, generators and graph edits."""

from repro.graph.graph import AttributedGraph
from repro.graph.sparse import (
    SparseAdjacency,
    as_dense,
    feature_matrix,
    propagation_matrix,
    row_normalize,
)
from repro.graph.laplacian import (
    degree_vector,
    degree_matrix,
    normalize_adjacency,
    add_self_loops,
    graph_laplacian,
    laplacian_quadratic_form,
    laplacian_quadratic_form_dense,
)
from repro.graph.generators import (
    stochastic_block_model,
    degree_corrected_sbm,
    planted_partition_features,
    attributed_sbm_graph,
)
from repro.graph.ops import (
    add_random_edges,
    drop_random_edges,
    add_feature_noise,
    drop_random_features,
    edge_difference,
)
from repro.graph.stats import (
    edge_count,
    density,
    homophily,
    connected_components,
    star_subgraph_count,
)
from repro.graph.io import save_graph_npz, load_graph_npz

__all__ = [
    "AttributedGraph",
    "SparseAdjacency",
    "propagation_matrix",
    "feature_matrix",
    "row_normalize",
    "as_dense",
    "laplacian_quadratic_form_dense",
    "degree_vector",
    "degree_matrix",
    "normalize_adjacency",
    "add_self_loops",
    "graph_laplacian",
    "laplacian_quadratic_form",
    "stochastic_block_model",
    "degree_corrected_sbm",
    "planted_partition_features",
    "attributed_sbm_graph",
    "add_random_edges",
    "drop_random_edges",
    "add_feature_noise",
    "drop_random_features",
    "edge_difference",
    "edge_count",
    "density",
    "homophily",
    "connected_components",
    "star_subgraph_count",
    "save_graph_npz",
    "load_graph_npz",
]
