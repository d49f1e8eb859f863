"""The paper's primary contribution.

* :mod:`repro.core.sampling` — the sampling operator Ξ (Algorithm 1), a
  protection mechanism against Feature Randomness.
* :mod:`repro.core.graph_transform` — the graph operator Υ (Algorithm 2), a
  correction mechanism against Feature Drift.
* :mod:`repro.core.rethink` — :class:`RethinkTrainer`, which wraps any model
  of :mod:`repro.models` into its R- variant (Eq. 6).
* :mod:`repro.core.fr_fd` — the Λ_FR / Λ_FD diagnostics (Eqs. 4 and 7) and
  the elementary per-node metrics Λ'_FR / Λ'_FD (Definitions 1-2).
* :mod:`repro.core.losses` — the loss decompositions of Propositions 1-2 and
  Theorem 1.
* :mod:`repro.core.supervision` — clustering / supervision graphs and the
  Hungarian-aligned oracle assignment Q'.
"""

from repro.core.sampling import SamplingOperator, SamplingResult, select_reliable_nodes
from repro.core.graph_transform import GraphTransformOperator, build_clustering_oriented_graph
from repro.core.rethink import RethinkTrainer, RethinkConfig, RethinkHistory, rethink_hyperparameters
from repro.core.fr_fd import (
    gradient_cosine,
    feature_randomness_metric,
    feature_drift_metric,
    elementary_fr,
    elementary_fd,
    graph_filter_impact,
)
from repro.core.losses import (
    reconstruction_bce_sum,
    laplacian_term,
    reconstruction_remainder,
    kmeans_loss,
    combined_objective,
)
from repro.core.supervision import (
    clustering_graph,
    supervision_graph,
    aligned_oracle_assignments,
)

__all__ = [
    "SamplingOperator",
    "SamplingResult",
    "select_reliable_nodes",
    "GraphTransformOperator",
    "build_clustering_oriented_graph",
    "RethinkTrainer",
    "RethinkConfig",
    "RethinkHistory",
    "rethink_hyperparameters",
    "gradient_cosine",
    "feature_randomness_metric",
    "feature_drift_metric",
    "elementary_fr",
    "elementary_fd",
    "graph_filter_impact",
    "reconstruction_bce_sum",
    "laplacian_term",
    "reconstruction_remainder",
    "kmeans_loss",
    "combined_objective",
    "clustering_graph",
    "supervision_graph",
    "aligned_oracle_assignments",
]
