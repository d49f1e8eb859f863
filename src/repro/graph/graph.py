"""The :class:`AttributedGraph` container used across the library.

The paper works with a non-directed attributed graph ``G = (V, E, X)`` with
adjacency matrix ``A`` (binary, symmetric, zero diagonal), node feature
matrix ``X`` and, for evaluation only, ground-truth cluster labels ``y``.
``A`` is held in CSR; code that needs the (N, N) array calls
``graph.adjacency.to_dense()`` itself.  ``X`` is held in the format the
first GCN layer multiplies (:func:`~repro.graph.sparse.feature_matrix`):
CSR for bag-of-words features of large graphs, a dense array otherwise;
code that needs the array whatever the format calls
:func:`~repro.graph.sparse.as_dense`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from repro.graph.sparse import SparseAdjacency, feature_matrix, row_normalize

#: a feature matrix in either of its formats.
Features = Union[np.ndarray, SparseAdjacency]


def _canonical(adjacency: Union[np.ndarray, SparseAdjacency]) -> SparseAdjacency:
    """``adjacency`` as CSR with sorted rows (dense input is converted once)."""
    if not isinstance(adjacency, SparseAdjacency):
        return SparseAdjacency.from_dense(adjacency)
    return adjacency.canonical()


@dataclass
class AttributedGraph:
    """An undirected attributed graph with optional ground-truth labels.

    Attributes
    ----------
    adjacency:
        (N, N) binary symmetric CSR matrix with zero diagonal and sorted
        rows; a dense array passed to the constructor is converted.
    features:
        (N, J) node feature matrix, held in the format
        :func:`~repro.graph.sparse.feature_matrix` picks for it (a canonical
        CSR matrix or a dense array); either format may be passed.
    labels:
        Optional (N,) integer array of ground-truth cluster labels, used only
        to *evaluate* clustering (never during training).
    name:
        Human readable identifier (e.g. ``"cora_sim"``).
    metadata:
        Free-form dictionary (generator parameters, number of clusters, ...).
    """

    adjacency: SparseAdjacency
    features: Features
    labels: Optional[np.ndarray] = None
    name: str = "graph"
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.adjacency = _canonical(self.adjacency)
        self.features = feature_matrix(self.features)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
        self.validate()

    # ------------------------------------------------------------------
    # shape helpers
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adjacency.num_nodes

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return self.adjacency.nnz // 2

    @property
    def num_clusters(self) -> int:
        """Number of ground-truth clusters.

        Falls back to ``metadata['num_clusters']`` when labels are absent.
        """
        if self.labels is not None:
            # The return_counts form sorts; plain np.unique hashes, and
            # under numpy 2.4 imports numpy.ma on its first call.
            return int(np.unique(self.labels, return_counts=True)[0].shape[0])
        if "num_clusters" in self.metadata:
            return int(self.metadata["num_clusters"])
        raise ValueError("graph has neither labels nor metadata['num_clusters']")

    # ------------------------------------------------------------------
    # validation and edits
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants in O(|E|); raise ``ValueError`` on violation."""
        a = self.adjacency
        n = a.num_nodes
        if len(self.features.shape) != 2 or self.features.shape[0] != n:
            raise ValueError(
                "features must be (N, J) with N matching the adjacency "
                f"(got {self.features.shape} vs N={n})"
            )
        rows, cols, values = a.coo()
        if np.any(values != 1.0):
            raise ValueError("adjacency must be binary (every stored entry 1.0)")
        if np.any(rows == cols):
            raise ValueError("adjacency must have a zero diagonal (no self loops)")
        # Rows are sorted, so the (row, col) keys are ascending; a symmetric
        # matrix lists exactly the same keys with the roles swapped.
        if not np.array_equal(rows * n + cols, np.sort(cols * n + rows)):
            raise ValueError("adjacency must be symmetric (undirected graph)")
        if self.labels is not None and self.labels.shape[0] != n:
            raise ValueError("labels length must match the number of nodes")

    def copy(self) -> "AttributedGraph":
        """Deep copy of the graph."""
        return self.with_features(self.features)

    def with_adjacency(
        self, adjacency: Union[np.ndarray, SparseAdjacency]
    ) -> "AttributedGraph":
        """Return a copy of the graph with a replacement adjacency matrix."""
        return self._copy_with(adjacency, self.features)

    def with_features(self, features: Features) -> "AttributedGraph":
        """Return a copy of the graph with a replacement feature matrix."""
        return self._copy_with(self.adjacency.copy(), features)

    def _copy_with(
        self, adjacency: Union[np.ndarray, SparseAdjacency], features: Features
    ) -> "AttributedGraph":
        held = feature_matrix(features)
        return AttributedGraph(
            adjacency=adjacency,
            # Copy the caller's object only: a converted matrix is new already.
            features=held.copy() if held is features else held,
            labels=None if self.labels is None else self.labels.copy(),
            name=self.name,
            metadata=dict(self.metadata),
        )

    def neighbors(self, node: int) -> np.ndarray:
        """Indices of nodes adjacent to ``node``."""
        a = self.adjacency
        return a.indices[a.indptr[node] : a.indptr[node + 1]].copy()

    def edge_list(self) -> np.ndarray:
        """(E, 2) array of undirected edges with i < j, in row-major order."""
        rows, cols, _ = self.adjacency.coo()
        upper = cols > rows
        return np.stack([rows[upper], cols[upper]], axis=1)

    def row_normalized_features(self) -> Features:
        """Features row-normalised by their Euclidean norm (paper Section 5.1),
        in the format the graph holds them in."""
        return row_normalize(self.features, norm="l2")
