"""repro.minibatch — the loaders between the graph substrate and the trainers.

A whole-graph R- epoch reconstructs all N² pairs of ``Z Zᵀ``: its loss
walks them in tiles, so it fits in O(N·d + |E|) memory but costs O(N²·d)
time per epoch.  This package can stream *renumbered subgraph blocks*
instead, each reconstructing only its own B² pairs:

* :class:`~repro.minibatch.partition.ClusterPartitioner` — METIS-free
  seeded-BFS edge-cut partitioning over the CSR backend, producing a
  reusable :class:`~repro.minibatch.partition.GraphPartition`;
* :class:`~repro.minibatch.loaders.NeighborLoader` /
  :class:`~repro.minibatch.loaders.ClusterLoader` — GraphSAGE-style
  neighbour sampling and Cluster-GCN-style partition batches, both yielding
  :class:`~repro.minibatch.loaders.Minibatch` objects (global node ids,
  renumbered CSR block, feature slice, per-batch normalisation);
* :class:`~repro.minibatch.loaders.FullBatchLoader` — the whole graph as a
  single batch: the default.

The consumer is ``RethinkTrainer``, whose one loop always runs over a
loader: ``RethinkConfig.sampler`` picks it ("full" unless set; pass
``repro-run --sampler cluster --batch-size 1024`` for partition batches),
and the operators Ξ and Υ keep working on full-graph state refreshed at
epoch boundaries.
"""

from repro.minibatch.loaders import (
    SAMPLERS,
    ClusterLoader,
    FullBatchLoader,
    Minibatch,
    MinibatchLoader,
    NeighborLoader,
    build_loader,
)
from repro.minibatch.partition import ClusterPartitioner, GraphPartition

__all__ = [
    "SAMPLERS",
    "Minibatch",
    "MinibatchLoader",
    "FullBatchLoader",
    "NeighborLoader",
    "ClusterLoader",
    "ClusterPartitioner",
    "GraphPartition",
    "build_loader",
]
