"""Minibatch loaders: stream renumbered subgraph blocks to the trainers.

The R- training loop consumes one of these loaders.  A whole-graph epoch
runs one forward/backward over the whole graph; its reconstruction loss
walks the logits ``Z Zᵀ`` in tiles, so memory stays O(N·d + |E|) but time
is O(N²·d) every epoch.  The sampling loaders cut the time down to
O(B²·d) per batch.  All of them yield :class:`Minibatch` objects:

* :class:`FullBatchLoader` — the whole graph as a single batch, the
  trainer's default: its block is exactly the inputs
  ``model.prepare_inputs`` builds (the trainer hands over the ones it
  already built).
* :class:`NeighborLoader` — GraphSAGE-style: a seeded shuffle splits the
  nodes into seed batches, each expanded by ``num_hops`` rounds of
  deterministic fanout-limited neighbour sampling
  (:meth:`~repro.graph.sparse.SparseAdjacency.sample_neighbors`); the block
  is the subgraph induced by seeds + sampled neighbours.
* :class:`ClusterLoader` — Cluster-GCN-style: a reusable
  :class:`~repro.minibatch.partition.ClusterPartitioner` partition, one
  part per batch.  Blocks are precomputed once and only their order is
  reshuffled per epoch, so steady-state epochs do no graph work at all.

Every batch carries its *own* normalised propagation matrix (computed from
the induced block of the original graph, exactly like Cluster-GCN), so the
GCN layers never see global state.  All randomness derives from
``(loader seed, epoch)`` through ``np.random.default_rng`` seed sequences —
equal seeds give identical minibatch sequences in any process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.graph.graph import AttributedGraph
from repro.graph.sparse import SparseAdjacency, propagation_matrix
from repro.minibatch.partition import ClusterPartitioner
from repro.nn.functional import TiledTarget
from repro.observability.tracer import span as _span

__all__ = [
    "Minibatch",
    "MinibatchLoader",
    "FullBatchLoader",
    "NeighborLoader",
    "ClusterLoader",
    "build_loader",
    "SAMPLERS",
]

#: sampler names accepted by ``RethinkConfig.sampler`` / ``--sampler``.
SAMPLERS = ("full", "neighbor", "cluster")

#: a model input: dense on small or dense graphs, CSR on large sparse ones
#: (:func:`~repro.graph.sparse.feature_matrix`,
#: :func:`~repro.graph.sparse.propagation_matrix`).
Operand = Union[np.ndarray, SparseAdjacency]

#: full-graph (row-normalised features, GCN propagation matrix) pair.
Inputs = Tuple[Operand, Operand]


@dataclass
class Minibatch:
    """One renumbered subgraph block.

    Row ``i`` of every per-batch array corresponds to the global node
    ``node_ids[i]``; trainers map any global per-node state (decidable set
    Ω, clustering targets, self-supervision graph) through ``node_ids``.
    """

    #: global ids of the block's nodes; defines the local renumbering.
    node_ids: np.ndarray
    #: (B, J) row-normalised feature slice, in the whole graph's format
    #: (:func:`~repro.graph.sparse.feature_matrix`): the rows of an (N, J)
    #: CSR matrix are a (B, J) CSR matrix.
    features: Operand
    #: GCN propagation matrix of the block: CSR for sampled blocks, the
    #: whole graph's :func:`~repro.graph.sparse.propagation_matrix` otherwise.
    adj_norm: Operand
    #: global ids of the seed nodes that spawned the batch (== node_ids for
    #: full-batch and cluster loaders; a prefix of node_ids for neighbour
    #: sampling, where the remaining rows are sampled context).
    seed_ids: np.ndarray
    #: total number of nodes in the underlying graph.
    num_nodes_total: int
    #: the trainer's cache of the block's reconstruction target, as
    #: ``(self-supervision graph it was cut from, prepared target)``.  It
    #: lives and dies with the batch.  It holds the graph itself, not its
    #: ``id()``, so a new graph at a freed graph's address never matches.
    reconstruction_target: Optional[Tuple[SparseAdjacency, TiledTarget]] = None

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def num_seeds(self) -> int:
        return int(self.seed_ids.shape[0])

    def local_indices_of(self, global_mask: np.ndarray) -> np.ndarray:
        """Block-local indices of the nodes flagged by a global (N,) mask."""
        return np.flatnonzero(global_mask[self.node_ids])


class MinibatchLoader:
    """Protocol shared by the loaders: seeded, epoch-indexed batch streams."""

    graph: AttributedGraph
    seed: int

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def batches_per_epoch(self) -> int:
        raise NotImplementedError

    def __len__(self) -> int:
        return self.batches_per_epoch

    def epoch_batches(self, epoch: int) -> Iterator[Minibatch]:
        """Yield the epoch's batches; deterministic in ``(seed, epoch)``."""
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.__class__.__name__}(batches={self.batches_per_epoch})"


class FullBatchLoader(MinibatchLoader):
    """The entire graph as one batch, in original node order.

    The batch's ``features`` and ``adj_norm`` are byte-identical to what
    ``model.prepare_inputs(graph)`` builds; pass that pair as ``inputs``
    to share it instead of building a second copy.
    """

    def __init__(
        self, graph: AttributedGraph, seed: int = 0, inputs: Optional[Inputs] = None
    ) -> None:
        self.graph = graph
        self.seed = int(seed)
        if inputs is None:
            inputs = (
                graph.row_normalized_features(),
                propagation_matrix(graph.adjacency, self_loops=True),
            )
        node_ids = np.arange(graph.num_nodes, dtype=np.int64)
        self._batch = Minibatch(
            node_ids=node_ids,
            features=inputs[0],
            adj_norm=inputs[1],
            seed_ids=node_ids,
            num_nodes_total=graph.num_nodes,
        )

    @property
    def batches_per_epoch(self) -> int:
        return 1

    def epoch_batches(self, epoch: int) -> Iterator[Minibatch]:
        yield self._batch


def _induced_minibatch(
    sparse: SparseAdjacency,
    features: Operand,
    node_ids: np.ndarray,
    seed_ids: np.ndarray,
) -> Minibatch:
    """Build the renumbered block for ``node_ids`` with its own normalisation."""
    with _span("kernel.minibatch_block"):
        block = sparse.induced_subgraph(node_ids)
        return Minibatch(
            node_ids=node_ids,
            features=features[node_ids],
            adj_norm=block.normalize(self_loops=True),
            seed_ids=seed_ids,
            num_nodes_total=sparse.num_nodes,
        )


class NeighborLoader(MinibatchLoader):
    """GraphSAGE-style seeded neighbour-sampling loader.

    Every epoch: a seeded shuffle splits all nodes into batches of
    ``batch_size`` seeds; each batch's frontier is expanded ``num_hops``
    times with at most ``fanout`` sampled neighbours per frontier node, and
    the batch block is the subgraph induced by the union.  Seeds occupy the
    first ``num_seeds`` rows of each block.  ``features`` is the graph's
    row-normalised feature matrix in its model-input format, when the
    caller already has it.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        batch_size: int,
        fanout: int = 10,
        num_hops: int = 2,
        seed: int = 0,
        features: Optional[Operand] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if num_hops < 1:
            raise ValueError(f"num_hops must be >= 1, got {num_hops}")
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        self.graph = graph
        self.batch_size = int(batch_size)
        self.fanout = int(fanout)
        self.num_hops = int(num_hops)
        self.seed = int(seed)
        if features is None:
            features = graph.row_normalized_features()
        self._features = features

    @property
    def batches_per_epoch(self) -> int:
        return -(-self.graph.num_nodes // self.batch_size)

    def epoch_batches(self, epoch: int) -> Iterator[Minibatch]:
        rng = np.random.default_rng([self.seed, 11, int(epoch)])
        order = rng.permutation(self.graph.num_nodes)
        for start in range(0, self.graph.num_nodes, self.batch_size):
            seeds = np.sort(order[start : start + self.batch_size]).astype(np.int64)
            block_nodes = seeds
            frontier = seeds
            with _span("kernel.sample_neighbors", hops=self.num_hops):
                for _ in range(self.num_hops):
                    if frontier.size == 0:
                        break
                    _, sampled = self.graph.adjacency.sample_neighbors(frontier, self.fanout, rng)
                    # The sorted unique sampled nodes not yet in the block.  The
                    # return_counts form sorts; plain np.unique (and setdiff1d)
                    # hash, and under numpy 2.4 import numpy.ma on first use.
                    frontier = np.unique(sampled, return_counts=True)[0]
                    frontier = frontier[~np.isin(frontier, block_nodes, assume_unique=True)]
                    block_nodes = np.concatenate([block_nodes, frontier])
            yield _induced_minibatch(self.graph.adjacency, self._features, block_nodes, seeds)

    def describe(self) -> str:
        return (
            f"NeighborLoader(batch_size={self.batch_size}, fanout={self.fanout}, "
            f"num_hops={self.num_hops}, batches={self.batches_per_epoch})"
        )


class ClusterLoader(MinibatchLoader):
    """Cluster-GCN-style loader over a reusable BFS edge-cut partition.

    ``batch_size`` sets the *target part size* (``num_parts =
    ceil(N / batch_size)``).  Each part's renumbered block (features,
    per-batch normalisation) is built once at construction and reused every
    epoch — only the batch order is reshuffled.  The blocks are cut from
    ``features`` (the graph's row-normalised features in their model-input
    format, built here when not given); the loader keeps no whole-graph
    copy of them.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        batch_size: int,
        seed: int = 0,
        features: Optional[Operand] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.graph = graph
        self.seed = int(seed)
        num_parts = max(1, -(-graph.num_nodes // int(batch_size)))
        self.partition = ClusterPartitioner(num_parts, seed=self.seed).partition(
            graph.adjacency
        )
        if features is None:
            features = graph.row_normalized_features()
        self._batches: List[Minibatch] = [
            _induced_minibatch(graph.adjacency, features, part, part)
            for part in self.partition.parts
        ]

    @property
    def batches_per_epoch(self) -> int:
        return len(self._batches)

    def epoch_batches(self, epoch: int) -> Iterator[Minibatch]:
        rng = np.random.default_rng([self.seed, 13, int(epoch)])
        for index in rng.permutation(len(self._batches)):
            yield self._batches[index]

    def describe(self) -> str:
        return (
            f"ClusterLoader(parts={self.batches_per_epoch}, "
            f"edge_cut={self.partition.edge_cut_fraction:.3f})"
        )


def build_loader(
    sampler: str,
    graph: AttributedGraph,
    batch_size: Optional[int] = None,
    fanout: int = 10,
    num_hops: int = 2,
    seed: int = 0,
    inputs: Optional[Inputs] = None,
) -> MinibatchLoader:
    """Build the loader named by ``sampler`` ("full" / "neighbor" / "cluster").

    ``batch_size`` defaults to ``min(N, 256)`` for the sampling loaders;
    the full-batch loader ignores it.  ``inputs``, when given, is the
    ``model.prepare_inputs(graph)`` pair: the full-batch loader reuses both,
    the sampling loaders cut their blocks from its features.
    """
    if sampler not in SAMPLERS:
        raise ValueError(
            f"unknown sampler {sampler!r}; expected one of {', '.join(SAMPLERS)}"
        )
    with _span("minibatch.build_loader", sampler=sampler):
        if sampler == "full":
            return FullBatchLoader(graph, seed=seed, inputs=inputs)
        if batch_size is None:
            batch_size = min(graph.num_nodes, 256)
        features = None if inputs is None else inputs[0]
        if sampler == "neighbor":
            return NeighborLoader(
                graph,
                batch_size=batch_size,
                fanout=fanout,
                num_hops=num_hops,
                seed=seed,
                features=features,
            )
        return ClusterLoader(graph, batch_size=batch_size, seed=seed, features=features)
