"""Synthetic attributed-graph generators.

The paper evaluates on public citation networks (Cora, Citeseer, Pubmed) and
air-traffic networks (USA, Europe, Brazil).  Those datasets cannot be
downloaded in this offline environment, so this module provides stochastic
block model (SBM) generators that preserve the properties the R-GAE
operators interact with:

* planted clusters of realistic (imbalanced) sizes,
* sparse topology with noisy inter-cluster links (source of
  under-segmentation / Feature Drift),
* poor intra-cluster connectivity (source of over-segmentation),
* class-correlated but noisy sparse binary features (citation networks) or
  no features at all (air-traffic networks use one-hot degree encodings),
* heavy-tailed degree distributions for the air-traffic surrogates
  (degree-corrected SBM).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import AttributedGraph
from repro.graph.sparse import ROW_BLOCK, SparseAdjacency


def _cluster_sizes(num_nodes: int, proportions: Sequence[float]) -> np.ndarray:
    """Turn cluster proportions into integer sizes that sum to ``num_nodes``."""
    proportions = np.asarray(proportions, dtype=np.float64)
    proportions = proportions / proportions.sum()
    sizes = np.floor(proportions * num_nodes).astype(int)
    remainder = num_nodes - sizes.sum()
    # Distribute the remainder to the largest clusters first.
    order = np.argsort(-proportions)
    for index in range(remainder):
        sizes[order[index % len(sizes)]] += 1
    return sizes


def _sample_edges(
    labels: np.ndarray,
    p_intra: float,
    p_inter: float,
    rng: np.random.Generator,
    propensity: Optional[np.ndarray] = None,
) -> SparseAdjacency:
    """Symmetric CSR adjacency keeping edge ``(i, j), i < j`` when ``u_ij < p_ij``.

    The uniforms ``u`` are drawn one row block at a time, so the graph and
    the generator state afterwards equal those of a single
    ``rng.random((N, N))`` draw while memory stays O(ROW_BLOCK · N).
    """
    n = labels.shape[0]
    sources, targets = [], []
    for start in range(0, n, ROW_BLOCK):
        # One call per block: its (ROW_BLOCK, N) arrays are freed on return,
        # before the next draw and before the CSR build.
        rows, cols = _upper_edges_of_block(labels, start, p_intra, p_inter, rng, propensity)
        sources.append(rows)
        targets.append(cols)
    edges = np.stack([np.concatenate(sources), np.concatenate(targets)], axis=1)
    return SparseAdjacency.from_edges(edges, n)


def _upper_edges_of_block(
    labels: np.ndarray,
    start: int,
    p_intra: float,
    p_inter: float,
    rng: np.random.Generator,
    propensity: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of the kept edges ``i < j`` of the row block at ``start``.

    The plain SBM compares the uniforms with its two probabilities through
    the same-label mask, so no float probability block is built; the
    degree-corrected one needs the per-pair block.
    """
    block = slice(start, start + ROW_BLOCK)
    same = labels[block, None] == labels[None, :]
    if propensity is None:
        uniforms = rng.random(same.shape)
        kept = np.where(same, uniforms < p_intra, uniforms < p_inter)
    else:
        probs = np.where(same, p_intra, p_inter)
        probs = np.clip(probs * propensity[block, None] * propensity[None, :], 0.0, 1.0)
        kept = rng.random(probs.shape) < probs
    rows, cols = np.nonzero(kept)
    rows += start
    upper = cols > rows
    return rows[upper], cols[upper]


def stochastic_block_model(
    num_nodes: int,
    proportions: Sequence[float],
    p_intra: float,
    p_inter: float,
    rng: np.random.Generator,
) -> Tuple[SparseAdjacency, np.ndarray]:
    """Sample an undirected SBM adjacency matrix and its label vector.

    Returns ``(adjacency, labels)`` where ``adjacency`` is a binary
    symmetric CSR matrix with zero diagonal.
    """
    if not (0.0 <= p_inter <= p_intra <= 1.0):
        raise ValueError("expected 0 <= p_inter <= p_intra <= 1")
    sizes = _cluster_sizes(num_nodes, proportions)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return _sample_edges(labels, p_intra, p_inter, rng), labels


def degree_corrected_sbm(
    num_nodes: int,
    proportions: Sequence[float],
    p_intra: float,
    p_inter: float,
    rng: np.random.Generator,
    degree_exponent: float = 2.5,
) -> Tuple[SparseAdjacency, np.ndarray]:
    """SBM with heavy-tailed node propensities (hub structure).

    The air-traffic networks used in the paper have hub airports with very
    high degree; a degree-corrected SBM with Pareto-distributed propensities
    reproduces that structural-role heterogeneity, which matters because the
    air-traffic features are one-hot encodings of node degree.
    """
    sizes = _cluster_sizes(num_nodes, proportions)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    propensity = rng.pareto(degree_exponent, size=num_nodes) + 1.0
    propensity = propensity / propensity.mean()
    return _sample_edges(labels, p_intra, p_inter, rng, propensity), labels


def planted_partition_features(
    labels: np.ndarray,
    num_features: int,
    active_per_class: int,
    signal: float,
    noise: float,
    rng: np.random.Generator,
) -> SparseAdjacency:
    """Sparse binary bag-of-words-like features correlated with the labels.

    Each class owns ``active_per_class`` "topic words"; a node activates each
    of its class words with probability ``signal`` and every other word with
    probability ``noise``.  The result mimics the sparse binary features of
    citation networks, and comes as a canonical (N, F) CSR matrix.  The
    noise uniforms are drawn one row block at a time, so the features and
    the generator state afterwards equal those of a single
    ``rng.random((N, F))`` draw while memory stays O(ROW_BLOCK · F).
    """
    labels = np.asarray(labels)
    num_nodes = labels.shape[0]
    num_classes = int(labels.max()) + 1
    if active_per_class * num_classes > num_features:
        raise ValueError("num_features too small for the requested class vocabulary")
    # Entries are keyed row * F + column; flatnonzero lists a block's in order.
    keys = [
        start * num_features
        + np.flatnonzero(rng.random((min(ROW_BLOCK, num_nodes - start), num_features)) < noise)
        for start in range(0, num_nodes, ROW_BLOCK)
    ]
    for klass in range(num_classes):
        members = np.flatnonzero(labels == klass)
        rows, words = np.nonzero(rng.random((members.shape[0], active_per_class)) < signal)
        keys.append(members[rows] * num_features + klass * active_per_class + words)
    merged = np.sort(np.concatenate(keys))
    # A class word that is also a noise word is one entry.
    merged = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
    # Guarantee no all-zero rows (every document has at least one word).
    counts = np.bincount(merged // num_features, minlength=num_nodes)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        words = rng.integers(0, num_features, size=empty.shape[0])
        merged = np.sort(np.concatenate([merged, empty * num_features + words]))
        counts[empty] = 1
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return SparseAdjacency(
        np.ones(merged.shape[0]), merged % num_features, indptr, (num_nodes, num_features)
    )


def attributed_sbm_graph(
    num_nodes: int,
    proportions: Sequence[float],
    p_intra: float,
    p_inter: float,
    num_features: int,
    active_per_class: int,
    signal: float,
    noise: float,
    seed: int,
    name: str = "attributed_sbm",
    degree_corrected: bool = False,
    degree_exponent: float = 2.5,
    features: str = "planted",
) -> AttributedGraph:
    """Build a full :class:`AttributedGraph` from SBM topology + features.

    ``features`` may be ``"planted"`` (class-correlated sparse binary
    features) or ``"degree_onehot"`` (the construction the paper uses for the
    attribute-free air-traffic networks).
    """
    rng = np.random.default_rng(seed)
    if degree_corrected:
        adjacency, labels = degree_corrected_sbm(
            num_nodes, proportions, p_intra, p_inter, rng, degree_exponent
        )
    else:
        adjacency, labels = stochastic_block_model(
            num_nodes, proportions, p_intra, p_inter, rng
        )
    if features == "planted":
        x = planted_partition_features(
            labels, num_features, active_per_class, signal, noise, rng
        )
    elif features == "degree_onehot":
        # Imported here to avoid a circular import at module load time.
        from repro.datasets.features import degree_one_hot_features

        x = degree_one_hot_features(adjacency, max_degree=num_features - 1)
    else:
        raise ValueError(f"unknown feature mode: {features!r}")
    graph = AttributedGraph(
        adjacency=adjacency,
        features=x,
        labels=labels,
        name=name,
        metadata={
            "num_clusters": len(list(proportions)),
            "p_intra": p_intra,
            "p_inter": p_inter,
            "seed": seed,
            "feature_mode": features,
            "degree_corrected": degree_corrected,
        },
    )
    return graph
