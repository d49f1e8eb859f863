"""Theory benchmark — numerical verification and cost of the loss decompositions.

Checks Proposition 1, Proposition 2 and Theorem 1 on real pretrained
embeddings of the Cora surrogate (not just random vectors), and times the
decomposition so regressions in the analysis code are visible.
"""

import numpy as np

from _shared import BENCH_CONFIG, cached_graph
from repro.core import combined_objective, kmeans_loss, laplacian_term, reconstruction_bce_sum, reconstruction_remainder
from repro.core.losses import kmeans_loss_as_laplacian
from repro.models import build_model


def _setup():
    graph = cached_graph("cora_sim")
    model = build_model("gae", graph.num_features, graph.num_clusters, seed=0)
    model.pretrain(graph, epochs=BENCH_CONFIG.pretrain_epochs)
    embeddings = model.embed(graph)
    labels = model.predict_labels(graph)
    return graph, embeddings, labels


def test_theory_decompositions_on_trained_embeddings(benchmark):
    graph, embeddings, labels = _setup()
    adjacency = graph.adjacency.to_dense()

    def decompose():
        return combined_objective(embeddings, adjacency, labels, gamma=1.0)

    result = benchmark.pedantic(decompose, rounds=3, iterations=1)
    print()
    print("Theorem 1 on trained embeddings:", result)

    # Proposition 1
    lhs = reconstruction_bce_sum(embeddings, adjacency)
    rhs = laplacian_term(embeddings, adjacency) + reconstruction_remainder(
        embeddings, adjacency
    )
    assert np.isclose(lhs, rhs, rtol=1e-8)
    # Proposition 2
    assert np.isclose(kmeans_loss(embeddings, labels), kmeans_loss_as_laplacian(embeddings, labels), rtol=1e-8)
    # Theorem 1
    assert result["gap"] < 1e-6 * max(1.0, abs(result["direct"]))
