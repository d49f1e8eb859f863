"""Learning-dynamics studies behind Figures 4, 5, 6, 9 and 10.

* :func:`learning_dynamics_study` trains an R- model with the tracking
  callbacks attached (``dynamics``, ``fr_fd``, ``graph_snapshots`` from the
  callback registry) and returns the growth of the decidable set Ω, the
  per-group accuracies, the link bookkeeping of the operator-built graph,
  and the Λ_FR / Λ_FD traces.
* :func:`latent_separability_study` compares the latent spaces of a D / R-D
  pair over training (the quantitative counterpart of the t-SNE plots of
  Figure 10): a 2-D PCA projection plus a cluster-separability ratio.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.api.pipeline import Pipeline
from repro.core.rethink import RethinkConfig, RethinkTrainer
from repro.experiments.config import ExperimentConfig, rethink_hyperparameters
from repro.experiments.studies import _graph_identity, _pretrained_state
from repro.graph.graph import AttributedGraph
from repro.graph.sparse import SparseAdjacency
from repro.graph.stats import edge_count, star_subgraph_count
from repro.metrics.report import evaluate_clustering
from repro.models import build_model
from repro.models.registry import model_group


def learning_dynamics_study(
    model_name: str,
    graph: AttributedGraph,
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
    track_fr: bool = True,
    track_fd: bool = True,
    snapshot_every: int = 20,
) -> Dict:
    """Train R-<model> with full tracking and summarise the dynamics.

    Returns a dictionary containing the RethinkHistory plus derived
    statistics (star-subgraph counts of the snapshots, used by Figure 4).
    """
    config = config or ExperimentConfig.fast()
    result = (
        Pipeline()
        .graph(graph)
        .model(model_name)
        .seed(seed)
        .training(
            pretrain_epochs=config.pretrain_epochs,
            rethink_epochs=config.rethink_epochs,
        )
        .rethink(
            evaluate_every=max(1, config.rethink_epochs // 10),
            stop_at_convergence=False,
        )
        .callbacks(
            "dynamics",
            {
                "name": "fr_fd",
                "track_fr": track_fr,
                "track_fd": track_fd,
            },
            {"name": "graph_snapshots", "every": snapshot_every},
        )
        .run()
    )
    history = result.history
    snapshots_summary = {}
    for epoch, snapshot in history.graph_snapshots.items():
        sparse = SparseAdjacency.from_dense(snapshot)
        snapshots_summary[epoch] = {
            "num_edges": edge_count(sparse),
            "star_subgraphs": star_subgraph_count(sparse),
        }
    return {
        "history": history,
        "graph_snapshot_summary": snapshots_summary,
        "final_report": history.final_report,
    }


def _pca_2d(embeddings: np.ndarray) -> np.ndarray:
    """2-D PCA projection (centre, top-2 principal directions)."""
    centered = embeddings - embeddings.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:2].T


def cluster_separability(embeddings: np.ndarray, labels: np.ndarray) -> float:
    """Between-cluster / within-cluster scatter ratio (higher = more separable)."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    overall_mean = embeddings.mean(axis=0)
    within = 0.0
    between = 0.0
    for cluster in np.unique(labels):
        members = embeddings[labels == cluster]
        center = members.mean(axis=0)
        within += float(np.sum((members - center) ** 2))
        between += members.shape[0] * float(np.sum((center - overall_mean) ** 2))
    if within == 0.0:
        return float("inf")
    return between / within


def latent_separability_study(
    model_name: str,
    graph: AttributedGraph,
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
    checkpoints: int = 4,
) -> Dict:
    """Figure 10 counterpart: separability of D vs R-D latent spaces over training.

    The chunked, incremental protocol (resuming training of the *same*
    model object between checkpoints) is below the granularity of a
    :class:`~repro.api.Pipeline` run, so this study drives the
    :class:`~repro.core.rethink.RethinkTrainer` directly.  Its pretraining
    comes from the per-process memo of :mod:`repro.experiments.studies`.
    """
    config = config or ExperimentConfig.fast()
    state = _pretrained_state(
        model_name, graph, config.pretrain_epochs, seed, _graph_identity(graph)
    )

    def checkpoint_epochs(total: int) -> list:
        if checkpoints <= 1:
            return [total]
        step = max(1, total // (checkpoints - 1))
        return sorted(set(list(range(0, total + 1, step)) + [total]))

    results: Dict[str, Dict[int, Dict[str, float]]] = {"base": {}, "rethink": {}}

    # Base model: record separability at evenly spaced clustering epochs.
    base = build_model(model_name, graph.num_features, graph.num_clusters, seed=seed)
    base.load_state_dict(state)
    epochs_list = checkpoint_epochs(config.clustering_epochs)
    previous = 0
    for epoch in epochs_list:
        chunk = epoch - previous
        if chunk > 0 and model_group(model_name) == "second":
            base.fit_clustering(graph, epochs=chunk)
        previous = epoch
        embeddings = base.embed(graph)
        results["base"][epoch] = {
            "separability": cluster_separability(embeddings, graph.labels),
            "accuracy": evaluate_clustering(graph.labels, base.predict_labels(graph)).accuracy,
        }

    # R- model: same protocol, chunked RethinkTrainer runs.
    rethought = build_model(model_name, graph.num_features, graph.num_clusters, seed=seed)
    rethought.load_state_dict(state)
    hyper = rethink_hyperparameters(graph.name, model_name)
    previous = 0
    epochs_list = checkpoint_epochs(config.rethink_epochs)
    for epoch in epochs_list:
        chunk = epoch - previous
        if chunk > 0:
            trainer = RethinkTrainer(
                rethought,
                RethinkConfig(
                    alpha1=hyper["alpha1"],
                    update_omega_every=hyper["update_omega_every"],
                    update_graph_every=hyper["update_graph_every"],
                    epochs=chunk,
                    stop_at_convergence=False,
                ),
            )
            trainer.fit(graph, pretrained=True)
        previous = epoch
        embeddings = rethought.embed(graph)
        results["rethink"][epoch] = {
            "separability": cluster_separability(embeddings, graph.labels),
            "accuracy": evaluate_clustering(
                graph.labels, rethought.predict_labels(graph)
            ).accuracy,
        }

    final_projection = {
        "base": _pca_2d(base.embed(graph)),
        "rethink": _pca_2d(rethought.embed(graph)),
    }
    return {"trajectory": results, "projection_2d": final_projection}
