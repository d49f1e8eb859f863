"""Benchmark dataset registry.

The six named datasets mirror the evaluation of the paper:

* citation-network surrogates — ``cora_sim`` (7 clusters), ``citeseer_sim``
  (6 clusters), ``pubmed_sim`` (3 clusters) with sparse class-correlated
  binary features;
* air-traffic surrogates — ``usa_air_sim``, ``europe_air_sim``,
  ``brazil_air_sim`` (4 clusters each) with one-hot degree features, as in
  the paper.

The package ships no data and downloads none, so each of the paper's public
datasets is replaced by a seeded stochastic-block-model surrogate
(:mod:`repro.graph.generators`) that keeps what the R- operators interact
with: the cluster count and imbalance, sparse topology with noisy
inter-cluster links, and the feature style.
"""

from repro.datasets.registry import (
    DATASETS,
    available_datasets,
    load_dataset,
    citation_datasets,
    air_traffic_datasets,
    dataset_summary,
)
from repro.datasets.features import (
    degree_one_hot_features,
    row_normalize,
)

__all__ = [
    "DATASETS",
    "available_datasets",
    "load_dataset",
    "citation_datasets",
    "air_traffic_datasets",
    "dataset_summary",
    "degree_one_hot_features",
    "row_normalize",
]
