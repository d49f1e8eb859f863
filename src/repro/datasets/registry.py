"""Named benchmark datasets.

Each builder returns a deterministic :class:`~repro.graph.graph.AttributedGraph`
for a given seed.  The defaults are scaled-down surrogates of the paper's
datasets, which the package neither ships nor downloads; the cluster
counts, feature style, relative sparsity and class imbalance follow the
originals, since those are what the R- operators interact with.

The builders register themselves on :data:`DATASETS` — an instance of the
generic :class:`repro.api.registry.Registry` — with their family
("citation" / "air_traffic") and the real dataset they stand in for as
queryable metadata.
"""

from __future__ import annotations

from typing import Dict, List

from repro.api.registry import Registry
from repro.datasets.features import row_normalize
from repro.graph.generators import attributed_sbm_graph
from repro.graph.graph import AttributedGraph
from repro.graph.stats import describe

#: the unified dataset registry (name → builder, with family metadata).
DATASETS = Registry("dataset")


def _finalize(graph: AttributedGraph) -> AttributedGraph:
    """Apply the paper's preprocessing: L2 row-normalised features."""
    return graph.with_features(row_normalize(graph.features, norm="l2"))


@DATASETS.register("cora_sim", family="citation", surrogate_of="Cora")
def make_cora_sim(seed: int = 0) -> AttributedGraph:
    """Cora surrogate: 7 imbalanced clusters, sparse binary features."""
    graph = attributed_sbm_graph(
        num_nodes=600,
        proportions=[0.30, 0.16, 0.15, 0.12, 0.11, 0.09, 0.07],
        p_intra=0.055,
        p_inter=0.004,
        num_features=500,
        active_per_class=35,
        signal=0.10,
        noise=0.010,
        seed=seed,
        name="cora_sim",
    )
    return _finalize(graph)


@DATASETS.register("citeseer_sim", family="citation", surrogate_of="Citeseer")
def make_citeseer_sim(seed: int = 0) -> AttributedGraph:
    """Citeseer surrogate: 6 clusters, sparser topology, noisier features."""
    graph = attributed_sbm_graph(
        num_nodes=540,
        proportions=[0.25, 0.21, 0.20, 0.14, 0.12, 0.08],
        p_intra=0.045,
        p_inter=0.005,
        num_features=600,
        active_per_class=40,
        signal=0.09,
        noise=0.011,
        seed=seed + 101,
        name="citeseer_sim",
    )
    return _finalize(graph)


@DATASETS.register("pubmed_sim", family="citation", surrogate_of="Pubmed")
def make_pubmed_sim(seed: int = 0) -> AttributedGraph:
    """Pubmed surrogate: larger, only 3 clusters, denser features."""
    graph = attributed_sbm_graph(
        num_nodes=720,
        proportions=[0.40, 0.38, 0.22],
        p_intra=0.030,
        p_inter=0.004,
        num_features=400,
        active_per_class=55,
        signal=0.11,
        noise=0.012,
        seed=seed + 202,
        name="pubmed_sim",
    )
    return _finalize(graph)


@DATASETS.register("usa_air_sim", family="air_traffic", surrogate_of="USA Air-Traffic")
def make_usa_air_sim(seed: int = 0) -> AttributedGraph:
    """USA air-traffic surrogate: 4 activity levels, hub structure, degree features."""
    graph = attributed_sbm_graph(
        num_nodes=400,
        proportions=[0.25, 0.25, 0.25, 0.25],
        p_intra=0.10,
        p_inter=0.035,
        num_features=41,
        active_per_class=0,
        signal=0.0,
        noise=0.0,
        seed=seed + 303,
        name="usa_air_sim",
        degree_corrected=True,
        degree_exponent=2.2,
        features="degree_onehot",
    )
    return _finalize(graph)


@DATASETS.register("europe_air_sim", family="air_traffic", surrogate_of="Europe Air-Traffic")
def make_europe_air_sim(seed: int = 0) -> AttributedGraph:
    """Europe air-traffic surrogate."""
    graph = attributed_sbm_graph(
        num_nodes=350,
        proportions=[0.25, 0.25, 0.25, 0.25],
        p_intra=0.12,
        p_inter=0.045,
        num_features=41,
        active_per_class=0,
        signal=0.0,
        noise=0.0,
        seed=seed + 404,
        name="europe_air_sim",
        degree_corrected=True,
        degree_exponent=2.0,
        features="degree_onehot",
    )
    return _finalize(graph)


@DATASETS.register("brazil_air_sim", family="air_traffic", surrogate_of="Brazil Air-Traffic")
def make_brazil_air_sim(seed: int = 0) -> AttributedGraph:
    """Brazil air-traffic surrogate: the smallest network of the suite."""
    graph = attributed_sbm_graph(
        num_nodes=130,
        proportions=[0.25, 0.25, 0.25, 0.25],
        p_intra=0.22,
        p_inter=0.06,
        num_features=31,
        active_per_class=0,
        signal=0.0,
        noise=0.0,
        seed=seed + 505,
        name="brazil_air_sim",
        degree_corrected=True,
        degree_exponent=2.0,
        features="degree_onehot",
    )
    return _finalize(graph)


# Which real dataset each surrogate stands in for (derived from metadata).
SURROGATE_OF: Dict[str, str] = {
    name: DATASETS.metadata(name).get("surrogate_of", "") for name in DATASETS.names()
}


def available_datasets() -> List[str]:
    """Names of all registered datasets."""
    return sorted(DATASETS.names())


def citation_datasets() -> List[str]:
    """The citation-network surrogates (Tables 1-2 of the paper)."""
    return DATASETS.names(family="citation")


def air_traffic_datasets() -> List[str]:
    """The air-traffic surrogates (Tables 3-4 of the paper)."""
    return DATASETS.names(family="air_traffic")


def load_dataset(name: str, seed: int = 0) -> AttributedGraph:
    """Build the named dataset deterministically for the given seed."""
    return DATASETS.build(name, seed)


def dataset_summary(name: str, seed: int = 0) -> dict:
    """Descriptive statistics of a named dataset (nodes, edges, homophily...)."""
    summary = describe(load_dataset(name, seed))
    summary["surrogate_of"] = DATASETS.metadata(name).get("surrogate_of", "")
    return summary
