"""Shared fixtures: small synthetic graphs and pretrained tiny models.

Everything here is deliberately tiny (tens of nodes, a handful of epochs) so
the full test suite stays fast while still exercising the real code paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.generators import attributed_sbm_graph
from repro.models import build_model


@pytest.fixture(scope="session", autouse=True)
def _sanitizers_from_env():
    """Run the whole suite under the runtime sanitizers when asked to.

    ``REPRO_SANITIZE=1 pytest`` (the CI sanitized tier-1 run) installs the
    NaN/Inf tensor guard for every test and arms the autograd leak detector
    inside every training loop; without the variable this fixture is a
    no-op and the suite runs exactly as before.
    """
    from repro.analysis.sanitizers import install_from_env, uninstall_sanitizers

    installed = install_from_env()
    yield
    if installed:
        uninstall_sanitizers()


@pytest.fixture()
def sanitized_runtime():
    """Opt-in per-test sanitizers (used by the sanitizer self-tests)."""
    from repro.analysis.sanitizers import sanitized

    with sanitized():
        yield


def make_tiny_graph(seed: int = 0, num_nodes: int = 90, num_clusters: int = 3):
    """A small, well-separated attributed SBM graph used across the suite."""
    proportions = [1.0 / num_clusters] * num_clusters
    return attributed_sbm_graph(
        num_nodes=num_nodes,
        proportions=proportions,
        p_intra=0.25,
        p_inter=0.02,
        num_features=40,
        active_per_class=8,
        signal=0.4,
        noise=0.02,
        seed=seed,
        name="tiny",
    )


@pytest.fixture(scope="session")
def tiny_graph():
    """Session-scoped tiny attributed graph (90 nodes, 3 clusters)."""
    return make_tiny_graph()


@pytest.fixture(scope="session")
def tiny_hard_graph():
    """A noisier tiny graph where clustering is genuinely ambiguous."""
    return attributed_sbm_graph(
        num_nodes=90,
        proportions=[0.4, 0.35, 0.25],
        p_intra=0.12,
        p_inter=0.05,
        num_features=40,
        active_per_class=8,
        signal=0.15,
        noise=0.05,
        seed=7,
        name="tiny_hard",
    )


@pytest.fixture(scope="session")
def pretrained_dgae(tiny_graph):
    """A DGAE pretrained for a few epochs on the tiny graph (session cached)."""
    model = build_model("dgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
    model.pretrain(tiny_graph, epochs=25)
    model.init_clustering(model.embed(tiny_graph))
    return model


@pytest.fixture(scope="session")
def pretrained_gmm_vgae(tiny_graph):
    """A GMM-VGAE pretrained for a few epochs on the tiny graph (session cached)."""
    model = build_model("gmm_vgae", tiny_graph.num_features, tiny_graph.num_clusters, seed=0)
    model.pretrain(tiny_graph, epochs=25)
    model.init_clustering(model.embed(tiny_graph))
    return model


@pytest.fixture(scope="session")
def legacy_loops():
    """Outputs of the hand-rolled training loops, recorded before they were
    folded into one loader-driven R- loop over ``repro.nn.optim.train_step``.

    ``tests/data/legacy_loops.json`` was written at commit 2fd184e, the last
    one with the dedicated full-graph R- loop (``sampler=None``) and the
    per-model ``pretrain`` / ``fit_clustering`` loops, from seed-0 models
    on :func:`make_tiny_graph` and ``cora_sim`` (seed 0):

    * ``rethink`` — per-epoch losses, reconstruction and clustering losses,
      |Ω| sizes and the final report of ``RethinkTrainer.fit`` (4 pretraining
      epochs, ``M1=2``, ``M2=3``, no early stop; 6 R- epochs on the tiny
      graph, 4 on ``cora_sim``).  ``<graph>/<model>/legacy`` entries come
      from the full-graph loop, ``<graph>/<model>/<sampler>`` ones from the
      sampled loaders (``batch_size=32, fanout=4`` on the tiny graph,
      defaults on ``cora_sim``);
    * ``pretrain`` — the loss history of 6 pretraining epochs per model;
    * ``fit_clustering`` — DGAE / GMM-VGAE histories of two consecutive
      ``fit_clustering`` calls (7 then 5 epochs) after 4 pretraining epochs.
    """
    import json
    import os

    path = os.path.join(os.path.dirname(__file__), "data", "legacy_loops.json")
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


@pytest.fixture()
def rng():
    """Fresh deterministic random generator per test."""
    return np.random.default_rng(12345)
