"""Model registry: build any of the six GAE models by name.

Backed by the generic :class:`repro.api.registry.Registry` protocol; each
entry carries its paper group ("first" = separate clustering, "second" =
joint clustering) as queryable metadata.  ``FIRST_GROUP`` and
``SECOND_GROUP`` list the names of each group.
"""

from __future__ import annotations

from typing import List

from repro.api.registry import Registry
from repro.models.argae import ARGAE
from repro.models.arvgae import ARVGAE
from repro.models.base import GAEClusteringModel
from repro.models.dgae import DGAE
from repro.models.gae import GAE
from repro.models.gmm_vgae import GMMVGAE
from repro.models.vgae import VGAE

#: the unified model registry (name → model class, with group metadata).
MODELS = Registry("model")
MODELS.add("gae", GAE, group="first", variational=False)
MODELS.add("vgae", VGAE, group="first", variational=True)
MODELS.add("argae", ARGAE, group="first", variational=False)
MODELS.add("arvgae", ARVGAE, group="first", variational=True)
MODELS.add("dgae", DGAE, group="second", variational=False)
MODELS.add("gmm_vgae", GMMVGAE, group="second", variational=True)


def _group_members(group: str) -> List[str]:
    return MODELS.names(group=group)


#: the paper's first-group models (separate clustering).
FIRST_GROUP = _group_members("first")
#: the paper's second-group models (joint clustering).
SECOND_GROUP = _group_members("second")


def available_models() -> List[str]:
    """Names of all registered models."""
    return sorted(MODELS.names())


def model_group(name: str) -> str:
    """Return "first" or "second" for a registered model name."""
    return MODELS.metadata(name)["group"]


def build_model(
    name: str,
    num_features: int,
    num_clusters: int,
    seed: int = 0,
    **kwargs,
) -> GAEClusteringModel:
    """Instantiate a registered model with the given data dimensions."""
    return MODELS.build(
        name, num_features=num_features, num_clusters=num_clusters, seed=seed, **kwargs
    )
