"""The GAE model family evaluated in the paper.

First group (clustering separate from embedding learning, Eq. 1):
:class:`GAE`, :class:`VGAE`, :class:`ARGAE`, :class:`ARVGAE`.

Second group (joint clustering and embedding learning, Eq. 2/5):
:class:`GMMVGAE`, :class:`DGAE`.

Every model exposes the interface of
:class:`~repro.models.base.GAEClusteringModel`, which is what the
R- operators (:mod:`repro.core`) plug into.
"""

from repro.models.base import (
    GAEClusteringModel,
    GCNEncoder,
    VariationalGCNEncoder,
    PretrainResult,
    reconstruction_target,
    reconstruction_weights,
)
from repro.models.gae import GAE
from repro.models.vgae import VGAE
from repro.models.argae import ARGAE
from repro.models.arvgae import ARVGAE
from repro.models.gmm_vgae import GMMVGAE
from repro.models.dgae import DGAE
from repro.models.registry import (
    MODELS,
    build_model,
    available_models,
    model_group,
)

__all__ = [
    "MODELS",
    "GAEClusteringModel",
    "GCNEncoder",
    "VariationalGCNEncoder",
    "PretrainResult",
    "reconstruction_target",
    "reconstruction_weights",
    "GAE",
    "VGAE",
    "ARGAE",
    "ARVGAE",
    "GMMVGAE",
    "DGAE",
    "build_model",
    "available_models",
    "model_group",
]
