"""Registry of non-GAE clustering baselines (Table 17).

Backed by the generic :class:`repro.api.registry.Registry`.
"""

from __future__ import annotations

from typing import List

from repro.api.registry import Registry
from repro.baselines.agc import AGC
from repro.baselines.age import AGE
from repro.baselines.mgae import MGAE
from repro.baselines.tadw import TADW

#: the unified baseline registry (name → baseline class).
BASELINES = Registry("baseline")
BASELINES.add("tadw", TADW, description="text-associated DeepWalk (matrix factorisation)")
BASELINES.add("mgae", MGAE, description="marginalised GAE + spectral clustering")
BASELINES.add("agc", AGC, description="adaptive graph convolution")
BASELINES.add("age", AGE, description="adaptive graph encoder")


def available_baselines() -> List[str]:
    """Names of all registered baselines."""
    return sorted(BASELINES.names())


def build_baseline(name: str, num_clusters: int, seed: int = 0, **kwargs):
    """Instantiate a registered baseline."""
    return BASELINES.build(name, num_clusters=num_clusters, seed=seed, **kwargs)
