"""Non-GAE graph clustering baselines used in the Appendix D comparison (Table 17).

Each baseline is a deliberately compact but faithful re-implementation of
the method's core idea, exposing the common ``fit_predict(graph) ->
labels`` interface:

* :class:`TADW` — text-associated DeepWalk via matrix factorisation.
* :class:`MGAE` — marginalised (denoising) graph auto-encoder with spectral
  clustering on the learned representation.
* :class:`AGC` — adaptive graph convolution: high-order graph filtering of
  the attributes followed by spectral clustering.
* :class:`AGE` — adaptive graph encoder: Laplacian-smoothed features plus a
  similarity-based pseudo-supervised refinement.
"""

from repro.baselines.tadw import TADW
from repro.baselines.mgae import MGAE
from repro.baselines.agc import AGC
from repro.baselines.age import AGE
from repro.baselines.registry import (
    BASELINES,
    build_baseline,
    available_baselines,
)

__all__ = [
    "BASELINES",
    "TADW",
    "MGAE",
    "AGC",
    "AGE",
    "build_baseline",
    "available_baselines",
]
