"""repro — a full reproduction of "Rethinking Graph Auto-Encoder Models for
Attributed Graph Clustering" (R-GAE).

Public API overview
-------------------

* :mod:`repro.api` — the unified pipeline facade: the fluent
  :class:`~repro.api.Pipeline`, serializable :class:`~repro.api.RunSpec`
  documents, the generic :class:`~repro.api.Registry` protocol behind
  every registry, and the training callbacks.
* :mod:`repro.datasets` — synthetic surrogates of the paper's benchmark
  datasets (``load_dataset``, the ``DATASETS`` registry).
* :mod:`repro.models` — the six GAE clustering models (``build_model``,
  the ``MODELS`` registry).
* :mod:`repro.core` — the paper's operators Ξ and Υ, the
  :class:`~repro.core.rethink.RethinkTrainer` that turns any model D into
  R-D, and the Feature-Randomness / Feature-Drift diagnostics.
* :mod:`repro.metrics` — ACC / NMI / ARI evaluation.
* :mod:`repro.experiments` — runners that regenerate every table and figure.
* :mod:`repro.store` — versioned checkpointing and the warm-start artifact
  store (:class:`~repro.store.Snapshot`, :class:`~repro.store.ArtifactStore`).

Quickstart
----------

>>> from repro.api import Pipeline
>>> result = (
...     Pipeline()
...     .dataset("cora_sim")
...     .model("gae")
...     .rethink(alpha1=0.5)
...     .seed(0)
...     .training(pretrain_epochs=50, rethink_epochs=50)
...     .run()
... )
>>> print(result.report)

The same trial as declarative data (see also the ``repro-run`` command):

>>> import json
>>> spec = result.spec.to_dict()
>>> rerun = Pipeline.from_spec(spec).run()

The lower-level building blocks remain available: ``load_dataset`` /
``build_model`` / :class:`~repro.core.rethink.RethinkTrainer` compose
exactly as the Pipeline does internally.
"""

__version__ = "2.0.0"

from repro.datasets import load_dataset, available_datasets
from repro.models import build_model, available_models
from repro.core import RethinkTrainer, RethinkConfig
from repro.metrics import evaluate_clustering
from repro.api import Registry

# Pipeline and RunSpec are re-exported lazily (below) so `import repro`
# does not defeat repro.api's deferred loading of the heavier modules.
_LAZY_EXPORTS = {
    "Pipeline": ("repro.api.pipeline", "Pipeline"),
    "RunSpec": ("repro.api.spec", "RunSpec"),
    "run_sweep": ("repro.parallel", "run_sweep"),
    "parallel_map": ("repro.parallel", "parallel_map"),
    "ArtifactStore": ("repro.store", "ArtifactStore"),
    "Snapshot": ("repro.store", "Snapshot"),
}

__all__ = [
    "__version__",
    "load_dataset",
    "available_datasets",
    "build_model",
    "available_models",
    "RethinkTrainer",
    "RethinkConfig",
    "evaluate_clustering",
    "Pipeline",
    "Registry",
    "RunSpec",
    "run_sweep",
    "parallel_map",
    "ArtifactStore",
    "Snapshot",
]


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value
