"""Warm-start cache for the shared pretraining phase.

Every D / R-D pair, ablation row and multi-seed trial starts from the same
self-supervised pretraining, and before this module existed each of them
re-ran it from scratch.  :func:`warm_pretrain` makes pretraining a cached
artifact: on a hit the model (weights, discriminator/optimizer extras and
— crucially — the RNG stream) is restored to its exact post-pretraining
state, so everything downstream is bitwise identical to a cold run; on a
miss the model pretrains normally and the resulting snapshot is stored for
the next trial.

Key construction mirrors :func:`repro.parallel.load_dataset_cached`: a
registry trial is keyed by its dataset spec; an explicit graph is keyed by
a content fingerprint of its adjacency and features, so corrupted
robustness-sweep graphs never alias the clean dataset they came from.
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Dict, Optional

from repro.errors import (
    ArtifactCorruptError,
    SnapshotMismatchError,
    SnapshotSchemaError,
)
from repro.observability.metrics import metric_inc
from repro.store.keys import graph_fingerprint, pretrain_key
from repro.store.snapshot import Snapshot
from repro.store.store import ArtifactStore


def disabled_stats() -> Dict[str, Any]:
    """The stats dict reported when no store is configured."""
    return {"enabled": False, "hit": False, "key": None, "store": None}


def pretrain_cache_key(
    model: Any,
    pretrain_epochs: int,
    dataset: Optional[Dict[str, Any]] = None,
    graph: Any = None,
) -> str:
    """Stable key of one pretraining run.

    ``dataset`` (a dataset-spec dict) wins over ``graph`` (content
    fingerprint); the model is identified by its full scalar configuration
    signature, which already carries the model seed.
    """
    if dataset is None:
        if graph is None:
            raise ValueError("pretrain_cache_key needs a dataset spec or a graph")
        dataset = graph_fingerprint(graph)
    return pretrain_key(
        dataset=dataset,
        model=model.config_signature(),
        seed=getattr(model, "seed", 0),
        pretrain_epochs=pretrain_epochs,
    )


def warm_pretrain(
    model: Any,
    graph: Any,
    pretrain_epochs: int,
    store: Optional[ArtifactStore] = None,
    dataset: Optional[Dict[str, Any]] = None,
    spec: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Pretrain ``model`` on ``graph``, served from ``store`` when possible.

    Returns a stats dict (``enabled`` / ``hit`` / ``key`` / ``seconds``,
    plus ``degraded`` / ``degraded_reason`` when recovery kicked in) that
    callers surface in ``RunResult.extra['pretrain_cache']``.  With
    ``store=None`` this is exactly ``model.pretrain(...)``: the caller picks
    the store (:meth:`repro.api.Pipeline.warm_start`), and no environment
    variable is read here.

    A corrupt artifact (checksum mismatch, truncated pickle — already
    quarantined by the store), a stale schema version, or a snapshot that
    no longer fits the model **degrades to cold pretraining**: the trial
    still runs, a warning records why, and the fresh result replaces the
    bad artifact.  Warm starting is an optimisation; it must never be able
    to fail a sweep.
    """
    start = time.perf_counter()
    if store is None:
        model.pretrain(graph, epochs=pretrain_epochs)
        stats = disabled_stats()
        stats["seconds"] = time.perf_counter() - start
        return stats

    key = pretrain_cache_key(model, pretrain_epochs, dataset=dataset, graph=graph)
    degraded_reason = None
    try:
        snapshot = store.get(key, default=None)
    except (ArtifactCorruptError, SnapshotSchemaError) as error:
        degraded_reason = f"{type(error).__name__}: {error}"
        snapshot = None
    if snapshot is not None:
        try:
            # The snapshot's RNG state is the post-pretraining stream, so
            # the clustering phase consumes exactly the noise a cold run would.
            snapshot.apply(model)
            hit = True
            metric_inc("pretrain.warm_hits")
        except (SnapshotMismatchError, SnapshotSchemaError) as error:
            degraded_reason = f"{type(error).__name__}: {error}"
            snapshot = None
    if snapshot is None:
        metric_inc("pretrain.warm_misses")
        if degraded_reason is not None:
            metric_inc("pretrain.degraded")
            # The full key and, for a corrupt artifact, the quarantine path
            # the store's error names make the incident actionable straight
            # from the log: the quarantine/ listing speaks the same names.
            warnings.warn(
                f"warm start for key {key} (store {store.root}) degraded to "
                f"cold pretraining ({degraded_reason})",
                RuntimeWarning,
                stacklevel=2,
            )
        model.pretrain(graph, epochs=pretrain_epochs)
        snapshot = Snapshot.capture(
            model,
            spec=spec,
            epoch=pretrain_epochs,
            phase="pretrain",
            metadata={"graph": getattr(graph, "name", "graph")},
        )
        store.put(key, snapshot)
        hit = False
    stats = {
        "enabled": True,
        "hit": hit,
        "key": key,
        "store": store.root,
        "seconds": time.perf_counter() - start,
    }
    if degraded_reason is not None:
        stats["degraded"] = True
        stats["degraded_reason"] = degraded_reason
    return stats
