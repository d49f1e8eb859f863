"""repro.store — versioned checkpointing and warm-start artifact store.

The persistence layer between training and everything downstream:

* :class:`~repro.store.snapshot.Snapshot` — versioned serialization of a
  model's full training state (parameters, clustering/mixture extras,
  optimizer moments, RNG stream, epoch counters, producing spec), with
  schema checks and fail-fast validation against the target model.
* :class:`~repro.store.store.ArtifactStore` — a content-addressed
  filesystem store under an explicit root directory, keyed by stable
  hashes of ``(dataset, model, variant, seed, config)``.  Snapshots and
  journal blobs alike are a payload plus a JSON manifest recording its
  SHA-256, written atomically and verified on every read.
* :func:`~repro.store.pretrain_cache.warm_pretrain` — the pretraining
  snapshot cache that lets D / R-D pairs and multi-seed sweeps skip
  re-pretraining while staying bitwise identical to cold runs.  It uses
  the store it is given; ``None`` pretrains cold.
* :func:`~repro.store.store.active_store` — the ``REPRO_STORE_DIR``
  store, the default of a pipeline whose ``warm_start`` is unset and the
  library's only read of that variable.
* :mod:`repro.store.keys` — canonical-JSON SHA-256 keying, stable across
  dict orderings and process restarts.

Typical use::

    store = ArtifactStore("/tmp/artifacts")
    snap = Snapshot.capture(model, optimizer=opt, epoch=40, phase="pretrain")
    store.put(key, snap)
    ...
    store.get(key).apply(model, optimizer=opt)   # bitwise resume

or, end to end, ``result.save(path)`` / ``Pipeline.load(path)`` and
``repro-run --warm-start / --save-to / --from-checkpoint``.
"""

from repro.errors import (
    ArtifactCorruptError,
    ArtifactNotFoundError,
    SnapshotMismatchError,
    SnapshotSchemaError,
    StoreError,
)
from repro.store.keys import (
    array_digest,
    canonical_json,
    config_hash,
    graph_fingerprint,
    pretrain_key,
    run_key,
)
from repro.store.pretrain_cache import (
    disabled_stats,
    pretrain_cache_key,
    warm_pretrain,
)
from repro.store.snapshot import FORMAT_NAME, SCHEMA_VERSION, Snapshot
from repro.store.store import (
    DEFAULT_STORE_DIR,
    QUARANTINE_DIR,
    ArtifactStore,
    active_store,
)

__all__ = [
    "ArtifactCorruptError",
    "ArtifactNotFoundError",
    "ArtifactStore",
    "DEFAULT_STORE_DIR",
    "QUARANTINE_DIR",
    "FORMAT_NAME",
    "SCHEMA_VERSION",
    "Snapshot",
    "SnapshotMismatchError",
    "SnapshotSchemaError",
    "StoreError",
    "active_store",
    "array_digest",
    "canonical_json",
    "config_hash",
    "disabled_stats",
    "graph_fingerprint",
    "pretrain_cache_key",
    "pretrain_key",
    "run_key",
    "warm_pretrain",
]
