"""Stable, content-addressed keys for the artifact store.

Every artifact is identified by a SHA-256 over a *canonical* JSON rendering
of its identity — the same ``(dataset, model, variant, seed, config)``
coordinates that identify a trial, mirroring how
:func:`repro.parallel.load_dataset_cached` keys its per-process dataset
cache.  Canonicalisation sorts dict keys recursively and normalises numpy
scalars/arrays and tuples, so the key is independent of dict insertion
order, process boundaries and Python hash randomisation: the same logical
identity always maps to the same hex digest, in any process, on any run.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, Tuple

import numpy as np

from repro.errors import StoreError
from repro.graph.sparse import SparseAdjacency


def _canonical(value: Any) -> Any:
    """Recursively normalise ``value`` into canonical JSON-compatible data."""
    if isinstance(value, dict):
        normalised = {}
        for key in value:
            if not isinstance(key, str):
                raise StoreError(
                    f"store keys require string dict keys, got {type(key).__name__}: {key!r}"
                )
            normalised[key] = _canonical(value[key])
        return {key: normalised[key] for key in sorted(normalised)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.shape, "sha256": array_digest(value)}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise StoreError(
        f"cannot build a stable store key from {type(value).__name__}: {value!r}"
    )


def canonical_json(payload: Any) -> str:
    """The canonical JSON text hashed by :func:`config_hash` (sorted keys)."""
    return json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))


def config_hash(payload: Any) -> str:
    """Hex SHA-256 of the canonical JSON rendering of ``payload``.

    Stable across dict key orderings, tuples vs lists, numpy vs builtin
    scalars, and process restarts.
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _digest(dtype: Any, shape: Tuple[int, ...], blocks: Iterable[np.ndarray]) -> str:
    """Hex SHA-256 of a dtype and shape header, then the blocks' C-order bytes."""
    digest = hashlib.sha256()
    digest.update(str(dtype).encode("utf-8"))
    digest.update(str(shape).encode("utf-8"))
    for block in blocks:
        digest.update(block.tobytes())
    return digest.hexdigest()


def array_digest(array: np.ndarray) -> str:
    """Hex SHA-256 of an array's dtype, shape and contiguous bytes.

    Anything but an ``np.ndarray`` raises ``TypeError``: numpy would wrap
    another object in a 0-d object array, whose bytes are a pointer.
    """
    if not isinstance(array, np.ndarray):
        raise TypeError(f"array_digest takes an np.ndarray, got {type(array).__name__}")
    array = np.ascontiguousarray(array)
    return _digest(array.dtype, array.shape, [array])


def _features_digest(features: Any) -> str:
    """:func:`array_digest` of the dense feature matrix, in either format.

    CSR features are streamed as dense row blocks, so they hash to the
    digest of their dense array without materialising it.
    """
    if isinstance(features, SparseAdjacency):
        return _digest(np.dtype(np.float64), features.shape, features.dense_row_blocks())
    return array_digest(features)


def graph_fingerprint(graph: Any) -> Dict[str, Any]:
    """Content identity of an :class:`~repro.graph.graph.AttributedGraph`.

    Used when a trial is driven from an explicit graph (no registry dataset
    spec to key on): the adjacency and feature *contents* identify the
    pretraining input, so corrupted/robustness-sweep graphs never alias the
    clean dataset they were derived from.  The adjacency digest covers the
    CSR structure, which the graph container keeps canonical (sorted rows,
    every value 1.0); the feature digest covers the dense values, whatever
    format the graph holds them in.
    """
    adjacency = graph.adjacency
    return {
        "name": getattr(graph, "name", "graph"),
        "num_nodes": int(graph.num_nodes),
        "adjacency": [array_digest(adjacency.indptr), array_digest(adjacency.indices)],
        "features": _features_digest(graph.features),
    }


def pretrain_key(
    *,
    dataset: Any,
    model: Any,
    seed: int,
    pretrain_epochs: int,
) -> str:
    """Key of a shared pretraining snapshot.

    Deliberately excludes the trial *variant*: the paper's fairness protocol
    makes D and R-D share pretraining weights, so both variants of a pair
    resolve to the same snapshot.  ``dataset`` is either a dataset-spec dict
    (registry trials) or a :func:`graph_fingerprint` (explicit graphs);
    ``model`` is the model's configuration signature.  Nothing else changes
    the pretraining numerics: the propagation backend follows from the graph.
    """
    return config_hash(
        {
            "kind": "pretrain",
            "dataset": dataset,
            "model": model,
            "seed": int(seed),
            "pretrain_epochs": int(pretrain_epochs),
        }
    )


def run_key(spec_dict: Dict[str, Any]) -> str:
    """Key of a fully trained artifact: the hash of its complete RunSpec."""
    return config_hash({"kind": "run", "spec": spec_dict})
