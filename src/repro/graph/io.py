"""Persistence of attributed graphs as compressed ``.npz`` archives."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.graph.graph import AttributedGraph

PathLike = Union[str, Path]


def save_graph_npz(graph: AttributedGraph, path: PathLike) -> None:
    """Serialise a graph (dense adjacency, features, labels, metadata) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {
        "adjacency": graph.adjacency.to_dense(),
        "features": graph.features,
        "name": np.array(graph.name),
        "metadata_json": np.array(json.dumps(graph.metadata, default=str)),
    }
    if graph.labels is not None:
        arrays["labels"] = graph.labels
    np.savez_compressed(path, **arrays)


def load_graph_npz(path: PathLike) -> AttributedGraph:
    """Load a graph previously written by :func:`save_graph_npz`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        labels = archive["labels"] if "labels" in archive.files else None
        metadata = json.loads(str(archive["metadata_json"]))
        return AttributedGraph(
            adjacency=archive["adjacency"],
            features=archive["features"],
            labels=labels,
            name=str(archive["name"]),
            metadata=metadata,
        )
