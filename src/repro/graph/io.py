"""Persistence of attributed graphs as compressed ``.npz`` archives.

An archive holds plain arrays only, so it loads with ``allow_pickle=False``.
A CSR matrix ``<m>`` is stored as ``<m>_data``, ``<m>_indices``,
``<m>_indptr`` and ``<m>_shape``; a dense one as the array ``<m>``.  The
adjacency is always CSR and the features keep the format the graph holds
them in.  Archives of the older layout, with a dense ``adjacency`` array,
load too.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.graph.graph import AttributedGraph, Features
from repro.graph.sparse import SparseAdjacency

PathLike = Union[str, Path]

#: the arrays of a CSR matrix in an archive, after its name and ``_``.
_CSR_PARTS = ("data", "indices", "indptr", "shape")


def _matrix_arrays(name: str, matrix: Features) -> Dict[str, np.ndarray]:
    if not isinstance(matrix, SparseAdjacency):
        return {name: matrix}
    parts = (matrix.data, matrix.indices, matrix.indptr, np.array(matrix.shape))
    return {f"{name}_{part}": array for part, array in zip(_CSR_PARTS, parts)}


def _load_matrix(archive, name: str) -> Features:
    if name in archive.files:
        return archive[name]
    data, indices, indptr, shape = (archive[f"{name}_{part}"] for part in _CSR_PARTS)
    return SparseAdjacency(data, indices, indptr, tuple(shape))


def save_graph_npz(graph: AttributedGraph, path: PathLike) -> None:
    """Serialise a graph (CSR adjacency, features, labels, metadata) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {
        **_matrix_arrays("adjacency", graph.adjacency),
        **_matrix_arrays("features", graph.features),
        "name": np.array(graph.name),
        "metadata_json": np.array(json.dumps(graph.metadata, default=str)),
    }
    if graph.labels is not None:
        arrays["labels"] = graph.labels
    np.savez_compressed(path, **arrays)


def load_graph_npz(path: PathLike) -> AttributedGraph:
    """Load a graph written by :func:`save_graph_npz`, in either layout."""
    with np.load(Path(path), allow_pickle=False) as archive:
        labels = archive["labels"] if "labels" in archive.files else None
        metadata = json.loads(str(archive["metadata_json"]))
        return AttributedGraph(
            adjacency=_load_matrix(archive, "adjacency"),
            features=_load_matrix(archive, "features"),
            labels=labels,
            name=str(archive["name"]),
            metadata=metadata,
        )
