"""Feature construction helpers shared by the dataset builders.

The paper row-normalises every feature matrix with the Euclidean norm and,
for the attribute-free air-traffic networks, uses a one-hot encoding of the
node degree as the feature matrix (Section 5.1).  Both constructions are
reproduced here; :func:`row_normalize` lives with the feature formats in
:mod:`repro.graph.sparse` and keeps the format it is given.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.sparse import SparseAdjacency, row_normalize

__all__ = ["degree_one_hot_features", "row_normalize"]


def degree_one_hot_features(
    adjacency: SparseAdjacency, max_degree: Optional[int] = None
) -> np.ndarray:
    """One-hot encoding of the (capped) node degree.

    Parameters
    ----------
    adjacency:
        Binary symmetric CSR adjacency matrix.
    max_degree:
        Degrees above this value are clamped into the last bucket.  When
        ``None`` the maximum observed degree is used.
    """
    degrees = adjacency.out_degrees().astype(int)
    if max_degree is None:
        max_degree = int(degrees.max()) if degrees.size else 0
    capped = np.minimum(degrees, max_degree)
    features = np.zeros((degrees.shape[0], max_degree + 1))
    features[np.arange(degrees.shape[0]), capped] = 1.0
    return features
