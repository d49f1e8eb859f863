"""Hungarian (Kuhn-Munkres) assignment and label alignment.

The paper uses the Hungarian algorithm ``AH`` to map predicted cluster ids to
ground-truth classes both for the ACC metric and for building the supervised
counterpart ``Q' = AH(Q, P)`` used by the Λ_FR / Λ_FD diagnostics.

The self-contained O(n³) solver below is the only one: the cost matrices
are K × K with K the number of clusters (at most 7 for the bundled
datasets), small enough for a pure-Python solver.  The tests check it
against scipy's ``linear_sum_assignment``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


def hungarian_algorithm(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment on a square or rectangular cost matrix.

    Pure numpy/python Jonker-style shortest augmenting path implementation.
    Returns ``(row_indices, col_indices)`` like scipy's
    ``linear_sum_assignment``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    transposed = False
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
        transposed = True
    n, m = cost.shape
    # Potentials and matching arrays (1-indexed internally).
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=int)  # p[j] = row matched to column j
    way = np.zeros(m + 1, dtype=int)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = np.inf
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    rows: List[int] = []
    cols: List[int] = []
    for j in range(1, m + 1):
        if p[j] != 0:
            rows.append(p[j] - 1)
            cols.append(j - 1)
    rows_arr = np.array(rows, dtype=int)
    cols_arr = np.array(cols, dtype=int)
    order = np.argsort(rows_arr)
    rows_arr, cols_arr = rows_arr[order], cols_arr[order]
    if transposed:
        return cols_arr, rows_arr
    return rows_arr, cols_arr


def hungarian_matching(
    true_labels: np.ndarray, predicted_labels: np.ndarray
) -> Dict[int, int]:
    """Best mapping from predicted cluster ids to ground-truth class ids.

    Maximises the number of correctly matched samples.  Returns a dictionary
    ``{predicted_id: true_id}`` covering every predicted id.
    """
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    if true_labels.shape != predicted_labels.shape:
        raise ValueError("label arrays must have the same shape")
    num_classes = int(max(true_labels.max(), predicted_labels.max())) + 1
    contingency = np.zeros((num_classes, num_classes))
    np.add.at(contingency, (predicted_labels, true_labels), 1.0)
    rows, cols = hungarian_algorithm(contingency.max() - contingency)
    return {int(r): int(c) for r, c in zip(rows, cols)}


def align_labels(true_labels: np.ndarray, predicted_labels: np.ndarray) -> np.ndarray:
    """Relabel predictions with the Hungarian-optimal mapping to true classes.

    This is the paper's ``Q' = AH(Q, P)`` operation expressed on hard labels:
    the returned array lives in the ground-truth label space.
    """
    mapping = hungarian_matching(true_labels, predicted_labels)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    lookup = np.zeros(max(mapping) + 1, dtype=np.int64)
    lookup[list(mapping.keys())] = list(mapping.values())
    return np.asarray(np.take(lookup, predicted_labels))
