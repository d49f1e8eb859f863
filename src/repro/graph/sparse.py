"""CSR sparse matrices: the one graph format of the library.

Every graph this code base trains on is stored as a compressed sparse row
(CSR) matrix — :class:`SparseAdjacency` — from the moment it enters an
:class:`~repro.graph.graph.AttributedGraph`.  Real attributed graphs are
extremely sparse (|E| ≪ N²), so the class carries the handful of
operations the training path needs, each in O(|E|) per feature column:

* construction from a dense matrix, a COO triple or an undirected edge list,
* rectangular (N, F) matrices too, for bag-of-words node features, with a
  row gather (``matrix[rows]``) for the minibatch blocks, dense row blocks
  for the row norms and digests, and :func:`row_normalize`,
* symmetric normalisation ``D^{-1/2} (A + I) D^{-1/2}`` with the same
  isolated-node handling as the dense :func:`repro.graph.laplacian.normalize_adjacency`,
* sparse @ dense multiplication (``spmm``) in O(|E| d), through a
  position-major copy of the entries built once per matrix: rows sorted by
  degree, and in-row position ``p`` of every row of degree ≤
  :data:`ROW_CAP` stored as one contiguous run, so a product costs one
  numpy add per run instead of one ``bincount`` per feature column,
* cached degrees and a cached transpose (for the autograd backward pass),
* induced subgraphs and neighbour sampling for the minibatch loaders.

The class is deliberately numpy-only, like the rest of the library (numpy
is its one runtime dependency).  Code that needs an (N, N) array by
definition calls :meth:`SparseAdjacency.to_dense` itself, and code that
needs dense features calls :func:`as_dense`; :func:`propagation_matrix` is
the single place that decides whether a whole graph propagates through
CSR or through a dense BLAS matrix, and :func:`feature_matrix` the one
that decides the format its features are held in, from the generator to
the first GCN layer.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

__all__ = [
    "SparseAdjacency",
    "propagation_matrix",
    "feature_matrix",
    "row_normalize",
    "as_dense",
    "ROW_BLOCK",
    "SPARSE_NODE_THRESHOLD",
    "SPARSE_DENSITY_THRESHOLD",
    "FEATURE_DENSITY_THRESHOLD",
    "ROW_CAP",
]

#: below this many nodes the dense BLAS path is at least as fast as CSR, and
#: keeping the tiny seed graphs dense preserves bit-identical seed behaviour.
SPARSE_NODE_THRESHOLD = 256

#: above this edge density CSR stops paying for itself.
SPARSE_DENSITY_THRESHOLD = 0.25

#: at most this share of non-zero features, the first GCN layer's ``X W``
#: (forward plus backward, d = 32) is faster through CSR than through dense
#: BLAS.  The crossover lies between 2.5 % and 4 %, lower on larger graphs.
FEATURE_DENSITY_THRESHOLD = 0.02

#: rows with more stored entries than this are left out of spmm's
#: position-major runs and summed per feature column with ``np.bincount``:
#: one hub row would otherwise add one short run per entry, which makes a
#: star graph several times slower.
ROW_CAP = 64

#: gathered (entries × columns) elements per spmm step, which bounds the
#: product's transient memory independently of nnz.
SPMM_CHUNK = 1 << 16

#: rows of a dense block at a time, wherever an (N, F) or (N, N) matrix is
#: only ever needed piecewise (random draws, row norms, digests).
ROW_BLOCK = 256


class _SpmmLayout(NamedTuple):
    """The entries of a :class:`SparseAdjacency` in spmm order.

    Rows are ranked by degree (descending, stable); ``rank[i]`` is row
    ``i``'s place.  The ``num_heavy`` rows above :data:`ROW_CAP` come first
    and keep their entries row-major (``heavy_rows`` holds each entry's
    place among them).  For the other rows, run ``r`` —
    ``cols[bounds[r]:bounds[r + 1]]`` and ``vals[...]`` — holds in-row
    position ``r`` of the first ``bounds[r + 1] − bounds[r]`` of them.
    ``plans`` caches :meth:`plan` per chunk size.
    """

    rank: np.ndarray
    num_heavy: int
    heavy_rows: np.ndarray
    heavy_cols: np.ndarray
    heavy_vals: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    bounds: List[int]
    plans: Dict[int, List[Tuple[slice, List[Tuple[slice, slice]]]]]

    def plan(self, step: int) -> List[Tuple[slice, List[Tuple[slice, slice]]]]:
        """The run entries cut into chunks of ``step`` (cached per ``step``).

        Each chunk comes with the pieces of the runs it holds, as (rows of
        the light part of the output, rows of the chunk) slice pairs.
        """
        plan = self.plans.get(step)
        if plan is None:
            bounds, plan, run = self.bounds, [], 0
            for lo in range(0, bounds[-1], step):
                hi = min(lo + step, bounds[-1])
                pieces = []
                start = lo
                while start < hi:
                    # entry bounds[run] + k of run `run` belongs to light row k
                    stop = min(hi, bounds[run + 1])
                    row = start - bounds[run]
                    pieces.append(
                        (slice(row, row + stop - start), slice(start - lo, stop - lo))
                    )
                    if stop == bounds[run + 1]:
                        run += 1
                    start = stop
                plan.append((slice(lo, hi), pieces))
            self.plans[step] = plan
        return plan


class SparseAdjacency:
    """A CSR-format sparse matrix specialised for graph adjacencies.

    Attributes
    ----------
    data:
        (nnz,) float64 non-zero values, row-major.
    indices:
        (nnz,) int64 column index of each value.
    indptr:
        (N + 1,) int64 row pointer: row ``i`` owns ``data[indptr[i]:indptr[i+1]]``.
    shape:
        ``(N, N)`` for an adjacency, ``(N, F)`` for a feature matrix.

    A rectangular matrix supports what a constant operand of a product
    needs: :meth:`matmul`, :meth:`transpose`, the row gather
    ``matrix[rows]``, degrees, :meth:`scale`, :meth:`canonical` and the
    conversions, :meth:`dense_row_blocks` among them.  The
    graph operations (:attr:`num_nodes`, :meth:`add_self_loops`,
    :meth:`normalize`, :meth:`induced_subgraph`, :meth:`sample_neighbors`,
    :meth:`quadratic_form_cross_term`) raise ``ValueError`` on it.

    Instances are immutable by convention: every edit operation returns a new
    object so cached degrees, transposes and spmm layouts can never go stale.
    """

    __slots__ = (
        "data",
        "indices",
        "indptr",
        "shape",
        "_out_degrees",
        "_in_degrees",
        "_transpose",
        "_row_indices",
        "_layout",
    )

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        if self.indptr.shape[0] != self.shape[0] + 1:
            raise ValueError(
                f"indptr must have N + 1 = {self.shape[0] + 1} entries, "
                f"got {self.indptr.shape[0]}"
            )
        if self.data.shape != self.indices.shape:
            raise ValueError("data and indices must have the same length")
        if self.indptr[0] != 0 or self.indptr[-1] != self.nnz or np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must start at 0, never decrease and end at nnz")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.shape[1]
        ):
            raise ValueError("column indices out of range")
        self._out_degrees: Optional[np.ndarray] = None
        self._in_degrees: Optional[np.ndarray] = None
        self._transpose: Optional["SparseAdjacency"] = None
        self._row_indices: Optional[np.ndarray] = None
        self._layout: Optional[_SpmmLayout] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseAdjacency":
        """Build from a dense (N, N) matrix, keeping only non-zero entries."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {dense.shape}")
        return cls.from_matrix(dense)

    @classmethod
    def from_matrix(cls, dense: np.ndarray) -> "SparseAdjacency":
        """Build from any dense 2-D matrix, such as (N, F) features, keeping
        only non-zero entries."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        return cls._from_sorted_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        num_nodes: int,
    ) -> "SparseAdjacency":
        """Build from coordinate triples; duplicate coordinates are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must have the same length")
        n = int(num_nodes)
        if rows.size and (
            rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n
        ):
            raise ValueError("coordinates out of range")
        keys = rows * n + cols
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        summed = np.bincount(inverse, weights=values, minlength=unique_keys.shape[0])
        return cls._from_sorted_coo(
            unique_keys // n, unique_keys % n, summed, (n, n)
        )

    @classmethod
    def from_edges(
        cls,
        edges: np.ndarray,
        num_nodes: int,
        weights: Optional[np.ndarray] = None,
        undirected: bool = True,
    ) -> "SparseAdjacency":
        """Build from an (E, 2) edge list.

        With ``undirected=True`` (default) each listed edge ``(i, j)`` also
        inserts ``(j, i)``; self loops are inserted once.  Duplicate edges
        are summed (see :meth:`from_coo`).
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be (E, 2), got shape {edges.shape}")
        rows, cols = edges[:, 0], edges[:, 1]
        if weights is None:
            values = np.ones(rows.shape[0], dtype=np.float64)
        else:
            values = np.asarray(weights, dtype=np.float64)
            if values.shape != rows.shape:
                raise ValueError("weights must align with edges")
        if undirected:
            off_diagonal = rows != cols
            reverse_rows, reverse_cols = cols[off_diagonal], rows[off_diagonal]
            rows = np.concatenate([rows, reverse_rows])
            cols = np.concatenate([cols, reverse_cols])
            values = np.concatenate([values, values[off_diagonal]])
        return cls.from_coo(rows, cols, values, num_nodes)

    @classmethod
    def _from_sorted_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
    ) -> "SparseAdjacency":
        """Internal: build from coordinates already sorted by (row, col)."""
        counts = np.bincount(rows, minlength=shape[0])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(values, cols, indptr, shape)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def _square(self, operation: str) -> int:
        """N of an (N, N) matrix; ``ValueError`` names ``operation`` otherwise."""
        if self.shape[0] != self.shape[1]:
            raise ValueError(f"{operation} needs a square adjacency, got shape {self.shape}")
        return self.shape[0]

    @property
    def num_nodes(self) -> int:
        return self._square("num_nodes")

    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) entries."""
        return int(self.data.shape[0])

    @property
    def density(self) -> float:
        """nnz / N² (0.0 for the empty graph)."""
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    def __repr__(self) -> str:
        return f"SparseAdjacency(shape={self.shape}, nnz={self.nnz})"

    def coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` coordinate views of the matrix."""
        return self.row_indices(), self.indices, self.data

    def row_indices(self) -> np.ndarray:
        """Expanded (nnz,) row index of every stored entry (cached)."""
        if self._row_indices is None:
            self._row_indices = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
            )
        return self._row_indices

    def to_dense(self) -> np.ndarray:
        """Materialise the dense matrix."""
        dense = np.zeros(self.shape, dtype=np.float64)
        dense[self.row_indices(), self.indices] = self.data
        return dense

    def dense_row_blocks(self) -> Iterator[np.ndarray]:
        """The dense matrix, :data:`ROW_BLOCK` rows at a time, top to bottom.

        Each block is a fresh C-ordered array, so the blocks' bytes follow
        one another exactly like those of :meth:`to_dense`'s result.
        """
        rows = self.row_indices()
        for start in range(0, self.shape[0], ROW_BLOCK):
            stop = min(start + ROW_BLOCK, self.shape[0])
            entries = slice(self.indptr[start], self.indptr[stop])
            block = np.zeros((stop - start, self.shape[1]), dtype=np.float64)
            block[rows[entries] - start, self.indices[entries]] = self.data[entries]
            yield block

    def canonical(self) -> "SparseAdjacency":
        """The same matrix with sorted columns in every row and no stored
        zeros; ``self`` when it already is.  Duplicate coordinates raise
        ``ValueError``."""
        rows, cols, values = self.coo()
        keys = rows * self.shape[1] + cols
        if np.all(np.diff(keys) > 0) and np.all(values != 0.0):
            return self
        order = np.argsort(keys, kind="stable")
        if np.any(np.diff(keys[order]) == 0):
            raise ValueError("matrix has duplicate entries")
        order = order[values[order] != 0.0]
        return SparseAdjacency._from_sorted_coo(rows[order], cols[order], values[order], self.shape)

    def copy(self) -> "SparseAdjacency":
        return SparseAdjacency(
            self.data.copy(), self.indices.copy(), self.indptr.copy(), self.shape
        )

    # ------------------------------------------------------------------
    # degrees
    # ------------------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        """Row sums (cached) — the degree vector for symmetric adjacencies."""
        if self._out_degrees is None:
            self._out_degrees = np.bincount(
                self.row_indices(), weights=self.data, minlength=self.shape[0]
            )
        return self._out_degrees

    def in_degrees(self) -> np.ndarray:
        """Column sums (cached)."""
        if self._in_degrees is None:
            self._in_degrees = np.bincount(
                self.indices, weights=self.data, minlength=self.shape[1]
            )
        return self._in_degrees

    # ------------------------------------------------------------------
    # structural edits (each returns a new instance)
    # ------------------------------------------------------------------
    def add_self_loops(self, value: float = 1.0) -> "SparseAdjacency":
        """Return ``A + value·I`` (existing diagonal entries are summed)."""
        n = self._square("add_self_loops")
        diag = np.arange(n, dtype=np.int64)
        rows = np.concatenate([self.row_indices(), diag])
        cols = np.concatenate([self.indices, diag])
        values = np.concatenate([self.data, np.full(n, float(value))])
        return SparseAdjacency.from_coo(rows, cols, values, n)

    def scale(self, row_factors: np.ndarray, col_factors: np.ndarray) -> "SparseAdjacency":
        """Return ``diag(row_factors) @ A @ diag(col_factors)``."""
        row_factors = np.asarray(row_factors, dtype=np.float64)
        col_factors = np.asarray(col_factors, dtype=np.float64)
        data = self.data * row_factors[self.row_indices()] * col_factors[self.indices]
        return SparseAdjacency(data, self.indices.copy(), self.indptr.copy(), self.shape)

    def normalize(self, self_loops: bool = True) -> "SparseAdjacency":
        """Symmetric normalisation ``D^{-1/2} A D^{-1/2}``.

        Mirrors :func:`repro.graph.laplacian.normalize_adjacency` exactly:
        self loops are added first when requested and isolated nodes keep a
        zero row/column instead of producing NaNs.
        """
        self._square("normalize")
        matrix = self.add_self_loops() if self_loops else self
        degrees = matrix.out_degrees()
        inv_sqrt = np.zeros_like(degrees)
        nonzero = degrees > 0
        inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
        return matrix.scale(inv_sqrt, inv_sqrt)

    def transpose(self) -> "SparseAdjacency":
        """CSR transpose (cached both ways)."""
        if self._transpose is None:
            order = np.argsort(self.indices, kind="stable")
            t_rows = self.indices[order]
            t_cols = self.row_indices()[order]
            t_data = self.data[order]
            counts = np.bincount(t_rows, minlength=self.shape[1])
            indptr = np.concatenate([[0], np.cumsum(counts)])
            transposed = SparseAdjacency(
                t_data, t_cols, indptr, (self.shape[1], self.shape[0])
            )
            transposed._transpose = self
            self._transpose = transposed
        return self._transpose

    @property
    def T(self) -> "SparseAdjacency":
        return self.transpose()

    # ------------------------------------------------------------------
    # products
    # ------------------------------------------------------------------
    def _spmm_layout(self) -> _SpmmLayout:
        """The position-major entry order :meth:`matmul` walks (cached)."""
        if self._layout is None:
            degrees = np.diff(self.indptr)
            order = np.argsort(-degrees, kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(order.shape[0], dtype=np.int64)
            num_heavy = int(np.count_nonzero(degrees > ROW_CAP))
            heavy, _, heavy_rows = self._gather_rows(order[:num_heavy])
            light = order[num_heavy:]
            light_degrees = degrees[light]
            runs = int(light_degrees[0]) if light.size else 0
            # run r holds the light rows of degree > r: a prefix of `light`
            counts = np.searchsorted(-light_degrees, -np.arange(runs), side="left")
            starts = self.indptr[light]
            runs_of = [starts[:count] + r for r, count in enumerate(counts)]
            positions = np.concatenate(runs_of) if runs_of else starts[:0]
            self._layout = _SpmmLayout(
                rank=rank,
                num_heavy=num_heavy,
                heavy_rows=heavy_rows,
                heavy_cols=self.indices[heavy],
                heavy_vals=self.data[heavy],
                cols=self.indices[positions],
                vals=self.data[positions],
                bounds=[0] + np.cumsum(counts).tolist(),
                plans={},
            )
        return self._layout

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """``A @ X`` for a dense (N, d) matrix or (N,) vector in O(nnz · d).

        The product walks the cached position-major layout: a step gathers
        and scales the ``X`` rows of at most :data:`SPMM_CHUNK` elements'
        worth of entries, then adds each run's share of them into the
        prefix of the degree-ordered output that its rows occupy; one row
        gather restores the row order.  Rows above :data:`ROW_CAP` are
        summed per column with ``np.bincount`` over their own entries.
        Either way every output element is the sum, from 0.0 and in stored
        order, of the same products the per-column ``bincount`` kernel adds,
        so the result is bit-identical to it.
        """
        dense = np.asarray(dense, dtype=np.float64)
        is_vector = dense.ndim == 1
        if is_vector:
            dense = dense[:, None]
        if dense.ndim != 2 or dense.shape[0] != self.shape[1]:
            raise ValueError(
                f"dimension mismatch: {self.shape} @ {dense.shape}"
            )
        layout = self._spmm_layout()
        d = dense.shape[1]
        out = np.zeros((self.shape[0], d))
        if layout.num_heavy:
            heavy = out[: layout.num_heavy]
            for column in range(d):
                heavy[:, column] = np.bincount(
                    layout.heavy_rows,
                    weights=layout.heavy_vals * dense[:, column][layout.heavy_cols],
                    minlength=layout.num_heavy,
                )
        light = out[layout.num_heavy :]
        for chunk, pieces in layout.plan(max(1, SPMM_CHUNK // max(d, 1))):
            products = np.take(dense, layout.cols[chunk], axis=0)
            np.multiply(layout.vals[chunk, None], products, out=products)
            for rows, part in pieces:
                light[rows] += products[part]
        out = np.take(out, layout.rank, axis=0)
        return out[:, 0] if is_vector else out

    def __matmul__(self, other) -> np.ndarray:
        return self.matmul(other)

    # ------------------------------------------------------------------
    # subgraph extraction and neighbour sampling (minibatch substrate)
    # ------------------------------------------------------------------
    def _gather_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions, per-row counts and local row ids of the entries stored
        in the given rows, gathered without any python-level loop."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, counts, empty
        # offset of each gathered entry inside its own row slice
        ends = np.cumsum(counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
        positions = np.repeat(starts, counts) + offsets
        local_rows = np.repeat(np.arange(rows.shape[0], dtype=np.int64), counts)
        return positions, counts, local_rows

    def _row_ids(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` as a validated 1-D int64 array of row indices."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError(f"row indices must be a 1-D array, got shape {rows.shape}")
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise ValueError("row indices out of range")
        return rows

    def __getitem__(self, rows: np.ndarray) -> "SparseAdjacency":
        """The rows ``rows`` (a 1-D index array, in that order) as a new
        (len(rows), F) matrix, like ``dense[rows]``: the minibatch loaders
        cut a block's features this way whatever their format."""
        rows = self._row_ids(rows)
        positions, counts, _ = self._gather_rows(rows)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return SparseAdjacency(
            self.data[positions], self.indices[positions], indptr, (rows.shape[0], self.shape[1])
        )

    def induced_subgraph(self, nodes: np.ndarray) -> "SparseAdjacency":
        """The subgraph induced by ``nodes``, renumbered to ``0..len(nodes)-1``.

        Row/column ``i`` of the result corresponds to ``nodes[i]`` (the given
        order defines the renumbering, so callers control the block layout).
        Every stored entry whose endpoints both lie in ``nodes`` is kept with
        its value; everything else is dropped.  Cost is O(deg(nodes) + B log B).
        """
        n = self._square("induced_subgraph")
        nodes = self._row_ids(nodes)
        local = np.full(n, -1, dtype=np.int64)
        order = np.arange(nodes.shape[0], dtype=np.int64)
        local[nodes] = order
        # A repeated node keeps one of its positions, so another reads back wrong.
        if not np.array_equal(local[nodes], order):
            raise ValueError("nodes must not contain duplicates")
        positions, _, local_rows = self._gather_rows(nodes)
        cols = self.indices[positions]
        keep = local[cols] >= 0
        return SparseAdjacency.from_coo(
            local_rows[keep], local[cols[keep]], self.data[positions[keep]], nodes.shape[0]
        )

    def sample_neighbors(
        self,
        seeds: np.ndarray,
        fanout: int,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample up to ``fanout`` neighbours of each seed without replacement.

        Returns ``(sources, targets)`` — global node ids of the sampled
        edges, grouped by seed.  Seeds with degree ≤ ``fanout`` keep all
        their neighbours.  Sampling is fully vectorised (a random key per
        candidate edge, ranked within each seed's slice) and deterministic
        for a given ``rng`` state, which is what makes minibatch sequences
        reproducible across processes.
        """
        self._square("sample_neighbors")
        seeds = np.asarray(seeds, dtype=np.int64)
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        if seeds.size and (seeds.min() < 0 or seeds.max() >= self.shape[0]):
            raise ValueError("seed indices out of range")
        positions, counts, local_rows = self._gather_rows(seeds)
        if positions.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        keys = rng.random(positions.shape[0])
        # Stable group-by-seed sort with random order inside each group.
        order = np.lexsort((keys, local_rows))
        ends = np.cumsum(counts)
        rank_in_group = np.arange(positions.shape[0], dtype=np.int64) - np.repeat(
            ends - counts, counts
        )
        chosen = order[rank_in_group < fanout]
        return seeds[local_rows[chosen]], self.indices[positions[chosen]]

    def quadratic_form_cross_term(self, embeddings: np.ndarray) -> float:
        """``Σ_ij a_ij (z_i · z_j)`` computed edge-wise, never forming Z Zᵀ."""
        self._square("quadratic_form_cross_term")
        if not self.nnz:
            return 0.0
        z = np.asarray(embeddings, dtype=np.float64)
        rows = self.row_indices()
        total = 0.0
        # Chunk the (nnz, d) gather so huge graphs stay memory-bounded.
        chunk = max(1, 1 << 18)
        for start in range(0, self.nnz, chunk):
            stop = min(start + chunk, self.nnz)
            dots = np.einsum(
                "ij,ij->i", z[rows[start:stop]], z[self.indices[start:stop]]
            )
            total += float(self.data[start:stop] @ dots)
        return total


def propagation_matrix(
    adjacency: SparseAdjacency,
    self_loops: bool = True,
) -> Union[np.ndarray, SparseAdjacency]:
    """Normalised GCN propagation matrix of a whole graph.

    Large (≥ :data:`SPARSE_NODE_THRESHOLD` nodes) and sparse (density ≤
    :data:`SPARSE_DENSITY_THRESHOLD`) graphs propagate through the CSR
    normalisation; smaller or denser ones get the dense
    :func:`~repro.graph.laplacian.normalize_adjacency` result, so they keep
    the exact BLAS code path (and bit-identical results).  The backend
    therefore depends on the graph alone.  Minibatch blocks normalise
    themselves with :meth:`SparseAdjacency.normalize` instead.
    """
    from repro.graph.laplacian import normalize_adjacency

    n = adjacency.num_nodes
    if n >= SPARSE_NODE_THRESHOLD and adjacency.density <= SPARSE_DENSITY_THRESHOLD:
        return adjacency.normalize(self_loops=self_loops)
    return normalize_adjacency(adjacency.to_dense(), self_loops=self_loops)


def feature_matrix(
    features: Union[np.ndarray, SparseAdjacency],
) -> Union[np.ndarray, SparseAdjacency]:
    """The (N, F) node features in the format the graph holds them in.

    Features of graphs with ≥ :data:`SPARSE_NODE_THRESHOLD` nodes of which
    at most :data:`FEATURE_DENSITY_THRESHOLD` are non-zero (bag-of-words
    attributes) are a canonical rectangular :class:`SparseAdjacency`
    (:meth:`~SparseAdjacency.canonical`), so ``X W`` and its backward
    ``Xᵀ G`` run through the CSR kernel.  Smaller or denser ones are a
    dense array and keep the exact BLAS path (bit-identical results).
    Either format comes in, and an input already in its format comes back
    as the same object.  Like :func:`propagation_matrix`, the choice
    depends on the graph alone; :class:`~repro.graph.graph.AttributedGraph`
    applies it once, when it is built.
    """
    if isinstance(features, SparseAdjacency):
        features = features.canonical()
        nonzero = features.nnz
    else:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            return features
        nonzero = np.count_nonzero(features)
    rows, cols = features.shape
    sparse = rows >= SPARSE_NODE_THRESHOLD and nonzero <= FEATURE_DENSITY_THRESHOLD * rows * cols
    if sparse == isinstance(features, SparseAdjacency):
        return features
    return SparseAdjacency.from_matrix(features) if sparse else features.to_dense()


#: per-row scale of each :func:`row_normalize` norm, over a dense row block.
_ROW_SCALES = {
    "l2": lambda rows: np.linalg.norm(rows, axis=1),
    "l1": lambda rows: np.abs(rows).sum(axis=1),
}


def row_normalize(
    features: Union[np.ndarray, SparseAdjacency], norm: str = "l2"
) -> Union[np.ndarray, SparseAdjacency]:
    """Row-normalise a feature matrix, in the format it comes in.

    ``norm`` is ``"l2"`` (Euclidean, the paper's choice) or ``"l1"``.
    All-zero rows are left untouched.  CSR rows are scaled by the norms of
    their dense row blocks (:meth:`SparseAdjacency.dense_row_blocks`): a
    sum over the non-zeros alone would add in another order, so the result
    is bit-identical to normalising the dense array.
    """
    if norm not in _ROW_SCALES:
        raise ValueError(f"unknown norm: {norm!r}")
    row_scale = _ROW_SCALES[norm]
    if isinstance(features, SparseAdjacency):
        scale = np.empty(features.shape[0])
        start = 0
        for block in features.dense_row_blocks():
            scale[start : start + block.shape[0]] = row_scale(block)
            start += block.shape[0]
        scale[scale == 0.0] = 1.0
        data = features.data / scale[features.row_indices()]
        return SparseAdjacency(data, features.indices, features.indptr, features.shape).canonical()
    features = np.asarray(features, dtype=np.float64)
    scale = row_scale(features)[:, None]
    scale[scale == 0.0] = 1.0
    return features / scale


def as_dense(matrix: Union[np.ndarray, SparseAdjacency]) -> np.ndarray:
    """``matrix`` as an array: CSR is materialised, an array comes back as is.

    For the code that needs a feature matrix dense by definition (the
    spectral and matrix-factorisation baselines, Gaussian feature noise).
    """
    if isinstance(matrix, SparseAdjacency):
        return matrix.to_dense()
    return np.asarray(matrix, dtype=np.float64)
