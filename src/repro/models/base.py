"""Shared infrastructure for the GAE model family.

All six models of the paper share the same skeleton:

* a GCN encoder (two graph-convolution layers, 32 and 16 units),
* an inner-product decoder producing reconstruction logits ``Z Z^T``,
* a pretraining phase that minimises the (weighted) binary cross-entropy
  between the reconstructed and the input adjacency,
* a clustering phase that either applies a clustering algorithm to the
  frozen embeddings (first group) or optimises a joint clustering +
  reconstruction objective (second group).

:class:`GAEClusteringModel` captures that skeleton; concrete models override
the encoder construction, the extra loss terms (KL, adversarial) and the
clustering loss.  The interface is intentionally explicit about the
self-supervision graph used for reconstruction so the R- operators can swap
it for the clustering-oriented graph built by Υ.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.sanitizers import autograd_leak_check
from repro.clustering.assignments import estimate_cluster_moments
from repro.clustering.kmeans import KMeans
from repro.graph.graph import AttributedGraph
from repro.graph.sparse import SparseAdjacency, propagation_matrix
from repro.nn import functional as F
from repro.nn.layers import GraphConvolution
from repro.nn.module import Module
from repro.nn.optim import Adam, train_step
from repro.nn.tensor import Tensor, no_grad
from repro.observability.tracer import span as _span


def _copy_or_none(array) -> Optional[np.ndarray]:
    return None if array is None else np.array(array, copy=True)


def reconstruction_weights(num_nodes: int, positives: float) -> Tuple[float, float]:
    """Positive-class weight and loss normalisation of an (N, N) target
    whose entries sum to ``positives``.

    Real graphs are extremely sparse, so the standard GAE implementation
    re-weights positive entries by ``#neg / #pos`` and scales the mean loss
    by ``N² / (2 #neg)``.  :func:`reconstruction_target` computes both
    factors once per target, so they follow the self-supervision graph
    whenever Υ rebuilds it (adding and removing edges).
    """
    total = float(num_nodes * num_nodes)
    negatives = total - positives
    if positives == 0.0:
        return 1.0, 1.0
    pos_weight = negatives / positives
    norm = total / (2.0 * negatives) if negatives > 0 else 1.0
    return pos_weight, norm


def reconstruction_target(adjacency: SparseAdjacency) -> F.TiledTarget:
    """The prepared reconstruction target of ``adjacency``.

    The target includes self loops (as in the reference implementations),
    its values are clipped to [0, 1], and its sparsity determines the
    positive weight and the normalisation (:func:`reconstruction_weights`).
    Its stored entries are then bucketed by the tiles of ``Z Zᵀ``
    (:func:`~repro.nn.functional.tile_target`).  The result is read-only:
    the training loops build it once per graph and batch and pass it to
    every step that reconstructs that graph.
    """
    target = adjacency.add_self_loops()
    y = np.clip(target.data, 0.0, 1.0)
    pos_weight, norm = reconstruction_weights(target.num_nodes, float(y.sum()))
    return F.tile_target(
        target.row_indices(), target.indices, y, target.num_nodes, pos_weight, norm
    )


class GCNEncoder(Module):
    """Two-layer GCN encoder ``Z = GCN(GCN(X))`` (ReLU then linear)."""

    def __init__(
        self,
        in_features: int,
        hidden_dim: int,
        latent_dim: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.hidden_layer = GraphConvolution(in_features, hidden_dim, activation="relu", rng=rng)
        self.output_layer = GraphConvolution(hidden_dim, latent_dim, activation=None, rng=rng)

    def forward(self, features, adj_norm) -> Tensor:
        hidden = self.hidden_layer(features, adj_norm)
        return self.output_layer(hidden, adj_norm)


class VariationalGCNEncoder(Module):
    """GCN encoder with Gaussian posterior heads (mu, log_sigma)."""

    def __init__(
        self,
        in_features: int,
        hidden_dim: int,
        latent_dim: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.hidden_layer = GraphConvolution(in_features, hidden_dim, activation="relu", rng=rng)
        self.mu_layer = GraphConvolution(hidden_dim, latent_dim, activation=None, rng=rng)
        self.log_sigma_layer = GraphConvolution(hidden_dim, latent_dim, activation=None, rng=rng)

    def forward(self, features, adj_norm) -> Tuple[Tensor, Tensor]:
        hidden = self.hidden_layer(features, adj_norm)
        mu = self.mu_layer(hidden, adj_norm)
        log_sigma = self.log_sigma_layer(hidden, adj_norm)
        # Clip log-sigma to keep exp() well behaved on small synthetic graphs.
        return mu, log_sigma.clip(-10.0, 10.0)


@dataclass
class PretrainResult:
    """History returned by :meth:`GAEClusteringModel.pretrain`."""

    losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


class GAEClusteringModel(Module):
    """Base class of the six GAE clustering models.

    Parameters
    ----------
    num_features:
        Input feature dimensionality ``J``.
    num_clusters:
        Number of clusters ``K``.
    hidden_dim, latent_dim:
        Encoder layer widths (paper defaults: 32 and 16).
    learning_rate:
        Adam learning rate for both phases (paper default: 0.01).
    gamma:
        Balancing coefficient between clustering and reconstruction in the
        second-group joint objective (Eq. 5).
    seed:
        Seed controlling weight init, sampling and clustering restarts.
    """

    #: "first" (separate clustering) or "second" (joint clustering).
    group: str = "first"
    #: whether the encoder is variational (adds a KL term and sampling).
    variational: bool = False

    def __init__(
        self,
        num_features: int,
        num_clusters: int,
        hidden_dim: int = 32,
        latent_dim: int = 16,
        learning_rate: float = 0.01,
        gamma: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.num_clusters = int(num_clusters)
        self.hidden_dim = int(hidden_dim)
        self.latent_dim = int(latent_dim)
        self.learning_rate = float(learning_rate)
        self.gamma = float(gamma)
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)
        self._build_encoder()
        # Cached cluster parameters (set by init_clustering / refreshed during training).
        self.cluster_centers_: Optional[np.ndarray] = None
        self.cluster_variances_: Optional[np.ndarray] = None
        # Sharpened target distribution Q of second-group models.
        self._target: Optional[np.ndarray] = None
        # Posterior of the most recent encode() call (read by regularization_loss).
        self._last_mu: Optional[Tensor] = None
        self._last_log_sigma: Optional[Tensor] = None
        # Last k-means fit of a first-group model: (embeddings, labels).
        self._kmeans_memo: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # construction hooks
    # ------------------------------------------------------------------
    def _build_encoder(self) -> None:
        if self.variational:
            self.encoder = VariationalGCNEncoder(
                self.num_features, self.hidden_dim, self.latent_dim, self.rng
            )
        else:
            self.encoder = GCNEncoder(
                self.num_features, self.hidden_dim, self.latent_dim, self.rng
            )

    # ------------------------------------------------------------------
    # checkpointing hooks (see repro.store)
    # ------------------------------------------------------------------
    def config_signature(self) -> Dict[str, object]:
        """Stable scalar description of the model's construction.

        Collects the class name plus every public scalar attribute
        (constructor hyper-parameters such as widths, learning rate, gamma,
        seed, model-specific knobs).  :mod:`repro.store` hashes this into
        snapshot keys and embeds it in snapshots so a checkpoint can be
        validated against — and rebuilt for — the model that produced it.
        """
        signature: Dict[str, object] = {"class": type(self).__name__}
        for key in sorted(self.__dict__):
            if key.startswith("_") or key == "training":
                continue
            value = self.__dict__[key]
            if isinstance(value, (bool, int, float, str)):
                signature[key] = value
        return signature

    def extra_state(self) -> Dict[str, object]:
        """Non-parameter state a snapshot must carry beyond :meth:`state_dict`.

        The base capture covers the cached cluster moments, the clustering
        target Q and the model's RNG state (restoring it makes a resumed run
        consume the exact noise stream of an uninterrupted one).
        ``trainable_extras`` lists parameter names that only exist after
        clustering initialisation (e.g. DGAE's trainable centres):
        :class:`repro.store.Snapshot` uses it to validate checkpoints
        against freshly built models.
        """
        return {
            "trainable_extras": [],
            "cluster_centers": _copy_or_none(self.cluster_centers_),
            "cluster_variances": _copy_or_none(self.cluster_variances_),
            "target": _copy_or_none(self._target),
            "rng": copy.deepcopy(self.rng.bit_generator.state),
        }

    def load_extra_state(self, state: Dict[str, object], restore_rng: bool = True) -> None:
        """Inverse of :meth:`extra_state`.

        ``restore_rng=False`` keeps the model's own RNG stream — that is the
        paper's fairness protocol, where D and R-D both continue from shared
        pretraining weights with their freshly seeded generators.
        """
        self.cluster_centers_ = _copy_or_none(state.get("cluster_centers"))
        self.cluster_variances_ = _copy_or_none(state.get("cluster_variances"))
        self._target = _copy_or_none(state.get("target"))
        if restore_rng and state.get("rng") is not None:
            self.rng.bit_generator.state = copy.deepcopy(state["rng"])

    # ------------------------------------------------------------------
    # graph preparation
    # ------------------------------------------------------------------
    @staticmethod
    def prepare_inputs(
        graph: AttributedGraph,
    ) -> Tuple[np.ndarray, Union[np.ndarray, SparseAdjacency]]:
        """Return (row-normalised features, GCN propagation matrix).

        The propagation matrix is a :class:`~repro.graph.sparse.SparseAdjacency`
        for large sparse graphs and a dense array for small or dense ones (see
        :func:`~repro.graph.sparse.propagation_matrix`); the GCN layers accept
        both, so callers should treat it as an opaque operator.
        """
        features = graph.row_normalized_features()
        adj_norm = propagation_matrix(graph.adjacency, self_loops=True)
        return features, adj_norm

    # ------------------------------------------------------------------
    # encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, features: np.ndarray, adj_norm, sample: bool = True) -> Tensor:
        """Latent representation tensor ``Z`` (differentiable).

        Variational models return a reparameterised sample during training
        (``sample=True``) and the posterior mean otherwise.
        """
        if self.variational:
            mu, log_sigma = self.encoder(features, adj_norm)
            self._last_mu = mu
            self._last_log_sigma = log_sigma
            if sample and self.training:
                noise = Tensor(self.rng.standard_normal(mu.shape))
                return mu + log_sigma.exp() * noise
            return mu
        z = self.encoder(features, adj_norm)
        self._last_mu = z
        self._last_log_sigma = None
        return z

    def embed(self, graph: AttributedGraph) -> np.ndarray:
        """Deterministic embeddings (posterior mean) as a numpy array."""
        return self.embed_inputs(*self.prepare_inputs(graph))

    def embed_inputs(self, features: np.ndarray, adj_norm) -> np.ndarray:
        """:meth:`embed` on inputs already built by :meth:`prepare_inputs`.

        One no-grad posterior-mean forward; it consumes no RNG, so training
        loops can call it between steps without changing the noise stream.
        The model is back in training mode afterwards, also when the
        forward raises.
        """
        self.eval()
        try:
            with no_grad():
                z = self.encode(features, adj_norm, sample=False)
        finally:
            self.train()
        return z.numpy().copy()

    # ------------------------------------------------------------------
    # losses
    # ------------------------------------------------------------------
    def reconstruction_loss(
        self, z: Tensor, target: Union[F.TiledTarget, SparseAdjacency]
    ) -> Tensor:
        """Weighted BCE between ``sigmoid(Z Z^T)`` and a reconstruction target.

        ``target`` is a prepared target from :func:`reconstruction_target`
        (self loops added, values clipped to [0, 1], weights computed,
        entries bucketed by tile) or a ``SparseAdjacency``, which is
        prepared here on every call.  The training loops pass prepared
        targets, built once per graph and batch.  With ``x = Z Z^T`` and
        positive weight ``w``, the per-pair loss
        ``w·y·softplus(−x) + (1−y)·softplus(x)`` equals
        ``softplus(x) + y·((w−1)·softplus(x) − w·x)``, so the loss is one
        softplus over all pairs plus a term at the target's stored entries:
        :func:`~repro.nn.functional.inner_product_bce` computes both terms
        and ``∂L/∂Z`` over tiles of ``Z Z^T`` without an (N, N) array.
        Raises ``ValueError`` when the target's node count differs from
        the rows of ``z``.
        """
        if isinstance(target, SparseAdjacency):
            target = reconstruction_target(target)
        return F.inner_product_bce(z, target)

    def regularization_loss(self, z: Tensor) -> Optional[Tensor]:
        """Model-specific extra loss (KL divergence, adversarial penalty).

        The Gaussian KL follows the reference GAE implementation's scaling
        (``1/N`` on top of the per-node mean); with the full-strength KL the
        encoder collapses on small graphs.
        """
        if self.variational and self._last_log_sigma is not None:
            num_nodes = self._last_mu.shape[0]
            return F.gaussian_kl_divergence(self._last_mu, self._last_log_sigma) * (
                1.0 / num_nodes
            )
        return None

    def clustering_loss(self, z: Tensor, node_indices: Optional[np.ndarray] = None) -> Optional[Tensor]:
        """KL(Q || P) on ``z`` against the model's target Q (second group only).

        ``node_indices`` restricts the loss to a subset of nodes — this is
        how the sampling operator Ξ feeds only decidable nodes Ω into the
        clustering objective.  First-group models return ``None``.
        """
        if self.group == "first":
            return None
        if self._target is None:
            raise RuntimeError("init_clustering must run before the clustering loss")
        return self.clustering_loss_with_target(z, self._target, node_indices)

    def soft_assignment_tensor(self, z: Tensor) -> Tensor:
        """Differentiable (B, K) soft assignment of ``z`` (second group only)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not define a differentiable soft assignment"
        )

    def clustering_target(self) -> Optional[np.ndarray]:
        """The (N, K) per-node target the clustering loss is computed against.

        Second-group models return their sharpened target distribution Q
        (``None`` before :meth:`init_clustering`) so the trainer can slice
        it by global node id; first-group models (no differentiable
        clustering loss) return ``None``.
        """
        return self._target

    def clustering_loss_with_target(
        self,
        z: Tensor,
        target: np.ndarray,
        node_indices: Optional[np.ndarray] = None,
    ) -> Tensor:
        """KL(target || P) against an arbitrary (B, K) target distribution.

        Rows of ``target`` align with rows of ``z`` (a minibatch slices both
        by the same global node ids); ``node_indices`` then restricts the
        loss to a subset of those rows.  Used by the regular clustering loss
        (with the sharpened target Q), by the minibatch trainer (with a
        per-batch slice of Q) and by the Λ_FR diagnostic (with the
        Hungarian-aligned oracle Q').
        """
        assignments = self.soft_assignment_tensor(z)
        target = np.asarray(target, dtype=np.float64)
        if node_indices is not None:
            node_indices = np.asarray(node_indices, dtype=np.int64)
            if node_indices.size == 0:
                return Tensor(0.0)
            assignments = assignments[node_indices]
            target = target[node_indices]
        count = max(target.shape[0], 1)
        return F.kl_divergence_rows(target, assignments) * (1.0 / count)

    def training_losses(
        self,
        z: Tensor,
        target_adjacency: Union[F.TiledTarget, SparseAdjacency],
        target: Optional[np.ndarray] = None,
        node_indices: Optional[np.ndarray] = None,
        gamma: float = 1.0,
    ) -> Dict[str, Tensor]:
        """Loss terms of one training step on ``z``.

        The self-supervised term reconstructs ``target_adjacency`` (a
        prepared target or a ``SparseAdjacency``, see
        :meth:`reconstruction_loss`) and adds any regularisation; alone it
        is the pretraining (and first-group) objective.  With a clustering
        ``target`` (second group) the objective is Eq. 5,
        ``KL(target || P) + gamma · reconstruction``, with the KL restricted
        to ``node_indices``.
        """
        reconstruction = self.reconstruction_loss(z, target_adjacency)
        regularization = self.regularization_loss(z)
        if regularization is not None:
            reconstruction = reconstruction + regularization
        if target is None:
            return {"loss": reconstruction, "reconstruction_loss": reconstruction}
        clustering = self.clustering_loss_with_target(z, target, node_indices)
        return {
            "loss": clustering + reconstruction * gamma,
            "reconstruction_loss": reconstruction,
            "clustering_loss": clustering,
        }

    # ------------------------------------------------------------------
    # clustering interface
    # ------------------------------------------------------------------
    def init_clustering(self, embeddings: np.ndarray) -> None:
        """Initialise cluster parameters from embeddings (k-means moments)."""
        self._kmeans_moments(embeddings)

    def refresh_clustering(self, embeddings: np.ndarray) -> None:
        """Re-estimate cluster parameters from current embeddings.

        Default: refit k-means and take the moments of its hard labels,
        which is :meth:`init_clustering`.  Second-group models override
        this with their own scheme (trainable centres for DGAE, EM step for
        GMM-VGAE).
        """
        self.init_clustering(embeddings)

    def predict_assignments(self, embeddings: np.ndarray) -> np.ndarray:
        """(N, K) clustering assignment matrix ``P`` for given embeddings.

        First-group models run k-means and return one-hot hard assignments;
        second-group models return their model-specific soft assignments.
        """
        labels = self._kmeans_moments(embeddings)
        one_hot = np.zeros((embeddings.shape[0], self.num_clusters))
        one_hot[np.arange(embeddings.shape[0]), labels] = 1.0
        return one_hot

    def _kmeans_moments(self, embeddings: np.ndarray) -> np.ndarray:
        """Fit k-means on ``embeddings``, keep its cluster moments and
        return its (read-only) labels.

        K-means is a pure function of (embeddings, K, restarts, seed), and
        a model fixes the last three, so the last fit is memoised on the
        embeddings: an R- boundary's refresh, Ξ and the initialisation
        before it share one fit.  The key compares content against a
        private copy, so mutating the caller's array in place refits.  The
        memo is a cache, not state: :meth:`extra_state` leaves it out.
        """
        memo = self._kmeans_memo
        if memo is not None and np.array_equal(memo[0], embeddings):
            labels = memo[1]
        else:
            kmeans = KMeans(self.num_clusters, num_init=10, seed=self.seed).fit(embeddings)
            labels = kmeans.labels_
            labels.flags.writeable = False
            self._kmeans_memo = (np.array(embeddings, dtype=np.float64), labels)
        self.cluster_centers_, self.cluster_variances_ = estimate_cluster_moments(
            embeddings, labels, self.num_clusters
        )
        return labels

    def predict_labels(self, graph: AttributedGraph) -> np.ndarray:
        """Hard cluster labels for every node of ``graph``."""
        embeddings = self.embed(graph)
        assignments = self.predict_assignments(embeddings)
        return np.argmax(assignments, axis=1)

    # ------------------------------------------------------------------
    # training loops
    # ------------------------------------------------------------------
    def pretrain(
        self,
        graph: AttributedGraph,
        epochs: int = 200,
        optimizer: Optional[Adam] = None,
    ) -> PretrainResult:
        """Self-supervised pretraining on the raw input graph.

        The inputs and the reconstruction target are prepared once per call
        (not at all for 0 epochs) and shared by every step.
        """
        history = PretrainResult()
        if epochs < 1:
            return history
        features, adj_norm = self.prepare_inputs(graph)
        optimizer = optimizer or Adam(self.parameters(), lr=self.learning_rate)
        with _span("kernel.reconstruction_target"):
            target = reconstruction_target(graph.adjacency)

        def forward() -> Dict[str, Tensor]:
            z = self.encode(features, adj_norm)
            return {**self.training_losses(z, target), "z": z}

        with autograd_leak_check(f"{self.__class__.__name__}.pretrain"):
            for _ in range(epochs):
                loss = train_step(optimizer, forward, self.pretrain_step_hook)["loss"].item()
                history.losses.append(loss)
        return history

    def pretrain_step_hook(self, step: Dict[str, Tensor]) -> None:
        """Hook run after the backward pass of every pretraining step.

        ``step`` holds the step's ``"loss"`` and embeddings ``"z"``.
        Adversarial models use it to train their discriminator.
        """

    def fit(
        self,
        graph: AttributedGraph,
        pretrain_epochs: int = 200,
        clustering_epochs: int = 200,
    ) -> "GAEClusteringModel":
        """Full training: pretraining followed by the model's clustering phase."""
        self.pretrain(graph, epochs=pretrain_epochs)
        self.fit_clustering(graph, epochs=clustering_epochs)
        return self

    def fit_clustering(
        self,
        graph: AttributedGraph,
        epochs: int = 200,
    ) -> Dict[str, List[float]]:
        """Clustering phase (the vanilla one; R- runs through RethinkTrainer).

        First-group models only initialise their clustering here (it is a
        separate post-hoc algorithm run by :meth:`predict_labels`).
        Second-group models minimise Eq. 5 against the input graph,
        refreshing Q every ``target_refresh_interval`` epochs.  Clustering
        is initialised on the first call only, so the phase can run in
        chunks; every call starts a fresh Adam and prepares the
        reconstruction target once (not at all for 0 epochs).
        """
        if self.group == "first":
            self.init_clustering(self.embed(graph))
            return {"loss": []}
        features, adj_norm = self.prepare_inputs(graph)
        if self._target is None:
            self.init_clustering(self.embed_inputs(features, adj_norm))
        optimizer = Adam(self.parameters(), lr=self.learning_rate)
        history: Dict[str, List[float]] = {"loss": [], "clustering_loss": [], "reconstruction_loss": []}
        if epochs < 1:
            return history
        with _span("kernel.reconstruction_target"):
            target = reconstruction_target(graph.adjacency)

        def forward() -> Dict[str, Tensor]:
            z = self.encode(features, adj_norm)
            return self.training_losses(z, target, self._target, gamma=self.gamma)

        with autograd_leak_check(f"{self.__class__.__name__}.fit_clustering"):
            for epoch in range(epochs):
                if epoch % self.target_refresh_interval == 0:
                    self.refresh_clustering(self.embed_inputs(features, adj_norm))
                for name, term in train_step(optimizer, forward).items():
                    history[name].append(term.item())
        return history
