"""The R- training procedure (Eq. 6): wrap any GAE model with Ξ and Υ.

:class:`RethinkTrainer` takes a pretrained (or to-be-pretrained) model from
:mod:`repro.models` and runs the paper's clustering phase:

* every ``M1`` epochs the sampling operator Ξ recomputes the decidable set Ω
  from the current assignments;
* every ``M2`` epochs the operator Υ rebuilds the clustering-oriented
  self-supervision graph ``A_self_clus`` from the original graph A;
* each epoch minimises ``L_clus(P(Ξ(Z))) + γ L_bce(Â(Z), A_self_clus)`` for
  second-group models, or just the reconstruction against ``A_self_clus``
  for first-group models (whose clustering is post-hoc k-means), one step
  per batch of a :mod:`repro.minibatch` loader (default: the whole graph);
* training stops when ``|Ω| ≥ convergence_fraction · N`` (paper: 0.9).

The loop itself is deliberately minimal: everything observational — the
Λ_FR / Λ_FD traces, learning-dynamics curves, graph snapshots, progress
lines, and the convergence-based early stop — is implemented as callbacks
(see :mod:`repro.api.callbacks`) listening on the loop's events
(``on_omega_update``, ``on_graph_transform``, ``on_evaluate``,
``on_epoch_end``).  :class:`RethinkConfig` holds only what the loop reads;
``stop_at_convergence`` is the one switch that adds a callback
(:class:`~repro.api.callbacks.ConvergenceStopping`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.graph_transform import GraphTransformOperator
from repro.core.sampling import SamplingOperator, SamplingResult
from repro.errors import ConfigError
from repro.graph.graph import AttributedGraph
from repro.graph.sparse import SparseAdjacency
from repro.metrics.report import ClusteringReport, evaluate_clustering
from repro.models.base import GAEClusteringModel, reconstruction_target
from repro.nn.functional import TiledTarget
from repro.nn.optim import Adam, train_step
from repro.nn.tensor import Tensor
from repro.observability import span as _span

if TYPE_CHECKING:  # the loaders are imported on first use, at fit time
    from repro.minibatch.loaders import Minibatch


@dataclass
class RethinkConfig:
    """Hyper-parameters of the R- clustering phase.

    The defaults follow the paper's Cora settings (Table 11): α1 = 0.3,
    α2 = α1/2, M1 = 20, M2 = 10, convergence at |Ω| ≥ 0.9 N.
    """

    alpha1: float = 0.3
    alpha2: Optional[float] = None
    update_omega_every: int = 20
    update_graph_every: int = 10
    gamma: Optional[float] = None
    epochs: int = 200
    pretrain_epochs: int = 200
    convergence_fraction: float = 0.9
    stop_at_convergence: bool = True
    # Minibatch training (repro.minibatch) -------------------------------
    #: loader of the training loop: "full" (one batch covering the whole
    #: graph), "neighbor" or "cluster".
    sampler: str = "full"
    #: nodes per batch (seed nodes for "neighbor", target part size for
    #: "cluster"); None uses the loader default of min(N, 256).
    batch_size: Optional[int] = None
    #: neighbours sampled per frontier node and hop ("neighbor" only).
    fanout: int = 10
    #: neighbourhood expansion rounds ("neighbor" only).
    num_hops: int = 2
    # Ablation switches -------------------------------------------------
    protection_delay: int = 0
    single_step_transform: bool = False
    add_edges: bool = True
    drop_edges: bool = True
    use_confidence_criterion: bool = True
    use_margin_criterion: bool = True
    use_sampling: bool = True
    use_graph_transform: bool = True
    #: cadence of the ``on_evaluate`` event (and always the last epoch).
    evaluate_every: int = 10

    @property
    def resolved_alpha2(self) -> float:
        """The effective margin threshold: ``alpha2`` or the paper's α1/2 default.

        This is the single place where the default is applied; the sampling
        operator and the serialised run specs both go through it.
        """
        return self.alpha1 / 2.0 if self.alpha2 is None else self.alpha2

    def validate(
        self,
        model_group: Optional[str] = None,
        model_gamma: Optional[float] = None,
    ) -> "RethinkConfig":
        """Check every field, raising :class:`~repro.errors.ConfigError` early.

        ``model_group`` ("first"/"second") and ``model_gamma`` describe the
        model the config will drive, enabling the cross-checks that cannot
        be done on the config alone (γ is required for second-group models,
        either explicitly or through the model's own default).  Returns
        ``self`` so it can be chained.
        """
        if not 0.0 <= self.alpha1 <= 1.0:
            raise ConfigError(f"alpha1 must lie in [0, 1], got {self.alpha1!r}")
        if self.alpha2 is not None and not 0.0 <= self.alpha2 <= 1.0:
            raise ConfigError(
                f"alpha2 must lie in [0, 1] (or be None for the α1/2 default), "
                f"got {self.alpha2!r}"
            )
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs!r}")
        if self.pretrain_epochs < 0:
            raise ConfigError(f"pretrain_epochs must be >= 0, got {self.pretrain_epochs!r}")
        for name in ("update_omega_every", "update_graph_every", "evaluate_every"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value!r}")
        if not 0.0 < self.convergence_fraction <= 1.0:
            raise ConfigError(
                f"convergence_fraction must lie in (0, 1], got {self.convergence_fraction!r}"
            )
        if self.protection_delay < 0:
            raise ConfigError(f"protection_delay must be >= 0, got {self.protection_delay!r}")
        from repro.minibatch.loaders import SAMPLERS

        if self.sampler not in SAMPLERS:
            raise ConfigError(
                f"sampler must be one of {', '.join(SAMPLERS)}, got {self.sampler!r}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size!r}")
        for name in ("fanout", "num_hops"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value!r}")
        if self.gamma is not None and self.gamma < 0.0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma!r}")
        if model_group == "second" and self.gamma is None and model_gamma is None:
            raise ConfigError(
                "gamma is required for second-group models (joint objective, Eq. 5): "
                "set RethinkConfig.gamma or give the model a gamma"
            )
        return self


#: (alpha1, M1, M2) per (dataset, model) — adapted from Appendix C tables 11-16.
_RETHINK_SETTINGS: Dict[str, Dict[str, Tuple[float, int, int]]] = {
    "cora_sim": {
        "gae": (0.5, 20, 10),
        "vgae": (0.5, 20, 10),
        "argae": (0.5, 20, 10),
        "arvgae": (0.5, 20, 10),
        "dgae": (0.3, 20, 15),
        "gmm_vgae": (0.7, 20, 10),
    },
    "citeseer_sim": {
        "gae": (0.5, 20, 10),
        "vgae": (0.5, 20, 10),
        "argae": (0.4, 20, 10),
        "arvgae": (0.4, 20, 10),
        "dgae": (0.3, 20, 10),
        "gmm_vgae": (0.7, 20, 10),
    },
    "pubmed_sim": {
        "gae": (0.5, 20, 10),
        "vgae": (0.5, 20, 10),
        "argae": (0.4, 20, 10),
        "arvgae": (0.4, 20, 10),
        "dgae": (0.3, 20, 10),
        "gmm_vgae": (0.7, 20, 10),
    },
    "usa_air_sim": {
        "dgae": (0.3, 20, 10),
        "gmm_vgae": (0.6, 20, 10),
    },
    "europe_air_sim": {
        "dgae": (0.25, 20, 10),
        "gmm_vgae": (0.6, 20, 10),
    },
    "brazil_air_sim": {
        "dgae": (0.3, 20, 10),
        "gmm_vgae": (0.6, 20, 10),
    },
}

_DEFAULT_SETTING: Tuple[float, int, int] = (0.4, 20, 10)


def rethink_hyperparameters(dataset: str, model: str) -> Dict[str, float]:
    """Return {alpha1, update_omega_every, update_graph_every} for a pair.

    Mirrors Appendix C: the (α1, M1, M2) values of each R- model on each
    dataset, adapted to the surrogate datasets (the α1 selection rule
    follows the paper — the largest value that keeps Ω non-empty).
    Unknown combinations fall back to a conservative default so user-defined
    datasets and models work out of the box.
    """
    alpha1, m1, m2 = _RETHINK_SETTINGS.get(dataset, {}).get(model, _DEFAULT_SETTING)
    return {"alpha1": alpha1, "update_omega_every": m1, "update_graph_every": m2}


@dataclass
class RethinkHistory:
    """Everything recorded during an R- clustering phase."""

    losses: List[float] = field(default_factory=list)
    clustering_losses: List[float] = field(default_factory=list)
    reconstruction_losses: List[float] = field(default_factory=list)
    omega_sizes: List[int] = field(default_factory=list)
    omega_coverage: List[float] = field(default_factory=list)
    accuracy_all: List[float] = field(default_factory=list)
    accuracy_decidable: List[float] = field(default_factory=list)
    accuracy_undecidable: List[float] = field(default_factory=list)
    evaluation_epochs: List[int] = field(default_factory=list)
    fr_rethought: List[float] = field(default_factory=list)
    fr_baseline: List[float] = field(default_factory=list)
    fd_rethought: List[float] = field(default_factory=list)
    fd_baseline: List[float] = field(default_factory=list)
    link_stats: List[Dict[str, int]] = field(default_factory=list)
    graph_snapshots: Dict[int, np.ndarray] = field(default_factory=dict)
    epochs_run: int = 0
    converged: bool = False
    final_report: Optional[ClusteringReport] = None
    #: structured per-epoch telemetry (losses, coverage, memory peaks,
    #: FR/FD series) filled in by the ``telemetry`` callback.
    telemetry: Optional[Dict[str, Any]] = None

    def summary(self) -> Dict[str, float]:
        """Compact summary used by the experiment tables."""
        out = {
            "epochs_run": float(self.epochs_run),
            "converged": float(self.converged),
            "final_coverage": self.omega_coverage[-1] if self.omega_coverage else 0.0,
        }
        if self.final_report is not None:
            out.update(self.final_report.as_dict())
        return out


class RethinkTrainer:
    """Train the R- version of any GAE clustering model.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.GAEClusteringModel`.
    config:
        The R- hyper-parameters; validated eagerly against the model.
    callbacks:
        :class:`~repro.api.callbacks.RethinkCallback` instances (or
        registered callback names / spec dicts), run in order after the
        ``ConvergenceStopping`` that ``stop_at_convergence`` adds.
    """

    def __init__(
        self,
        model: GAEClusteringModel,
        config: Optional[RethinkConfig] = None,
        callbacks: Optional[Sequence] = None,
    ) -> None:
        self.model = model
        self.config = (config or RethinkConfig()).validate(
            model_group=getattr(model, "group", None),
            model_gamma=getattr(model, "gamma", None),
        )
        self.callbacks = list(callbacks or [])
        self.sampling = SamplingOperator(
            alpha1=self.config.alpha1,
            alpha2=self.config.resolved_alpha2,
            use_confidence_criterion=self.config.use_confidence_criterion,
            use_margin_criterion=self.config.use_margin_criterion,
        )
        self.transform = GraphTransformOperator(
            add_edges=self.config.add_edges, drop_edges=self.config.drop_edges
        )
        #: latest clustering-oriented self-supervision graph built by Υ (CSR).
        self.self_supervision_graph_: Optional[SparseAdjacency] = None
        #: latest sampling result produced by Ξ.
        self.last_sampling_: Optional[SamplingResult] = None
        #: history of the current / most recent fit (visible to callbacks).
        self.history_: Optional[RethinkHistory] = None
        #: loader of the current fit (see ``RethinkConfig.sampler``).
        self.loader_ = None
        #: model inputs of the current fit (visible to callbacks).
        self.features_: Optional[Union[np.ndarray, SparseAdjacency]] = None
        self.adj_norm_: Optional[Union[np.ndarray, SparseAdjacency]] = None
        #: set by callbacks (e.g. ConvergenceStopping) to end training early.
        self.stop_training: bool = False

    # ------------------------------------------------------------------
    # operator applications
    # ------------------------------------------------------------------
    def _apply_sampling(
        self, embeddings: np.ndarray, epoch: int, num_nodes: int
    ) -> SamplingResult:
        """Run Ξ, honouring the protection-delay and use_sampling ablations."""
        assignments = self.model.predict_assignments(embeddings)
        sampling_disabled = not self.config.use_sampling
        in_delay_window = epoch < self.config.protection_delay
        if sampling_disabled or in_delay_window:
            all_nodes = np.arange(num_nodes)
            return SamplingResult(
                reliable_nodes=all_nodes,
                soft_assignments=assignments,
                first_scores=np.ones(num_nodes),
                second_scores=np.zeros(num_nodes),
            )
        return self.sampling(embeddings, assignments)

    def _apply_transform(
        self,
        adjacency: SparseAdjacency,
        num_nodes: int,
        embeddings: np.ndarray,
        sampling: SamplingResult,
    ) -> SparseAdjacency:
        """Run Υ on the original input graph A, honouring the single-step
        and use_graph_transform ablations."""
        if not self.config.use_graph_transform:
            return adjacency.copy()
        nodes = sampling.reliable_nodes
        if self.config.single_step_transform:
            nodes = np.arange(num_nodes)
        return self.transform(
            adjacency, sampling.soft_assignments, nodes, embeddings
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def fit(self, graph: AttributedGraph, pretrained: bool = False) -> RethinkHistory:
        """Run (optionally) pretraining then the R- clustering phase.

        Each epoch is a stream of :class:`~repro.minibatch.loaders.Minibatch`
        blocks from the configured loader — by default the whole graph as
        one batch — while Ξ and Υ keep operating on full-graph state
        refreshed at epoch boundaries.

        Without ``pretrained=True`` the model first pretrains with
        ``model.pretrain`` for ``config.pretrain_epochs``.  The trainer never
        warm-starts: serving pretraining from an artifact store is the
        pipeline's job (:meth:`repro.api.Pipeline.warm_start`), which then
        calls ``fit(graph, pretrained=True)``.
        """
        from repro.analysis.sanitizers import autograd_leak_check

        config = self.config
        with autograd_leak_check("RethinkTrainer.fit"), _span(
            "trainer.fit", sampler=config.sampler, epochs=config.epochs
        ):
            if not pretrained:
                with _span("trainer.pretrain", epochs=config.pretrain_epochs):
                    self.model.pretrain(graph, epochs=config.pretrain_epochs)
            return self._train(graph)

    def _batch_target(self, batch: Minibatch) -> TiledTarget:
        """The batch's reconstruction target: the induced block of
        ``A_self_clus``, prepared on first use and held by the batch until
        ``self_supervision_graph_`` is a different object (Υ rebuilt it).

        Blocks that a loader reuses (cluster, whole graph) keep their target
        for ``M2`` epochs; the neighbour loader's fresh blocks take theirs
        with them when they are freed.
        """
        graph = self.self_supervision_graph_
        cached = batch.reconstruction_target
        if cached is None or cached[0] is not graph:
            with _span("kernel.reconstruction_target"):
                cached = (graph, reconstruction_target(graph.induced_subgraph(batch.node_ids)))
            batch.reconstruction_target = cached
        return cached[1]

    def _batch_losses(
        self,
        batch: Minibatch,
        target: Optional[np.ndarray],
        reliable_mask: np.ndarray,
        gamma: float,
    ) -> Dict[str, Tensor]:
        """Forward pass of one step: encode the batch block on its own
        propagation matrix, reconstruct the induced block of ``A_self_clus``
        and restrict the clustering loss to the decidable nodes Ω that fall
        inside the batch."""
        z = self.model.encode(batch.features, batch.adj_norm)
        return self.model.training_losses(
            z,
            self._batch_target(batch),
            None if target is None else target[batch.node_ids],
            batch.local_indices_of(reliable_mask),
            gamma,
        )

    def _train(self, graph: AttributedGraph) -> RethinkHistory:
        """The R- loop: one :func:`~repro.nn.optim.train_step` per batch.

        The full-graph inputs are prepared once and shared by the loader,
        ``features_`` / ``adj_norm_``, the final report and the no-grad
        posterior-mean forward that opens every ``M1`` / ``M2`` boundary
        (it uses no RNG).  Epoch 0 is always both boundaries, so Ξ and Υ
        first run there, before any step reads them; until then
        ``last_sampling_`` and ``self_supervision_graph_`` are ``None``.
        Epoch 0's refresh reuses the embeddings that initialised the
        clustering, since no parameter has moved since.  Each batch's
        reconstruction target is prepared once per Υ graph
        (:meth:`_batch_target`).
        """
        from repro.api.callbacks import (
            CallbackList,
            ConvergenceStopping,
            EvaluationContext,
            resolve_callbacks,
        )
        from repro.minibatch.loaders import build_loader

        config = self.config
        model = self.model
        num_nodes = graph.num_nodes
        features, adj_norm = model.prepare_inputs(graph)
        self.features_, self.adj_norm_ = features, adj_norm
        self.last_sampling_ = self.self_supervision_graph_ = None
        with _span("trainer.clustering_init"):
            embeddings = model.embed_inputs(features, adj_norm)
            model.init_clustering(embeddings)
        if model.group == "second" and model.clustering_target() is None:
            raise ConfigError(
                f"{type(model).__name__} is a second-group model without a "
                "per-node clustering target (clustering_target() is None); "
                "its clustering loss cannot be restricted to a minibatch"
            )
        loader = self.loader_ = build_loader(
            config.sampler,
            graph,
            batch_size=config.batch_size,
            fanout=config.fanout,
            num_hops=config.num_hops,
            seed=model.seed,
            inputs=(features, adj_norm),
        )
        optimizer = Adam(model.parameters(), lr=model.learning_rate)
        gamma = model.gamma if config.gamma is None else config.gamma
        history = self.history_ = RethinkHistory()
        self.stop_training = False
        stopping = [ConvergenceStopping()] if config.stop_at_convergence else []
        callbacks = CallbackList(stopping + resolve_callbacks(self.callbacks))
        callbacks.set_trainer(self)

        callbacks.on_train_begin(graph, history)
        # on_train_end fires even when the loop or the final evaluation
        # raises, so callbacks release what on_train_begin acquired.
        try:
            for epoch in range(config.epochs):
                callbacks.on_epoch_begin(epoch)
                with _span("trainer.epoch", epoch=epoch) as epoch_span:
                    refresh_omega = epoch % config.update_omega_every == 0
                    refresh_graph = epoch % config.update_graph_every == 0
                    if refresh_omega or refresh_graph:
                        # Keep the model's own clustering parameters (targets,
                        # mixture moments, centres) in sync with the embeddings.
                        with _span("trainer.clustering_refresh", epoch=epoch):
                            if epoch > 0:
                                embeddings = model.embed_inputs(features, adj_norm)
                            model.refresh_clustering(embeddings)
                    if refresh_omega:
                        with _span("trainer.omega_update", epoch=epoch):
                            sampling = self._apply_sampling(embeddings, epoch, num_nodes)
                        self.last_sampling_ = sampling
                        callbacks.on_omega_update(epoch, sampling)
                    if refresh_graph:
                        with _span("trainer.graph_transform", epoch=epoch):
                            self.self_supervision_graph_ = self._apply_transform(
                                graph.adjacency, num_nodes, embeddings, sampling
                            )
                        callbacks.on_graph_transform(epoch, self.self_supervision_graph_)

                    target, reliable_mask = model.clustering_target(), sampling.mask()
                    steps = []
                    for batch in loader.epoch_batches(epoch):
                        forward = partial(self._batch_losses, batch, target, reliable_mask, gamma)
                        terms = train_step(optimizer, forward)
                        steps.append({name: term.item() for name, term in terms.items()})
                    means = {name: float(np.mean([s[name] for s in steps])) for name in steps[0]}
                    history.losses.append(means["loss"])
                    history.reconstruction_losses.append(means["reconstruction_loss"])
                    if "clustering_loss" in means:
                        history.clustering_losses.append(means["clustering_loss"])
                    history.omega_sizes.append(sampling.num_reliable)
                    history.omega_coverage.append(sampling.coverage())
                    history.epochs_run = epoch + 1

                    if epoch % config.evaluate_every == 0 or epoch == config.epochs - 1:
                        with _span("trainer.evaluate", epoch=epoch):
                            callbacks.on_evaluate(epoch, EvaluationContext(self, graph, epoch))
                    callbacks.on_epoch_end(
                        epoch,
                        {
                            "loss": means["loss"],
                            "reconstruction_loss": means["reconstruction_loss"],
                            "num_reliable": sampling.num_reliable,
                            "coverage": sampling.coverage(),
                            "num_batches": float(len(steps)),
                        },
                    )
                    epoch_span.count("batches", len(steps))
                if self.stop_training:
                    break

            if graph.labels is not None:
                with _span("trainer.final_report"):
                    embeddings = model.embed_inputs(features, adj_norm)
                    labels = np.argmax(model.predict_assignments(embeddings), axis=1)
                    history.final_report = evaluate_clustering(graph.labels, labels)
        finally:
            callbacks.on_train_end(history)
        return history

    def predict_labels(self, graph: AttributedGraph) -> np.ndarray:
        """Hard cluster labels from the trained model."""
        return self.model.predict_labels(graph)
