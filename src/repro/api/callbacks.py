"""Callback/event system for the R- training loop.

The R- procedure (Eq. 6) is a plain optimisation loop punctuated by four
kinds of events: the sampling operator Ξ refreshing the decidable set Ω,
the operator Υ rebuilding the self-supervision graph, periodic evaluation,
and the end of each epoch.  Everything the paper *observes about* training
— the Λ_FR / Λ_FD traces (Tables 6-7), the learning-dynamics curves
(Figures 4-6, 9), graph snapshots, progress lines, early stopping — is a
listener on those events, not part of the loop itself.

This module makes that explicit: :class:`RethinkCallback` defines the event
interface, concrete callbacks implement each tracking concern, and
:data:`CALLBACKS` registers them by name so a serialised
:class:`~repro.api.spec.RunSpec` can request them declaratively
(``{"name": "fr_fd"}``).  Callbacks are the only way to switch tracking
on: :class:`~repro.core.rethink.RethinkConfig` has no tracking fields, and
its ``stop_at_convergence`` only decides whether the trainer adds
:class:`ConvergenceStopping` ahead of the given callbacks.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.api.registry import Registry
from repro.errors import SpecError
from repro.graph.sparse import SparseAdjacency
from repro.observability.log import get_logger
from repro.observability.tracer import trace_event


class EvaluationContext:
    """Lazy view of the trainer state handed to ``on_evaluate``.

    Embeddings are only computed when a callback actually reads them (once
    per event), so an evaluation event costs nothing when no tracking
    callback is attached.
    """

    def __init__(self, trainer, graph, epoch: int) -> None:
        self.trainer = trainer
        self.graph = graph
        self.epoch = int(epoch)
        self._embeddings: Optional[np.ndarray] = None

    @property
    def embeddings(self) -> np.ndarray:
        """Current (deterministic) embeddings, computed once per event."""
        if self._embeddings is None:
            trainer = self.trainer
            self._embeddings = trainer.model.embed_inputs(trainer.features_, trainer.adj_norm_)
        return self._embeddings

    @property
    def sampling(self):
        return self.trainer.last_sampling_

    @property
    def history(self):
        return self.trainer.history_


class RethinkCallback:
    """Base class: override any subset of the event hooks.

    The trainer is attached before ``on_train_begin`` fires, so hooks can
    reach ``self.trainer.model``, ``self.trainer.config``,
    ``self.trainer.history_``, ``self.trainer.last_sampling_`` and
    ``self.trainer.self_supervision_graph_``.  The last two are ``None``
    until epoch 0's boundary runs Ξ and Υ, after ``on_epoch_begin(0)``.
    """

    trainer = None

    def set_trainer(self, trainer) -> None:
        self.trainer = trainer

    # -- lifecycle -----------------------------------------------------
    def on_train_begin(self, graph, history) -> None:
        """Fired once, after pretraining and clustering initialisation.

        Ξ and Υ have not run yet: ``trainer.last_sampling_`` and
        ``trainer.self_supervision_graph_`` are ``None`` here.
        """

    def on_train_end(self, history) -> None:
        """Fired once, after the final epoch (or early stop) and the final report.

        Also fired when an epoch or the final evaluation raises, before the
        error propagates, so a callback can release what
        :meth:`on_train_begin` acquired.
        """

    # -- per-epoch -----------------------------------------------------
    def on_epoch_begin(self, epoch: int) -> None:
        """Fired before the optimisation step of each epoch."""

    def on_epoch_end(self, epoch: int, logs: Dict[str, float]) -> None:
        """Fired after the optimisation step; ``logs`` carries the scalar
        diagnostics of the epoch (loss, coverage, |Ω|)."""

    # -- operator events -----------------------------------------------
    def on_omega_update(self, epoch: int, sampling) -> None:
        """Fired whenever Ξ recomputes the decidable set Ω."""

    def on_graph_transform(self, epoch: int, graph_matrix: SparseAdjacency) -> None:
        """Fired whenever Υ rebuilds the self-supervision graph (a CSR
        ``SparseAdjacency``)."""

    # -- evaluation ----------------------------------------------------
    def on_evaluate(self, epoch: int, context: EvaluationContext) -> None:
        """Fired every ``config.evaluate_every`` epochs and on the last one."""


class CallbackList(RethinkCallback):
    """Composite dispatching every event to its children, in order."""

    def __init__(self, callbacks: Optional[Sequence[RethinkCallback]] = None) -> None:
        self.callbacks: List[RethinkCallback] = list(callbacks or [])

    def append(self, callback: RethinkCallback) -> None:
        self.callbacks.append(callback)

    def set_trainer(self, trainer) -> None:
        self.trainer = trainer
        for callback in self.callbacks:
            callback.set_trainer(trainer)

    def on_train_begin(self, graph, history) -> None:
        for callback in self.callbacks:
            callback.on_train_begin(graph, history)

    def on_train_end(self, history) -> None:
        for callback in self.callbacks:
            callback.on_train_end(history)

    def on_epoch_begin(self, epoch: int) -> None:
        for callback in self.callbacks:
            callback.on_epoch_begin(epoch)

    def on_epoch_end(self, epoch: int, logs: Dict[str, float]) -> None:
        for callback in self.callbacks:
            callback.on_epoch_end(epoch, logs)

    def on_omega_update(self, epoch: int, sampling) -> None:
        for callback in self.callbacks:
            callback.on_omega_update(epoch, sampling)

    def on_graph_transform(self, epoch: int, graph_matrix: SparseAdjacency) -> None:
        for callback in self.callbacks:
            callback.on_graph_transform(epoch, graph_matrix)

    def on_evaluate(self, epoch: int, context: EvaluationContext) -> None:
        for callback in self.callbacks:
            callback.on_evaluate(epoch, context)


#: registry of callbacks addressable from a serialised RunSpec.
CALLBACKS = Registry("callback")


@CALLBACKS.register("fr_fd", description="Λ_FR / Λ_FD traces (Figures 5-6)")
class FRFDTracker(RethinkCallback):
    """Record the Feature-Randomness / Feature-Drift metrics at evaluation.

    Appends to ``history.fr_rethought`` / ``fr_baseline`` (Eq. 4) and
    ``history.fd_rethought`` / ``fd_baseline`` (Eq. 7), comparing the
    operator-driven run against the no-operator baseline from the same
    state.  Λ_FR needs a clustering loss, so first-group models only get
    the Λ_FD series.
    """

    def __init__(self, track_fr: bool = True, track_fd: bool = True) -> None:
        self.track_fr = bool(track_fr)
        self.track_fd = bool(track_fd)

    def on_evaluate(self, epoch: int, context: EvaluationContext) -> None:
        from repro.core.fr_fd import feature_drift_metric, feature_randomness_metric
        from repro.core.graph_transform import build_clustering_oriented_graph
        from repro.core.supervision import aligned_oracle_assignments

        graph = context.graph
        if graph.labels is None:
            return
        trainer = self.trainer
        model = trainer.model
        history = context.history
        embeddings = context.embeddings
        features, adj_norm = trainer.features_, trainer.adj_norm_
        assignments = model.predict_assignments(embeddings)
        oracle = aligned_oracle_assignments(graph.labels, assignments)
        if self.track_fr and model.group == "second":
            reliable = context.sampling.reliable_nodes
            history.fr_rethought.append(
                feature_randomness_metric(model, features, adj_norm, oracle, reliable)
            )
            history.fr_baseline.append(
                feature_randomness_metric(model, features, adj_norm, oracle, None)
            )
        if self.track_fd:
            oracle_graph = build_clustering_oriented_graph(
                graph.adjacency, oracle, np.arange(graph.num_nodes), embeddings
            )
            history.fd_rethought.append(
                feature_drift_metric(
                    model, features, adj_norm, trainer.self_supervision_graph_, oracle_graph
                )
            )
            history.fd_baseline.append(
                feature_drift_metric(model, features, adj_norm, graph.adjacency, oracle_graph)
            )


@CALLBACKS.register("dynamics", description="accuracy-per-group and link dynamics (Figures 4, 9)")
class DynamicsTracker(RethinkCallback):
    """Record per-group accuracies and link bookkeeping at evaluation.

    Fills ``history.accuracy_all`` / ``accuracy_decidable`` /
    ``accuracy_undecidable`` (Figure 9) and ``history.link_stats``
    (Figure 4's edge bookkeeping of the operator-built graph).
    """

    def on_evaluate(self, epoch: int, context: EvaluationContext) -> None:
        from repro.graph.ops import edge_difference
        from repro.metrics.hungarian import align_labels
        from repro.metrics.report import evaluate_clustering

        graph = context.graph
        if graph.labels is None:
            return
        history = context.history
        assignments = self.trainer.model.predict_assignments(context.embeddings)
        predictions = np.argmax(assignments, axis=1)
        history.evaluation_epochs.append(epoch)
        history.accuracy_all.append(evaluate_clustering(graph.labels, predictions).accuracy)
        correct = align_labels(graph.labels, predictions) == np.asarray(graph.labels)
        mask = context.sampling.mask()
        history.accuracy_decidable.append(
            float(np.mean(correct[mask])) if mask.any() else 0.0
        )
        history.accuracy_undecidable.append(
            float(np.mean(correct[~mask])) if (~mask).any() else 0.0
        )
        history.link_stats.append(
            edge_difference(graph.adjacency, self.trainer.self_supervision_graph_, graph.labels)
        )


@CALLBACKS.register("graph_snapshots", description="periodic copies of the Υ-built graph")
class GraphSnapshotRecorder(RethinkCallback):
    """Store a dense copy of the self-supervision graph every ``every`` epochs."""

    def __init__(self, every: int = 20) -> None:
        if int(every) < 1:
            raise ValueError("snapshot interval must be >= 1")
        self.every = int(every)

    def on_epoch_end(self, epoch: int, logs: Dict[str, float]) -> None:
        if epoch % self.every == 0:
            history = self.trainer.history_
            history.graph_snapshots[epoch] = self.trainer.self_supervision_graph_.to_dense()


@CALLBACKS.register("progress", description="periodic stdout progress line")
class ProgressLogger(RethinkCallback):
    """Print a one-line progress report every ``every`` epochs."""

    def __init__(self, every: int = 20) -> None:
        self.every = max(1, int(every))

    def on_epoch_end(self, epoch: int, logs: Dict[str, float]) -> None:
        if epoch % self.every == 0:
            model_name = self.trainer.model.__class__.__name__
            get_logger("progress").info(
                "[R-%s] epoch %d loss %.4f |Omega| %d",
                model_name,
                epoch,
                logs["loss"],
                int(logs["num_reliable"]),
            )


@CALLBACKS.register(
    "telemetry", description="structured per-epoch telemetry (losses, coverage, memory peaks)"
)
class TrainingTelemetry(RethinkCallback):
    """Fold the loop's scalar diagnostics into one structured record stream.

    Each epoch contributes a flat record — every ``logs`` scalar (loss,
    coverage, |Ω|) plus the peak Python allocation since the previous epoch
    when ``track_memory`` is on (tracemalloc is started on demand and
    stopped again if this callback started it).  At train end the records
    and any FR/FD series other callbacks recorded are folded into
    ``history.telemetry``, and each epoch is also emitted as a
    ``telemetry.epoch`` trace event so traced runs see the same numbers on
    the Chrome timeline.  Nothing here consumes RNG: traced/telemetered
    runs stay bitwise identical to bare ones.
    """

    _FR_FD_SERIES = ("fr_rethought", "fr_baseline", "fd_rethought", "fd_baseline")

    def __init__(self, track_memory: bool = True) -> None:
        self.track_memory = bool(track_memory)
        self.records: List[Dict[str, float]] = []
        self._started_tracemalloc = False

    def on_train_begin(self, graph, history) -> None:
        self.records = []
        if self.track_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    def on_epoch_end(self, epoch: int, logs: Dict[str, float]) -> None:
        record: Dict[str, float] = {"epoch": float(epoch)}
        for key in sorted(logs):
            record[key] = float(logs[key])
        if self.track_memory and tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            record["peak_alloc_bytes"] = float(peak)
        self.records.append(record)
        trace_event("telemetry.epoch", **record)

    def on_train_end(self, history) -> None:
        summary: Dict[str, Any] = {"epochs": list(self.records)}
        for name in self._FR_FD_SERIES:
            series = getattr(history, name, None)
            if series:
                summary[name] = [float(value) for value in series]
        history.telemetry = summary
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False


@CALLBACKS.register("convergence_stopping", description="stop when |Ω| ≥ fraction · N")
class ConvergenceStopping(RethinkCallback):
    """Early stopping on the paper's convergence criterion (|Ω| ≥ 0.9 N).

    The criterion is only armed once Ξ has refreshed Ω at least once
    (``epoch >= update_omega_every``) so the initial, possibly permissive
    sampling cannot stop training immediately.
    """

    def __init__(self, fraction: Optional[float] = None) -> None:
        self.fraction = fraction

    def on_epoch_end(self, epoch: int, logs: Dict[str, float]) -> None:
        config = self.trainer.config
        fraction = config.convergence_fraction if self.fraction is None else self.fraction
        if logs["coverage"] >= fraction and epoch >= config.update_omega_every:
            self.trainer.history_.converged = True
            self.trainer.stop_training = True


class LambdaCallback(RethinkCallback):
    """Ad-hoc callback built from keyword functions.

    >>> LambdaCallback(on_epoch_end=lambda epoch, logs: print(epoch))
    """

    _HOOKS = (
        "on_train_begin",
        "on_train_end",
        "on_epoch_begin",
        "on_epoch_end",
        "on_omega_update",
        "on_graph_transform",
        "on_evaluate",
    )

    def __init__(self, **hooks) -> None:
        unknown = set(hooks) - set(self._HOOKS)
        if unknown:
            raise ValueError(f"unknown callback hooks: {sorted(unknown)}")
        for hook_name in self._HOOKS:
            function = hooks.get(hook_name)
            if function is not None:
                setattr(self, hook_name, function)


CallbackSpec = Union[str, Dict[str, Any], RethinkCallback]


def resolve_callbacks(specs: Sequence[CallbackSpec]) -> List[RethinkCallback]:
    """Turn declarative callback specs into callback instances.

    Accepts ready-made :class:`RethinkCallback` objects, registered names
    (``"fr_fd"``) or dicts with constructor arguments
    (``{"name": "graph_snapshots", "every": 10}``).
    """
    resolved: List[RethinkCallback] = []
    for spec in specs:
        if isinstance(spec, RethinkCallback):
            resolved.append(spec)
        elif isinstance(spec, str):
            resolved.append(CALLBACKS.build(spec))
        elif isinstance(spec, dict):
            kwargs = dict(spec)
            try:
                name = kwargs.pop("name")
            except KeyError:
                raise SpecError(f"callback spec {spec!r} is missing a 'name' key") from None
            resolved.append(CALLBACKS.build(name, **kwargs))
        else:
            raise SpecError(f"cannot resolve callback spec {spec!r}")
    return resolved

