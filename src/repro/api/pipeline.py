"""The `Pipeline` facade: one fluent, declarative entry point for trials.

The paper's central claim is architectural: *any* GAE model D becomes R-D
by composing the operators Ξ and Υ around its training loop.  The
:class:`Pipeline` makes that composition a first-class object::

    from repro.api import Pipeline

    result = (
        Pipeline()
        .dataset("cora_sim")
        .model("gmm_vgae")
        .rethink(alpha1=0.7)
        .seed(0)
        .run()
    )
    print(result.report)

and, because the underlying :class:`~repro.api.spec.RunSpec` round-trips
through JSON, the exact same trial is also a document::

    result = Pipeline.from_spec(json.load(open("trial.json"))).run()

Pipelines are immutable: every fluent call returns a new pipeline, so a
partially-configured pipeline can be reused as a template for many trials.
"""

from __future__ import annotations

import copy
import os
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.api.spec import (
    DatasetSpec,
    ModelSpec,
    RethinkSpec,
    RunSpec,
    TrainingSpec,
)
from repro.errors import SpecError, UnknownVariantError


@dataclass
class RunResult:
    """Outcome of one :meth:`Pipeline.run` call.

    ``history`` is populated for rethink trials only (base trials have no
    R- phase); ``model`` is the trained model, kept so callers can embed,
    predict or snapshot weights afterwards.
    """

    spec: RunSpec
    report: Optional[Any]  # ClusteringReport when the dataset has labels
    runtime_seconds: float
    history: Optional[Any] = None  # RethinkHistory for rethink trials
    model: Optional[Any] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def variant(self) -> str:
        return self.spec.variant

    def save(self, path: str) -> str:
        """Persist the trained model as a :class:`repro.store.Snapshot` file.

        The snapshot carries the producing spec and a metric summary, so
        :meth:`Pipeline.load` can rebuild and serve the model without
        touching the training path.  Only results from :meth:`Pipeline.run`
        can be saved — pooled ``run_sweep`` results drop their models.
        """
        from repro.errors import StoreError
        from repro.store import Snapshot

        if self.model is None:
            raise StoreError(
                "this RunResult holds no model (pooled run_sweep results "
                "drop them); run the trial with Pipeline.run() to save it"
            )
        epoch = self.history.epochs_run if self.history is not None else 0
        snapshot = Snapshot.capture(
            self.model,
            spec=self.spec.to_dict(),
            epoch=epoch,
            phase="trained",
            metadata={"summary": self.summary(), "store_key": self.spec.store_key()},
        )
        return snapshot.save(path)

    def summary(self) -> Dict[str, float]:
        """Flat metric summary (ACC/NMI/ARI plus runtime)."""
        out: Dict[str, float] = {"runtime_seconds": self.runtime_seconds}
        if self.report is not None:
            out.update(self.report.as_dict())
        if self.history is not None:
            out["epochs_run"] = float(self.history.epochs_run)
            out["converged"] = float(self.history.converged)
        return out


class Pipeline:
    """Fluent, immutable builder and executor of training trials."""

    def __init__(self) -> None:
        self._dataset: Optional[DatasetSpec] = None
        self._model: Optional[ModelSpec] = None
        self._variant: str = "rethink"
        self._seed: int = 0
        self._training: TrainingSpec = TrainingSpec()
        self._rethink: RethinkSpec = RethinkSpec()
        self._callback_specs: List[Union[str, Dict[str, Any]]] = []
        self._callback_objects: List[Any] = []
        self._tags: Dict[str, str] = {}
        self._graph = None  # explicit AttributedGraph, bypasses the registry
        #: a model state_dict loaded instead of pretraining.
        self._pretrained_state: Optional[Mapping] = None
        #: warm-start setting: None = the REPRO_STORE_DIR store if set,
        #: False = off, str = store root.  Resolved by _resolve_store.
        self._warm_start: Union[None, bool, str] = None

    def _clone(self) -> "Pipeline":
        clone = copy.copy(self)
        clone._callback_specs = list(self._callback_specs)
        clone._callback_objects = list(self._callback_objects)
        clone._tags = dict(self._tags)
        return clone

    # ------------------------------------------------------------------
    # fluent configuration
    # ------------------------------------------------------------------
    def dataset(self, name: str, seed: int = 0, **options) -> "Pipeline":
        """Select a registered dataset (and its generation seed)."""
        clone = self._clone()
        clone._dataset = DatasetSpec(name=name, seed=seed, options=options)
        return clone

    def graph(self, graph) -> "Pipeline":
        """Use an explicit :class:`~repro.graph.graph.AttributedGraph`.

        Escape hatch for corrupted / user-built graphs (robustness sweeps).
        The resulting pipeline still runs, but it can only be serialised if
        a named dataset is also set.
        """
        clone = self._clone()
        clone._graph = graph
        if clone._dataset is None:
            clone._dataset = DatasetSpec(name=getattr(graph, "name", "custom"))
        return clone

    def model(self, name: str, **options) -> "Pipeline":
        """Select a registered model; ``options`` go to its constructor."""
        clone = self._clone()
        clone._model = ModelSpec(name=name, options=options)
        return clone

    def base(self) -> "Pipeline":
        """Run the original model D (no Ξ / Υ operators)."""
        clone = self._clone()
        clone._variant = "base"
        return clone

    def rethink(self, use_paper_hyperparameters: Optional[bool] = None, **overrides) -> "Pipeline":
        """Run the R- variant; ``overrides`` overlay any RethinkConfig field."""
        clone = self._clone()
        clone._variant = "rethink"
        merged = {**clone._rethink.overrides, **overrides}
        use_paper = (
            clone._rethink.use_paper_hyperparameters
            if use_paper_hyperparameters is None
            else use_paper_hyperparameters
        )
        clone._rethink = RethinkSpec(overrides=merged, use_paper_hyperparameters=use_paper)
        return clone

    def minibatch(
        self,
        sampler: str = "cluster",
        batch_size: Optional[int] = None,
        fanout: Optional[int] = None,
        num_hops: Optional[int] = None,
    ) -> "Pipeline":
        """Run the R- phase with a :mod:`repro.minibatch` loader.

        Convenience over :meth:`rethink`: ``sampler`` is "full", "neighbor"
        or "cluster"; the remaining arguments overlay the corresponding
        :class:`~repro.core.rethink.RethinkConfig` fields when given.
        """
        overrides: Dict[str, Any] = {"sampler": sampler}
        if batch_size is not None:
            overrides["batch_size"] = batch_size
        if fanout is not None:
            overrides["fanout"] = fanout
        if num_hops is not None:
            overrides["num_hops"] = num_hops
        return self.rethink(**overrides)

    def variant(self, variant: str) -> "Pipeline":
        """Select "base" or "rethink" by name (spec-style)."""
        if variant not in ("base", "rethink"):
            raise UnknownVariantError(variant)
        clone = self._clone()
        clone._variant = variant
        return clone

    def seed(self, seed: int) -> "Pipeline":
        """Seed for model initialisation and training stochasticity."""
        clone = self._clone()
        clone._seed = int(seed)
        return clone

    def training(self, **budgets) -> "Pipeline":
        """Set epoch budgets (pretrain_epochs, clustering_epochs, rethink_epochs)."""
        clone = self._clone()
        merged = clone._training.to_dict()
        merged.update(budgets)
        clone._training = TrainingSpec.from_dict(merged)
        return clone

    def callbacks(self, *callbacks) -> "Pipeline":
        """Attach callbacks: registered names, spec dicts or instances."""
        clone = self._clone()
        for callback in callbacks:
            if isinstance(callback, (str, dict)):
                clone._callback_specs.append(callback)
            else:
                clone._callback_objects.append(callback)
        return clone

    def tag(self, **tags) -> "Pipeline":
        """Attach free-form string tags carried through to the spec."""
        clone = self._clone()
        clone._tags.update({key: str(value) for key, value in tags.items()})
        return clone

    def pretrained_state(self, state: Mapping) -> "Pipeline":
        """Start from a pretrained ``state_dict`` instead of pretraining afresh.

        This is one way to express the paper's fairness protocol ("D and
        R-D share the same pretraining weights"): pretrain once, then hand
        the same ``model.state_dict()`` to a base and a rethink pipeline.
        The model keeps its freshly seeded RNG.  The table pairs share a
        :meth:`warm_start` store instead, which also carries the
        post-pretraining RNG stream.

        :meth:`run` loads the state into the model it builds before any
        training, so a state with missing, unexpected or misshaped
        parameters fails first.
        """
        if not isinstance(state, Mapping):
            raise SpecError(
                "pretrained_state takes a model state_dict (a mapping of "
                f"parameter arrays), got {type(state).__name__}"
            )
        clone = self._clone()
        clone._pretrained_state = state
        return clone

    def warm_start(self, store: Union[str, "os.PathLike[str]", bool]) -> "Pipeline":
        """Serve (and populate) pretraining from an artifact store.

        ``store`` is the store's root directory, or ``False`` to force cold
        pretraining even when ``REPRO_STORE_DIR`` is set, in :meth:`run`
        and in every trial of :meth:`run_sweep`.  Left unset, a pipeline
        uses the ``REPRO_STORE_DIR`` store when that variable is set.  On a
        warm store the run skips pretraining entirely and restores the
        exact post-pretraining state (RNG included), so its metrics are
        bitwise identical to a cold run's; cache statistics land in
        ``RunResult.extra['pretrain_cache']``.
        """
        if store is not False and not isinstance(store, (str, os.PathLike)):
            raise SpecError(
                "warm_start takes a store directory or False, got "
                f"{type(store).__name__}"
            )
        clone = self._clone()
        clone._warm_start = store if store is False else os.fspath(store)
        return clone

    # ------------------------------------------------------------------
    # spec round-trip
    # ------------------------------------------------------------------
    def spec(self) -> RunSpec:
        """The serializable :class:`RunSpec` this pipeline will execute."""
        if self._dataset is None:
            raise SpecError("pipeline has no dataset; call .dataset(name) first")
        if self._model is None:
            raise SpecError("pipeline has no model; call .model(name) first")
        return RunSpec(
            dataset=self._dataset,
            model=self._model,
            variant=self._variant,
            seed=self._seed,
            training=self._training,
            rethink=self._rethink,
            callbacks=list(self._callback_specs),
            tags=dict(self._tags),
        )

    @classmethod
    def from_spec(cls, spec: Union[RunSpec, Dict[str, Any], str]) -> "Pipeline":
        """Build a pipeline from a :class:`RunSpec`, plain dict or JSON text."""
        if isinstance(spec, str):
            spec = RunSpec.from_json(spec)
        elif isinstance(spec, dict):
            spec = RunSpec.from_dict(spec)
        elif not isinstance(spec, RunSpec):
            raise SpecError(f"cannot build a pipeline from {type(spec).__name__}")
        pipeline = cls()
        pipeline._dataset = spec.dataset
        pipeline._model = spec.model
        pipeline._variant = spec.variant
        pipeline._seed = spec.seed
        pipeline._training = spec.training
        pipeline._rethink = spec.rethink
        pipeline._callback_specs = list(spec.callbacks)
        pipeline._tags = dict(spec.tags)
        return pipeline

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _resolve_graph(self, spec: RunSpec):
        from repro.datasets.cache import load_dataset_cached

        if self._graph is not None:
            return self._graph
        # Per-process LRU: repeated trials on the same dataset spec (multi-seed
        # sweeps, pool workers) build the graph once.  Cached graphs are
        # shared, so the whole stack treats AttributedGraph as immutable.
        return load_dataset_cached(
            spec.dataset.name, spec.dataset.seed, spec.dataset.options
        )

    # ------------------------------------------------------------------
    # artifact-store helpers
    # ------------------------------------------------------------------
    def _resolve_store(self):
        """The one place that picks a trial's store: the :meth:`warm_start`
        root, else the ``REPRO_STORE_DIR`` store, else ``None`` (cold)."""
        from repro.store import ArtifactStore, active_store

        if self._warm_start is None:
            return active_store()
        if self._warm_start is False:
            return None
        return ArtifactStore(str(self._warm_start))

    def run(self) -> RunResult:
        """Execute the trial end-to-end and return its :class:`RunResult`."""
        from repro.observability import span

        spec = self.spec()
        with span(
            "pipeline.run",
            model=spec.model.name,
            dataset=spec.dataset.name,
            variant=spec.variant,
            seed=spec.seed,
        ):
            return self._run(spec)

    def _run(self, spec: RunSpec) -> RunResult:
        from repro.api.callbacks import resolve_callbacks
        from repro.core.rethink import RethinkConfig, RethinkTrainer, rethink_hyperparameters
        from repro.datasets.cache import dataset_cache_info
        from repro.metrics.report import evaluate_clustering
        from repro.models.registry import MODELS, build_model
        from repro.observability import span
        from repro.store import disabled_stats, warm_pretrain

        start = time.perf_counter()
        with span("pipeline.dataset", dataset=spec.dataset.name):
            graph = self._resolve_graph(spec)
        with span("pipeline.build_model", model=spec.model.name):
            model = build_model(
                spec.model.name,
                graph.num_features,
                graph.num_clusters,
                seed=spec.seed,
                **spec.model.options,
            )
        config = None
        if spec.variant == "rethink":
            settings: Dict[str, Any] = {}
            if spec.rethink.use_paper_hyperparameters:
                settings.update(rethink_hyperparameters(spec.dataset.name, spec.model.name))
            settings.update(
                epochs=spec.training.rethink_epochs,
                pretrain_epochs=spec.training.pretrain_epochs,
            )
            settings.update(spec.rethink.overrides)
            config = RethinkConfig(**settings)

        if self._pretrained_state is not None:
            # load_state_dict rejects missing, unexpected or misshaped
            # parameters, before any epoch runs.
            with span("pipeline.pretrained_state"):
                model.load_state_dict(self._pretrained_state)
            pretrain_stats = disabled_stats()
        else:
            # Keyed like load_dataset_cached: registry trials by their
            # dataset spec, explicit graphs by content fingerprint.  The
            # variant deliberately stays out of the key, so a D / R-D pair
            # shares one snapshot.
            with span("pipeline.pretrain", epochs=spec.training.pretrain_epochs):
                pretrain_stats = warm_pretrain(
                    model,
                    graph,
                    spec.training.pretrain_epochs,
                    store=self._resolve_store(),
                    dataset=None if self._graph is not None else spec.dataset.to_dict(),
                    spec=spec.to_dict(),
                )

        history = None
        if spec.variant == "base":
            if MODELS.metadata(spec.model.name).get("group") == "second":
                with span("pipeline.fit_clustering"):
                    model.fit_clustering(graph, epochs=spec.training.clustering_epochs)
        else:
            callbacks = resolve_callbacks(spec.callbacks) + list(self._callback_objects)
            trainer = RethinkTrainer(model, config, callbacks=callbacks)
            with span("pipeline.fit"):
                history = trainer.fit(graph, pretrained=True)

        report = None
        if graph.labels is not None:
            if history is not None and history.final_report is not None:
                report = history.final_report
            else:
                with span("pipeline.evaluate"):
                    report = evaluate_clustering(graph.labels, model.predict_labels(graph))
        runtime = time.perf_counter() - start
        return RunResult(
            spec=spec,
            report=report,
            runtime_seconds=runtime,
            history=history,
            model=model,
            extra={
                "dataset_cache": dataset_cache_info(),
                "pretrain_cache": pretrain_stats,
            },
        )

    def run_sweep(self, seeds, jobs=None, resume=False, policy=None, fail_fast=False):
        """Run this pipeline once per seed, optionally over a process pool.

        Returns the :class:`~repro.resilience.SweepOutcome`: the ordered
        per-seed ``results``, the quarantined ``failures``, the number of
        journal-resumed trials, and a JSON failure report
        (:meth:`~repro.resilience.SweepOutcome.report`) — what
        ``repro-run --failure-report`` serialises.  Unlike :meth:`run`, the
        results hold no trained model: models carry autograd closures that
        cannot cross process boundaries.

        The results are bitwise identical whatever ``jobs`` is (``None``/1
        serial, an int, or ``"auto"`` for the cpu count).  The store is
        resolved once, here (:meth:`warm_start`, else ``REPRO_STORE_DIR``),
        and its root travels to the workers with each trial, so a later
        sweep skips pretraining and ``warm_start(False)`` keeps every trial
        cold.  Retries, ``fail_fast`` and ``resume`` behave as in
        :func:`repro.parallel.run_sweep`.

        Requires a registry dataset and declarative callbacks: an explicit
        :meth:`graph` or live callback objects cannot be shipped to worker
        processes.
        """
        from repro.parallel import _normalise_spec, run_sweep

        if self._graph is not None:
            raise SpecError(
                "run_sweep requires a registered dataset; pipelines built "
                "with .graph(...) cannot be re-materialised in pool workers"
            )
        if self._callback_objects:
            raise SpecError(
                "run_sweep requires declarative callbacks (names or spec "
                "dicts); live callback objects cannot be shipped to workers"
            )
        if self._pretrained_state is not None:
            raise SpecError(
                "run_sweep re-runs pretraining per seed; a pretrained_state "
                "cannot be shipped to workers (use .warm_start(<dir>) to "
                "share pretraining through the artifact store instead)"
            )
        base = _normalise_spec(self.spec())
        expanded = []
        for seed in seeds:
            spec_dict = copy.deepcopy(base)
            spec_dict["seed"] = int(seed)
            expanded.append(spec_dict)
        store = self._resolve_store()
        return run_sweep(
            expanded, jobs=jobs,
            store_dir=None if store is None else store.root,
            resume=resume, policy=policy, fail_fast=fail_fast,
        )

    # ------------------------------------------------------------------
    # artifact round-trip
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str) -> RunResult:
        """Rebuild a trained model from a snapshot file, without training.

        The snapshot's embedded spec and model configuration are enough to
        reconstruct the model — the dataset is *not* loaded, which is what
        lets a serving layer answer embed/predict requests from frozen
        artifacts.  The returned :class:`RunResult` carries the restored
        model and the original spec; ``report`` is ``None`` until the
        caller evaluates on a graph.
        """
        from repro.errors import StoreError
        from repro.models.registry import build_model
        from repro.store import Snapshot

        snapshot = Snapshot.load(path)
        if snapshot.spec is None:
            raise StoreError(
                f"snapshot {path!r} carries no RunSpec; only artifacts saved "
                "through RunResult.save can be loaded here"
            )
        spec = RunSpec.from_dict(snapshot.spec)
        num_features = snapshot.config.get("num_features")
        num_clusters = snapshot.config.get("num_clusters")
        if num_features is None or num_clusters is None:
            raise StoreError(
                f"snapshot {path!r} does not record the model dimensions "
                "(num_features / num_clusters)"
            )
        model = build_model(
            spec.model.name,
            int(num_features),
            int(num_clusters),
            seed=spec.seed,
            **spec.model.options,
        )
        snapshot.apply(model)
        return RunResult(
            spec=spec,
            report=None,
            runtime_seconds=0.0,
            history=None,
            model=model,
            extra={
                "loaded_from": path,
                "phase": snapshot.phase,
                "epoch": snapshot.epoch,
                "summary": snapshot.metadata.get("summary"),
            },
        )
