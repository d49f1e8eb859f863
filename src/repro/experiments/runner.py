"""Train D / R-D pairs and aggregate their clustering metrics.

This is the engine behind Tables 1-4 and 17: for each (model, dataset,
seed) it pretrains the base model once, snapshots the weights, finishes
training the base model, and trains the R- version from the *same* pretrain
snapshot (the paper's fairness protocol: "each couple of methods D and R-D
share the same pretraining weights").

Both variants are executed through :class:`repro.api.Pipeline`; the
functions here keep their historical signatures and
:class:`TrialResult` / :class:`PairResult` return types as the stable
aggregation layer on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.pipeline import Pipeline, RunResult
from repro.datasets import load_dataset
from repro.errors import UnknownVariantError
from repro.experiments.config import ExperimentConfig
from repro.graph.graph import AttributedGraph
from repro.metrics.report import ClusteringReport
from repro.models import build_model


@dataclass
class TrialResult:
    """Outcome of a single training run."""

    model: str
    dataset: str
    seed: int
    variant: str  # "base" or "rethink"
    report: ClusteringReport
    runtime_seconds: float
    extra: Dict = field(default_factory=dict)

    @classmethod
    def from_run_result(cls, result: RunResult) -> "TrialResult":
        """Adapt a :class:`~repro.api.pipeline.RunResult` to the legacy shape."""
        extra: Dict = {}
        if result.history is not None:
            extra["history"] = result.history
        return cls(
            model=result.spec.model.name,
            dataset=result.spec.dataset.name,
            seed=result.spec.seed,
            variant=result.spec.variant,
            report=result.report,
            runtime_seconds=result.runtime_seconds,
            extra=extra,
        )


@dataclass
class PairResult:
    """All trials of a (model, dataset) pair, base and R- variants."""

    model: str
    dataset: str
    base_trials: List[TrialResult] = field(default_factory=list)
    rethink_trials: List[TrialResult] = field(default_factory=list)

    def trials(self, variant: str) -> List[TrialResult]:
        """The trials of one variant; unknown variants raise a typed error."""
        if variant == "base":
            return self.base_trials
        if variant == "rethink":
            return self.rethink_trials
        raise UnknownVariantError(variant)

    def best(self, variant: str) -> ClusteringReport:
        """Best-accuracy report among the trials of a variant."""
        trials = self.trials(variant)
        if not trials:
            raise ValueError(f"no trials recorded for variant {variant!r}")
        return max(trials, key=lambda t: t.report.accuracy).report

    def mean_std(self, variant: str) -> Dict[str, Dict[str, float]]:
        """Mean and standard deviation of ACC/NMI/ARI for a variant."""
        return aggregate_reports([t.report for t in self.trials(variant)])


def aggregate_reports(reports: Sequence[ClusteringReport]) -> Dict[str, Dict[str, float]]:
    """Mean/std of each metric over a list of reports (fractions, not %)."""
    if not reports:
        raise ValueError("cannot aggregate an empty list of reports")
    metrics = {"acc": [r.accuracy for r in reports], "nmi": [r.nmi for r in reports], "ari": [r.ari for r in reports]}
    return {
        name: {"mean": float(np.mean(values)), "std": float(np.std(values))}
        for name, values in metrics.items()
    }


def trial_pipeline(
    model_name: str,
    graph: AttributedGraph,
    config: ExperimentConfig,
    seed: int,
    pretrained_state: Optional[Dict[str, np.ndarray]] = None,
) -> Pipeline:
    """Common pipeline prefix shared by the base and rethink runners."""
    pipeline = (
        Pipeline()
        .graph(graph)
        .model(model_name)
        .seed(seed)
        .training(
            pretrain_epochs=config.pretrain_epochs,
            clustering_epochs=config.clustering_epochs,
            rethink_epochs=config.rethink_epochs,
        )
    )
    if pretrained_state is not None:
        pipeline = pipeline.pretrained_state(pretrained_state)
    return pipeline


def run_baseline_model(
    model_name: str,
    graph: AttributedGraph,
    config: ExperimentConfig,
    seed: int,
    pretrained_state: Optional[Dict[str, np.ndarray]] = None,
) -> TrialResult:
    """Train the original model D and evaluate its clustering."""
    pipeline = trial_pipeline(model_name, graph, config, seed, pretrained_state).base()
    return TrialResult.from_run_result(pipeline.run())


def run_rethink_model(
    model_name: str,
    graph: AttributedGraph,
    config: ExperimentConfig,
    seed: int,
    pretrained_state: Optional[Dict[str, np.ndarray]] = None,
    rethink_overrides: Optional[Dict] = None,
) -> TrialResult:
    """Train the R- variant of a model and evaluate its clustering."""
    pipeline = trial_pipeline(model_name, graph, config, seed, pretrained_state).rethink(
        **(rethink_overrides or {})
    )
    return TrialResult.from_run_result(pipeline.run())


def _shared_pretrain_state(model_name, dataset_name, graph, config, seed):
    """The fairness-protocol pretraining snapshot, warm-started when possible.

    Pretraining goes through :func:`repro.store.warm_pretrain`, keyed like a
    ``Pipeline.warm_start`` trial of the same (dataset, model, seed, epochs)
    cell.  With an active artifact store (``REPRO_STORE_DIR``) a cell is
    pretrained once ever: the key excludes the variant, so the D and R-D
    trials — and every later sweep over the cell — reuse one snapshot, and
    a corrupt snapshot degrades to cold pretraining with a warning.  The
    trials get a :class:`~repro.store.Snapshot` of the pretrained model
    (its ``state_dict()`` without a store) and keep their own freshly
    seeded RNG streams, so warm results are bitwise identical to cold ones.
    """
    from repro.store import Snapshot, warm_pretrain

    pretrain_model = build_model(
        model_name, graph.num_features, graph.num_clusters, seed=seed
    )
    stats = warm_pretrain(
        pretrain_model,
        graph,
        config.pretrain_epochs,
        dataset={"name": dataset_name, "seed": config.base_seed, "options": {}},
    )
    if not stats["enabled"]:
        return pretrain_model.state_dict(), stats
    snapshot = Snapshot.capture(
        pretrain_model, epoch=config.pretrain_epochs, phase="pretrain"
    )
    return snapshot, stats


def _run_pair_seed(task) -> tuple:
    """One seed's (base, rethink) pair with shared pretraining.

    Module-level so :func:`repro.parallel.parallel_map` can ship it to pool
    workers; everything it needs (names, the frozen config, the seed) is
    picklable, and the graph / pretraining snapshot are rebuilt inside the
    worker from those seeds (or served from the warm-start store).
    """
    model_name, dataset_name, config, rethink_overrides, seed = task
    from repro.parallel import load_dataset_cached

    # Per-process memoisation: a worker handling several seeds of the same
    # sweep builds the (shared, immutable) graph once.
    graph = load_dataset_cached(dataset_name, seed=config.base_seed)
    # Shared pretraining snapshot for fairness.
    state, pretrain_stats = _shared_pretrain_state(
        model_name, dataset_name, graph, config, seed
    )
    base = run_baseline_model(model_name, graph, config, seed, pretrained_state=state)
    rethink = run_rethink_model(
        model_name,
        graph,
        config,
        seed,
        pretrained_state=state,
        rethink_overrides=rethink_overrides,
    )
    base.extra["pretrain_cache"] = dict(pretrain_stats)
    rethink.extra["pretrain_cache"] = dict(pretrain_stats)
    return base, rethink


def run_model_pair(
    model_name: str,
    dataset_name: str,
    config: Optional[ExperimentConfig] = None,
    rethink_overrides: Optional[Dict] = None,
    jobs=None,
    store_dir: Optional[str] = None,
) -> PairResult:
    """Run D and R-D over ``config.num_trials`` seeds with shared pretraining.

    ``jobs`` fans the seeds out over a process pool (``None``/1 serial, an
    int, or ``"auto"``); each seed is an independent, fully seeded work
    unit, so the aggregated tables are identical for any ``jobs`` value.
    ``store_dir`` points the sweep at a warm-start artifact store: the
    shared per-seed pretraining is then served from the store when present
    (and written to it otherwise), so re-running the sweep skips every
    pretraining phase while producing bitwise-identical tables.  The
    per-trial hit/miss record lands in ``TrialResult.extra['pretrain_cache']``.
    """
    from repro.parallel import parallel_map
    from repro.store import store_env

    config = config or ExperimentConfig()
    tasks = [
        (
            model_name,
            dataset_name,
            config,
            rethink_overrides,
            config.base_seed + trial,
        )
        for trial in range(config.num_trials)
    ]
    with store_env(store_dir):
        outcomes = parallel_map(_run_pair_seed, tasks, jobs=jobs)
    pair = PairResult(model=model_name, dataset=dataset_name)
    for base, rethink in outcomes:
        pair.base_trials.append(base)
        pair.rethink_trials.append(rethink)
    return pair
