"""Train D / R-D pairs and aggregate their clustering metrics.

This is the engine behind Tables 1-4 and 17.  A pair is two sweeps over
the same seeds through :meth:`repro.api.Pipeline.run_sweep`: the base model
D, then its R- version, both warm-started from one artifact store.  Each D
trial pretrains and writes its snapshot; the R-D trial of the same seed
reads it back (the paper's fairness protocol: "each couple of methods D
and R-D share the same pretraining weights").  The snapshot carries the
post-pretraining RNG state, so the R-D trial continues that stream exactly
as a cold run of its own spec would: every trial equals
``Pipeline.from_spec(trial.spec).run()``.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.pipeline import Pipeline, RunResult
from repro.errors import UnknownVariantError
from repro.experiments.config import ExperimentConfig
from repro.metrics.report import ClusteringReport


@dataclass
class PairResult:
    """All trials of a (model, dataset) pair, base and R- variants."""

    model: str
    dataset: str
    base_trials: List[RunResult] = field(default_factory=list)
    rethink_trials: List[RunResult] = field(default_factory=list)

    def trials(self, variant: str) -> List[RunResult]:
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


def run_model_pair(
    model_name: str,
    dataset_name: str,
    config: Optional[ExperimentConfig] = None,
    jobs=None,
    store_dir: Optional[str] = None,
) -> PairResult:
    """Run D and R-D over ``config.num_trials`` seeds with shared pretraining.

    ``jobs`` fans each sweep's seeds out over a process pool (``None``/1
    serial, an int, or ``"auto"``); every trial is seeded by its spec, so
    the results are identical for any ``jobs`` value.  The pair fails fast:
    a trial that exhausts its retries raises the typed error.

    Both sweeps use the store at ``store_dir``, else the ``REPRO_STORE_DIR``
    store, else a temporary store removed on return.  Each sweep resolves
    that store once, in this process, and its root reaches every pool
    worker with the trial.  A kept store also serves later pairs:
    re-running one loads every pretraining snapshot and reproduces the same
    results.  Each trial's hit/miss record lands in
    ``RunResult.extra['pretrain_cache']``.
    """
    from repro.store import active_store

    config = config or ExperimentConfig()
    seeds = [config.base_seed + trial for trial in range(config.num_trials)]
    pipeline = (
        Pipeline()
        .dataset(dataset_name, seed=config.base_seed)
        .model(model_name)
        .training(
            pretrain_epochs=config.pretrain_epochs,
            clustering_epochs=config.clustering_epochs,
            rethink_epochs=config.rethink_epochs,
        )
    )
    with contextlib.ExitStack() as stack:
        if store_dir is None and active_store() is None:
            store_dir = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-pair-"))
        if store_dir is not None:
            pipeline = pipeline.warm_start(store_dir)
        base = pipeline.base().run_sweep(seeds, jobs=jobs, fail_fast=True)
        rethink = pipeline.rethink().run_sweep(seeds, jobs=jobs, fail_fast=True)
    return PairResult(model_name, dataset_name, base.results, rethink.results)
