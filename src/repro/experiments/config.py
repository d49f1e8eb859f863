"""Experiment configuration: the training budgets of the experiment runners.

``ExperimentConfig`` controls the training budget used by the experiment
runner; its defaults are scaled down from the paper's 200+200 epochs so the
full benchmark suite runs in minutes on a laptop while preserving every
qualitative trend.  ``ExperimentConfig.paper()`` restores the paper's
budgets.

``rethink_hyperparameters`` (Appendix C) lives in :mod:`repro.core.rethink`,
so a single trial reads it without importing this harness; it is
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.rethink import rethink_hyperparameters  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class ExperimentConfig:
    """Training budgets shared across the experiment runners."""

    pretrain_epochs: int = 80
    clustering_epochs: int = 60
    rethink_epochs: int = 100
    num_trials: int = 3
    base_seed: int = 0

    @classmethod
    def fast(cls) -> "ExperimentConfig":
        """A small budget for CI smoke runs and unit/integration tests."""
        return cls(pretrain_epochs=30, clustering_epochs=20, rethink_epochs=30, num_trials=2)

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The budgets used by the paper (200 pretraining + 200 clustering epochs)."""
        return cls(pretrain_epochs=200, clustering_epochs=200, rethink_epochs=200, num_trials=3)

    def with_trials(self, num_trials: int) -> "ExperimentConfig":
        return replace(self, num_trials=num_trials)
