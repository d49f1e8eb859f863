"""Experiment harness: everything needed to regenerate the paper's tables and figures."""

from repro.experiments.config import ExperimentConfig, rethink_hyperparameters
from repro.experiments.runner import (
    PairResult,
    run_model_pair,
    aggregate_reports,
)
from repro.experiments.tables import format_table, format_mean_std_table
from repro.experiments.studies import (
    edge_addition_study,
    edge_removal_study,
    feature_noise_study,
    feature_removal_study,
    threshold_sensitivity_study,
    gamma_sensitivity_study,
    protection_vs_correction_fr,
    protection_vs_correction_fd,
    threshold_ablation,
    edge_operation_ablation,
)
from repro.experiments.dynamics import learning_dynamics_study, latent_separability_study
from repro.experiments.timing import runtime_comparison

__all__ = [
    "ExperimentConfig",
    "rethink_hyperparameters",
    "PairResult",
    "run_model_pair",
    "aggregate_reports",
    "format_table",
    "format_mean_std_table",
    "edge_addition_study",
    "edge_removal_study",
    "feature_noise_study",
    "feature_removal_study",
    "learning_dynamics_study",
    "latent_separability_study",
    "threshold_sensitivity_study",
    "gamma_sensitivity_study",
    "protection_vs_correction_fr",
    "protection_vs_correction_fd",
    "threshold_ablation",
    "edge_operation_ablation",
    "runtime_comparison",
]
