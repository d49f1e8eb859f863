"""Ablation, robustness and sensitivity studies: Tables 6-9, Figures 7, 8, 11-13.

Every study compares variants of one model that share one pretraining, as
in the paper.  A study is a list of cases on a graph — the variant (D or
R-D), R- overrides and model options — plus a mapping from outcomes to its
rows.  One runner, :func:`_run_cases`, runs each case as one
:class:`repro.api.Pipeline` trial handed the shared pretraining
``state_dict`` through :meth:`~repro.api.Pipeline.pretrained_state`, so
every trial starts from a freshly seeded RNG (a warm-start store would
continue the post-pretraining RNG stream instead, which moves the GMM-VGAE
rows).  Pretraining builds the model with its default options: model
options (Figure 13's γ) reach the trials only.

Two per-process LRU memos, each holding at most :data:`STUDY_MEMO_SIZE`
entries, let the studies run in one process share work:

* pretraining ``state_dict``s, keyed by (model, graph content, pretrain
  epochs, seed), so Tables 6-9 and Figures 10-13 pretrain each model once
  per graph;
* trial outcomes — the report and the final Ω coverage, never the model —
  keyed by graph content and the trial's spec, which holds every epoch
  budget.  An identical trial, such as the "no ablation" row of Tables 8
  and 9 or the unmodified level 0 of every robustness study, runs once.

Graph content is :func:`repro.store.keys.graph_fingerprint` plus the
labels the reports are scored against, so a corrupted graph never aliases
its source.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.pipeline import Pipeline
from repro.experiments.config import ExperimentConfig
from repro.graph.graph import AttributedGraph
from repro.graph.ops import (
    add_feature_noise,
    add_random_edges,
    drop_random_edges,
    drop_random_features,
)
from repro.models import build_model
from repro.store.keys import array_digest, config_hash, graph_fingerprint

#: max entries of each per-process study memo (pretraining states, trial outcomes).
STUDY_MEMO_SIZE = 32

#: a trial's outcome: its report as a dict and, for R- trials, the final Ω coverage.
Outcome = Tuple[Dict[str, float], Optional[float]]
#: a study case: the variant, its R- overrides and the model options.
Case = Tuple[str, Dict[str, Any], Dict[str, Any]]

_states: "OrderedDict[str, Dict[str, np.ndarray]]" = OrderedDict()
_outcomes: "OrderedDict[str, Outcome]" = OrderedDict()


def _memoised(
    memo: "OrderedDict[str, Any]", key: str, compute: Callable[..., Any], *args: Any
) -> Any:
    """``memo[key]``, set to ``compute(*args)`` on a miss; the least recently
    used entry beyond :data:`STUDY_MEMO_SIZE` is dropped."""
    if key in memo:
        memo.move_to_end(key)
        return memo[key]
    value = memo[key] = compute(*args)
    if len(memo) > STUDY_MEMO_SIZE:
        memo.popitem(last=False)
    return value


def _graph_identity(graph: AttributedGraph) -> Dict[str, Any]:
    """Content identity of a study graph: its fingerprint plus its labels."""
    return {**graph_fingerprint(graph), "labels": array_digest(graph.labels)}


def _pretrain(
    model_name: str, graph: AttributedGraph, epochs: int, seed: int
) -> Dict[str, np.ndarray]:
    model = build_model(model_name, graph.num_features, graph.num_clusters, seed=seed)
    model.pretrain(graph, epochs=epochs)
    return model.state_dict()


def _pretrained_state(
    model_name: str, graph: AttributedGraph, epochs: int, seed: int, identity: Dict[str, Any]
) -> Dict[str, np.ndarray]:
    """The shared pretraining ``state_dict`` of ``model_name`` on ``graph``.

    ``identity`` is ``_graph_identity(graph)``.  Callers hand the state to
    ``load_state_dict``, which copies it, so the memoised arrays never change.
    """
    key = config_hash([model_name, identity, epochs, seed])
    return _memoised(_states, key, _pretrain, model_name, graph, epochs, seed)


def _outcome(pipeline: Pipeline) -> Outcome:
    result = pipeline.run()
    coverage = None if result.history is None else result.history.omega_coverage[-1]
    return result.report.as_dict(), coverage


def _run_cases(
    model_name: str,
    graph: AttributedGraph,
    cases: Sequence[Case],
    config: Optional[ExperimentConfig],
    seed: int,
) -> List[Outcome]:
    """Run each case on ``graph`` as one trial from the shared pretraining.

    Returns one outcome per case, in order; each report is a fresh dict.
    """
    config = config or ExperimentConfig.fast()
    identity = _graph_identity(graph)
    state = _pretrained_state(model_name, graph, config.pretrain_epochs, seed, identity)
    template = (
        Pipeline()
        .graph(graph)
        .seed(seed)
        .pretrained_state(state)
        .training(
            pretrain_epochs=config.pretrain_epochs,
            clustering_epochs=config.clustering_epochs,
            rethink_epochs=config.rethink_epochs,
        )
    )
    outcomes: List[Outcome] = []
    for variant, overrides, options in cases:
        pipeline = template.model(model_name, **options)
        pipeline = pipeline.rethink(**overrides) if variant == "rethink" else pipeline.base()
        key = config_hash([identity, pipeline.spec().to_dict()])
        report, coverage = _memoised(_outcomes, key, _outcome, pipeline)
        outcomes.append((dict(report), coverage))
    return outcomes


def _rethink_cases(overrides: Sequence[Dict[str, Any]]) -> List[Case]:
    return [("rethink", case, {}) for case in overrides]


_THRESHOLD_CASES = {
    "ablation of alpha2": {"use_margin_criterion": False},
    "ablation of alpha1": {"use_confidence_criterion": False},
    "ablation of both": {"use_sampling": False},
    "no ablation": {},
}
_EDGE_OPERATION_CASES = {
    "ablation of drop_edge": {"drop_edges": False},
    "ablation of add_edge": {"add_edges": False},
    "ablation of both": {"use_graph_transform": False},
    "no ablation": {},
}


def protection_vs_correction_fr(
    model_name: str,
    graph: AttributedGraph,
    delays: Sequence[int] = (0, 10, 30, 50),
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> List[Dict]:
    """Table 6: protection (no delay) vs correction (delayed sampling) against FR.

    Delay 0 is the protection mechanism; positive delays let Feature
    Randomness occur before the sampling operator Ξ kicks in.
    """
    cases = _rethink_cases([{"protection_delay": delay} for delay in delays])
    outcomes = _run_cases(model_name, graph, cases, config, seed)
    return [
        {"delay": delay, "mechanism": "protection" if delay == 0 else "correction", **report}
        for delay, (report, _) in zip(delays, outcomes)
    ]


def protection_vs_correction_fd(
    model_name: str,
    graph: AttributedGraph,
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> List[Dict]:
    """Table 7: protection (single-step Υ on all nodes) vs correction (gradual Υ on Ω)."""
    cases = _rethink_cases([{"single_step_transform": True}, {"single_step_transform": False}])
    outcomes = _run_cases(model_name, graph, cases, config, seed)
    return [
        {"mechanism": mechanism, **report}
        for mechanism, (report, _) in zip(("protection", "correction"), outcomes)
    ]


def _labelled_ablation(
    model_name: str,
    graph: AttributedGraph,
    cases: Dict[str, Dict[str, Any]],
    config: Optional[ExperimentConfig],
    seed: int,
) -> List[Dict]:
    outcomes = _run_cases(model_name, graph, _rethink_cases(list(cases.values())), config, seed)
    return [{"case": label, **report} for label, (report, _) in zip(cases, outcomes)]


def threshold_ablation(
    model_name: str,
    graph: AttributedGraph,
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> List[Dict]:
    """Table 8: ablate the α1 and α2 criteria of the sampling operator Ξ."""
    return _labelled_ablation(model_name, graph, _THRESHOLD_CASES, config, seed)


def edge_operation_ablation(
    model_name: str,
    graph: AttributedGraph,
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> List[Dict]:
    """Table 9: ablate the add_edge / drop_edge operations of the operator Υ."""
    return _labelled_ablation(model_name, graph, _EDGE_OPERATION_CASES, config, seed)


def _robustness(
    model_name: str,
    graph: AttributedGraph,
    corrupt: Callable[[AttributedGraph, Any, np.random.Generator], AttributedGraph],
    levels: Sequence,
    config: Optional[ExperimentConfig],
    seed: int,
) -> List[Dict]:
    """D and R-D per corruption level, both trained on the same corrupted
    graph; level 0 is the unmodified graph."""
    rng_master = np.random.default_rng(seed)
    rows: List[Dict] = []
    for level in levels:
        rng = np.random.default_rng(rng_master.integers(0, 2 ** 31))
        corrupted = graph if level == 0 else corrupt(graph, level, rng)
        cases: List[Case] = [("base", {}, {}), ("rethink", {}, {})]
        (base, _), (rethink, _) = _run_cases(model_name, corrupted, cases, config, seed)
        rows.append({"level": level, "base": base, "rethink": rethink})
    return rows


def edge_addition_study(
    model_name: str,
    graph: AttributedGraph,
    num_edges_levels: Sequence[int] = (0, 200, 400, 800),
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> List[Dict]:
    """Figure 7 (left): add random (noisy) edges and compare D vs R-D."""
    return _robustness(model_name, graph, add_random_edges, num_edges_levels, config, seed)


def feature_noise_study(
    model_name: str,
    graph: AttributedGraph,
    variance_levels: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> List[Dict]:
    """Figure 7 (right): add Gaussian feature noise and compare D vs R-D."""
    return _robustness(model_name, graph, add_feature_noise, variance_levels, config, seed)


def edge_removal_study(
    model_name: str,
    graph: AttributedGraph,
    num_edges_levels: Sequence[int] = (0, 200, 400, 800),
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> List[Dict]:
    """Figure 8 (left): drop existing edges and compare D vs R-D."""
    return _robustness(model_name, graph, drop_random_edges, num_edges_levels, config, seed)


def feature_removal_study(
    model_name: str,
    graph: AttributedGraph,
    num_columns_levels: Sequence[int] = (0, 50, 100, 200),
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> List[Dict]:
    """Figure 8 (right): drop feature columns and compare D vs R-D."""
    return _robustness(
        model_name, graph, drop_random_features, num_columns_levels, config, seed
    )


def threshold_sensitivity_study(
    model_name: str,
    graph: AttributedGraph,
    alpha1_values: Sequence[float] = (0.1, 0.2, 0.3, 0.4),
    alpha2_values: Sequence[float] = (0.05, 0.1, 0.15, 0.2),
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> List[Dict]:
    """Figures 11-12: grid over the confidence thresholds α1 and α2.

    The same pretraining snapshot is reused across the whole grid so the
    differences are attributable to the thresholds only.
    """
    grid = [(alpha1, alpha2) for alpha1 in alpha1_values for alpha2 in alpha2_values]
    cases = _rethink_cases([{"alpha1": alpha1, "alpha2": alpha2} for alpha1, alpha2 in grid])
    outcomes = _run_cases(model_name, graph, cases, config, seed)
    return [
        {"alpha1": alpha1, "alpha2": alpha2, **report, "final_coverage": coverage}
        for (alpha1, alpha2), (report, coverage) in zip(grid, outcomes)
    ]


def gamma_sensitivity_study(
    model_name: str,
    graph: AttributedGraph,
    gamma_values: Sequence[float] = (0.01, 0.1, 0.5, 1.0, 2.0),
    config: Optional[ExperimentConfig] = None,
    seed: int = 0,
) -> List[Dict]:
    """Figure 13: sensitivity of D and R-D to the balancing coefficient γ.

    For each γ both the base model and the R- variant are retrained from the
    same pretraining snapshot; the paper's claim is that the R- variant is
    markedly *less* sensitive to γ.
    """
    cases: List[Case] = []
    for gamma in gamma_values:
        cases += [("base", {}, {"gamma": gamma}), ("rethink", {"gamma": gamma}, {"gamma": gamma})]
    outcomes = _run_cases(model_name, graph, cases, config, seed)
    return [
        {"gamma": gamma, "base": base, "rethink": rethink}
        for gamma, (base, _), (rethink, _) in zip(gamma_values, outcomes[::2], outcomes[1::2])
    ]
