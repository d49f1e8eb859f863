"""Tests for the non-GAE baselines and the experiment harness."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.api import Pipeline
from repro.baselines import available_baselines, build_baseline
from repro.experiments import (
    ExperimentConfig,
    aggregate_reports,
    edge_addition_study,
    edge_operation_ablation,
    edge_removal_study,
    feature_noise_study,
    feature_removal_study,
    format_mean_std_table,
    format_table,
    gamma_sensitivity_study,
    learning_dynamics_study,
    protection_vs_correction_fd,
    protection_vs_correction_fr,
    rethink_hyperparameters,
    run_model_pair,
    runtime_comparison,
    threshold_ablation,
    threshold_sensitivity_study,
)
from repro.experiments import studies
from repro.experiments.tables import format_simple_table
from repro.graph import (
    add_feature_noise,
    add_random_edges,
    drop_random_edges,
    drop_random_features,
)
from repro.metrics import clustering_accuracy
from repro.metrics.report import ClusteringReport
from repro.models import build_model
from repro.models.base import GAEClusteringModel


TINY_CONFIG = ExperimentConfig(
    pretrain_epochs=12, clustering_epochs=8, rethink_epochs=10, num_trials=1
)


class TestBaselines:
    def test_four_baselines_registered(self):
        assert set(available_baselines()) == {"tadw", "mgae", "agc", "age"}

    def test_unknown_baseline_raises(self):
        with pytest.raises(KeyError):
            build_baseline("dec", 3)

    @pytest.mark.parametrize("name", ["tadw", "mgae", "agc", "age"])
    def test_baselines_beat_random_on_easy_graph(self, name, tiny_graph):
        labels = build_baseline(name, tiny_graph.num_clusters, seed=0).fit_predict(tiny_graph)
        assert labels.shape == (tiny_graph.num_nodes,)
        assert set(np.unique(labels)).issubset(set(range(tiny_graph.num_clusters)))
        # Random accuracy for 3 roughly balanced clusters is about 0.4.
        assert clustering_accuracy(tiny_graph.labels, labels) > 0.45

    def test_agc_selects_an_order(self, tiny_graph):
        baseline = build_baseline("agc", tiny_graph.num_clusters, seed=0)
        baseline.fit_predict(tiny_graph)
        assert baseline.selected_order_ >= 1

    def test_tadw_embedding_shape(self, tiny_graph):
        baseline = build_baseline("tadw", tiny_graph.num_clusters, seed=0, embedding_dim=16)
        baseline.fit(tiny_graph)
        assert baseline.embedding_.shape[0] == tiny_graph.num_nodes

    def test_age_embedding_available_after_fit(self, tiny_graph):
        baseline = build_baseline("age", tiny_graph.num_clusters, seed=0)
        baseline.fit(tiny_graph)
        assert baseline.embedding_ is not None


class TestExperimentConfig:
    def test_presets(self):
        assert ExperimentConfig.fast().pretrain_epochs < ExperimentConfig.paper().pretrain_epochs
        assert ExperimentConfig.paper().pretrain_epochs == 200

    def test_with_trials(self):
        assert ExperimentConfig().with_trials(5).num_trials == 5

    def test_rethink_hyperparameters_known_pair(self):
        hyper = rethink_hyperparameters("cora_sim", "dgae")
        assert hyper["alpha1"] == pytest.approx(0.3)
        assert hyper["update_omega_every"] == 20

    def test_rethink_hyperparameters_fallback(self):
        hyper = rethink_hyperparameters("my_dataset", "my_model")
        assert set(hyper) == {"alpha1", "update_omega_every", "update_graph_every"}


class TestAggregationAndTables:
    def test_aggregate_reports(self):
        reports = [
            ClusteringReport(accuracy=0.6, nmi=0.5, ari=0.4),
            ClusteringReport(accuracy=0.8, nmi=0.7, ari=0.6),
        ]
        stats = aggregate_reports(reports)
        assert stats["acc"]["mean"] == pytest.approx(0.7)
        assert stats["nmi"]["std"] == pytest.approx(0.1)

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_reports([])

    def test_format_table_contains_values(self):
        rows = {"GAE": {"cora_sim": {"acc": 0.613, "nmi": 0.444, "ari": 0.381}}}
        table = format_table(rows, ["cora_sim"], title="Table 1")
        assert "Table 1" in table and "61.3" in table and "GAE" in table

    def test_format_table_missing_value_dash(self):
        rows = {"GAE": {"cora_sim": {"acc": 0.5}}}
        table = format_table(rows, ["cora_sim", "citeseer_sim"])
        assert "--" in table

    def test_format_mean_std_table(self):
        rows = {"GAE": {"cora_sim": {"acc": {"mean": 0.556, "std": 0.049}}}}
        table = format_mean_std_table(rows, ["cora_sim"], metrics=("acc",))
        assert "55.6 ± 4.9" in table

    def test_format_simple_table(self):
        table = format_simple_table(
            [{"case": "no ablation", "acc": 0.767}], columns=["case", "acc"], title="T"
        )
        assert "no ablation" in table and "0.767" in table


@pytest.mark.slow
class TestRunnersIntegration:
    """Integration tests over tiny budgets (each runs a handful of epochs)."""

    def test_run_model_pair_structure(self):
        pair = run_model_pair("dgae", "brazil_air_sim", config=TINY_CONFIG)
        assert len(pair.base_trials) == 1 and len(pair.rethink_trials) == 1
        best = pair.best("base")
        assert 0.0 <= best.accuracy <= 1.0
        stats = pair.mean_std("rethink")
        assert "acc" in stats

    def test_protection_vs_correction_fr(self, tiny_graph):
        rows = protection_vs_correction_fr("dgae", tiny_graph, delays=(0, 5), config=TINY_CONFIG)
        assert rows[0]["mechanism"] == "protection"
        assert rows[1]["mechanism"] == "correction"
        assert all("acc" in row for row in rows)

    def test_protection_vs_correction_fd(self, tiny_graph):
        rows = protection_vs_correction_fd("dgae", tiny_graph, config=TINY_CONFIG)
        assert {row["mechanism"] for row in rows} == {"protection", "correction"}

    def test_threshold_ablation_cases(self, tiny_graph):
        rows = threshold_ablation("dgae", tiny_graph, config=TINY_CONFIG)
        assert len(rows) == 4
        assert {row["case"] for row in rows} == {
            "ablation of alpha2",
            "ablation of alpha1",
            "ablation of both",
            "no ablation",
        }

    def test_edge_operation_ablation_cases(self, tiny_graph):
        rows = edge_operation_ablation("dgae", tiny_graph, config=TINY_CONFIG)
        assert len(rows) == 4

    def test_runtime_comparison_structure(self, tiny_graph):
        timings = runtime_comparison("dgae", tiny_graph, config=TINY_CONFIG, num_runs=1)
        assert set(timings) == {"base", "rethink"}
        for stats in timings.values():
            assert stats["best"] > 0.0 and stats["mean"] >= stats["best"]

    def test_edge_addition_study(self, tiny_graph):
        rows = edge_addition_study(
            "dgae", tiny_graph, num_edges_levels=(0, 30), config=TINY_CONFIG
        )
        assert len(rows) == 2
        assert all({"base", "rethink", "level"} <= set(row) for row in rows)

    def test_threshold_sensitivity_grid(self, tiny_graph):
        rows = threshold_sensitivity_study(
            "dgae",
            tiny_graph,
            alpha1_values=(0.2,),
            alpha2_values=(0.1,),
            config=TINY_CONFIG,
        )
        assert len(rows) == 1 and "final_coverage" in rows[0]

    def test_gamma_sensitivity(self, tiny_graph):
        rows = gamma_sensitivity_study(
            "dgae", tiny_graph, gamma_values=(0.001, 1.0), config=TINY_CONFIG
        )
        assert len(rows) == 2 and all("base" in row and "rethink" in row for row in rows)

    def test_learning_dynamics_study(self, tiny_graph):
        result = learning_dynamics_study("dgae", tiny_graph, config=TINY_CONFIG, snapshot_every=5)
        history = result["history"]
        assert len(history.omega_coverage) > 0
        assert result["final_report"] is not None
        assert all("num_edges" in info for info in result["graph_snapshot_summary"].values())


@pytest.fixture()
def empty_study_memos():
    """Start from empty study memos (pretraining states, trial outcomes)."""
    studies._states.clear()
    studies._outcomes.clear()


#: the budgets each study set on its trials before the shared runner.
RETHINK_BUDGET = ("rethink_epochs",)
BOTH_BUDGETS = ("clustering_epochs", "rethink_epochs")


def _reference_trials(graph, cases, budgets, config=TINY_CONFIG, model_name="dgae", seed=0):
    """The loop each study wrote out before the shared runner: build,
    pretrain, take the state_dict, then one Pipeline per
    (variant, overrides, options) case."""
    model = build_model(model_name, graph.num_features, graph.num_clusters, seed=seed)
    model.pretrain(graph, epochs=config.pretrain_epochs)
    state = model.state_dict()
    results = []
    for variant, overrides, options in cases:
        pipeline = (
            Pipeline()
            .graph(graph)
            .model(model_name, **options)
            .seed(seed)
            .pretrained_state(state)
            .training(**{budget: getattr(config, budget) for budget in budgets})
        )
        pipeline = pipeline.rethink(**overrides) if variant == "rethink" else pipeline.base()
        results.append(pipeline.run())
    return results


def _reference_labelled(graph, labelled_overrides, key="case"):
    results = _reference_trials(
        graph, [("rethink", overrides, {}) for _, overrides in labelled_overrides], RETHINK_BUDGET
    )
    return [
        {key: label, **result.report.as_dict()}
        for (label, _), result in zip(labelled_overrides, results)
    ]


def _reference_fr(graph):
    delays = (0, 5)
    results = _reference_trials(
        graph, [("rethink", {"protection_delay": delay}, {}) for delay in delays], RETHINK_BUDGET
    )
    return [
        {"delay": delay, "mechanism": "protection" if delay == 0 else "correction",
         **result.report.as_dict()}
        for delay, result in zip(delays, results)
    ]


def _reference_robustness(graph, corrupt, levels):
    rng_master = np.random.default_rng(0)
    rows = []
    for level in levels:
        corrupted = corrupt(graph, level, np.random.default_rng(rng_master.integers(0, 2 ** 31)))
        base, rethink = _reference_trials(
            corrupted, [("base", {}, {}), ("rethink", {}, {})], BOTH_BUDGETS
        )
        rows.append(
            {"level": level, "base": base.report.as_dict(), "rethink": rethink.report.as_dict()}
        )
    return rows


def _unless_zero(edit):
    return lambda graph, level, rng: graph if level == 0 else edit(graph, level, rng)


def _reference_thresholds(graph):
    grid = [(0.2, 0.1), (0.6, 0.1)]
    results = _reference_trials(
        graph, [("rethink", {"alpha1": a1, "alpha2": a2}, {}) for a1, a2 in grid], RETHINK_BUDGET
    )
    return [
        {"alpha1": a1, "alpha2": a2, **result.report.as_dict(),
         "final_coverage": result.history.omega_coverage[-1]}
        for (a1, a2), result in zip(grid, results)
    ]


def _reference_gamma(graph):
    rows = []
    for gamma in (0.001, 1.0):
        base, rethink = _reference_trials(
            graph,
            [("base", {}, {"gamma": gamma}), ("rethink", {"gamma": gamma}, {"gamma": gamma})],
            BOTH_BUDGETS,
        )
        rows.append(
            {"gamma": gamma, "base": base.report.as_dict(), "rethink": rethink.report.as_dict()}
        )
    return rows


#: each study at TINY_CONFIG, beside the rows of the loop it ran before
#: the shared runner.  The ambiguous tiny graph keeps the rows apart (on
#: the easy one every row reads 1.0).
STUDY_REFERENCES = {
    "table6": (
        lambda g: protection_vs_correction_fr("dgae", g, delays=(0, 5), config=TINY_CONFIG),
        _reference_fr,
    ),
    "table7": (
        lambda g: protection_vs_correction_fd("dgae", g, config=TINY_CONFIG),
        lambda g: _reference_labelled(
            g,
            [("protection", {"single_step_transform": True}),
             ("correction", {"single_step_transform": False})],
            key="mechanism",
        ),
    ),
    "table8": (
        lambda g: threshold_ablation("dgae", g, config=TINY_CONFIG),
        lambda g: _reference_labelled(
            g,
            [("ablation of alpha2", {"use_margin_criterion": False}),
             ("ablation of alpha1", {"use_confidence_criterion": False}),
             ("ablation of both", {"use_sampling": False}),
             ("no ablation", {})],
        ),
    ),
    "table9": (
        lambda g: edge_operation_ablation("dgae", g, config=TINY_CONFIG),
        lambda g: _reference_labelled(
            g,
            [("ablation of drop_edge", {"drop_edges": False}),
             ("ablation of add_edge", {"add_edges": False}),
             ("ablation of both", {"use_graph_transform": False}),
             ("no ablation", {})],
        ),
    ),
    "fig7_edges": (
        lambda g: edge_addition_study("dgae", g, num_edges_levels=(0, 30), config=TINY_CONFIG),
        lambda g: _reference_robustness(g, _unless_zero(add_random_edges), (0, 30)),
    ),
    "fig7_features": (
        lambda g: feature_noise_study("dgae", g, variance_levels=(0.0, 0.1), config=TINY_CONFIG),
        lambda g: _reference_robustness(g, add_feature_noise, (0.0, 0.1)),
    ),
    "fig8_edges": (
        lambda g: edge_removal_study("dgae", g, num_edges_levels=(0, 30), config=TINY_CONFIG),
        lambda g: _reference_robustness(g, _unless_zero(drop_random_edges), (0, 30)),
    ),
    "fig8_features": (
        lambda g: feature_removal_study(
            "dgae", g, num_columns_levels=(0, 10), config=TINY_CONFIG
        ),
        lambda g: _reference_robustness(g, _unless_zero(drop_random_features), (0, 10)),
    ),
    "fig11_12": (
        lambda g: threshold_sensitivity_study(
            "dgae", g, alpha1_values=(0.2, 0.6), alpha2_values=(0.1,), config=TINY_CONFIG
        ),
        _reference_thresholds,
    ),
    "fig13": (
        lambda g: gamma_sensitivity_study(
            "dgae", g, gamma_values=(0.001, 1.0), config=TINY_CONFIG
        ),
        _reference_gamma,
    ),
}


@pytest.mark.slow
class TestStudyRunner:
    """The shared study runner: one pretraining and one run per identical trial."""

    def test_one_pretraining_per_model_graph_and_budget(
        self, tiny_graph, empty_study_memos, monkeypatch
    ):
        pretrained = []
        original = GAEClusteringModel.pretrain

        def counting(model, graph, epochs=200, optimizer=None):
            if epochs > 0:
                pretrained.append(epochs)
            return original(model, graph, epochs, optimizer)

        monkeypatch.setattr(GAEClusteringModel, "pretrain", counting)
        threshold_ablation("dgae", tiny_graph, config=TINY_CONFIG)
        edge_operation_ablation("dgae", tiny_graph, config=TINY_CONFIG)
        assert pretrained == [TINY_CONFIG.pretrain_epochs]

    def test_identical_trials_run_once(self, tiny_graph, empty_study_memos, monkeypatch):
        variants = []
        original = Pipeline.run

        def counting(pipeline):
            variants.append(pipeline.spec().variant)
            return original(pipeline)

        monkeypatch.setattr(Pipeline, "run", counting)
        added = edge_addition_study("dgae", tiny_graph, num_edges_levels=(0,), config=TINY_CONFIG)
        dropped = edge_removal_study("dgae", tiny_graph, num_edges_levels=(0,), config=TINY_CONFIG)
        assert variants == ["base", "rethink"]
        assert added == dropped

    @pytest.mark.parametrize("study", sorted(STUDY_REFERENCES))
    def test_rows_equal_the_per_study_loop(self, study, tiny_hard_graph, empty_study_memos):
        run, reference = STUDY_REFERENCES[study]
        assert run(tiny_hard_graph) == reference(tiny_hard_graph)

    def test_rows_are_fresh_objects(self, tiny_graph):
        def study_rows():
            flat = threshold_sensitivity_study(
                "dgae", tiny_graph, alpha1_values=(0.2,), alpha2_values=(0.1,), config=TINY_CONFIG
            )
            nested = gamma_sensitivity_study(
                "dgae", tiny_graph, gamma_values=(1.0,), config=TINY_CONFIG
            )
            return flat, nested

        flat, nested = study_rows()
        expected = copy.deepcopy((flat, nested))
        flat[0]["acc"] = nested[0]["base"]["acc"] = nested[0]["rethink"]["nmi"] = -1.0
        assert study_rows() == expected
