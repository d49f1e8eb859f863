"""Tests for ``repro.observability``: tracer, counters, exporters, collection.

The headline guarantees under test:

* tracing is strictly opt-in — the disabled path changes nothing,
* ``REPRO_TRACE`` alone arms spans *and* counters,
* a traced ``jobs=4`` sweep is bitwise identical to an untraced one,
* the merged sweep document contains every trial's span forest exactly
  once (ordered by trial key, not pool arrival), plus the supervisor's
  retried-attempt spans (``<key>#a<n>``) under fault injection,
* the Chrome-trace export is structurally valid trace-event JSON.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.observability.collect import merge_sweep_telemetry
from repro.observability.exporters import (
    TRACE_SCHEMA,
    chrome_trace,
    format_trace_summary,
    load_trace_events,
    store_trace_path,
    summarize_trace,
    write_chrome_trace,
)
from repro.observability.metrics import METRICS_SCHEMA, metric_inc, metrics_report
from repro.observability.tracer import (
    active_tracer,
    install_tracer,
    span,
    trace_event,
    tracing_session,
    uninstall_tracer,
)
from repro.parallel import run_sweep


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    uninstall_tracer()
    yield
    uninstall_tracer()


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_by_default(self):
        assert active_tracer() is None
        with span("kernel.anything", n=3) as node:
            pass
        # the no-op singleton records nothing and supports the span surface
        node.count("edges", 5)
        trace_event("whatever")
        metric_inc("whatever")
        assert active_tracer() is None

    def test_span_forest_structure(self):
        tracer = install_tracer()
        with span("pipeline.run", dataset="cora_sim"):
            with span("trainer.epoch", epoch=0) as epoch:
                epoch.count("batches", 3)
            trace_event("telemetry.epoch", seconds=0.25, loss=1.5)
        roots = tracer.export()
        assert [root["name"] for root in roots] == ["pipeline.run"]
        root = roots[0]
        assert root["attributes"] == {"dataset": "cora_sim"}
        assert [child["name"] for child in root["children"]] == [
            "trainer.epoch",
            "telemetry.epoch",
        ]
        epoch, event = root["children"]
        assert epoch["counters"] == {"batches": 3}
        assert event["wall_seconds"] == 0.25
        assert event["attributes"]["loss"] == 1.5
        assert root["wall_seconds"] >= 0.0
        json.dumps(roots)  # export must be JSON-able

    def test_tracing_session_installs_and_restores(self):
        outer = install_tracer()
        with tracing_session(enabled=True) as inner:
            assert inner is not None and inner is not outer
            with span("inner.only"):
                metric_inc("inner.counter")
        assert active_tracer() is outer
        assert outer.export() == [] and outer.counters == {}
        assert inner.counters == {"inner.counter": 1}
        with tracing_session(enabled=False) as off:
            assert off is None

    def test_exception_marks_span_status(self):
        tracer = install_tracer()
        with pytest.raises(ValueError):
            with span("kernel.boom"):
                raise ValueError("boom")
        assert tracer.export()[0]["status"] == "error"


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
class TestMetrics:
    def test_disabled_hooks_are_noops(self):
        assert active_tracer() is None
        metric_inc("a")
        metric_inc("b", 2)
        assert active_tracer() is None

    def test_counter_payload_is_sorted_and_plain(self):
        tracer = install_tracer()
        metric_inc("z.counter")
        metric_inc("a.counter", 2)
        payload = tracer.payload()
        assert list(payload["metrics"]["counters"]) == ["a.counter", "z.counter"]
        assert payload["metrics"] == {"counters": {"a.counter": 2, "z.counter": 1}}
        assert payload["spans"] == []
        json.dumps(payload)

    def test_merge_is_order_independent(self):
        def payload(counters):
            return {"spans": [], "metrics": {"counters": counters}}

        arrival = [("trial_b", 1, payload({"n": 2})), ("trial_a", 0, payload({"n": 3, "m": 1}))]
        supervisor = payload({"n": 1, "s": 4})
        merged = merge_sweep_telemetry(arrival, supervisor=supervisor)
        assert merged == merge_sweep_telemetry(list(reversed(arrival)), supervisor=supervisor)
        # a plain sum over every trial and the supervisor, sorted by name
        assert merged["metrics"] == {"counters": {"m": 1, "n": 6, "s": 4}}
        assert list(merged["metrics"]["counters"]) == ["m", "n", "s"]

    def test_metrics_report_envelope(self):
        report = metrics_report("bench_x", [{"seconds": 1.0}], repeats=3, n=500)
        assert report["schema"] == METRICS_SCHEMA == "repro-metrics/1"
        assert report["benchmark"] == "bench_x"
        assert report["context"] == {"n": 500}
        assert report["repeats"] == 3
        assert report["results"] == [{"seconds": 1.0}]


# ----------------------------------------------------------------------
# per-trial capture and deterministic merging
# ----------------------------------------------------------------------
class TestCollect:
    def test_disabled_yields_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        with tracing_session() as tracer:
            assert tracer is None
            assert active_tracer() is None

    def test_env_flags_arm_capture(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        previous = install_tracer()
        with tracing_session() as tracer:
            assert active_tracer() is tracer is not previous
            with span("trial.work"):
                metric_inc("trial.counter")
            payload = tracer.payload()
        assert active_tracer() is previous  # restored, not uninstalled
        assert [node["name"] for node in payload["spans"]] == ["trial.work"]
        assert payload["metrics"]["counters"] == {"trial.counter": 1}
        # nothing leaked to the outer tracer
        assert previous.export() == [] and previous.counters == {}

    def test_merge_orders_by_key_then_index(self):
        def payload(name):
            return {"spans": [{"name": name}], "metrics": {"counters": {name: 1}}}

        arrival = [("kb", 1, payload("b")), ("ka", 0, payload("a")), ("kc", 2, None)]
        document = merge_sweep_telemetry(arrival)
        assert document["schema"] == TRACE_SCHEMA
        assert [t["key"] for t in document["trials"]] == ["ka", "kb", "kc"]
        assert document["trials"][2]["spans"] == []  # failed-before-export trial
        assert document["metrics"]["counters"] == {"a": 1, "b": 1}
        shuffled = merge_sweep_telemetry(list(reversed(arrival)))
        assert shuffled == document


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _sample_telemetry():
    return {
        "schema": TRACE_SCHEMA,
        "supervisor": {
            "spans": [
                {
                    "name": "resilience.attempt",
                    "start": 0.0,
                    "wall_seconds": 0.5,
                    "attributes": {"attempt_key": "k1#a1", "outcome": "ok"},
                }
            ]
        },
        "trials": [
            {
                "key": "k1",
                "index": 0,
                "spans": [
                    {
                        "name": "pipeline.run",
                        "start": 0.0,
                        "wall_seconds": 0.4,
                        "cpu_seconds": 0.3,
                        "children": [
                            {"name": "trainer.epoch", "start": 0.1, "wall_seconds": 0.2}
                        ],
                    }
                ],
            }
        ],
    }


class TestExporters:
    def test_chrome_trace_structure(self):
        document = chrome_trace(_sample_telemetry())
        events = document["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} == {"supervisor", "trial k1"}
        assert {e["name"] for e in complete} == {
            "resilience.attempt", "pipeline.run", "trainer.epoch",
        }
        run = next(e for e in complete if e["name"] == "pipeline.run")
        assert run["dur"] == 0.4e6 and run["args"]["cpu_ms"] == 300.0
        assert run["cat"] == "pipeline"
        assert document["otherData"]["schema"] == TRACE_SCHEMA

    def test_write_load_summarize_round_trip(self, tmp_path):
        path = os.path.join(str(tmp_path), "nested", "trace.json")
        assert write_chrome_trace(path, _sample_telemetry()) == path
        events = load_trace_events(path)
        rows = summarize_trace(events)
        by_name = {row["name"]: row for row in rows}
        assert by_name["pipeline.run"]["calls"] == 1
        assert by_name["resilience.attempt"]["wall_ms"] == 500.0
        # sorted by descending wall time
        assert rows[0]["name"] == "resilience.attempt"
        table = format_trace_summary(rows)
        assert "pipeline.run" in table and "calls" in table

    def test_store_trace_path_truncates_key(self):
        path = store_trace_path("/store", "a" * 64)
        assert path == os.path.join("/store", "traces", f"{'a' * 16}.trace.json")


# ----------------------------------------------------------------------
# traced sweeps: bitwise identity, completeness, retried attempts
# ----------------------------------------------------------------------
_SWEEP_SPECS = [
    {
        "dataset": "brazil_air_sim",
        "model": "gae",
        "variant": "rethink",
        "seed": seed,
        "training": {"pretrain_epochs": 2, "rethink_epochs": 2},
        "rethink": {"overrides": {"update_omega_every": 2, "update_graph_every": 2}},
    }
    for seed in range(4)
]


def _stripped(results):
    rows = []
    for result in results:
        summary = result.summary()
        summary.pop("runtime_seconds", None)
        rows.append(summary)
    return rows


def _walk(node):
    yield node
    for child in node.get("children", []):
        yield from _walk(child)


class TestTracedSweep:
    def test_traced_jobs4_sweep_is_bitwise_identical_and_complete(
        self, monkeypatch, tmp_path
    ):
        baseline = run_sweep(_SWEEP_SPECS, jobs=4)
        assert baseline.ok and baseline.telemetry is None

        monkeypatch.setenv("REPRO_TRACE", "1")
        traced = run_sweep(_SWEEP_SPECS, jobs=4, store_dir=str(tmp_path))
        assert traced.ok

        # tracing must not perturb a single metric bit
        assert _stripped(traced.results) == _stripped(baseline.results)

        document = traced.telemetry
        assert document is not None and document["schema"] == TRACE_SCHEMA
        from repro.api.spec import RunSpec
        from repro.store.keys import run_key

        def trial_key(spec):
            return run_key(RunSpec.from_dict(spec).to_dict())

        expected_keys = sorted(trial_key(spec) for spec in _SWEEP_SPECS)
        trial_keys = [trial["key"] for trial in document["trials"]]
        # every trial exactly once, ordered by key — not by pool arrival
        assert trial_keys == expected_keys
        for trial in document["trials"]:
            names = [n["name"] for root in trial["spans"] for n in _walk(root)]
            assert names.count("pipeline.run") == 1
            assert "trainer.epoch" in names
        # supervisor lane carries the attempt spans, one per trial
        supervisor_names = [
            n["name"]
            for root in document["supervisor"]["spans"]
            for n in _walk(root)
        ]
        assert supervisor_names.count("resilience.attempt") == len(_SWEEP_SPECS)
        assert document["metrics"]["counters"]["resilience.attempts"] == len(
            _SWEEP_SPECS
        )

        # ... and the store received a Perfetto-loadable merged Chrome trace
        from repro.resilience.journal import sweep_key

        trace_file = store_trace_path(
            str(tmp_path), sweep_key([trial_key(spec) for spec in _SWEEP_SPECS])
        )
        events = load_trace_events(trace_file)
        assert any(event["ph"] == "M" for event in events)
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == sum(
            1
            for unit in [document["supervisor"], *document["trials"]]
            for root in unit.get("spans", [])
            for _ in _walk(root)
        )

    def test_retried_attempts_appear_under_fault_injection(self, monkeypatch):
        from repro.resilience import RetryPolicy

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_FAULTS", "trial_error:p=0.9:seed=7")
        specs = _SWEEP_SPECS[:2]
        outcome = run_sweep(
            specs, jobs=2, policy=RetryPolicy(max_attempts=20, backoff_base=0.001)
        )
        assert outcome.ok
        document = outcome.telemetry
        attempts = [
            node["attributes"]["attempt_key"]
            for root in document["supervisor"]["spans"]
            for node in _walk(root)
            if node["name"] == "resilience.attempt"
        ]
        assert len(attempts) == len(set(attempts)) == int(
            document["metrics"]["counters"]["resilience.attempts"]
        )
        # faults fired: some trial needed a second attempt, and the retried
        # attempt spans are keyed by their attempt index
        assert len(attempts) > len(specs)
        assert any(key.endswith("#a2") for key in attempts)
        assert document["metrics"]["counters"]["resilience.retries"] >= 1
        # every trial still shipped exactly one span forest
        assert [t["spans"] != [] for t in document["trials"]] == [True, True]

    def test_trace_switch_alone_arms_counters(self, monkeypatch, tmp_path):
        from repro.api import Pipeline

        monkeypatch.setenv("REPRO_TRACE", "1")
        outcome = (
            Pipeline()
            .dataset("brazil_air_sim")
            .model("dgae")
            .seed(0)
            .training(pretrain_epochs=2, clustering_epochs=2, rethink_epochs=2)
            .warm_start(str(tmp_path))
            .base()
            .run_sweep([0, 1], jobs=2)
        )
        assert outcome.ok
        # workers count their pretraining misses and snapshot puts, the
        # supervisor its attempts and journal puts
        assert outcome.telemetry["metrics"]["counters"] == {
            "pretrain.warm_misses": 2,
            "resilience.attempts": 2,
            "store.misses": 2,
            "store.puts": 4,
        }


class TestTracedCLI:
    def test_single_trial_trace_and_summary(self, monkeypatch, tmp_path, capsys):
        from repro.api.cli import main

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        spec_path = tmp_path / "trial.json"
        spec_path.write_text(json.dumps(_SWEEP_SPECS[0]))
        trace_path = str(tmp_path / "single.trace.json")
        assert main([str(spec_path), "--trace", trace_path, "--json"]) == 0
        assert active_tracer() is None  # the CLI's session is closed again

        rows = summarize_trace(load_trace_events(trace_path))
        calls = {row["name"]: row["calls"] for row in rows}
        assert calls["pipeline.run"] == 1
        assert calls["trainer.epoch"] == _SWEEP_SPECS[0]["training"]["rethink_epochs"]

        capsys.readouterr()
        assert main(["trace-summary", trace_path]) == 0
        assert "pipeline.run" in capsys.readouterr().out
