"""Tests for :mod:`repro.resilience`: the supervised pool, deterministic
fault injection, journaled resume, and the hardened artifact store.

The headline invariant, asserted end to end in :class:`TestChaosDeterminism`:
a sweep with injected faults and retries enabled returns results bitwise
identical to a fault-free serial run.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.env import FAULTS_ENV
from repro.errors import (
    ArtifactCorruptError,
    ConfigError,
    FaultPlanError,
    InjectedFaultError,
    TrialFailedError,
    TrialTimeoutError,
)
from repro.parallel import run_sweep
from repro.resilience import (
    RetryPolicy,
    SweepJournal,
    TrialFailure,
    backoff_delay,
    fault_decision,
    parse_fault_plan,
    supervised_map,
    sweep_key,
)
from repro.resilience.faults import FaultRule, corrupt_file
from repro.store import ArtifactStore, Snapshot, warm_pretrain
from repro.store.store import _manifest_path

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

_SWEEP_SPEC = {
    "dataset": "brazil_air_sim",
    "model": "gae",
    "variant": "rethink",
    "seed": 0,
    "training": {"pretrain_epochs": 2, "rethink_epochs": 2},
    "rethink": {"overrides": {"update_omega_every": 2, "update_graph_every": 2}},
}


def _strip(result):
    """A result summary with the wall-clock-dependent fields removed."""
    summary = result.summary()
    summary.pop("runtime_seconds", None)
    return summary


# ----------------------------------------------------------------------
# module-level work functions (pool workers pickle their work units)
# ----------------------------------------------------------------------
def _double(x):
    return 2 * x


def _sleep_then_double(x):
    time.sleep(float(x) / 10.0)
    return 2 * x


_flaky_counts = {}


def _flaky_twice(x):
    """Fails the first two calls per item; in-process retry tests only."""
    count = _flaky_counts.get(x, 0) + 1
    _flaky_counts[x] = count
    if count <= 2:
        raise ValueError(f"transient failure {count} for {x}")
    return 2 * x


def _always_fails(x):
    raise ValueError(f"permanent failure for {x}")


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_empty_and_rules(self):
        assert parse_fault_plan(None) == ()
        assert parse_fault_plan("  ") == ()
        rules = parse_fault_plan(
            "worker_crash:p=0.3:seed=7,store_corrupt,trial_hang:seconds=2:match=seed3"
        )
        assert [r.kind for r in rules] == ["worker_crash", "store_corrupt", "trial_hang"]
        assert rules[0].probability == 0.3 and rules[0].seed == 7
        assert rules[1].probability == 1.0
        assert rules[2].seconds == 2.0 and rules[2].match == "seed3"

    def test_parse_errors_are_typed(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            parse_fault_plan("segfault")
        with pytest.raises(FaultPlanError, match="name=value"):
            parse_fault_plan("worker_crash:p")
        with pytest.raises(FaultPlanError, match="unknown fault rule field"):
            parse_fault_plan("worker_crash:q=1")
        with pytest.raises(FaultPlanError, match="bad numeric"):
            parse_fault_plan("worker_crash:p=lots")
        with pytest.raises(FaultPlanError, match=r"\[0, 1\]"):
            parse_fault_plan("worker_crash:p=1.5")

    def test_decision_is_deterministic_and_site_scoped(self):
        rule = FaultRule(kind="trial_error", probability=0.5, seed=3)
        decisions = [fault_decision(rule, "trial", f"k{i}") for i in range(200)]
        assert decisions == [fault_decision(rule, "trial", f"k{i}") for i in range(200)]
        # roughly half fire at p=0.5; both outcomes occur
        fired = sum(decisions)
        assert 60 < fired < 140
        assert not fault_decision(rule, "store_write", "k0")
        matched = FaultRule(kind="trial_error", match="seed3")
        assert fault_decision(matched, "trial", "spec-seed3#a1")
        assert not fault_decision(matched, "trial", "spec-seed4#a1")

    def test_inject_degrades_to_typed_error_in_process(self, monkeypatch):
        from repro.resilience import faults

        monkeypatch.setenv(FAULTS_ENV, "worker_crash:p=1")
        with pytest.raises(InjectedFaultError, match="worker_crash"):
            faults.inject("trial", "anything#a1")
        monkeypatch.setenv(FAULTS_ENV, "trial_hang:p=1")
        with pytest.raises(InjectedFaultError, match="trial_hang"):
            faults.inject("trial", "anything#a1")

    def test_corrupt_file_truncates(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.bin"
        path.write_bytes(b"x" * 100)
        monkeypatch.setenv(FAULTS_ENV, "store_corrupt:p=1")
        assert corrupt_file("store_write", "some-key", str(path))
        assert path.stat().st_size == 50
        monkeypatch.setenv(FAULTS_ENV, "")
        path.write_bytes(b"x" * 100)
        assert not corrupt_file("store_write", "some-key", str(path))
        assert path.stat().st_size == 100


# ----------------------------------------------------------------------
# retry policy and backoff
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(timeout=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_base=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timeout", float("nan")),
            ("timeout", float("inf")),
            ("backoff_base", float("nan")),
            ("backoff_max", float("inf")),
        ],
    )
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ConfigError):
            RetryPolicy(**{field: value})

    @pytest.mark.parametrize("max_attempts", [float("nan"), 2.5])
    def test_rejects_non_integer_max_attempts(self, max_attempts):
        with pytest.raises(ConfigError, match="integer"):
            RetryPolicy(max_attempts=max_attempts)

    @pytest.mark.parametrize("timeout", ["-5", "nan", "inf"])
    def test_cli_rejects_invalid_trial_timeout(self, tmp_path, capsys, timeout):
        from repro.api.cli import main as cli_main

        spec_path = tmp_path / "trial.json"
        spec_path.write_text(json.dumps(_SWEEP_SPEC))
        argv = [str(spec_path), "--seeds", "0", "1", "--jobs", "2"]
        assert cli_main(argv + ["--trial-timeout", timeout]) == 2
        assert "trial timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout, reported", [("0", None), ("600", 600.0)])
    def test_cli_trial_timeout_reaches_the_report(self, tmp_path, timeout, reported):
        from repro.api.cli import main as cli_main

        spec_path = tmp_path / "trial.json"
        spec_path.write_text(json.dumps(_SWEEP_SPEC))
        report = tmp_path / "report.json"
        argv = [str(spec_path), "--seeds", "0", "--trial-timeout", timeout]
        assert cli_main(argv + ["--failure-report", str(report)]) == 0
        assert json.loads(report.read_text())["policy"]["timeout"] == reported

    def test_backoff_is_deterministic_bounded_and_jittered(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.1, backoff_max=0.4)
        delays = [backoff_delay(policy, "trial-a", n) for n in (1, 2, 3, 4)]
        assert delays == [backoff_delay(policy, "trial-a", n) for n in (1, 2, 3, 4)]
        for attempt, delay in enumerate(delays, start=1):
            step = min(0.4, 0.1 * 2 ** (attempt - 1))
            assert 0.5 * step <= delay <= step
        # jitter de-synchronises different keys
        assert backoff_delay(policy, "trial-a", 1) != backoff_delay(policy, "trial-b", 1)

    @pytest.mark.parametrize("attempt", [1025, 10**6])
    def test_backoff_stays_capped_at_huge_attempts(self, attempt):
        for base in (0.0, 0.05):
            policy = RetryPolicy(backoff_base=base, backoff_max=2.0)
            assert 0.0 <= backoff_delay(policy, "trial-a", attempt) <= 2.0


# ----------------------------------------------------------------------
# supervised_map semantics (serial and pooled)
# ----------------------------------------------------------------------
class TestSupervisedMap:
    def test_ordered_results_and_attempt_records(self):
        outcome = supervised_map(_double, [3, 1, 2], jobs=1)
        assert outcome.results == [6, 2, 4]
        assert outcome.ok and outcome.failures == []

    def test_serial_retries_until_success(self):
        _flaky_counts.clear()
        policy = RetryPolicy(max_attempts=3, backoff_base=0.001)
        outcome = supervised_map(_flaky_twice, [7], jobs=1, policy=policy)
        assert outcome.results == [14]
        assert outcome.ok

    def test_quarantine_keeps_the_sweep_alive(self):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.001)
        outcome = supervised_map(
            _always_fails, ["a", "b"], jobs=1, policy=policy, keys=["ka", "kb"]
        )
        assert not outcome.ok
        assert [type(slot) for slot in outcome.results] == [TrialFailure, TrialFailure]
        failure = outcome.failures[0]
        assert failure.key == "ka" and len(failure.attempts) == 2
        assert isinstance(failure.error, TrialFailedError)
        report = outcome.report()
        assert report["total"] == 2 and report["failed"] == 2
        assert report["failures"][0]["attempts"][0]["outcome"] == "error"
        assert report["policy"]["max_attempts"] == 2

    def test_serial_quarantines_after_more_than_1024_attempts(self):
        policy = RetryPolicy(max_attempts=1100, backoff_base=0.0)
        outcome = supervised_map(_always_fails, ["a"], jobs=1, policy=policy, keys=["ka"])
        assert [type(slot) for slot in outcome.results] == [TrialFailure]
        assert len(outcome.failures[0].attempts) == 1100

    def test_fail_fast_raises_typed_error_with_history(self):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.001)
        with pytest.raises(TrialFailedError, match="2 attempt"):
            supervised_map(_always_fails, ["a"], jobs=1, policy=policy, fail_fast=True)

    def test_typed_errors_pickle_round_trip(self):
        error = TrialFailedError("k", [{"attempt": 1, "outcome": "error"}])
        clone = pickle.loads(pickle.dumps(error))
        assert clone.key == "k" and clone.attempts == error.attempts
        timeout = TrialTimeoutError("k", [{"attempt": 1, "outcome": "timeout"}], 5.0)
        clone = pickle.loads(pickle.dumps(timeout))
        assert clone.timeout == 5.0

    def test_pooled_worker_crash_is_retried_and_recovers(self, monkeypatch):
        # the crash fires on attempt 1 of the matched item only: the
        # attempt index is folded into the fault key, so the retry re-rolls
        monkeypatch.setenv(FAULTS_ENV, "worker_crash:p=1:match=victim#a1")
        policy = RetryPolicy(max_attempts=4, backoff_base=0.001)
        outcome = supervised_map(
            _double,
            [1, 2, 3, 4],
            jobs=2,
            policy=policy,
            keys=["victim", "k2", "k3", "k4"],
        )
        assert outcome.results == [2, 4, 6, 8]
        assert outcome.ok

    def test_pooled_permanent_crash_quarantined_others_survive(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "worker_crash:p=1:match=victim")
        policy = RetryPolicy(max_attempts=2, backoff_base=0.001)
        outcome = supervised_map(
            _double,
            [1, 2, 3, 4],
            jobs=2,
            policy=policy,
            keys=["victim", "k2", "k3", "k4"],
        )
        assert not outcome.ok
        assert isinstance(outcome.results[0], TrialFailure)
        assert outcome.results[1:] == [4, 6, 8]
        outcomes = {a["outcome"] for a in outcome.failures[0].attempts}
        assert "pool_broken" in outcomes

    def test_pool_break_beside_other_trials_charges_none_of_them(self, monkeypatch):
        # k2 sleeps 0.5 s, so it is in flight when the victim crashes the
        # pool: neither is charged, each reruns alone, and only the
        # victim's solo crash counts against its single attempt.
        monkeypatch.setenv(FAULTS_ENV, "worker_crash:p=1:match=victim")
        policy = RetryPolicy(max_attempts=1, backoff_base=0.001)
        outcome = supervised_map(
            _sleep_then_double,
            [0, 5, 1],
            jobs=2,
            policy=policy,
            keys=["victim", "k2", "k3"],
        )
        assert outcome.results[1:] == [10, 2]
        assert [failure.key for failure in outcome.failures] == ["victim"]
        outcomes = [a["outcome"] for a in outcome.failures[0].attempts]
        assert outcomes == ["pool_broken_shared", "pool_broken"]

    def test_pooled_timeout_reaps_hung_trial(self):
        policy = RetryPolicy(max_attempts=1, timeout=0.5, backoff_base=0.001)
        # item 30 sleeps 3 s (over budget); items 1-2 finish quickly
        outcome = supervised_map(
            _sleep_then_double, [30, 1, 2], jobs=2, policy=policy,
            keys=["hung", "fast1", "fast2"],
        )
        assert isinstance(outcome.results[0], TrialFailure)
        assert isinstance(outcome.failures[0].error, TrialTimeoutError)
        assert outcome.failures[0].attempts[-1]["outcome"] == "timeout"
        assert outcome.results[1:] == [2, 4]

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="keys"):
            supervised_map(_double, [1, 2], jobs=1, keys=["only-one"])


# ----------------------------------------------------------------------
# journaled sweeps
# ----------------------------------------------------------------------
class TestSweepJournal:
    def test_sweep_key_depends_on_trial_list(self):
        assert sweep_key(["a", "b"]) == sweep_key(["a", "b"])
        assert sweep_key(["a", "b"]) != sweep_key(["b", "a"])
        assert sweep_key(["a", "b"]) != sweep_key(["a", "b", "c"])

    def test_record_load_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        journal = SweepJournal(store, ["t0", "t1", "t2"])
        assert journal.load() == {}
        journal.record(1, {"metric": 0.5})
        journal.record(2, {"metric": 0.7})
        assert journal.load() == {1: {"metric": 0.5}, 2: {"metric": 0.7}}
        assert journal.describe()["journaled"] == 2
        assert journal.clear() == 2
        assert journal.load() == {}

    def test_corrupt_entry_treated_as_missing(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        journal = SweepJournal(store, ["t0", "t1"])
        journal.record(0, "fine")
        journal.record(1, "doomed")
        blob_path = store._blob_path(journal.category, "t1")
        with open(blob_path, "r+b") as handle:
            handle.truncate(3)
        assert journal.load() == {0: "fine"}  # corrupt entry re-runs
        assert store.quarantined()  # and was quarantined as evidence

    def test_one_trial_corrupt_in_two_sweeps_keeps_both_as_evidence(self, tmp_path):
        import json

        store = ArtifactStore(str(tmp_path))
        first = SweepJournal(store, ["t0", "t1"])
        second = SweepJournal(store, ["t1", "t2"])  # same trial, other sweep
        for journal, index in ((first, 1), (second, 0)):
            with open(journal.record(index, journal.sweep_key), "r+b") as handle:
                handle.truncate(3)
        assert first.load() == {} and second.load() == {}
        assert store.stats()["corrupt"] == 2
        assert store.quarantined() == ["t1-1.json", "t1-1.pkl", "t1.json", "t1.pkl"]
        # each payload still sits beside the manifest written with it
        for stem, journal in (("t1", first), ("t1-1", second)):
            with open(os.path.join(str(tmp_path), "quarantine", stem + ".json")) as handle:
                assert json.load(handle)["key"] == f"{journal.category}/t1"

    def test_entry_without_manifest_reruns_once(self, tmp_path):
        # the layout of journals written before blobs had manifests: a
        # pickle plus a bare SHA-256 sidecar
        import hashlib

        store = ArtifactStore(str(tmp_path))
        journal = SweepJournal(store, ["t0"])
        path = store._blob_path(journal.category, "t0")
        os.makedirs(os.path.dirname(path))
        data = pickle.dumps("old")
        with open(path, "wb") as handle:
            handle.write(data)
        with open(path + ".sha256", "w") as handle:
            handle.write(hashlib.sha256(data).hexdigest())
        assert journal.load() == {}  # quarantined: the trial re-runs
        assert store.quarantined() == ["t0.pkl"]
        journal.record(0, "new")
        assert journal.load() == {0: "new"}


# ----------------------------------------------------------------------
# store hardening
# ----------------------------------------------------------------------
class TestStoreHardening:
    def _snapshot(self):
        from repro.models import build_model
        from repro.graph.generators import attributed_sbm_graph

        graph = attributed_sbm_graph(
            num_nodes=30, proportions=[0.5, 0.5], p_intra=0.3, p_inter=0.05,
            num_features=5, active_per_class=2, signal=0.4, noise=0.02, seed=0,
        )
        model = build_model("gae", graph.num_features, graph.num_clusters, seed=0)
        return graph, model, Snapshot.capture(model)

    def test_checksum_mismatch_quarantines_and_raises(self, tmp_path):
        _, _, snapshot = self._snapshot()
        store = ArtifactStore(str(tmp_path))
        key = "ab" + "0" * 62
        path = store.put(key, snapshot)
        with open(path, "ab") as handle:
            handle.write(b"bitrot")
        with pytest.raises(ArtifactCorruptError, match="SHA-256"):
            store.get(key)
        assert not store.contains(key)  # moved out of service
        assert len(store.quarantined()) == 2  # object + manifest
        assert store.stats()["corrupt"] == 1
        # a second read is a plain miss, served by the default
        assert store.get(key, default=None) is None

    def test_truncated_snapshot_raises_typed_corrupt_error(self, tmp_path):
        _, _, snapshot = self._snapshot()
        store = ArtifactStore(str(tmp_path))
        key = "cd" + "0" * 62
        path = store.put(key, snapshot)
        # rewrite manifest checksum to match the truncated payload, so the
        # failure happens at unpickling depth rather than checksum depth
        with open(path, "r+b") as handle:
            handle.truncate(10)
        import hashlib
        import json as json_mod

        manifest_path = _manifest_path(path)
        with open(manifest_path) as handle:
            manifest = json_mod.load(handle)
        with open(path, "rb") as handle:
            manifest["sha256"] = hashlib.sha256(handle.read()).hexdigest()
        with open(manifest_path, "w") as handle:
            json_mod.dump(manifest, handle)
        with pytest.raises(ArtifactCorruptError, match="unpickled"):
            store.get(key)
        assert store.quarantined()

    def test_blob_corruption_detected(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.put_blob("journal/abc", "entry", [1, 2, 3])
        assert store.get_blob("journal/abc", "entry") == [1, 2, 3]
        path = store._blob_path("journal/abc", "entry")
        with open(path, "r+b") as handle:
            handle.truncate(2)
        with pytest.raises(ArtifactCorruptError, match=path.split(os.sep)[-1]):
            store.get_blob("journal/abc", "entry")
        assert store.blob_names("journal/abc") == []

    def test_gc_evicts_lru_within_budget(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        for index in range(4):
            store.put_blob("journal/gc", f"blob{index}", b"x" * 1000)
            time.sleep(0.01)
        # touching blob0 makes it the most recently used
        store.get_blob("journal/gc", "blob0")
        total = store.total_bytes()
        stats = store.gc(max_bytes=total - 1)  # force at least one eviction
        assert stats["evicted"] >= 1
        assert stats["remaining_bytes"] <= total - 1
        survivors = store.blob_names("journal/gc")
        assert "blob0" in survivors  # LRU evicts the untouched blobs first
        assert "blob1" not in survivors
        # budget 0 disables eviction
        assert store.gc(max_bytes=0)["evicted"] == 0

    def test_gc_evicts_snapshots_and_blobs_with_their_manifests(self, tmp_path):
        _, _, snapshot = self._snapshot()
        store = ArtifactStore(str(tmp_path))
        for index in range(3):
            store.put(f"{index:02x}" + "0" * 62, snapshot)
            store.put_blob("journal/gc", f"blob{index}", b"x" * 1000 * index)
        torn = store.put_blob("journal/gc", "torn", [1])
        with open(torn, "ab") as handle:
            handle.write(b"bitrot")
        with pytest.raises(ArtifactCorruptError):
            store.get_blob("journal/gc", "torn")
        evidence = store.quarantined()
        assert evidence == ["torn.json", "torn.pkl"]

        def stored_files():
            return sorted(
                os.path.relpath(os.path.join(directory, name), str(tmp_path))
                for directory, _, names in os.walk(str(tmp_path))
                for name in names
                if os.path.relpath(directory, str(tmp_path)).split(os.sep)[0] != "quarantine"
            )

        payloads = [name for name in stored_files() if not name.endswith(".json")]
        assert len(payloads) == 6
        # every artifact is its payload plus one manifest
        assert [name for name in stored_files() if name.endswith(".json")] == sorted(
            os.path.splitext(name)[0] + ".json" for name in payloads
        )
        total = store.total_bytes()
        assert total == sum(
            os.path.getsize(os.path.join(str(tmp_path), name)) for name in stored_files()
        )
        stats = store.gc(max_bytes=total // 2)
        assert 0 < stats["evicted"] < 6
        left = stored_files()
        assert len(left) == 2 * (6 - stats["evicted"])
        for name in left:  # no half artifact: payload and manifest go together
            stem = os.path.splitext(name)[0]
            assert sum(os.path.splitext(other)[0] == stem for other in left) == 2
        stats = store.gc(max_bytes=1)
        assert stored_files() == []  # no orphan manifest either
        assert stats["remaining_bytes"] == 0
        assert store.keys() == [] and store.blob_names("journal/gc") == []
        assert store.quarantined() == evidence

    def test_gc_counts_and_evicts_orphan_files(self, tmp_path):
        """A legacy sidecar and a manifest whose payload never landed are
        reclaimable bytes; traces, quarantine and temp files are not."""
        store = ArtifactStore(str(tmp_path))
        live = store.put_blob("journal/gc", "live", b"x" * 100)
        sidecar = os.path.join(os.path.dirname(live), "old.pkl.sha256")
        manifest_only = _manifest_path(store._object_path("ab" + "0" * 62))
        exempt = [
            os.path.join(str(tmp_path), "traces", "0123.trace.json"),
            os.path.join(str(tmp_path), "quarantine", "t1.pkl"),
            os.path.join(os.path.dirname(live), "in-flight.tmp"),
        ]
        for path, size in [(sidecar, 64), (manifest_only, 80)] + [(p, 50) for p in exempt]:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(b"y" * size)
        live_bytes = os.path.getsize(live) + os.path.getsize(_manifest_path(live))
        assert store.total_bytes() == live_bytes + 64 + 80
        os.utime(live, (0, 0))  # the live artifact is the oldest: evicted first
        stats = store.gc(max_bytes=80)
        assert stats["scanned_bytes"] == live_bytes + 64 + 80
        assert stats["evicted"] == 2 and stats["remaining_bytes"] == 80
        assert not os.path.exists(live) and not os.path.exists(sidecar)
        assert os.path.exists(manifest_only)
        stats = store.gc(max_bytes=1)
        assert stats["evicted"] == 1 and stats["remaining_bytes"] == 0
        assert not os.path.exists(manifest_only)
        assert all(os.path.exists(path) for path in exempt)
        assert store.total_bytes() == 0

    def test_put_does_not_depend_on_a_fixed_temp_name(self, tmp_path):
        # a directory where a fixed manifest temp name would go stands in
        # for a concurrent writer of the same key
        _, _, snapshot = self._snapshot()
        store = ArtifactStore(str(tmp_path))
        key = "ef" + "0" * 62
        os.makedirs(_manifest_path(store._object_path(key)) + ".tmp")
        store.put(key, snapshot)
        loaded = store.get(key)
        assert store.stats()["hits"] == 1
        for name, value in snapshot.params.items():
            assert (loaded.params[name] == value).all()

    def test_snapshot_without_manifest_is_corrupt(self, tmp_path):
        _, _, snapshot = self._snapshot()
        store = ArtifactStore(str(tmp_path))
        key = "ab" + "1" * 62
        path = store.put(key, snapshot)
        os.unlink(_manifest_path(path))
        with open(path, "ab") as handle:
            handle.write(b"bitrot")  # unpickling alone would not notice
        with pytest.raises(ArtifactCorruptError, match="manifest") as caught:
            store.get(key)
        quarantined = os.path.join(str(tmp_path), "quarantine", os.path.basename(path))
        assert caught.value.path == quarantined
        assert not store.contains(key)
        assert store.quarantined() == [os.path.basename(path)]
        assert store.get(key, default=None) is None

    def test_snapshot_manifest_without_digest_is_corrupt(self, tmp_path):
        import json as json_mod

        _, _, snapshot = self._snapshot()
        store = ArtifactStore(str(tmp_path))
        key = "ab" + "2" * 62
        path = store.put(key, snapshot)
        manifest = store.manifest(key)
        del manifest["sha256"]
        with open(_manifest_path(path), "w") as handle:
            json_mod.dump(manifest, handle)
        with pytest.raises(ArtifactCorruptError, match="manifest"):
            store.get(key)
        assert not store.contains(key)
        assert store.quarantined() == sorted(
            os.path.basename(name) for name in (path, _manifest_path(path))
        )
        assert store.stats()["corrupt"] == 1

    def test_blob_without_manifest_is_corrupt(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        path = store.put_blob("journal/abc", "entry", [1, 2, 3])
        os.unlink(_manifest_path(path))
        with pytest.raises(ArtifactCorruptError, match="manifest"):
            store.get_blob("journal/abc", "entry")
        assert store.blob_names("journal/abc") == []
        assert store.quarantined() == ["entry.pkl"]

    def test_warm_pretrain_degrades_once_on_a_manifest_without_digest(self, tmp_path):
        import json as json_mod

        from repro.models import build_model
        from repro.store import pretrain_cache_key

        graph, model, _ = self._snapshot()
        store = ArtifactStore(str(tmp_path))
        warm_pretrain(model, graph, pretrain_epochs=2, store=store)
        key = pretrain_cache_key(model, 2, graph=graph)
        manifest = store.manifest(key)
        del manifest["sha256"]
        with open(_manifest_path(store._object_path(key)), "w") as handle:
            json_mod.dump(manifest, handle)

        def fresh():
            return build_model("gae", graph.num_features, graph.num_clusters, seed=0)

        quarantined = os.path.join(str(tmp_path), "quarantine", key + ".snap")
        with pytest.warns(RuntimeWarning, match=re.escape(quarantined)):
            stats = warm_pretrain(fresh(), graph, pretrain_epochs=2, store=store)
        assert stats["degraded"] and not stats["hit"]
        assert warm_pretrain(fresh(), graph, pretrain_epochs=2, store=store)["hit"]

    def test_warm_pretrain_degrades_to_cold_on_corruption(self, tmp_path):
        from repro.models import build_model
        from repro.store import pretrain_cache_key

        graph, model, _ = self._snapshot()
        store = ArtifactStore(str(tmp_path))
        warm_pretrain(model, graph, pretrain_epochs=2, store=store)
        key = pretrain_cache_key(model, 2, graph=graph)
        path = store._object_path(key)
        with open(path, "ab") as handle:
            handle.write(b"bitrot")

        cold = build_model("gae", graph.num_features, graph.num_clusters, seed=0)
        with pytest.warns(RuntimeWarning, match="degraded to cold"):
            stats = warm_pretrain(cold, graph, pretrain_epochs=2, store=store)
        assert stats["hit"] is False
        assert stats["degraded"] is True
        assert "ArtifactCorruptError" in stats["degraded_reason"]
        # the fresh pretraining replaced the corrupt artifact
        assert store.contains(key)
        fresh = build_model("gae", graph.num_features, graph.num_clusters, seed=0)
        assert warm_pretrain(fresh, graph, pretrain_epochs=2, store=store)["hit"]


# ----------------------------------------------------------------------
# the headline invariant: chaos == fault-free, bitwise
# ----------------------------------------------------------------------
class TestChaosDeterminism:
    def test_faulty_pooled_sweep_equals_fault_free_serial(self, tmp_path, monkeypatch):
        seeds = [0, 1, 2]
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        baseline = run_sweep([dict(_SWEEP_SPEC, seed=s) for s in seeds], jobs=1).results

        # crash probability stays low: a pool break with several trials in
        # flight charges none of them but runs each alone afterwards, where
        # a crash does count, so crash-heavy plans need a generous budget
        monkeypatch.setenv(
            FAULTS_ENV,
            "worker_crash:p=0.2:seed=5,trial_error:p=0.3:seed=2,store_corrupt:p=0.5:seed=9",
        )
        policy = RetryPolicy(max_attempts=20, backoff_base=0.001)
        outcome = run_sweep(
            [dict(_SWEEP_SPEC, seed=s) for s in seeds],
            jobs=2,
            store_dir=str(tmp_path),
            policy=policy,
        )
        assert outcome.ok, outcome.report()
        assert [_strip(r) for r in outcome.results] == [_strip(r) for r in baseline]

    def test_journaled_resume_is_bitwise_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        seeds = [0, 1, 2]
        specs = [dict(_SWEEP_SPEC, seed=s) for s in seeds]
        uninterrupted = run_sweep(specs, jobs=1, store_dir=str(tmp_path / "a"))

        # simulate an interruption: journal only seed 0, then resume
        first = run_sweep(specs[:1], jobs=1, store_dir=str(tmp_path / "b"))
        store = ArtifactStore(str(tmp_path / "b"))
        from repro.parallel import _normalise_spec, _spec_key

        journal = SweepJournal(store, [_spec_key(_normalise_spec(s)) for s in specs])
        journal.record(0, first.results[0])
        resumed = run_sweep(specs, jobs=1, store_dir=str(tmp_path / "b"), resume=True)
        assert resumed.resumed == 1
        assert [_strip(r) for r in resumed.results] == [
            _strip(r) for r in uninterrupted.results
        ]


# ----------------------------------------------------------------------
# process-level regressions: Ctrl-C and kill -9
# ----------------------------------------------------------------------
_SIGINT_CHILD = """
import sys, time
sys.path.insert(0, {src!r})

def _hang(x):
    time.sleep(120)
    return x

if __name__ == "__main__":
    from repro.resilience import supervised_map
    print("STARTED", flush=True)
    supervised_map(_hang, [1, 2, 3, 4], jobs=2)
"""

_KILL9_CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.parallel import run_sweep

SPEC = {spec!r}
specs = [dict(SPEC, seed=s) for s in (0, 1, 2, 3)]

def _announce(index, value):
    print(f"DONE {{index}}", flush=True)

if __name__ == "__main__":
    from repro.parallel import _normalise_spec, _spec_key
    from repro.resilience import SweepJournal
    from repro.store import ArtifactStore
    # run_sweep journals internally; echo progress by polling is racy, so
    # run it seed by seed against the full sweep's journal instead
    store = ArtifactStore({store!r})
    journal = SweepJournal(store, [_spec_key(_normalise_spec(s)) for s in specs])
    for index, spec in enumerate(specs):
        result = run_sweep([spec], jobs=1, store_dir={store!r}).results[0]
        journal.record(index, result)
        print(f"DONE {{index}}", flush=True)
"""


class TestProcessRegressions:
    def test_sigint_terminates_pooled_sweep_promptly(self, tmp_path):
        """Ctrl-C used to wedge behind ProcessPoolExecutor.__exit__ waiting
        on workers stuck in 120 s trials; the supervisor kills them."""
        script = tmp_path / "sigint_child.py"
        script.write_text(_SIGINT_CHILD.format(src=REPO_SRC))
        child = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            assert child.stdout.readline().strip() == "STARTED"
            time.sleep(1.0)  # let the pool spin up and block in trials
            child.send_signal(signal.SIGINT)
            child.wait(timeout=15)
        except subprocess.TimeoutExpired:
            child.kill()
            pytest.fail("SIGINT did not terminate the pooled sweep within 15s")
        finally:
            if child.poll() is None:
                child.kill()
        assert child.returncode != 0  # KeyboardInterrupt, not success

    def test_kill9_then_resume_matches_uninterrupted_run(self, tmp_path):
        """A sweep killed -9 partway resumes from its journal: finished
        trials are skipped and the results match an uninterrupted run."""
        store_dir = str(tmp_path / "store")
        script = tmp_path / "kill9_child.py"
        script.write_text(_KILL9_CHILD.format(src=REPO_SRC, spec=_SWEEP_SPEC, store=store_dir))
        child = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            # wait until two seeds are journaled, then kill -9 mid-sweep
            for _ in range(2):
                line = child.stdout.readline()
                assert line.startswith("DONE"), f"child died early: {line!r}"
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()

        specs = [dict(_SWEEP_SPEC, seed=s) for s in (0, 1, 2, 3)]
        resumed = run_sweep(specs, jobs=2, store_dir=store_dir, resume=True)
        assert resumed.resumed >= 2  # the killed run's progress was kept
        uninterrupted = run_sweep(
            specs, jobs=1, store_dir=str(tmp_path / "fresh")
        )
        assert [_strip(r) for r in resumed.results] == [
            _strip(r) for r in uninterrupted.results
        ]
