"""Self-tests of the benchmark harness (run with ``PYTHONPATH=src pytest``)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import trial  # noqa: E402
import workloads  # noqa: E402


def _tiny_pipeline():
    from repro.api import Pipeline

    return (
        Pipeline()
        .dataset("brazil_air_sim")
        .model("gmm_vgae")
        .rethink(stop_at_convergence=False)
        .seed(0)
        .training(pretrain_epochs=6, rethink_epochs=6)
    )


def _patch_points():
    """Every attribute install() may replace, keyed by owner and name."""
    points = {}
    for _, module, attr in layers.FUNCTIONS:
        __import__(module)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro"):
            for _, _, attr in layers.FUNCTIONS:
                if hasattr(loaded, attr):
                    points[(loaded.__name__, attr)] = getattr(loaded, attr)
    classes = [getattr(layers._import(m), c) for m, c, _ in layers.METHODS.values()]
    from repro.nn.tensor import Tensor

    for cls in classes + layers._model_classes() + [Tensor]:
        for name, value in vars(cls).items():
            points[(cls.__qualname__, name)] = value
    return points


def test_wrappers_restore_every_attribute_they_patch():
    before = _patch_points()
    uninstall = layers.install(layers.Recorder())
    from repro.nn.tensor import Tensor

    assert Tensor.backward is not before[("Tensor", "backward")]
    uninstall()
    after = _patch_points()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_and_untraced_runs_give_identical_quality():
    plain = _tiny_pipeline().run().summary()
    recorder = layers.Recorder()
    uninstall = layers.install(recorder)
    try:
        traced = _tiny_pipeline().run().summary()
    finally:
        uninstall()
    assert (traced["acc"], traced["nmi"]) == (plain["acc"], plain["nmi"])
    aggregated = layers.aggregate(recorder.spans)
    assert aggregated["models.reconstruction_loss"]["calls"] == 12
    assert aggregated["nn.adam_step"]["calls"] == 12
    # every wrapped call nests inside Pipeline.run, so self times add up to it
    total_self = sum(entry["self_s"] for entry in aggregated.values())
    assert abs(total_self - aggregated["api.pipeline_run"]["s"]) < 1e-6


def test_printed_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        spec = json.load(stream)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    result = {
        "setup_s": 1.0, "run_s": 2.0, "run_cpu_s": 2.0, "peak_rss_mb": 3.0,
        "acc_rel": 1.0, "nmi_rel": 1.0, "failed": 0,
    }
    assert list(run.end_to_end([result], 1)) == [m["name"] for m in spec["end_to_end"]]

    recorder = layers.Recorder()
    uninstall = layers.install(recorder)
    try:
        result = _tiny_pipeline().run()
    finally:
        uninstall()
    summary = workloads.FullTrial().summarize(result)
    produced = set(
        trial._layer_metrics(
            workloads.WORKLOADS["full_trial"], recorder, recorder.spans, [], None, summary, 1.0
        )
    )
    produced |= set(run.import_times(os.devnull)) | {"trace.overhead_frac"}
    missing = {m["name"] for m in spec["per_layer"]} - produced
    assert missing == set()


def _pretrain_cache_in_child(env, store):
    code = (
        "import json, sys; sys.path.insert(0, 'e2ebench'); import workloads; "
        "p = workloads.WORKLOADS['full_trial'].build(0, '.').training(pretrain_epochs=2, rethink_epochs=1); "
        "print(json.dumps(p.run().extra['pretrain_cache']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
        stdout=subprocess.PIPE, timeout=120,
    ).stdout
    return json.loads(out.decode().strip().splitlines()[-1]), os.listdir(store)


def test_planted_store_dir_leaves_full_trial_pretraining_cold(tmp_path):
    planted = dict(os.environ, REPRO_STORE_DIR=str(tmp_path), OPENBLAS_NUM_THREADS="4")
    planted["PYTHONPATH"] = os.path.join(ROOT, "src")
    env = run.hermetic_env(planted, ROOT)
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    cache, written = _pretrain_cache_in_child(env, tmp_path)
    assert cache["enabled"] is False and written == []
    # the same child with the planted variable kept does use the store
    cache, written = _pretrain_cache_in_child(planted, tmp_path)
    assert cache["enabled"] is True and written != []


def test_import_times_attribute_nested_imports(tmp_path):
    log = tmp_path / "imports.log"
    log.write_text(
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   numpy.core\n"
        "import time:        50 |        150 | numpy\n"
        "import time:        20 |         20 |       numpy.testing\n"
        "import time:       380 |        400 |     scipy.linalg\n"
        "import time:       100 |        500 |   scipy.optimize\n"
        "import time:        30 |        30 |   repro.metrics.hungarian\n"
        "import time:        70 |        600 | repro\n"
    )
    assert run.import_times(str(log)) == {
        "import.numpy_s": 150e-6, "import.scipy_s": 500e-6, "import.repro_s": 100e-6,
    }


def test_check_counts_each_failing_trial_once():
    expected = {"trials": [{"acc": 0.5, "nmi": 0.4, "epochs_run": 4}] * 2}
    good = {"acc": 0.5, "nmi": 0.4, "epochs_run": 4, "pretrain_hit": False}
    bad = dict(good, acc=0.3, nmi=0.1)
    problems = workloads.check({"trials": [good, bad]}, expected)
    assert [index for index, _ in problems] == [1, 1]
    assert workloads.failed_trials(2, problems) == 1
    assert workloads.failed_trials(2, [(-1, "wrong trial count")]) == 2
