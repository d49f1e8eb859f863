"""The benchmark's three closed-loop workloads.

Each workload is one client running one trial (or one sweep pair) at a
time.  A workload knows how to build its input from an instance number
(``build``, which may keep files under a scratch directory), how to run its timed body (``run``), how to reduce the result
to the numbers the output check compares (``summarize``), and how to tidy
up afterwards (``cleanup``).  Every trial runs a fixed epoch budget with the
convergence early stop off, so the amount of work never depends on the
numerics.

The benchmark's ``--seed`` selects the instance ``seed % INSTANCES``; the
expected outputs of every instance are pinned in ``expected.json``.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Any, Dict, List, Tuple

#: number of distinct input instances; ``--seed`` maps onto ``seed % INSTANCES``.
INSTANCES = 16

#: absolute tolerance of the acc / nmi output check against the pinned values.
QUALITY_TOLERANCE = 0.02

def instance_of(seed: int) -> int:
    return int(seed) % INSTANCES


def _trial_summary(result: Any) -> Dict[str, Any]:
    """acc / nmi / epochs_run / final |Ω|/N / pretraining cache use of one trial."""
    report = result.report.as_dict()
    history = result.history
    summary = {
        "acc": float(report["acc"]),
        "nmi": float(report["nmi"]),
        "pretrain_hit": bool(result.extra.get("pretrain_cache", {}).get("hit", False)),
        "runtime_seconds": float(result.runtime_seconds),
    }
    if history is not None:
        summary["epochs_run"] = int(history.epochs_run)
        summary["omega_coverage"] = float(history.omega_coverage[-1])
    return summary


class _SingleTrial:
    """A workload whose timed body is one ``Pipeline.run``."""

    jobs = 1

    def run(self, pipeline: Any) -> Any:
        return pipeline.run()

    def summarize(self, result: Any) -> Dict[str, Any]:
        return {"trials": [_trial_summary(result)]}

    def cleanup(self, pipeline: Any) -> None:
        pass


class FullTrial(_SingleTrial):
    """One R-GMM-VGAE trial on ``cora_sim`` through the full-graph loop."""

    name = "full_trial"
    pretrain_epochs = 80
    rethink_epochs = 40

    def build(self, instance: int, scratch: str) -> Any:
        from repro.api import Pipeline
        from repro.parallel import load_dataset_cached

        # Building the graph is input preparation: Pipeline.run then finds
        # it in the per-process dataset cache.
        load_dataset_cached("cora_sim", instance)
        return (
            Pipeline()
            .dataset("cora_sim", seed=instance)
            .model("gmm_vgae")
            .rethink(stop_at_convergence=False)
            .seed(instance)
            .training(pretrain_epochs=self.pretrain_epochs, rethink_epochs=self.rethink_epochs)
        )


class MinibatchTrial(_SingleTrial):
    """One R-GAE trial with the ClusterLoader on a 3000-node attributed SBM."""

    name = "minibatch_trial"
    num_nodes = 3000
    rethink_epochs = 40
    batch_size = 256

    def build(self, instance: int, scratch: str) -> Any:
        from repro.api import Pipeline
        from repro.datasets.features import row_normalize
        from repro.graph.generators import attributed_sbm_graph

        # Mean degree ~28: p_intra · N/7 + p_inter · 6N/7 ≈ 21.4 + 6.7.
        graph = attributed_sbm_graph(
            num_nodes=self.num_nodes,
            proportions=[1.0 / 7.0] * 7,
            p_intra=0.05,
            p_inter=0.0026,
            num_features=500,
            active_per_class=35,
            signal=0.10,
            noise=0.010,
            seed=instance,
            name="sbm3000",
        )
        graph = graph.with_features(row_normalize(graph.features, norm="l2"))
        return (
            Pipeline()
            .graph(graph)
            .model("gae")
            .minibatch("cluster", batch_size=self.batch_size)
            .rethink(stop_at_convergence=False)
            .seed(instance)
            .training(pretrain_epochs=0, rethink_epochs=self.rethink_epochs)
        )


class PairSweep:
    """The D vs R-D fairness protocol for DGAE on ``citeseer_sim``.

    A base sweep and then a rethink sweep over the same seeds, both through
    the supervised pool and one fresh artifact store: every D trial misses
    and writes its pretraining snapshot, every R-D trial reads it back.
    """

    name = "pair_sweep"
    seeds_per_sweep = 4
    jobs = 2
    pretrain_epochs = 15
    clustering_epochs = 15
    rethink_epochs = 15

    def build(self, instance: int, scratch: str) -> Dict[str, Any]:
        from repro.api import Pipeline
        from repro.parallel import load_dataset_cached

        # Forked pool workers inherit the parent's dataset cache.
        load_dataset_cached("citeseer_sim", instance)
        store = tempfile.mkdtemp(prefix="store-", dir=scratch)
        pipeline = (
            Pipeline()
            .dataset("citeseer_sim", seed=instance)
            .model("dgae")
            .training(
                pretrain_epochs=self.pretrain_epochs,
                clustering_epochs=self.clustering_epochs,
                rethink_epochs=self.rethink_epochs,
            )
            .warm_start(store)
        )
        first = self.seeds_per_sweep * instance
        return {
            "store": store,
            "base": pipeline.base(),
            "rethink": pipeline.rethink(stop_at_convergence=False),
            "seeds": list(range(first, first + self.seeds_per_sweep)),
        }

    def run(self, state: Dict[str, Any]) -> Dict[str, Any]:
        base = state["base"].run_sweep(state["seeds"], jobs=self.jobs)
        rethink = state["rethink"].run_sweep(state["seeds"], jobs=self.jobs)
        return {"base": base, "rethink": rethink}

    def summarize(self, outcome: Dict[str, Any]) -> Dict[str, Any]:
        from repro.resilience import TrialFailure

        trials: List[Dict[str, Any]] = []
        for phase in ("base", "rethink"):
            for slot in outcome[phase].results:
                if isinstance(slot, TrialFailure):
                    trials.append({"phase": phase, "failed": slot.to_dict()["error"]})
                else:
                    trials.append(dict(_trial_summary(slot), phase=phase))
        return {"trials": trials}

    def cleanup(self, state: Dict[str, Any]) -> None:
        shutil.rmtree(state["store"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (FullTrial(), MinibatchTrial(), PairSweep())}


def check(summary: Dict[str, Any], expected: Dict[str, Any]) -> List[Tuple[int, str]]:
    """Problems of one run's outputs against the pinned values, by trial index.

    ``epochs_run`` must match exactly and ``acc`` / ``nmi`` within
    :data:`QUALITY_TOLERANCE`; pair_sweep also needs every D trial to miss
    the pretraining store and every R-D trial to hit it.  An empty list
    means the outputs are correct.
    """
    trials = summary["trials"]
    pinned = expected["trials"]
    if len(trials) != len(pinned):
        return [(-1, f"{len(trials)} trials, expected {len(pinned)}")]
    problems: List[Tuple[int, str]] = []
    for index, (got, want) in enumerate(zip(trials, pinned)):
        if "failed" in got:
            problems.append((index, f"quarantined: {got['failed']}"))
            continue
        for key in ("acc", "nmi"):
            if abs(got[key] - want[key]) > QUALITY_TOLERANCE:
                problems.append((index, f"{key} {got[key]:.4f}, pinned {want[key]:.4f}"))
        if got.get("epochs_run") != want.get("epochs_run"):
            problems.append(
                (index, f"epochs_run {got.get('epochs_run')}, pinned {want.get('epochs_run')}")
            )
        if "phase" in got:  # a sweep trial: D writes the store, R-D reads it
            expect_hit = got["phase"] == "rethink"
            if got["pretrain_hit"] != expect_hit:
                problems.append(
                    (index, f"{got['phase']} trial {'hit' if got['pretrain_hit'] else 'missed'} "
                     f"the pretraining store, expected a {'hit' if expect_hit else 'miss'}")
                )
    return problems


def failed_trials(num_trials: int, problems: List[Tuple[int, str]]) -> int:
    """Trials counted as failed: those with a problem (all of them for index -1)."""
    indices = {index for index, _ in problems}
    return num_trials if -1 in indices else len(indices)


def quality(summary: Dict[str, Any], expected: Dict[str, Any]) -> Dict[str, float]:
    """Mean acc / nmi of the scored trials and their ratio to the pinned means.

    Trial workloads score their one trial; pair_sweep scores its R-D trials.
    """
    scored = [
        (got, want)
        for got, want in zip(summary["trials"], expected["trials"])
        if got.get("phase", "rethink") == "rethink" and "failed" not in got
    ]
    out: Dict[str, float] = {}
    for key in ("acc", "nmi"):
        if not scored:
            out[key] = out[f"{key}_rel"] = 0.0
            continue
        got = sum(g[key] for g, _ in scored) / len(scored)
        want = sum(w[key] for _, w in scored) / len(scored)
        out[key] = got
        out[f"{key}_rel"] = got / want
    return out
