"""``repro-run``: execute a JSON :class:`~repro.api.spec.RunSpec` from the shell.

Usage::

    repro-run trial.json                # run the spec in trial.json
    repro-run -                         # read the spec from stdin
    repro-run trial.json --print-spec   # echo the normalised spec and exit
    repro-run trial.json --seeds 0 1 2 3 --jobs 4   # multi-seed, pooled
    repro-run trial.json --sampler cluster --batch-size 1024  # minibatch epochs
    repro-run trial.json --warm-start ./store       # cache/reuse pretraining
    repro-run trial.json --save-to model.snap       # persist the trained model
    repro-run --from-checkpoint model.snap          # evaluate it, no training
    repro-run trial.json --seeds 0 1 2 3 --jobs 4 --warm-start ./store \
        --max-retries 2 --trial-timeout 600 --resume   # fault-tolerant sweep
    repro-run store-gc ./store --max-bytes 500000000   # evict LRU artifacts

Multi-seed runs: pass ``--seeds``, or give the spec a JSON list as its
``"seed"`` field (``"seed": [0, 1, 2, 3]``).  ``--jobs N`` fans the seeds
out over ``N`` worker processes (``--jobs auto`` uses every core); the
per-seed results are bitwise identical to a serial ``--jobs 1`` run, only
the wall-clock time changes.

Checkpointing (:mod:`repro.store`): ``--warm-start [DIR]`` serves the
pretraining phase from an artifact store (and populates it on misses) —
re-running a sweep against a warm store skips every pretraining while the
metrics stay bitwise identical.  ``--save-to`` snapshots the trained model
(weights, clustering state, RNG, producing spec) to one file;
``--from-checkpoint`` rebuilds that model and re-evaluates it on its
dataset without any training.

Fault tolerance (:mod:`repro.resilience`): multi-seed sweeps run under a
supervised pool — worker crashes and hung trials are retried with
deterministic backoff (``--max-retries``), each attempt bounded by
``--trial-timeout``.  A seed that exhausts its budget is quarantined and
the sweep completes with the other seeds (``--fail-fast`` aborts
instead); ``--failure-report`` writes the machine-readable post-mortem.  With a warm store configured, finished
seeds are journaled as they complete and ``--resume`` replays them after an
interruption, bitwise identical to an uninterrupted run.

The exit status is 0 on success, 1 when any trial failed permanently, and
2 on a malformed spec, so the command composes with shell pipelines and CI
jobs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.errors import ReproError, SpecError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Run one (model, dataset, seed) trial described by a JSON RunSpec.",
    )
    parser.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="path to a JSON run spec, or '-' to read the spec from stdin "
        "(not needed with --from-checkpoint)",
    )
    parser.add_argument(
        "--print-spec",
        action="store_true",
        help="print the normalised spec as JSON and exit without training",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the result summary as JSON instead of human-readable text",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        metavar="SEED",
        help="run the spec once per seed (overrides the spec's seed field)",
    )
    parser.add_argument(
        "--jobs",
        default="1",
        metavar="N",
        help="worker processes for multi-seed runs (an int, or 'auto' for "
        "every core); results are identical to --jobs 1",
    )
    store = parser.add_argument_group(
        "checkpointing & warm starts",
        "persist trained models and cache the shared pretraining phase "
        "(repro.store)",
    )
    store.add_argument(
        "--warm-start",
        nargs="?",
        const=True,
        default=None,
        metavar="DIR",
        help="serve/populate pretraining snapshots from an artifact store "
        "(default directory: $REPRO_STORE_DIR or .repro-store)",
    )
    store.add_argument(
        "--save-to",
        default=None,
        metavar="PATH",
        help="save the trained model as a snapshot file (single-seed runs only)",
    )
    store.add_argument(
        "--from-checkpoint",
        default=None,
        metavar="PATH",
        help="skip training: load a snapshot saved with --save-to and "
        "re-evaluate it on its spec's dataset",
    )
    resilience = parser.add_argument_group(
        "fault tolerance",
        "supervised-pool failure handling for multi-seed sweeps "
        "(repro.resilience)",
    )
    resilience.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per seed after the first attempt (default: 0)",
    )
    resilience.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock budget; over-budget trials are reaped "
        "and retried (default and 0: no timeout; enforced for --jobs > 1)",
    )
    resilience.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the sweep on the first permanently failed seed instead "
        "of quarantining it and completing the rest",
    )
    resilience.add_argument(
        "--resume",
        action="store_true",
        help="skip seeds already journaled by a previous interrupted run of "
        "this exact sweep (needs a warm store; results are bitwise "
        "identical to an uninterrupted run)",
    )
    resilience.add_argument(
        "--failure-report",
        default=None,
        metavar="PATH",
        help="write the sweep's JSON failure report (totals, retry policy, "
        "per-seed attempt histories) to PATH",
    )
    observability = parser.add_argument_group(
        "observability",
        "span tracing and counters across the run (repro.observability)",
    )
    observability.add_argument(
        "--trace",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="enable span tracing (REPRO_TRACE=1, propagated to pool "
        "workers) and write the merged Chrome trace — loadable at "
        "https://ui.perfetto.dev — to PATH (default: repro-trace.json); "
        "inspect it with 'repro-run trace-summary PATH'",
    )
    minibatch = parser.add_argument_group(
        "minibatch training",
        "stream subgraph blocks instead of full-graph epochs (rethink "
        "trials only); overlays the spec's rethink overrides",
    )
    minibatch.add_argument(
        "--sampler",
        choices=("full", "neighbor", "cluster"),
        default=None,
        help="minibatch loader: 'cluster' (partition batches), 'neighbor' "
        "(fanout sampling) or 'full' (the whole graph as one batch; the "
        "default when neither this flag nor the spec sets one)",
    )
    minibatch.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="B",
        help="nodes per batch (seeds for --sampler neighbor, target part "
        "size for --sampler cluster)",
    )
    minibatch.add_argument(
        "--fanout",
        type=int,
        default=None,
        metavar="F",
        help="neighbours sampled per node and hop (--sampler neighbor)",
    )
    minibatch.add_argument(
        "--num-hops",
        type=int,
        default=None,
        metavar="H",
        help="neighbourhood expansion rounds (--sampler neighbor)",
    )
    return parser


def _apply_minibatch_flags(pipeline, spec, args):
    """Overlay --sampler / --batch-size / --fanout / --num-hops on the spec."""
    overrides = {}
    if args.sampler is not None:
        overrides["sampler"] = args.sampler
    for name, value in (
        ("batch_size", args.batch_size),
        ("fanout", args.fanout),
        ("num_hops", args.num_hops),
    ):
        if value is not None:
            overrides[name] = value
    if not overrides:
        return pipeline, spec
    has_sampler = args.sampler is not None or "sampler" in spec.rethink.overrides
    if spec.variant != "rethink" or not has_sampler:
        raise SpecError(
            "--batch-size/--fanout/--num-hops/--sampler configure minibatch "
            "training, which needs a rethink trial with a sampler (pass "
            '--sampler or put "sampler" in the spec\'s rethink overrides)'
        )
    pipeline = pipeline.rethink(**overrides)
    return pipeline, pipeline.spec()


def _parse_jobs(value: str):
    if value == "auto":
        return "auto"
    try:
        jobs = int(value)
    except ValueError:
        raise SpecError(f"--jobs must be an integer or 'auto', got {value!r}") from None
    if jobs < 1:
        raise SpecError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _load_spec_document(text: str):
    """Parse the JSON document, extracting a ``"seed": [...]`` list if any."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise SpecError(f"invalid JSON run spec: {error}") from None
    if not isinstance(data, dict):
        raise SpecError(f"run spec must be a JSON object, got {type(data).__name__}")
    seeds: Optional[List[int]] = None
    if isinstance(data.get("seed"), list):
        seed_list = data["seed"]
        if not seed_list:
            raise SpecError("the spec's seed list must not be empty")
        try:
            seeds = [int(seed) for seed in seed_list]
        except (TypeError, ValueError):
            raise SpecError(
                f"the spec's seed list must contain integers, got {seed_list!r}"
            ) from None
        data = dict(data)
        data["seed"] = seeds[0]
    return data, seeds


def _retry_policy(args):
    """The sweep's RetryPolicy from --max-retries / --trial-timeout.

    ``None`` when neither flag is given (the sweep's default policy).  A
    timeout of 0 means "no timeout"; any other value RetryPolicy rejects
    (negative, NaN, infinite) is a usage error.
    """
    if args.max_retries is None and args.trial_timeout is None:
        return None
    if args.max_retries is not None and args.max_retries < 0:
        raise SpecError(f"--max-retries must be >= 0, got {args.max_retries}")
    from repro.resilience import RetryPolicy

    return RetryPolicy(
        max_attempts=1 + (args.max_retries or 0),
        timeout=None if args.trial_timeout == 0 else args.trial_timeout,
    )


def _default_store_root() -> str:
    """Root of a bare ``--warm-start`` and of ``store-gc`` without a
    directory: ``$REPRO_STORE_DIR``, else ``.repro-store``."""
    from repro.store import DEFAULT_STORE_DIR, active_store

    store = active_store()
    return DEFAULT_STORE_DIR if store is None else store.root


def _run_store_gc(argv: Sequence[str]) -> int:
    """``repro-run store-gc [DIR] [--max-bytes N]``: evict LRU artifacts."""
    parser = argparse.ArgumentParser(
        prog="repro-run store-gc",
        description="Evict least-recently-used artifacts until the store "
        "fits its byte budget (quarantined files are kept).",
    )
    parser.add_argument(
        "store",
        nargs="?",
        default=None,
        help="store root (default: $REPRO_STORE_DIR or .repro-store)",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="byte budget to shrink to (0 or unset only reports the store "
        "size)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the gc stats as JSON"
    )
    args = parser.parse_args(argv)
    from repro.store import ArtifactStore

    store = ArtifactStore(_default_store_root() if args.store is None else args.store)
    try:
        stats = store.gc(max_bytes=args.max_bytes)
    except ReproError as error:
        print(f"repro-run: {error}", file=sys.stderr)
        return 2
    stats["store"] = store.root
    stats["quarantined"] = len(store.quarantined())
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(
            f"store-gc {store.root}: {stats['scanned_bytes']} bytes scanned, "
            f"{stats['evicted']} artifact(s) evicted "
            f"({stats['freed_bytes']} bytes freed), "
            f"{stats['remaining_bytes']} bytes remain "
            f"(budget: {stats['max_bytes'] or 'none'}, "
            f"quarantined: {stats['quarantined']})"
        )
    return 0


def _run_trace_summary(argv: Sequence[str]) -> int:
    """``repro-run trace-summary PATH``: per-span breakdown of a trace file."""
    parser = argparse.ArgumentParser(
        prog="repro-run trace-summary",
        description="Summarise a Chrome trace written by 'repro-run --trace' "
        "(or repro.observability.write_chrome_trace): calls, wall/CPU time "
        "and peak allocations per span name, sorted by wall time.",
    )
    parser.add_argument("trace", help="path to a .trace.json file")
    parser.add_argument(
        "--json", action="store_true", help="emit the summary rows as JSON"
    )
    args = parser.parse_args(argv)
    from repro.observability.exporters import (
        format_trace_summary,
        load_trace_events,
        summarize_trace,
    )

    try:
        rows = summarize_trace(load_trace_events(args.trace))
    except (OSError, ValueError, KeyError) as error:
        print(f"repro-run: cannot summarise {args.trace}: {error}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(format_trace_summary(rows))
    except BrokenPipeError:
        # the reader (e.g. ``| head`` or ``| grep -q``) closed the pipe
        # after seeing what it needed; point stdout at devnull so the
        # interpreter's shutdown flush doesn't re-raise
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _run_from_checkpoint(args) -> int:
    """--from-checkpoint: rebuild a saved model and re-evaluate it."""
    from repro.api.pipeline import Pipeline
    from repro.metrics.report import evaluate_clustering
    from repro.parallel import load_dataset_cached

    result = Pipeline.load(args.from_checkpoint)
    spec = result.spec
    print(
        f"repro-run: {spec.describe()} from checkpoint {args.from_checkpoint} "
        f"(phase {result.extra.get('phase')}, epoch {result.extra.get('epoch')})",
        file=sys.stderr,
    )
    graph = load_dataset_cached(
        spec.dataset.name, seed=spec.dataset.seed, options=spec.dataset.options
    )
    embeddings = result.model.embed(graph)
    report = None
    if graph.labels is not None and result.model.cluster_centers_ is not None:
        assignments = result.model.predict_assignments(embeddings)
        import numpy as np

        report = evaluate_clustering(graph.labels, np.argmax(assignments, axis=1))
        result.report = report
    if args.json:
        payload = {"seed": spec.seed, **result.summary()}
        payload["loaded_from"] = args.from_checkpoint
        print(json.dumps(payload, indent=2))
    else:
        described = spec.describe()
        if report is not None:
            print(f"{described}: {report}")
        else:
            print(f"{described}: no clustering state in checkpoint (embeddings only)")
    return 0


def _print_pretrain_cache(result) -> None:
    stats = result.extra.get("pretrain_cache") or {}
    if stats.get("enabled"):
        outcome = "hit" if stats.get("hit") else "miss"
        print(f"pretrain cache: {outcome} ({stats.get('store')})")


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.api.pipeline import Pipeline

    raw_argv = list(sys.argv[1:] if argv is None else argv)
    if raw_argv[:1] == ["store-gc"]:
        return _run_store_gc(raw_argv[1:])
    if raw_argv[:1] == ["trace-summary"]:
        return _run_trace_summary(raw_argv[1:])
    args = build_parser().parse_args(raw_argv)
    if args.from_checkpoint is not None:
        if args.spec is not None or args.seeds is not None or args.save_to:
            print(
                "repro-run: --from-checkpoint replaces training; it cannot be "
                "combined with a spec, --seeds or --save-to",
                file=sys.stderr,
            )
            return 2
        try:
            return _run_from_checkpoint(args)
        except (OSError, ReproError) as error:
            print(f"repro-run: {error}", file=sys.stderr)
            return 2
    if args.spec is None:
        print(
            "repro-run: a spec path is required (or --from-checkpoint)",
            file=sys.stderr,
        )
        return 2
    try:
        jobs = _parse_jobs(args.jobs)
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec, "r", encoding="utf-8") as handle:
                text = handle.read()
        data, spec_seeds = _load_spec_document(text)
        pipeline = Pipeline.from_spec(data)
        spec = pipeline.spec()
        pipeline, spec = _apply_minibatch_flags(pipeline, spec, args)
        policy = _retry_policy(args)
    except (OSError, ReproError) as error:
        print(f"repro-run: {error}", file=sys.stderr)
        return 2

    # --seeds wins over a seed list in the spec; a plain spec runs its own seed.
    seeds = args.seeds if args.seeds is not None else spec_seeds
    multi_seed = seeds is not None
    if not multi_seed and jobs != 1:
        print(
            "repro-run: --jobs requires a multi-seed run (pass --seeds or "
            'give the spec a "seed" list)',
            file=sys.stderr,
        )
        return 2
    if args.save_to and multi_seed:
        print(
            "repro-run: --save-to needs a single-seed run (pooled trials "
            "drop their models)",
            file=sys.stderr,
        )
        return 2
    if args.resume and not multi_seed:
        print(
            "repro-run: --resume resumes a multi-seed sweep (pass --seeds "
            'or give the spec a "seed" list)',
            file=sys.stderr,
        )
        return 2
    from repro.store import active_store

    if args.warm_start is not None:
        root = _default_store_root() if args.warm_start is True else args.warm_start
        pipeline = pipeline.warm_start(root)
    elif args.resume and active_store() is None:
        print(
            "repro-run: --resume replays the sweep journal from an "
            "artifact store; pass --warm-start [DIR] or set "
            "REPRO_STORE_DIR",
            file=sys.stderr,
        )
        return 2

    if args.print_spec:
        print(spec.to_json())
        return 0

    outcome = None
    try:
        from contextlib import nullcontext

        from repro.env import TRACE_ENV, env_override

        trace_path = None
        if args.trace is not None:
            trace_path = "repro-trace.json" if args.trace is True else str(args.trace)
        telemetry_doc = None
        # Exporting REPRO_TRACE before the pool spins up is what makes the
        # workers trace themselves; their span forests come back inside the
        # trial results and are merged below.
        trace_ctx = (
            env_override(TRACE_ENV, "1") if trace_path is not None else nullcontext()
        )
        with trace_ctx:
            if seeds is None:
                from repro.observability.collect import merge_sweep_telemetry
                from repro.observability.tracer import tracing_session

                print(f"repro-run: {spec.describe()}", file=sys.stderr)
                with tracing_session() as tracer:
                    results = [pipeline.run()]
                seeds = [spec.seed]
                if tracer is not None:
                    from repro.store.keys import run_key

                    telemetry_doc = merge_sweep_telemetry(
                        [(run_key(spec.to_dict()), 0, tracer.payload())]
                    )
            else:
                print(
                    f"repro-run: {spec.describe()} over seeds {seeds} "
                    f"(jobs={jobs})",
                    file=sys.stderr,
                )
                outcome = pipeline.run_sweep(
                    seeds,
                    jobs=jobs,
                    resume=args.resume,
                    policy=policy,
                    fail_fast=args.fail_fast,
                )
                results = outcome.results
                telemetry_doc = outcome.telemetry
                if outcome.resumed:
                    print(
                        f"repro-run: resumed {outcome.resumed}/{len(seeds)} "
                        f"seed(s) from the sweep journal",
                        file=sys.stderr,
                    )
        if trace_path is not None and telemetry_doc is not None:
            from repro.observability.exporters import write_chrome_trace

            try:
                write_chrome_trace(trace_path, telemetry_doc)
            except OSError as error:
                print(
                    f"repro-run: cannot write trace to {trace_path}: {error}",
                    file=sys.stderr,
                )
                return 2
            print(f"repro-run: wrote Chrome trace to {trace_path}", file=sys.stderr)
        if args.save_to:
            saved = results[0].save(args.save_to)
            print(f"repro-run: saved snapshot to {saved}", file=sys.stderr)
    except ReproError as error:
        # Unknown dataset / model / callback names only surface when the
        # registries are consulted at run time; report them like any other
        # bad-spec error instead of a traceback.  TrialFailedError (the
        # --fail-fast abort) means the sweep itself broke, not the spec.
        from repro.errors import TrialFailedError

        print(f"repro-run: {error}", file=sys.stderr)
        return 1 if isinstance(error, TrialFailedError) else 2

    if args.failure_report and outcome is not None:
        with open(args.failure_report, "w", encoding="utf-8") as handle:
            json.dump(outcome.report(), handle, indent=2)
        print(
            f"repro-run: wrote failure report to {args.failure_report}",
            file=sys.stderr,
        )

    from repro.resilience import TrialFailure

    failed = sum(isinstance(result, TrialFailure) for result in results)
    if args.json:
        summaries = []
        for seed, result in zip(seeds, results):
            if isinstance(result, TrialFailure):
                summaries.append(
                    {"seed": seed, "failed": True, **result.to_dict()}
                )
                continue
            summary = {"seed": seed, **result.summary()}
            cache = result.extra.get("pretrain_cache")
            if cache is not None and cache.get("enabled"):
                summary["pretrain_cache"] = cache
            summaries.append(summary)
        # Multi-seed mode always emits an array (even for one seed) so
        # consumers parse one shape; a plain run keeps the historical object.
        print(json.dumps(summaries if multi_seed else summaries[0], indent=2))
    else:
        for seed, result in zip(seeds, results):
            described = spec.replace(seed=seed).describe()
            if isinstance(result, TrialFailure):
                print(
                    f"{described}: FAILED after {len(result.attempts)} "
                    f"attempt(s) — {result.error}"
                )
                continue
            print(f"{described}: {result.report}")
            print(f"runtime: {result.runtime_seconds:.2f}s")
            if result.history is not None:
                print(
                    f"epochs run: {result.history.epochs_run} "
                    f"(converged: {result.history.converged})"
                )
            _print_pretrain_cache(result)
    if failed:
        print(
            f"repro-run: {failed}/{len(results)} trial(s) failed permanently",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
