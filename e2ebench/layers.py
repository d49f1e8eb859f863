"""Per-layer tracing from the benchmark's side of each layer boundary.

:func:`install` wraps the public entry points of every measured layer —
module functions, operator classes and the concrete model classes — with
timing wrappers that record spans into a :class:`Recorder`, and returns a
function that puts every patched attribute back.  The program itself is not
changed: the wrappers sit around the calls into it.

Spans are kept in memory as ``(name, start, end, parent, trial)`` and
reduced to per-layer ``calls`` / inclusive seconds / self seconds, where a
span's self time is its duration minus the durations of the wrapped spans
directly nested in it.

Pool workers forked during a sweep inherit the wrappers but not a way back
to the parent's recorder.  There the wrappers open spans (named with the
``e2e:`` prefix) on the program's own tracer instead, which
``REPRO_TRACE=1`` ships back in ``SweepOutcome.telemetry``;
:func:`telemetry_spans` turns those into the same span records.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: prefix of the spans wrappers open on the program's tracer in pool workers.
WORKER_PREFIX = "e2e:"

#: (layer, module, attribute) of the wrapped module-level functions.  Every
#: loaded ``repro`` module that imported one of them by name is patched too.
#: Registry datasets are SBM graphs, so both entries below time one load.
FUNCTIONS = (
    ("graph.propagation_matrix", "repro.graph.sparse", "propagation_matrix"),
    ("minibatch.build_loader", "repro.minibatch.loaders", "build_loader"),
    ("metrics.evaluate", "repro.metrics.report", "evaluate_clustering"),
    ("parallel.run_sweep", "repro.parallel", "run_sweep"),
    ("datasets.load", "repro.parallel", "load_dataset_cached"),
    ("datasets.load", "repro.graph.generators", "attributed_sbm_graph"),
)

#: (module, class, method) of the wrapped methods.
METHODS = {
    "api.pipeline_run": ("repro.api.pipeline", "Pipeline", "run"),
    "core.fit": ("repro.core.rethink", "RethinkTrainer", "fit"),
    "core.sampling": ("repro.core.sampling", "SamplingOperator", "__call__"),
    "core.graph_transform": ("repro.core.graph_transform", "GraphTransformOperator", "__call__"),
    "clustering.kmeans_fit": ("repro.clustering.kmeans", "KMeans", "fit"),
    "clustering.gmm_fit": ("repro.clustering.gmm", "GaussianMixture", "fit"),
    "nn.adam_step": ("repro.nn.optim", "Adam", "step"),
    "nn.backward": ("repro.nn.tensor", "Tensor", "backward"),
    "graph.spmm": ("repro.graph.sparse", "SparseAdjacency", "matmul"),
    "store.put": ("repro.store.store", "ArtifactStore", "put"),
    "store.put_blob": ("repro.store.store", "ArtifactStore", "put_blob"),
    "store.get": ("repro.store.store", "ArtifactStore", "get"),
    "store.get_blob": ("repro.store.store", "ArtifactStore", "get_blob"),
}

#: model methods wrapped on the base class and on every subclass that
#: overrides them (GMM-VGAE and DGAE override the clustering hooks).
MODEL_METHODS = (
    "encode",
    "embed",
    "pretrain",
    "reconstruction_loss",
    "regularization_loss",
    "clustering_loss",
    "refresh_clustering",
    "predict_assignments",
    "fit_clustering",
)

#: blob operations are reported together with the snapshot operations.
MERGED = {"store.put_blob": "store.put", "store.get_blob": "store.get"}

#: every reported layer name.
LAYERS = sorted(
    {MERGED.get(name, name) for name, _, _ in FUNCTIONS}
    | {MERGED.get(name, name) for name in METHODS}
    | {f"models.{method}" for method in MODEL_METHODS}
)

Span = Tuple[str, float, float, int, str]  # name, start, end, parent index (-1 = root), trial


def _import(module: str) -> Any:
    __import__(module)
    return sys.modules[module]


def _model_classes() -> List[type]:
    import repro.models.registry  # noqa: F401  (defines every concrete model)
    from repro.models.base import GAEClusteringModel

    classes, pending = [], [GAEClusteringModel]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    return classes


class Recorder:
    """In-memory spans of one traced process, plus tensor counters."""

    #: trace lane of this process's spans (sweep trials get their own lanes).
    trial = "main"

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.epoch = time.perf_counter()
        self.spans: List[Span] = []
        self.tensors = 0
        self.nxn_tensors = 0
        #: node count of the latest encode() input: the n of "n × n" tensors.
        self.nodes = -1
        #: the loader the latest build_loader() call returned.
        self.loader: Any = None
        self._stack: List[Tuple[str, int]] = []  # open (name, reserved index)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[[Tuple[Any, ...]], None]] = None,
    ) -> Callable[..., Any]:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack
            # An override calling super() is one call, not two.
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            if os.getpid() != recorder.pid:
                from repro.observability.tracer import span

                stack.append((name, -1))
                try:
                    with span(WORKER_PREFIX + name):
                        return fn(*args, **kwargs)
                finally:
                    stack.pop()
            parent = stack[-1][1] if stack else -1
            index = len(recorder.spans)
            recorder.spans.append((name, 0.0, 0.0, parent, recorder.trial))
            stack.append((name, index))
            start = time.perf_counter() - recorder.epoch
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter() - recorder.epoch
                stack.pop()
                recorder.spans[index] = (name, start, end, parent, recorder.trial)

        return wrapper

    def note_nodes(self, args: Tuple[Any, ...]) -> None:
        """Before encode(model, features, ...): remember the node count."""
        self.nodes = int(args[1].shape[0])

    def count_tensor(self, shape: Tuple[int, ...]) -> None:
        square = len(shape) == 2 and shape[0] == shape[1] == self.nodes
        if os.getpid() != self.pid:
            from repro.observability.metrics import metric_inc

            metric_inc(WORKER_PREFIX + "tensors")
            if square:
                metric_inc(WORKER_PREFIX + "nxn_tensors")
            return
        self.tensors += 1
        self.nxn_tensors += square


def _patch(owner: Any, attr: str, value: Any, undo: List[Tuple[Any, str, Any]]) -> None:
    undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
    setattr(owner, attr, value)


def _keeping_loader(recorder: Recorder, build_loader: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(build_loader)
    def keeping(*args: Any, **kwargs: Any) -> Any:
        recorder.loader = build_loader(*args, **kwargs)
        return recorder.loader

    return keeping


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every measured entry point; returns the function that unwraps them."""
    # Import first, so that every module binding a wrapped function by name
    # is loaded before the bindings are patched.
    for module in {m for _, m, _ in FUNCTIONS} | {m for m, _, _ in METHODS.values()}:
        _import(module)
    classes = _model_classes()
    undo: List[Tuple[Any, str, Any]] = []
    functions: Dict[Any, Any] = {}  # wrapper -> original
    for name, module, attr in FUNCTIONS:
        original = getattr(_import(module), attr)
        target = _keeping_loader(recorder, original) if name == "minibatch.build_loader" else original
        wrapped = recorder.wrap(name, target)
        functions[wrapped] = original
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, attr, None) is original
            ):
                _patch(loaded, attr, wrapped, undo)
    for name, (module, cls_name, method) in METHODS.items():
        cls = getattr(_import(module), cls_name)
        _patch(cls, method, recorder.wrap(name, cls.__dict__[method]), undo)
    for cls in classes:
        for method in MODEL_METHODS:
            if method in cls.__dict__:
                before = recorder.note_nodes if method == "encode" else None
                wrapped = recorder.wrap(f"models.{method}", cls.__dict__[method], before)
                _patch(cls, method, wrapped, undo)

    from repro.nn.tensor import Tensor

    tensor_init = Tensor.__init__

    @functools.wraps(tensor_init)
    def counting_init(self: Any, data: Any, *args: Any, **kwargs: Any) -> None:
        tensor_init(self, data, *args, **kwargs)
        recorder.count_tensor(self.data.shape)

    _patch(Tensor, "__init__", counting_init, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        # Modules imported after install() may have bound a wrapper by name.
        for wrapper, original in functions.items():
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    getattr(loaded, original.__name__, None) is wrapper
                ):
                    setattr(loaded, original.__name__, original)
        undo.clear()

    return uninstall


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------
def telemetry_spans(
    telemetry: Optional[Dict[str, Any]], trial_prefix: str, offset: int = 0
) -> List[Span]:
    """The ``e2e:`` spans of a sweep's telemetry as span records.

    Each trial's spans go on their own lane, with start times relative to
    that trial's tracer; a span's parent is its nearest ``e2e:`` ancestor.
    Parent indices count from ``offset``, the position the records will
    take in the caller's span list.
    """
    spans: List[Span] = []
    if not telemetry:
        return spans

    def walk(node: Dict[str, Any], parent: int, trial: str) -> None:
        name = node["name"]
        if name.startswith(WORKER_PREFIX):
            start = float(node["start"])
            end = start + float(node["wall_seconds"])
            spans.append((name[len(WORKER_PREFIX):], start, end, parent, trial))
            parent = offset + len(spans) - 1
        for child in node.get("children", ()):
            walk(child, parent, trial)

    for trial in telemetry.get("trials", []):
        for root in trial.get("spans", []):
            walk(root, -1, f"{trial_prefix}{trial['index']}")
    return spans


def telemetry_counter(telemetry: Optional[Dict[str, Any]], name: str) -> float:
    if not telemetry:
        return 0.0
    return float((telemetry.get("metrics") or {}).get("counters", {}).get(name, 0.0))


def aggregate(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """calls / inclusive seconds / self seconds of every layer (zeros if unused)."""
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: {"calls": 0.0, "s": 0.0, "self_s": 0.0} for name in LAYERS}
    for index, (name, start, end, parent, _) in enumerate(spans):
        entry = out[MERGED.get(name, name)]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return out


def write_chrome_trace(path: str, spans: List[Span]) -> None:
    """Chrome trace-event JSON (open in ui.perfetto.dev or chrome://tracing)."""
    lanes: Dict[str, int] = {}
    events = []
    for index, (name, start, end, parent, trial) in enumerate(spans):
        events.append(
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": lanes.setdefault(trial, len(lanes)),
                "tid": 0,
                "args": {"trial": trial, "id": index, "parent": parent},
            }
        )
    for trial, lane in lanes.items():
        events.append(
            {"name": "process_name", "ph": "M", "pid": lane, "args": {"name": f"trial {trial}"}}
        )
    with open(path, "w", encoding="utf-8") as stream:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, stream)
