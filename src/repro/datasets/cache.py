"""Per-process dataset memoisation.

Multi-seed fan-outs re-run the same (dataset, seed, options) spec once per
model seed, and a pool worker typically executes several of them; building
the graph anew each time is a pure constant-factor tax on ``--jobs N``.
This per-process LRU makes each process load a dataset spec exactly once.
The cached :class:`~repro.graph.graph.AttributedGraph` instances are shared
between trials, which is safe because the whole stack treats graphs as
immutable (operators copy before editing; robustness sweeps corrupt
explicit copies).

The cache lives here, beside the registry, so a single trial can use it
without importing the process pool; :mod:`repro.parallel` re-exports it.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro import env as repro_env
from repro.errors import ConfigError

#: environment variable bounding the per-process dataset cache (0 disables).
#: Declared in :mod:`repro.env`.
DATASET_CACHE_SIZE_ENV = repro_env.DATASET_CACHE_SIZE_ENV
DEFAULT_DATASET_CACHE_SIZE = 8

_dataset_cache: "OrderedDict[Tuple[str, int, str], Any]" = OrderedDict()
_dataset_cache_stats: Dict[str, int] = {"hits": 0, "misses": 0}


def dataset_cache_limit() -> int:
    """Max entries of the per-process dataset cache (env-configurable)."""
    limit = repro_env.env_int(DATASET_CACHE_SIZE_ENV, DEFAULT_DATASET_CACHE_SIZE)  # repro: noqa[REP104] cache limit is per-process capacity, not trial-visible state
    if limit < 0:
        raise ConfigError(f"{DATASET_CACHE_SIZE_ENV} must be >= 0, got {limit}")
    return limit


def load_dataset_cached(
    name: str, seed: int = 0, options: Optional[Dict[str, Any]] = None
) -> Any:
    """Build a registered dataset, memoised per process and dataset spec.

    The key is the full dataset spec — name, generation seed and options —
    so distinct specs never alias.  Least-recently-used entries are evicted
    beyond :func:`dataset_cache_limit` (a limit of 0 disables caching).
    """
    from repro.datasets.registry import DATASETS

    limit = dataset_cache_limit()
    key = (str(name), int(seed), json.dumps(options or {}, sort_keys=True))
    if limit and key in _dataset_cache:
        _dataset_cache.move_to_end(key)  # repro: noqa[REP102] per-worker dataset cache; entries are deterministic by (name, seed, options)
        _dataset_cache_stats["hits"] += 1  # repro: noqa[REP102] per-worker cache stats, observability only, never trial-visible
        return _dataset_cache[key]
    _dataset_cache_stats["misses"] += 1
    graph = DATASETS[name](int(seed), **(options or {}))
    if limit:
        _dataset_cache[key] = graph
        while len(_dataset_cache) > limit:
            _dataset_cache.popitem(last=False)
    return graph


def dataset_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of *this* process's dataset cache.

    Includes the ``pid`` so results gathered from a pool can be grouped by
    worker — the per-worker ``misses`` count is how the load-once guarantee
    is asserted in the test suite.
    """
    return {
        "hits": _dataset_cache_stats["hits"],
        "misses": _dataset_cache_stats["misses"],
        "size": len(_dataset_cache),
        "limit": dataset_cache_limit(),
        "pid": os.getpid(),
    }


def clear_dataset_cache() -> None:
    """Drop every cached dataset and reset the counters (tests, reconfigs)."""
    _dataset_cache.clear()
    _dataset_cache_stats["hits"] = 0
    _dataset_cache_stats["misses"] = 0
