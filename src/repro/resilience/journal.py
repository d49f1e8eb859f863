"""Journaled sweeps: per-trial completion records that survive a kill -9.

A multi-seed sweep is a list of independent trials, yet before this module
the sweep's progress lived only in the driver's memory: any interruption —
crash, Ctrl-C, OOM kill, pre-empted CI runner — discarded every finished
trial.  :class:`SweepJournal` writes each completed trial's result into the
:class:`~repro.store.store.ArtifactStore` *as it finishes* (the supervised
pool's ``on_result`` hook fires in the parent), keyed by:

* the **sweep key** — a canonical hash over the ordered list of trial keys,
  so re-running the same command finds the same journal, and any change to
  the trial list (different seeds, different spec) maps to a fresh one;
* the **trial key** — ``RunSpec.store_key()``, the same full-spec hash the
  warm-start machinery uses, so a journal entry can never be replayed
  against a different trial.

Because every trial is bitwise-reproducible from its spec, replaying a
journal entry is *indistinguishable* from re-running the trial — which is
what makes ``repro-run --resume`` safe: finished trials are skipped and the
resumed sweep's results equal an uninterrupted run's bit for bit.

Journal entries are store blobs: written atomically with a manifest that
records their SHA-256, verified on every read, and quarantined when
corrupt, which the journal treats as missing (the trial simply re-runs).
Entries journaled before blobs had manifests (a pickle plus a ``.sha256``
sidecar) count as corrupt, so their trials re-run once on resume.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ArtifactCorruptError
from repro.store.keys import config_hash
from repro.store.store import ArtifactStore

__all__ = ["SweepJournal", "sweep_key"]


def sweep_key(trial_keys: Sequence[str]) -> str:
    """Stable identity of a sweep: a hash over its ordered trial keys."""
    return config_hash({"kind": "sweep", "trials": [str(key) for key in trial_keys]})


class SweepJournal:
    """Completion journal of one sweep (see module docstring)."""

    #: blob category prefix under the store root.
    CATEGORY = "journal"

    def __init__(self, store: ArtifactStore, trial_keys: Sequence[str]) -> None:
        self.store = store
        self.trial_keys: List[str] = [str(key) for key in trial_keys]
        self.sweep_key = sweep_key(self.trial_keys)
        self.category = f"{self.CATEGORY}/{self.sweep_key}"

    def load(self) -> Dict[int, Any]:
        """Completed trial results by input index, checksum-verified.

        A corrupt entry has already been quarantined by the store when the
        read raises; it is treated as missing, so the trial re-runs — the
        degraded outcome is a slower resume, never a wrong one.
        """
        completed: Dict[int, Any] = {}
        for index, key in enumerate(self.trial_keys):
            try:
                value = self.store.get_blob(self.category, key, default=None)
            except ArtifactCorruptError:
                value = None  # quarantined by the store; re-run the trial
            if value is not None:
                completed[index] = value
        return completed

    def record(self, index: int, value: Any) -> str:
        """Persist trial ``index``'s result; returns the written path."""
        return self.store.put_blob(self.category, self.trial_keys[index], value)

    def entries(self) -> List[str]:
        """Trial keys currently journaled for this sweep."""
        return self.store.blob_names(self.category)

    def clear(self) -> int:
        """Drop this sweep's journal; returns how many entries were removed."""
        removed = 0
        for name in self.entries():
            removed += bool(self.store.delete_blob(self.category, name))
        return removed

    def describe(self) -> Dict[str, Any]:
        return {
            "sweep_key": self.sweep_key,
            "trials": len(self.trial_keys),
            "journaled": len(self.entries()),
            "store": self.store.root,
        }


def open_journal(
    store: Optional[ArtifactStore], trial_keys: Sequence[str]
) -> Optional[SweepJournal]:
    """A journal when a store is configured, else ``None`` (journaling off)."""
    if store is None:
        return None
    return SweepJournal(store, trial_keys)
