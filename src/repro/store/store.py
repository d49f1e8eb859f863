"""Filesystem-backed, content-addressed artifact store.

An :class:`ArtifactStore` keeps every artifact under one root directory as
a payload plus a JSON manifest ``<stem>.json`` beside it that records the
payload's SHA-256.  Two kinds of artifact share that layout:

* ``<root>/objects/<key[:2]>/<key>.snap`` — a pickled
  :class:`~repro.store.snapshot.Snapshot`, keyed by a hex digest from
  :mod:`repro.store.keys`.  Its manifest also holds the model class, phase,
  epoch, schema version and producing spec, so a store can be inspected
  with ``cat`` and ``ls``.
* ``<root>/<category>/<name>.pkl`` — a pickled blob, used by sweep journals
  (:mod:`repro.resilience.journal`).

``<root>/quarantine/`` is where corrupt artifacts are moved, never served.

A store always has an explicit root.  :func:`active_store` is the one
reader of ``REPRO_STORE_DIR``: :meth:`repro.api.Pipeline._resolve_store`
falls back to it for a pipeline whose ``warm_start`` is unset, and sweeps
hand the resolved root to every pool worker with its trial.

**Writes.** Every file goes through one atomic writer: a unique temp file,
then a rename.  Readers see the old file or the new one, and concurrent
workers writing the same key last-write-win with identical bytes.  The
manifest lands before its payload, so a payload on disk has its manifest.

**Reads.** Every read checks the payload against its manifest before
decoding it.  A missing or unreadable manifest, one without a digest, a
digest mismatch (truncated file, flipped bits, torn write) or a payload
that cannot be decoded moves the payload and its manifest into
``quarantine/`` and raises the typed
:class:`~repro.errors.ArtifactCorruptError`, whose ``path`` is the
quarantined payload.  Corrupt artifacts are therefore *detected at the
boundary*, counted in :meth:`ArtifactStore.stats`, and can never silently
poison a warm start or a resumed sweep.  Stores written before manifests
covered every artifact degrade once: a journal entry with a ``.sha256``
sidecar, or a snapshot manifest without ``sha256``, is quarantined on its
first read, so that trial re-runs or that warm start pretrains cold.

**Eviction.** Sweeps grow a store without bound; :meth:`ArtifactStore.gc`
(CLI: ``repro-run store-gc --max-bytes N``) evicts least-recently-used
artifacts — reads touch mtimes — payload and manifest together, until the
store fits its byte budget.  Files that belong to no
artifact (legacy ``.sha256`` sidecars, a manifest whose payload never
landed) count and go the same way.  Quarantined files are exempt: they are
evidence; so are trace exports under ``traces/`` and in-flight ``.tmp``
files.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import env as repro_env
from repro.errors import (
    ArtifactCorruptError,
    ArtifactNotFoundError,
    StoreError,
)
from repro.observability.metrics import metric_inc
from repro.observability.tracer import span as _span
from repro.store.snapshot import Snapshot

#: root of a bare ``repro-run --warm-start`` / ``store-gc`` when
#: ``REPRO_STORE_DIR`` is unset.
DEFAULT_STORE_DIR = ".repro-store"
#: subdirectory corrupt artifacts are moved into (never read back).
QUARANTINE_DIR = "quarantine"

#: payload suffixes of snapshots and blobs; every manifest is ``<stem>.json``.
_SNAPSHOT = ".snap"
_BLOB = ".pkl"

_MISSING = object()


def _check_key(key: str) -> str:
    if not isinstance(key, str) or not key or not all(
        c in "0123456789abcdef" for c in key
    ):
        raise StoreError(
            f"store keys are lowercase hex digests from repro.store.keys, got {key!r}"
        )
    return key


def _check_blob_part(part: str, what: str) -> str:
    if not isinstance(part, str) or not part or not all(
        c.isalnum() or c in "._-" for c in part
    ):
        raise StoreError(
            f"blob {what} must be non-empty [A-Za-z0-9._-] text, got {part!r}"
        )
    if part.startswith("."):
        raise StoreError(f"blob {what} must not start with '.', got {part!r}")
    return part


def _manifest_path(payload_path: str) -> str:
    return os.path.splitext(payload_path)[0] + ".json"


def _stems(directory: str, suffix: str) -> List[str]:
    """Stems of the payloads ending in ``suffix`` in ``directory`` (unsorted)."""
    if not os.path.isdir(directory):
        return []
    return [name[: -len(suffix)] for name in os.listdir(directory) if name.endswith(suffix)]


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a unique temp file and one rename.

    The store's only writer; :meth:`Snapshot.save` uses it too.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp_path)
        raise


def _unlink(paths: Iterable[str]) -> bool:
    """Delete the files that exist among ``paths``; returns whether any did."""
    removed = False
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
            removed = True
    return removed


def _recorded_sha256(manifest_path: str) -> Optional[str]:
    """The payload digest a manifest records (None: missing or unreadable)."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as stream:
            manifest = json.load(stream)
    except (OSError, ValueError):
        return None
    value = manifest.get("sha256") if isinstance(manifest, dict) else None
    return value if isinstance(value, str) else None


def _unpickle_blob(data: bytes, path: str) -> Any:
    try:
        return pickle.loads(data)
    except (pickle.UnpicklingError, EOFError, AttributeError, ValueError, IndexError) as error:
        raise ArtifactCorruptError(path, f"blob cannot be unpickled: {error}") from error


class ArtifactStore:
    """Content-addressed snapshot and blob store rooted at one directory."""

    def __init__(self, root: str) -> None:
        if root is None:
            raise StoreError(
                "ArtifactStore needs a root directory; active_store() returns "
                "the REPRO_STORE_DIR store"
            )
        self.root = str(root)
        self._stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "corrupt": 0,
        }

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _object_path(self, key: str) -> str:
        key = _check_key(key)
        return os.path.join(self.root, "objects", key[:2], key + _SNAPSHOT)

    def _blob_path(self, category: str, name: str) -> str:
        parts = [_check_blob_part(part, "category") for part in str(category).split("/")]
        if QUARANTINE_DIR in parts or parts[0] == "objects":
            raise StoreError(
                f"blob category {category!r} collides with a reserved store area"
            )
        return os.path.join(self.root, *parts, _check_blob_part(name, "name") + _BLOB)

    def _quarantine_path(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIR)

    # ------------------------------------------------------------------
    # the one artifact path: a payload and its manifest, as one unit
    # ------------------------------------------------------------------
    def _write(self, path: str, name: str, data: bytes, fields: Dict[str, Any]) -> str:
        """Write the manifest, then the payload ``data`` at ``path``.

        The manifest records ``name``, the payload's SHA-256 and ``fields``;
        ``name`` is also the artifact's ``store_corrupt`` fault key.
        """
        from repro.resilience.faults import corrupt_file

        manifest = {"key": name, "sha256": hashlib.sha256(data).hexdigest(), **fields}
        text = json.dumps(manifest, indent=2, default=str)
        _write_atomic(_manifest_path(path), text.encode("utf-8"))
        _write_atomic(path, data)
        # after the digest: an injected torn write must be *detected* by the
        # checksum verification, exactly like real post-write corruption
        corrupt_file("store_write", name, path)
        self._stats["puts"] += 1
        metric_inc("store.puts")
        return path

    def _read(
        self, path: str, name: str, decode: Callable[[bytes, str], Any], default: Any
    ) -> Any:
        """Verify the payload at ``path`` against its manifest, then ``decode`` it.

        A missing payload is a miss.  Anything else that fails — no usable
        manifest digest, a mismatch, or an :class:`ArtifactCorruptError`
        from ``decode`` — quarantines the artifact before raising.
        """
        try:
            with open(path, "rb") as stream:
                data = stream.read()
        except FileNotFoundError:
            self._stats["misses"] += 1
            metric_inc("store.misses")
            if default is _MISSING:
                raise ArtifactNotFoundError(name, self.root) from None
            return default
        expected = _recorded_sha256(_manifest_path(path))
        if expected is None:
            raise self._corrupt(path, "no readable manifest records its SHA-256")
        actual = hashlib.sha256(data).hexdigest()
        if actual != expected:
            raise self._corrupt(
                path,
                f"payload SHA-256 {actual[:12]}… does not match the "
                f"manifest's {expected[:12]}… (truncated or torn write)",
            )
        try:
            value = decode(data, path)
        except ArtifactCorruptError as error:
            raise self._corrupt(path, error.reason) from error
        os.utime(path)
        self._stats["hits"] += 1
        metric_inc("store.hits")
        return value

    def _corrupt(self, path: str, reason: str) -> ArtifactCorruptError:
        """Quarantine the artifact at ``path``; the error names where it went."""
        moved = self.quarantine(path, _manifest_path(path))
        return ArtifactCorruptError(moved[0] if moved else path, f"{reason}; quarantined")

    def _remove(self, path: str) -> bool:
        """Delete the artifact at ``path``, payload first; returns whether any file went."""
        return _unlink((path, _manifest_path(path)))

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def quarantine(self, *paths: str) -> List[str]:
        """Move files out of service into ``quarantine/`` (kept as evidence).

        Files keep their basenames unless one would overwrite earlier
        evidence (one trial journaled by two sweeps): then the group moves
        under one new stem, ``<stem>-<n>``, so a payload stays beside its
        manifest.  Returns the destination paths; missing sources are
        skipped.  Called on every integrity failure before the typed error
        is raised, so a corrupt object can fail at most one read.
        """
        destination_dir = self._quarantine_path()
        os.makedirs(destination_dir, exist_ok=True)
        names = [os.path.splitext(os.path.basename(path)) for path in paths]
        tag, n = "", 0
        while any(
            os.path.exists(os.path.join(destination_dir, stem + tag + ext))
            for stem, ext in names
        ):
            n += 1
            tag = f"-{n}"
        moved: List[str] = []
        for path, (stem, ext) in zip(paths, names):
            destination = os.path.join(destination_dir, stem + tag + ext)
            try:
                os.rename(path, destination)
            except FileNotFoundError:
                continue
            moved.append(destination)
        if moved:
            self._stats["corrupt"] += 1
            metric_inc("store.corrupt")
        return moved

    def quarantined(self) -> List[str]:
        """Basenames currently sitting in the quarantine area (sorted)."""
        directory = self._quarantine_path()
        if not os.path.isdir(directory):
            return []
        return sorted(os.listdir(directory))

    # ------------------------------------------------------------------
    # snapshot mapping operations
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        return os.path.exists(self._object_path(key))

    __contains__ = contains

    def put(self, key: str, snapshot: Snapshot) -> str:
        """Store ``snapshot`` under ``key``; returns the object path.

        The manifest records the payload's SHA-256, which :meth:`get`
        verifies on every read.  The write itself is a fault-injection
        choke point (``store_corrupt``), so chaos plans can exercise the
        torn-write recovery path deterministically.
        """
        if not isinstance(snapshot, Snapshot):
            raise StoreError(
                f"ArtifactStore stores Snapshot objects, got {type(snapshot).__name__}"
            )
        with _span("store.put"):
            return self._write(
                self._object_path(key),
                key,
                snapshot.to_bytes(),
                {
                    "schema_version": snapshot.schema_version,
                    "model_class": snapshot.model_class,
                    "phase": snapshot.phase,
                    "epoch": snapshot.epoch,
                    "config": snapshot.config,
                    "spec": snapshot.spec,
                    "metadata": snapshot.metadata,
                },
            )

    def get(self, key: str, default: Any = _MISSING) -> Snapshot:
        """Load the snapshot stored under ``key``, integrity-checked.

        A miss raises :class:`~repro.errors.ArtifactNotFoundError` unless a
        ``default`` is given.  A missing or mismatching manifest, or an
        unreadable payload, quarantines the object and raises
        :class:`~repro.errors.ArtifactCorruptError` carrying the quarantine
        path.  Successful reads touch the object's mtime (the LRU signal
        :meth:`gc` evicts by).  Hit/miss counters feed the cache statistics
        surfaced in ``RunResult.extra``.
        """
        with _span("store.get"):
            return self._read(self._object_path(key), key, Snapshot.from_bytes, default)

    def manifest(self, key: str) -> Dict[str, Any]:
        """The JSON manifest written next to the snapshot."""
        try:
            with open(_manifest_path(self._object_path(key)), "r", encoding="utf-8") as stream:
                return json.load(stream)
        except FileNotFoundError:
            raise ArtifactNotFoundError(key, self.root) from None

    def delete(self, key: str) -> bool:
        """Remove an artifact; returns whether anything was deleted."""
        return self._remove(self._object_path(key))

    def keys(self) -> List[str]:
        """Every stored key (sorted)."""
        objects_root = os.path.join(self.root, "objects")
        shards = os.listdir(objects_root) if os.path.isdir(objects_root) else []
        return sorted(
            key for shard in shards for key in _stems(os.path.join(objects_root, shard), _SNAPSHOT)
        )

    def __len__(self) -> int:
        return len(self.keys())

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/put/corrupt counters of *this* store handle, plus identity."""
        return {**self._stats, "root": self.root, "entries": len(self), "pid": os.getpid()}

    def clear(self) -> int:
        """Delete every artifact; returns how many were removed."""
        keys = self.keys()
        for key in keys:
            self.delete(key)
        return len(keys)

    # ------------------------------------------------------------------
    # generic blob payloads (journals and friends)
    # ------------------------------------------------------------------
    def put_blob(self, category: str, name: str, value: Any) -> str:
        """Pickle ``value`` under ``<category>/<name>`` with a manifest like :meth:`put`'s.

        Like :meth:`put`, the write is a ``store_corrupt`` fault choke
        point.  Returns the written path.
        """
        with _span("store.put_blob"):
            return self._write(
                self._blob_path(category, name),
                f"{category}/{name}",
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
                {},
            )

    def get_blob(self, category: str, name: str, default: Any = _MISSING) -> Any:
        """Load a blob, verified against its manifest before unpickling.

        Corrupt blobs (checksum mismatch, missing manifest, unpicklable
        payload) are quarantined and raise
        :class:`~repro.errors.ArtifactCorruptError` with the quarantine path.
        """
        with _span("store.get_blob"):
            return self._read(
                self._blob_path(category, name), f"{category}/{name}", _unpickle_blob, default
            )

    def blob_names(self, category: str) -> List[str]:
        """Names stored under a blob category (sorted)."""
        return sorted(_stems(os.path.dirname(self._blob_path(category, "probe")), _BLOB))

    def delete_blob(self, category: str, name: str) -> bool:
        """Remove one blob (and its manifest); returns whether it existed."""
        return self._remove(self._blob_path(category, name))

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def _gc_entries(self) -> List[Tuple[float, int, Tuple[str, ...]]]:
        """Evictable files: ``(mtime, bytes, files removed together)``.

        An artifact is its payload and its manifest.  Any other file is an
        orphan, evicted on its own: a legacy ``.sha256`` sidecar, or a
        manifest whose payload never landed (or is landing right now: the
        manifest is written first, so an eviction then makes that payload
        degrade once on its first read).  Quarantined files, trace exports
        under ``traces/`` and in-flight ``.tmp`` files are exempt.
        """
        entries: List[Tuple[float, int, Tuple[str, ...]]] = []
        for dirpath, dirnames, filenames in os.walk(self.root):
            area = os.path.relpath(dirpath, self.root).split(os.sep)[0]
            if area == QUARANTINE_DIR:
                dirnames[:] = []
                continue
            names = set(filenames)
            for name in filenames:
                stem, suffix = os.path.splitext(name)
                if suffix in (_SNAPSHOT, _BLOB):
                    members: Tuple[str, ...] = (name, stem + ".json")
                elif suffix == ".json" and not names.isdisjoint((stem + _SNAPSHOT, stem + _BLOB)):
                    continue  # counted with its payload
                elif suffix == ".tmp" or area == "traces":
                    continue  # exempt
                else:
                    members = (name,)  # an orphan
                paths = tuple(os.path.join(dirpath, member) for member in members)
                try:
                    mtime = os.path.getmtime(paths[0])
                    size = os.path.getsize(paths[0])
                except FileNotFoundError:
                    continue  # raced with a concurrent delete; skip
                for member in paths[1:]:
                    with contextlib.suppress(FileNotFoundError):
                        size += os.path.getsize(member)
                entries.append((mtime, size, paths))
        return entries

    def total_bytes(self) -> int:
        """Reclaimable bytes currently stored (quarantine excluded)."""
        return sum(size for _, size, _ in self._gc_entries())

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, Any]:
        """Evict least-recently-used artifacts until the store fits.

        Without a budget (``None`` or 0) nothing is evicted and the stats
        only report the store's size.  Reads touch mtimes, so "least
        recently used" tracks actual access, not just creation.  Returns a
        stats dict (``scanned_bytes`` / ``evicted`` / ``freed_bytes`` /
        ``remaining_bytes`` / ``max_bytes``).
        """
        with _span("store.gc"):
            return self._gc(max_bytes)

    def _gc(self, max_bytes: Optional[int]) -> Dict[str, Any]:
        max_bytes = int(max_bytes or 0)
        if max_bytes < 0:
            raise StoreError(f"gc budget must be >= 0 bytes, got {max_bytes}")
        entries = sorted(self._gc_entries(), key=lambda entry: (entry[0], entry[2]))
        total = sum(size for _, size, _ in entries)
        stats: Dict[str, Any] = {
            "scanned_bytes": total,
            "evicted": 0,
            "freed_bytes": 0,
            "remaining_bytes": total,
            "max_bytes": max_bytes,
        }
        if max_bytes == 0:
            return stats
        remaining = total
        for _, size, paths in entries:
            if remaining <= max_bytes:
                break
            _unlink(paths)
            remaining -= size
            stats["evicted"] += 1
            stats["freed_bytes"] += size
            metric_inc("store.evicted")
        stats["remaining_bytes"] = remaining
        return stats


def active_store() -> Optional[ArtifactStore]:
    """The ``REPRO_STORE_DIR`` store, or ``None`` when the variable is unset.

    The library's only read of the variable.  It is the store of a pipeline
    whose ``warm_start`` is unset, resolved in the process that builds the
    pipeline; pool workers get the resolved root with their trial instead.
    """
    root = repro_env.env_str(repro_env.STORE_DIR_ENV)  # repro: noqa[REP104] workers never take this branch: _execute_spec sets warm_start, so _resolve_store skips it
    if not root:
        return None
    return ArtifactStore(root)
