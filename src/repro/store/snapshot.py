"""Versioned serialization of trained-model state.

A :class:`Snapshot` captures everything needed to continue — or serve — a
model exactly where it stopped:

* the model's parameter ``state_dict`` plus its non-parameter
  ``extra_state`` (cluster moments, mixture parameters, DGAE's trainable
  centres, the RNG stream),
* optionally the driving optimizer's state (Adam moments and step count),
  so a resumed run takes bitwise-identical gradient steps,
* epoch counters and the training phase,
* the producing :class:`~repro.api.spec.RunSpec` as a plain dict, making
  every artifact self-describing,
* a schema-version field checked on load, so stale files fail with a clear
  :class:`~repro.errors.SnapshotSchemaError` instead of a silent misload.

Snapshots validate themselves against the model they are applied to
(:meth:`Snapshot.validate`) *before* mutating anything, raising
:class:`~repro.errors.SnapshotMismatchError` — this is what lets
:class:`~repro.api.Pipeline` fail fast on a wrong checkpoint instead of
mid-training.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import (
    ArtifactCorruptError,
    SnapshotMismatchError,
    SnapshotSchemaError,
)

#: bump when the payload layout changes incompatibly.
SCHEMA_VERSION = 1
#: magic tag identifying snapshot payloads on disk.
FORMAT_NAME = "repro.store/snapshot"


@dataclass
class Snapshot:
    """One frozen training state (see module docstring)."""

    model_class: str
    params: Dict[str, np.ndarray]
    extra: Dict[str, Any]
    config: Dict[str, Any]
    optimizer: Optional[Dict[str, Any]] = None
    epoch: int = 0
    phase: str = "pretrain"
    spec: Optional[Dict[str, Any]] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # capture / apply
    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        model: Any,
        optimizer: Any = None,
        spec: Optional[Dict[str, Any]] = None,
        epoch: int = 0,
        phase: str = "pretrain",
        metadata: Optional[Dict[str, Any]] = None,
    ) -> "Snapshot":
        """Freeze ``model`` (and optionally its optimizer) into a snapshot."""
        return cls(
            model_class=type(model).__name__,
            params={name: value.copy() for name, value in model.state_dict().items()},
            extra=model.extra_state(),
            config=model.config_signature(),
            optimizer=None if optimizer is None else optimizer.state_dict(),
            epoch=int(epoch),
            phase=str(phase),
            spec=None if spec is None else dict(spec),
            metadata=dict(metadata or {}),
        )

    def validate(self, model: Any) -> None:
        """Check the snapshot fits ``model`` without mutating anything.

        Raises :class:`SnapshotMismatchError` on a class mismatch, missing
        parameters, shape mismatches, or parameters the model cannot hold.
        Parameters that only materialise during clustering initialisation
        (declared in ``extra['trainable_extras']``, e.g. DGAE's centres)
        are allowed to be absent from a freshly built model.
        """
        if self.schema_version != SCHEMA_VERSION:
            raise SnapshotSchemaError(
                f"snapshot has schema version {self.schema_version}, "
                f"this build reads version {SCHEMA_VERSION}"
            )
        model_class = type(model).__name__
        if self.model_class != model_class:
            raise SnapshotMismatchError(
                f"snapshot was captured from {self.model_class}, "
                f"cannot apply to {model_class}"
            )
        named = model.named_parameters()
        missing = set(named) - set(self.params)
        if missing:
            raise SnapshotMismatchError(
                f"snapshot is missing parameters the model holds: {sorted(missing)}"
            )
        allowed_extras = set(self.extra.get("trainable_extras", []))
        unexpected = set(self.params) - set(named) - allowed_extras
        if unexpected:
            raise SnapshotMismatchError(
                f"snapshot holds parameters the model cannot load: {sorted(unexpected)}"
            )
        for name, param in named.items():
            value = np.asarray(self.params[name])
            if value.shape != param.data.shape:
                raise SnapshotMismatchError(
                    f"shape mismatch for parameter {name!r}: snapshot has "
                    f"{value.shape}, model expects {param.data.shape}"
                )

    def apply(self, model: Any, optimizer: Any = None) -> Any:
        """Restore this snapshot into ``model`` (and ``optimizer``, if given).

        Validation runs first, so a mismatched snapshot raises without
        touching the model.  The model's RNG stream is restored too, so
        continued training is bitwise identical to an uninterrupted run.
        """
        self.validate(model)
        if optimizer is not None and self.optimizer is None:
            raise SnapshotMismatchError(
                "snapshot holds no optimizer state; capture with "
                "Snapshot.capture(model, optimizer=...) to support resuming"
            )
        model.load_extra_state(self.extra)
        model.load_state_dict(self.params)
        if optimizer is not None:
            try:
                optimizer.load_state_dict(self.optimizer)
            except ValueError as error:
                raise SnapshotMismatchError(
                    f"snapshot optimizer state does not fit: {error}"
                ) from error
        return model

    # ------------------------------------------------------------------
    # on-disk format
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """The dict actually pickled to disk (format tag + schema version)."""
        return {
            "format": FORMAT_NAME,
            "schema_version": self.schema_version,
            "model_class": self.model_class,
            "params": self.params,
            "extra": self.extra,
            "config": self.config,
            "optimizer": self.optimizer,
            "epoch": self.epoch,
            "phase": self.phase,
            "spec": self.spec,
            "metadata": self.metadata,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "Snapshot":
        if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
            raise SnapshotSchemaError(
                "not a repro snapshot payload (missing the "
                f"{FORMAT_NAME!r} format tag)"
            )
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SnapshotSchemaError(
                f"snapshot has schema version {version!r}, "
                f"this build reads version {SCHEMA_VERSION}"
            )
        return cls(
            model_class=payload["model_class"],
            params=payload["params"],
            extra=payload["extra"],
            config=payload["config"],
            optimizer=payload.get("optimizer"),
            epoch=int(payload.get("epoch", 0)),
            phase=str(payload.get("phase", "pretrain")),
            spec=payload.get("spec"),
            metadata=dict(payload.get("metadata", {})),
            schema_version=version,
        )

    def to_bytes(self) -> bytes:
        """The pickled :meth:`to_payload` dict (the inverse of :meth:`from_bytes`)."""
        return pickle.dumps(self.to_payload(), protocol=pickle.HIGHEST_PROTOCOL)

    def save(self, path: str) -> str:
        """Write the snapshot to ``path`` atomically, through the store's writer."""
        from repro.store.store import _write_atomic  # store.py imports this module

        _write_atomic(path, self.to_bytes())
        return path

    @classmethod
    def from_bytes(cls, data: bytes, path: str = "<bytes>") -> "Snapshot":
        """Decode snapshot bytes; corruption and schema drift raise typed.

        Pickle-level failures (truncation, garbage, torn writes) raise
        :class:`~repro.errors.ArtifactCorruptError` carrying ``path``; a
        payload that unpickles fine but is not a supported snapshot (wrong
        format tag, stale schema version) raises
        :class:`SnapshotSchemaError` — schema drift is a versioning
        problem, not file damage, so it is never quarantined.
        """
        try:
            payload = pickle.loads(data)
        except (
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ValueError,
            IndexError,
        ) as error:
            raise ArtifactCorruptError(
                path, f"snapshot cannot be unpickled: {error}"
            ) from error
        return cls.from_payload(payload)

    @classmethod
    def load(cls, path: str) -> "Snapshot":
        """Read a snapshot written by :meth:`save` (see :meth:`from_bytes`)."""
        with open(path, "rb") as stream:
            data = stream.read()
        return cls.from_bytes(data, path)
