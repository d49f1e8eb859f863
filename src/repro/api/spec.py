"""Serializable run specifications: experiments as declarative data.

Every trial of the paper is fully described by *what* to run — a dataset,
a model, a variant (the base model D or its R- version), a seed, the
training budgets, any R- hyper-parameter overrides and the tracking
callbacks.  :class:`RunSpec` captures exactly that and round-trips to and
from plain dicts / JSON, so a Table-1 cell, an ablation row or a tracked
dynamics run is a small JSON document instead of bespoke runner code::

    {"dataset": "cora_sim", "model": "gmm_vgae", "variant": "rethink",
     "seed": 0, "rethink": {"overrides": {"alpha1": 0.7}},
     "callbacks": ["dynamics", {"name": "graph_snapshots", "every": 20}]}

``repro-run spec.json`` (see :mod:`repro.api.cli`) executes such a file;
:meth:`repro.api.Pipeline.from_spec` consumes the same structure
programmatically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Union

from repro.errors import SpecError, UnknownVariantError

#: the two trial variants: the original model D and its R- version.
VARIANTS = ("base", "rethink")

#: retired RethinkConfig tracking switches and the callback spec that
#: replaces each; naming one as a rethink override is a SpecError.
RETIRED_OVERRIDES = {
    "track_fr": '{"name": "fr_fd", "track_fd": false}',
    "track_fd": '{"name": "fr_fd", "track_fr": false}',
    "track_dynamics": '"dynamics"',
    "snapshot_graph_every": '{"name": "graph_snapshots", "every": N}',
    "verbose": '"progress"',
}


def _check_unknown_keys(data: Dict[str, Any], allowed, what: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise SpecError(f"unknown {what} field(s): {', '.join(sorted(unknown))}")


def _coerce_int(value: Any, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise SpecError(f"{what} must be an integer, got {value!r}") from None


@dataclass
class DatasetSpec:
    """Which dataset to load (a name from the dataset registry)."""

    name: str
    seed: int = 0
    options: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Union[str, Dict[str, Any]]) -> "DatasetSpec":
        if isinstance(data, str):
            return cls(name=data)
        if not isinstance(data, dict):
            raise SpecError(f"dataset spec must be a name or a dict, got {data!r}")
        _check_unknown_keys(data, ("name", "seed", "options"), "dataset")
        if "name" not in data:
            raise SpecError("dataset spec requires a 'name'")
        return cls(
            name=str(data["name"]),
            seed=_coerce_int(data.get("seed", 0), "dataset seed"),
            options=dict(data.get("options", {})),
        )


@dataclass
class ModelSpec:
    """Which model to build (a name from the model registry) and its options."""

    name: str
    options: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Union[str, Dict[str, Any]]) -> "ModelSpec":
        if isinstance(data, str):
            return cls(name=data)
        if not isinstance(data, dict):
            raise SpecError(f"model spec must be a name or a dict, got {data!r}")
        _check_unknown_keys(data, ("name", "options"), "model")
        if "name" not in data:
            raise SpecError("model spec requires a 'name'")
        return cls(name=str(data["name"]), options=dict(data.get("options", {})))


@dataclass
class TrainingSpec:
    """Epoch budgets for the three training phases."""

    pretrain_epochs: int = 80
    clustering_epochs: int = 60
    rethink_epochs: int = 100

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrainingSpec":
        if not isinstance(data, dict):
            raise SpecError(f"training spec must be a dict, got {data!r}")
        allowed = [f.name for f in fields(cls)]
        _check_unknown_keys(data, allowed, "training")
        return cls(**{key: _coerce_int(value, key) for key, value in data.items()})

    @classmethod
    def from_experiment_config(cls, config) -> "TrainingSpec":
        """Build from a legacy :class:`~repro.experiments.config.ExperimentConfig`."""
        return cls(
            pretrain_epochs=config.pretrain_epochs,
            clustering_epochs=config.clustering_epochs,
            rethink_epochs=config.rethink_epochs,
        )


@dataclass
class RethinkSpec:
    """How to configure the R- phase.

    With ``use_paper_hyperparameters=True`` the (α1, M1, M2) values come
    from the Appendix-C tables for the (dataset, model) pair
    (:func:`repro.core.rethink.rethink_hyperparameters`);
    ``overrides`` then overlays any :class:`~repro.core.rethink.RethinkConfig`
    field on top.  Unknown override names are rejected at spec-parse time;
    the retired tracking switches name their replacement callback.
    """

    overrides: Dict[str, Any] = field(default_factory=dict)
    use_paper_hyperparameters: bool = True

    def __post_init__(self) -> None:
        from repro.core.rethink import RethinkConfig

        retired = [name for name in sorted(self.overrides) if name in RETIRED_OVERRIDES]
        if retired:
            replacements = "; ".join(f"{name} -> {RETIRED_OVERRIDES[name]}" for name in retired)
            raise SpecError(
                f"retired rethink override(s), list the callback(s) under "
                f"\"callbacks\" instead: {replacements}"
            )
        allowed = {f.name for f in fields(RethinkConfig)}
        _check_unknown_keys(self.overrides, allowed, "rethink override")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RethinkSpec":
        if not isinstance(data, dict):
            raise SpecError(f"rethink spec must be a dict, got {data!r}")
        _check_unknown_keys(data, ("overrides", "use_paper_hyperparameters"), "rethink")
        return cls(
            overrides=dict(data.get("overrides", {})),
            use_paper_hyperparameters=bool(data.get("use_paper_hyperparameters", True)),
        )


@dataclass
class RunSpec:
    """A complete, serializable description of one training trial.

    ``callbacks`` holds declarative callback specs — registered names or
    ``{"name": ..., **kwargs}`` dicts — resolved by
    :func:`repro.api.callbacks.resolve_callbacks` at run time, so even a
    fully tracked dynamics run stays JSON-representable.
    """

    dataset: DatasetSpec
    model: ModelSpec
    variant: str = "rethink"
    seed: int = 0
    training: TrainingSpec = field(default_factory=TrainingSpec)
    rethink: RethinkSpec = field(default_factory=RethinkSpec)
    callbacks: List[Union[str, Dict[str, Any]]] = field(default_factory=list)
    tags: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise UnknownVariantError(self.variant)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; ``RunSpec.from_dict`` inverts it exactly."""
        return {
            "dataset": self.dataset.to_dict(),
            "model": self.model.to_dict(),
            "variant": self.variant,
            "seed": self.seed,
            "training": self.training.to_dict(),
            "rethink": self.rethink.to_dict(),
            "callbacks": list(self.callbacks),
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        if not isinstance(data, dict):
            raise SpecError(f"run spec must be a dict, got {data!r}")
        allowed = [f.name for f in fields(cls)]
        _check_unknown_keys(data, allowed, "run spec")
        for required in ("dataset", "model"):
            if required not in data:
                raise SpecError(f"run spec requires a {required!r} entry")
        return cls(
            dataset=DatasetSpec.from_dict(data["dataset"]),
            model=ModelSpec.from_dict(data["model"]),
            variant=str(data.get("variant", "rethink")),
            seed=_coerce_int(data.get("seed", 0), "seed"),
            training=TrainingSpec.from_dict(data.get("training", {})),
            rethink=RethinkSpec.from_dict(data.get("rethink", {})),
            callbacks=list(data.get("callbacks", [])),
            tags=dict(data.get("tags", {})),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid JSON run spec: {error}") from None
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def replace(self, **changes) -> "RunSpec":
        """A copy with the given top-level fields replaced."""
        return replace(self, **changes)

    def store_key(self) -> str:
        """Stable artifact-store key of this trial.

        A SHA-256 over the canonical JSON form of the complete spec —
        dataset, model, variant, seed, budgets, overrides — so the same
        trial always maps to the same :class:`repro.store.ArtifactStore`
        entry, independent of dict ordering or process restarts.
        """
        from repro.store.keys import run_key

        return run_key(self.to_dict())

    def describe(self) -> str:
        """One-line human-readable summary of the trial."""
        prefix = "R-" if self.variant == "rethink" else ""
        return f"{prefix}{self.model.name.upper()} on {self.dataset.name} (seed {self.seed})"
