"""One generic registry protocol for models, datasets, baselines and callbacks.

Before this module existed the code base carried three slightly different
registries (``models.registry``, ``datasets.registry``, ``baselines.registry``),
each a bare dict plus bespoke lookup functions.  :class:`Registry` unifies
them: a named, ordered mapping from entry name to factory, with

* decorator-style registration (``@REGISTRY.register("name", group="second")``),
* per-entry metadata that is queryable (``REGISTRY.names(group="second")``),
* uniform error reporting (:class:`~repro.errors.UnknownEntryError`, a
  ``KeyError`` subclass listing the available names).

A registry is a :class:`~collections.abc.Mapping`: ``name in MODELS``,
``MODELS[name]`` and iteration work as on a plain dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from repro.errors import UnknownEntryError


@dataclass
class RegistryEntry:
    """A registered factory plus its discoverable metadata."""

    name: str
    factory: Callable[..., Any]
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def description(self) -> str:
        """Human-readable description (metadata override, else the docstring)."""
        explicit = self.metadata.get("description")
        if explicit:
            return str(explicit)
        doc = getattr(self.factory, "__doc__", None) or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""


class Registry(Mapping):
    """An ordered name → factory mapping with metadata and typed errors.

    Parameters
    ----------
    kind:
        What the registry holds ("model", "dataset", ...); used in error
        messages and introspection output.
    """

    def __init__(self, kind: str) -> None:
        self.kind = str(kind)
        self._entries: Dict[str, RegistryEntry] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: Optional[str] = None, **metadata) -> Callable:
        """Decorator registering a factory under ``name``.

        >>> MODELS = Registry("model")
        >>> @MODELS.register("gae", group="first")
        ... class GAE: ...

        Without an explicit name the factory's ``__name__`` (lower-cased)
        is used.
        """

        def decorator(factory: Callable) -> Callable:
            entry_name = name or factory.__name__.lower()
            self.add(entry_name, factory, **metadata)
            return factory

        return decorator

    def add(self, name: str, factory: Callable, **metadata) -> None:
        """Imperatively register ``factory`` under ``name``."""
        if name in self._entries:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = RegistryEntry(name=name, factory=factory, metadata=dict(metadata))

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly useful in tests)."""
        self.entry(name)
        del self._entries[name]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def entry(self, name: str) -> RegistryEntry:
        """Full :class:`RegistryEntry` for ``name`` (typed error if unknown)."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownEntryError(self.kind, name, self.names()) from None

    def get(self, name: str, default: Optional[Callable[..., Any]] = None):
        """The registered factory for ``name``, or ``default`` if unknown.

        Keeps :meth:`dict.get` semantics; use ``registry[name]`` or
        :meth:`entry` for a raising lookup.
        """
        try:
            return self.entry(name).factory
        except UnknownEntryError:
            return default

    def build(self, name: str, *args, **kwargs) -> Any:
        """Instantiate the entry: ``registry.build(name, ...)`` ≡ ``factory(...)``."""
        return self.entry(name).factory(*args, **kwargs)

    def metadata(self, name: str) -> Dict[str, Any]:
        """Copy of the metadata attached at registration time."""
        return dict(self.entry(name).metadata)

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def names(self, **metadata_filters) -> List[str]:
        """Registered names in registration order, optionally filtered.

        ``names(group="second")`` returns only entries whose metadata
        matches every given key/value pair.
        """
        if not metadata_filters:
            return list(self._entries)
        return [
            name
            for name, entry in self._entries.items()
            if all(entry.metadata.get(key) == value for key, value in metadata_filters.items())
        ]

    def describe(self) -> Dict[str, Dict[str, Any]]:
        """Metadata (plus description) of every entry, for introspection."""
        return {
            name: {"description": entry.description, **entry.metadata}
            for name, entry in self._entries.items()
        }

    # ------------------------------------------------------------------
    # Mapping protocol (legacy dict-style access)
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Callable[..., Any]:
        return self.entry(name).factory

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, entries={self.names()!r})"
