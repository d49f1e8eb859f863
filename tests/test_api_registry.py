"""Tests for the generic Registry protocol and the unified registries."""

from __future__ import annotations

import pytest

from repro.api import Registry, UnknownEntryError
from repro.baselines.registry import BASELINES
from repro.datasets.registry import DATASETS
from repro.models.registry import MODELS


class TestGenericRegistry:
    def test_register_decorator_and_build(self):
        registry = Registry("widget")

        @registry.register("alpha", colour="red")
        def make_alpha(size=1):
            return ("alpha", size)

        assert registry.build("alpha", size=3) == ("alpha", 3)
        assert registry.metadata("alpha") == {"colour": "red"}

    def test_register_uses_factory_name_by_default(self):
        registry = Registry("widget")

        @registry.register()
        def beta():
            return "b"

        assert "beta" in registry

    def test_duplicate_registration_rejected(self):
        registry = Registry("widget")
        registry.add("alpha", lambda: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.add("alpha", lambda: None)

    def test_unknown_entry_is_typed_keyerror(self):
        registry = Registry("widget")
        registry.add("alpha", lambda: None)
        with pytest.raises(UnknownEntryError) as excinfo:
            registry["gamma"]
        assert isinstance(excinfo.value, KeyError)
        assert "gamma" in str(excinfo.value)
        assert "alpha" in str(excinfo.value)

    def test_get_keeps_dict_semantics(self):
        registry = Registry("widget")
        factory = lambda: None  # noqa: E731
        registry.add("alpha", factory)
        assert registry.get("alpha") is factory
        assert registry.get("gamma") is None
        assert registry.get("gamma", factory) is factory

    def test_metadata_filtering_preserves_registration_order(self):
        registry = Registry("widget")
        registry.add("a", lambda: None, kind="x")
        registry.add("b", lambda: None, kind="y")
        registry.add("c", lambda: None, kind="x")
        assert registry.names(kind="x") == ["a", "c"]
        assert registry.names() == ["a", "b", "c"]

    def test_mapping_protocol(self):
        registry = Registry("widget")
        factory = lambda: None  # noqa: E731
        registry.add("alpha", factory)
        assert "alpha" in registry
        assert registry["alpha"] is factory
        assert list(registry) == ["alpha"]
        assert len(registry) == 1

    def test_describe_uses_docstring_fallback(self):
        registry = Registry("widget")

        @registry.register("alpha")
        def make_alpha():
            """First line wins.

            Not this one.
            """

        assert registry.describe()["alpha"]["description"] == "First line wins."

    def test_unregister(self):
        registry = Registry("widget")
        registry.add("alpha", lambda: None)
        registry.unregister("alpha")
        assert "alpha" not in registry
        with pytest.raises(UnknownEntryError):
            registry.unregister("alpha")


class TestUnifiedRegistries:
    def test_models_registry_groups(self):
        assert MODELS.names(group="first") == ["gae", "vgae", "argae", "arvgae"]
        assert MODELS.names(group="second") == ["dgae", "gmm_vgae"]

    def test_datasets_registry_families(self):
        assert DATASETS.names(family="citation") == [
            "cora_sim",
            "citeseer_sim",
            "pubmed_sim",
        ]
        assert len(DATASETS.names(family="air_traffic")) == 3

    def test_dataset_metadata_names_surrogate(self):
        assert DATASETS.metadata("cora_sim")["surrogate_of"] == "Cora"

    def test_baselines_registry(self):
        assert set(BASELINES.names()) == {"tadw", "mgae", "agc", "age"}

    def test_registries_are_mappings(self):
        assert "gae" in MODELS
        assert callable(DATASETS["cora_sim"])
        assert len(BASELINES) == 4
