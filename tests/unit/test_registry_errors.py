"""Unit tests for model-registry edge cases and serialisation errors."""

import numpy as np
import pytest

from repro.ann import Dense, Sequential, StandardScaler, load_model, save_model
from repro.kafka import DeliverySemantics
from repro.models import ModelRegistry, ReliabilityPredictor
from repro.models.predictor import SubModel


def tiny_predictor():
    scaler = StandardScaler()
    scaler.fit(np.eye(2))
    predictor = ReliabilityPredictor()
    predictor.submodels[("normal", "at_least_once")] = SubModel(
        "normal", DeliverySemantics.AT_LEAST_ONCE, Sequential([Dense(2, 1)]), scaler
    )
    return predictor


class TestRegistryValidation:
    def test_invalid_name_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(ValueError):
            registry.save("", ReliabilityPredictor())
        with pytest.raises(ValueError):
            registry.save("a/b", ReliabilityPredictor())

    def test_untrained_predictor_not_saved(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(ValueError):
            registry.save("empty", ReliabilityPredictor())

    def test_list_models_on_missing_root(self, tmp_path):
        registry = ModelRegistry(tmp_path / "does-not-exist")
        assert registry.list_models() == []

    def test_delete_missing_model_is_noop(self, tmp_path):
        ModelRegistry(tmp_path).delete("ghost")

    def test_list_models_sorted_by_name(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        names = ["zeta", "beta", "omega", "alpha", "delta", "gamma"]
        predictor = tiny_predictor()
        for name in names:
            registry.save(name, predictor)
        assert registry.list_models() == sorted(names)

    def test_directories_without_manifest_ignored(self, tmp_path):
        (tmp_path / "stray").mkdir()
        assert ModelRegistry(tmp_path).list_models() == []

    def test_model_without_load_ratio_rejected_on_load(self, tmp_path):
        # Its input is one column narrower than every schema encodes.
        import json

        directory = tmp_path / "narrow"
        directory.mkdir()
        entry = {
            "region": "normal",
            "semantics": "at_least_once",
            "scaler": {},
            "physics_features": False,
        }
        (directory / "manifest.json").write_text(
            json.dumps({"normal__at_least_once": entry})
        )
        with pytest.raises(ValueError, match="load-ratio"):
            ModelRegistry(tmp_path).load("narrow")


class TestSerialisationErrors:
    def test_unknown_layer_type_rejected_on_save(self, tmp_path):
        class Custom(Dense):
            pass

        # A subclass is fine; a genuinely foreign layer is not.
        class Foreign:
            def parameters(self):
                return []

            def forward(self, x, training=False):
                return x

        model = Sequential([Foreign()])
        with pytest.raises(TypeError):
            save_model(model, tmp_path / "model")

    def test_bad_format_version_rejected(self, tmp_path):
        import json

        model = Sequential([Dense(2, 1)])
        save_model(model, tmp_path / "model")
        spec_path = tmp_path / "model" / "architecture.json"
        spec = json.loads(spec_path.read_text())
        spec["format_version"] = 999
        spec_path.write_text(json.dumps(spec, sort_keys=True))
        with pytest.raises(ValueError):
            load_model(tmp_path / "model")

    def test_missing_model_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope")
