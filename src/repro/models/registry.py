"""Persisted-predictor registry.

A trained :class:`~repro.models.predictor.ReliabilityPredictor` is a set
of submodels; the registry lays them out on disk so benches and the
dynamic-configuration controller can reuse a model trained in an earlier
session instead of re-collecting data.

Layout::

    <root>/<name>/
      manifest.json            # submodel keys and scaler states
      <region>__<semantics>/   # one ANN per submodel (architecture + weights)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from ..ann.scaling import StandardScaler
from ..ann.serialize import load_model, save_model
from ..kafka.semantics import DeliverySemantics
from .predictor import ReliabilityPredictor, SubModel

__all__ = ["ModelRegistry"]

_MANIFEST = "manifest.json"


class ModelRegistry:
    """Saves and loads named predictors under a root directory."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)

    def _model_dir(self, name: str) -> Path:
        if not name or "/" in name:
            raise ValueError(f"invalid model name {name!r}")
        return self.root / name

    def list_models(self) -> List[str]:
        """Names of models currently stored."""
        if not self.root.exists():
            return []
        return sorted(
            path.name
            for path in self.root.iterdir()
            if (path / _MANIFEST).exists()
        )

    def save(self, name: str, predictor: ReliabilityPredictor) -> Path:
        """Persist ``predictor`` as ``name`` (overwrites)."""
        if not predictor.submodels:
            raise ValueError("refusing to save an untrained predictor")
        directory = self._model_dir(name)
        directory.mkdir(parents=True, exist_ok=True)
        manifest: Dict[str, Dict] = {}
        for (region, semantics), submodel in predictor.submodels.items():
            key = f"{region}__{semantics}"
            save_model(submodel.network, directory / key)
            manifest[key] = {
                "region": region,
                "semantics": semantics,
                "scaler": submodel.scaler.to_dict(),
            }
        (directory / _MANIFEST).write_text(
            json.dumps(manifest, indent=2, sort_keys=True)
        )
        return directory

    def load(self, name: str) -> ReliabilityPredictor:
        """Load the predictor stored as ``name``."""
        directory = self._model_dir(name)
        manifest_path = directory / _MANIFEST
        if not manifest_path.exists():
            raise FileNotFoundError(f"no model named {name!r} under {self.root}")
        manifest = json.loads(manifest_path.read_text())
        predictor = ReliabilityPredictor()
        for key, entry in manifest.items():
            if not entry.get("physics_features", True):
                # Every schema appends the load-ratio column, so a model
                # trained without it takes a narrower input.
                raise ValueError(
                    f"submodel {key!r} of {name!r} was trained without the "
                    "load-ratio feature, which this version always encodes"
                )
            network = load_model(directory / key)
            submodel = SubModel(
                region=entry["region"],
                semantics=DeliverySemantics.parse(entry["semantics"]),
                network=network,
                scaler=StandardScaler.from_dict(entry["scaler"]),
            )
            predictor.submodels[(entry["region"], entry["semantics"])] = submodel
        return predictor

    def delete(self, name: str) -> None:
        """Remove a stored model."""
        import shutil

        directory = self._model_dir(name)
        if directory.exists():
            shutil.rmtree(directory)
