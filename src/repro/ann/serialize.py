"""Model persistence: architecture as JSON, weights as ``.npz``.

A saved model is a directory with ``architecture.json`` and
``weights.npz`` so trained predictors can be reused across experiment
sessions (the model registry builds on this).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import numpy as np

from .layers import Dense
from .network import Sequential

__all__ = ["save_model", "load_model"]

_FORMAT_VERSION = 1


def save_model(model: Sequential, directory: "str | Path") -> Path:
    """Write ``model`` under ``directory`` (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    architecture = []
    weights: Dict[str, np.ndarray] = {}
    for index, layer in enumerate(model.layers):
        if not isinstance(layer, Dense):
            raise TypeError(f"cannot serialise layer type {type(layer).__name__}")
        architecture.append(
            {
                "type": "dense",
                "in_features": layer.in_features,
                "out_features": layer.out_features,
                "activation": layer.activation.name,
                "init": layer.init_name,
            }
        )
        weights[f"layer{index}_weight"] = layer.weight.value
        weights[f"layer{index}_bias"] = layer.bias.value
    spec = {"format_version": _FORMAT_VERSION, "layers": architecture}
    (directory / "architecture.json").write_text(
        json.dumps(spec, indent=2, sort_keys=True)
    )
    np.savez(directory / "weights.npz", **weights)
    return directory


def load_model(directory: "str | Path") -> Sequential:
    """Rebuild a model saved with :func:`save_model` from its saved arrays.

    Raises ``ValueError`` when a saved weight or bias does not have the
    shape ``architecture.json`` gives its layer.
    """
    directory = Path(directory)
    spec = json.loads((directory / "architecture.json").read_text())
    if spec.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {spec.get('format_version')}")
    layers = []
    with np.load(directory / "weights.npz") as weights:
        for index, layer_spec in enumerate(spec["layers"]):
            if layer_spec["type"] != "dense":
                raise ValueError(f"unknown layer type {layer_spec['type']!r}")
            layers.append(
                Dense(
                    layer_spec["in_features"],
                    layer_spec["out_features"],
                    layer_spec["activation"],
                    init=layer_spec["init"],
                    weight=weights[f"layer{index}_weight"],
                    bias=weights[f"layer{index}_bias"],
                )
            )
    return Sequential(layers)
