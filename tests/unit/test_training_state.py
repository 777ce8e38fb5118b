"""A trained or loaded predictor holds its weights and nothing else.

Gradient buffers and ``Dense``'s cached activations exist only while
``Sequential.fit`` runs; a predictor kept beside the producer must not
carry them, and neither may one rebuilt from the registry.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.ann import PAPER_HIDDEN_LAYERS, SGD, Dense, Sequential
from repro.models import ModelRegistry, TrainingSettings, train_reliability_model
from repro.testbed import ExperimentResult

#: Region × semantics groups; each gets its own paper-sized submodel.
GROUPS = [
    (0.0, 0.0, "at_least_once"),
    (0.0, 0.0, "at_most_once"),
    (0.1, 0.1, "at_least_once"),
    (0.1, 0.1, "at_most_once"),
]


def rows(per_group=30, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for delay, loss, semantics in GROUPS:
        for _ in range(per_group):
            batch = int(rng.choice([1, 2, 4, 8]))
            out.append(
                ExperimentResult(
                    message_bytes=int(rng.choice([100, 400, 800])),
                    timeliness_s=None,
                    network_delay_s=delay,
                    loss_rate=loss,
                    semantics=semantics,
                    batch_size=batch,
                    polling_interval_s=0.0,
                    message_timeout_s=1.5,
                    produced=1000,
                    p_loss=float(rng.uniform(0.0, 0.2)) / batch,
                    p_duplicate=0.01 / batch,
                )
            )
    return out


def train(data, hidden=PAPER_HIDDEN_LAYERS):
    settings = TrainingSettings(hidden=hidden, epochs=2, patience=None)
    return train_reliability_model(results=data, settings=settings).predictor


def assert_weights_only(predictor):
    assert len(predictor.submodels) == len(GROUPS)
    for submodel in predictor.submodels.values():
        for layer in submodel.network.layers:
            assert isinstance(layer, Dense)
            assert layer._x is None and layer._pre is None and layer._out is None
        for parameter in submodel.network.parameters():
            assert parameter.grad is None


def test_trained_and_reloaded_predictors_hold_no_training_state(tmp_path):
    predictor = train(rows(), hidden=(16, 8))
    assert_weights_only(predictor)
    registry = ModelRegistry(tmp_path)
    registry.save("weights-only", predictor)
    assert_weights_only(registry.load("weights-only"))


def test_early_stopping_exit_releases_training_state():
    rng = np.random.default_rng(1)
    network = Sequential([Dense(3, 4, "relu", rng), Dense(4, 1, "sigmoid", rng)])
    x, y = rng.normal(size=(20, 3)), rng.uniform(size=(20, 1))
    # A step too small to move any weight: the validation loss never
    # improves after the first epoch, so patience 0 stops at the second.
    history = network.fit(
        x, y, epochs=50, optimizer=SGD(1e-300), validation=(x, y), patience=0
    )
    assert history.stopped_early and history.epochs_run == 2
    for layer in network.layers:
        assert layer._x is None and layer._pre is None and layer._out is None
    assert all(parameter.grad is None for parameter in network.parameters())


def test_trained_predictor_retains_about_its_weight_bytes():
    data = rows()
    train(data, hidden=(4,))  # warm every lazy import and cache first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        predictor = train(data)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    weight_bytes = sum(
        parameter.value.nbytes
        for submodel in predictor.submodels.values()
        for parameter in submodel.network.parameters()
    )
    assert weight_bytes > 2_000_000  # four paper-sized submodels
    assert retained <= 1.1 * weight_bytes, (
        f"a trained predictor retains {retained} B for {weight_bytes} B of weights"
    )
