"""Unit tests for the sequential network, scaling, metrics and persistence."""

import numpy as np
import pytest

from repro.ann import (
    PAPER_HIDDEN_LAYERS,
    SGD,
    Sequential,
    StandardScaler,
    build_mlp,
    load_model,
    mae,
    save_model,
)


class TestBuildMlp:
    def test_paper_topology(self):
        net = build_mlp(6, 2)
        widths = [(l.in_features, l.out_features) for l in net.layers]
        assert widths == [(6, 200), (200, 200), (200, 200), (200, 64), (64, 2)]
        assert PAPER_HIDDEN_LAYERS == (200, 200, 200, 64)

    def test_sigmoid_output_bounds_predictions(self):
        net = build_mlp(3, 2, hidden=(8,), seed=1)
        out = net.predict(np.random.default_rng(0).normal(size=(20, 3)) * 100)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_seed_reproducibility(self):
        a = build_mlp(3, 1, hidden=(8,), seed=5)
        b = build_mlp(3, 1, hidden=(8,), seed=5)
        x = np.ones((2, 3))
        assert np.array_equal(a.predict(x), b.predict(x))

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            build_mlp(0, 1)


class TestFit:
    def test_learns_linear_function(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(300, 2))
        y = (0.25 + 0.25 * x[:, 0] - 0.25 * x[:, 1])[:, None]
        net = build_mlp(2, 1, hidden=(16,), seed=0)
        net.fit(x, y, epochs=200, optimizer=SGD(0.5), rng=rng)
        assert mae(net.predict(x), y) < 0.03

    def test_history_records_epochs(self):
        x = np.zeros((10, 1))
        y = np.full((10, 1), 0.5)
        net = build_mlp(1, 1, hidden=(4,))
        history = net.fit(x, y, epochs=5)
        assert history.epochs_run == 5
        assert len(history.train_loss) == 5

    def test_early_stopping_with_patience(self):
        x = np.zeros((20, 1))
        y = np.full((20, 1), 0.5)
        net = build_mlp(1, 1, hidden=(4,))
        history = net.fit(
            x, y, epochs=500, validation=(x, y), patience=3
        )
        assert history.stopped_early
        assert history.epochs_run < 500

    def test_patience_requires_validation(self):
        net = build_mlp(1, 1, hidden=(4,))
        with pytest.raises(ValueError):
            net.fit(np.zeros((5, 1)), np.zeros((5, 1)), patience=3)

    def test_shape_validation(self):
        net = build_mlp(2, 1, hidden=(4,))
        with pytest.raises(ValueError):
            net.fit(np.zeros((5, 2)), np.zeros((4, 1)))

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_non_positive_batch_size_rejected(self, batch_size):
        net = build_mlp(1, 1, hidden=(4,))
        before = [parameter.value.copy() for parameter in net.parameters()]
        with pytest.raises(ValueError, match="batch_size"):
            net.fit(np.zeros((5, 1)), np.zeros((5, 1)), epochs=2, batch_size=batch_size)
        assert all(
            np.array_equal(parameter.value, old)
            for parameter, old in zip(net.parameters(), before)
        )

    def test_evaluate_returns_loss(self):
        net = build_mlp(1, 1, hidden=(4,))
        value = net.evaluate(np.zeros((5, 1)), np.full((5, 1), 0.5))
        assert value >= 0.0


class TestScalers:
    def test_standard_scaler_zero_mean_unit_std(self):
        x = np.random.default_rng(0).normal(5.0, 3.0, size=(500, 2))
        scaled = StandardScaler().fit_transform(x)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_standard_scaler_round_trip(self):
        x = np.random.default_rng(1).normal(size=(20, 3))
        scaler = StandardScaler().fit(x)
        assert np.allclose(scaler.inverse_transform(scaler.transform(x)), x)

    def test_standard_scaler_constant_column(self):
        x = np.ones((10, 1))
        scaled = StandardScaler().fit_transform(x)
        assert np.allclose(scaled, 0.0)

    def test_scaler_dict_round_trip(self):
        x = np.random.default_rng(3).normal(size=(10, 2))
        scaler = StandardScaler().fit(x)
        restored = StandardScaler.from_dict(scaler.to_dict())
        assert np.allclose(restored.transform(x), scaler.transform(x))

    def test_unfitted_scaler_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((1, 1)))


class TestMetrics:
    def test_mae_rmse_max_error(self):
        predicted = np.array([[1.0], [3.0]])
        target = np.array([[0.0], [0.0]])
        assert mae(predicted, target) == pytest.approx(2.0)


class TestSerialisation:
    def test_round_trip_preserves_predictions(self, tmp_path, monkeypatch):
        net = build_mlp(3, 2, hidden=(8, 4), seed=9)
        x = np.random.default_rng(0).normal(size=(5, 3))
        save_model(net, tmp_path / "model")

        def no_draw(*args, **kwargs):
            raise AssertionError("the loader drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        restored = load_model(tmp_path / "model")
        for saved, loaded in zip(net.layers, restored.layers):
            assert loaded.weight.value.tobytes() == saved.weight.value.tobytes()
            assert loaded.bias.value.tobytes() == saved.bias.value.tobytes()
        assert restored.predict(x).tobytes() == net.predict(x).tobytes()

    def test_architecture_preserved(self, tmp_path):
        net = build_mlp(3, 1, hidden=(8,), seed=0)
        save_model(net, tmp_path / "model")
        restored = load_model(tmp_path / "model")
        assert [layer.activation.name for layer in restored.layers] == ["relu", "sigmoid"]

    @pytest.mark.parametrize(
        "name, tamper",
        [
            ("layer0_weight", np.transpose),
            ("layer1_bias", lambda bias: np.zeros(5)),
            # A (1,) bias would broadcast silently at predict time.
            ("layer2_bias", lambda bias: bias.reshape(-1)[:1]),
        ],
        ids=["transposed-weight", "five-element-bias", "flat-bias"],
    )
    def test_tampered_weights_rejected(self, tmp_path, name, tamper):
        directory = save_model(build_mlp(3, 2, hidden=(8, 4), seed=9), tmp_path / "m")
        with np.load(directory / "weights.npz") as saved:
            arrays = dict(saved)
        arrays[name] = tamper(arrays[name])
        np.savez(directory / "weights.npz", **arrays)
        with pytest.raises(ValueError, match=name.split("_")[1]):
            load_model(directory)

    def test_sequential_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential([])
