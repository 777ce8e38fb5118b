"""Unit tests for ANN layers, activations, losses and optimisers."""

import numpy as np
import pytest

from repro.ann import (
    Adam,
    Dense,
    Identity,
    Momentum,
    MSELoss,
    Parameter,
    Relu,
    SGD,
    Sigmoid,
    get_activation,
    get_optimizer,
)


class TestActivations:
    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        assert np.array_equal(Relu().apply(x), [[0.0, 0.0, 2.0]])

    def test_relu_derivative(self):
        x = np.array([[-1.0, 0.5]])
        relu = Relu()
        y = relu.apply(x)
        assert np.array_equal(relu.derivative(x, y), [[0.0, 1.0]])

    def test_sigmoid_range_and_midpoint(self):
        sigmoid = Sigmoid()
        x = np.array([[-100.0, 0.0, 100.0]])
        y = sigmoid.apply(x)
        assert y[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert y[0, 1] == pytest.approx(0.5)
        assert y[0, 2] == pytest.approx(1.0, abs=1e-6)

    def test_sigmoid_numerically_stable(self):
        y = Sigmoid().apply(np.array([[-1000.0, 1000.0]]))
        assert np.all(np.isfinite(y))

    def test_identity_passthrough(self):
        x = np.array([[1.0, -2.0]])
        identity = Identity()
        assert np.array_equal(identity.apply(x), x)
        assert np.array_equal(identity.derivative(x, x), np.ones_like(x))

    def test_get_activation_by_name(self):
        assert isinstance(get_activation("relu"), Relu)
        with pytest.raises(ValueError):
            get_activation("softplus")


class TestDense:
    def test_forward_shape(self):
        layer = Dense(3, 4, "identity", rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((5, 3)))
        assert out.shape == (5, 4)

    def test_forward_rejects_wrong_width(self):
        layer = Dense(3, 4)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((5, 2)))

    def test_linear_layer_computes_affine(self):
        layer = Dense(2, 1, "identity", rng=np.random.default_rng(0))
        layer.weight.value = np.array([[2.0], [3.0]])
        layer.bias.value = np.array([[1.0]])
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert out[0, 0] == pytest.approx(6.0)

    def test_backward_requires_training_forward(self):
        layer = Dense(2, 2)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_backward_accumulates_gradients(self):
        layer = Dense(2, 1, "identity", rng=np.random.default_rng(0))
        x = np.array([[1.0, 2.0]])
        layer.forward(x, training=True)
        layer.backward(np.array([[1.0]]))
        assert np.array_equal(layer.weight.grad, x.T)
        assert layer.bias.grad[0, 0] == 1.0

    def test_width_validation(self):
        with pytest.raises(ValueError):
            Dense(0, 4)


class TestLosses:
    def test_mse_value_and_grad(self):
        loss = MSELoss()
        value, grad = loss.value_and_grad(np.array([[1.0]]), np.array([[0.0]]))
        assert value == pytest.approx(1.0)
        assert grad[0, 0] == pytest.approx(2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MSELoss().value_and_grad(np.zeros((2, 1)), np.zeros((3, 1)))


def quadratic_parameter():
    return Parameter(np.array([[4.0]]))


def minimise(optimizer, steps=200):
    """Minimise f(w) = w² with analytic gradient 2w."""
    parameter = quadratic_parameter()
    for _ in range(steps):
        parameter.grad = 2.0 * parameter.value
        optimizer.step([parameter])
    return abs(parameter.value[0, 0])


class TestOptimizers:
    def test_sgd_converges_on_quadratic(self):
        assert minimise(SGD(0.1)) < 1e-6

    def test_momentum_converges_on_quadratic(self):
        assert minimise(Momentum(0.05, 0.9)) < 1e-4

    def test_adam_converges_on_quadratic(self):
        assert minimise(Adam(0.1), steps=500) < 1e-3

    def test_step_zeroes_gradients(self):
        parameter = quadratic_parameter()
        parameter.grad = np.array([[1.0]])
        SGD(0.1).step([parameter])
        assert np.array_equal(parameter.grad, [[0.0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD(0.0)
        with pytest.raises(ValueError):
            Momentum(0.1, 1.0)
        with pytest.raises(ValueError):
            Adam(-0.1)

    def test_get_optimizer(self):
        assert isinstance(get_optimizer("adam"), Adam)
        with pytest.raises(ValueError):
            get_optimizer("lbfgs")
