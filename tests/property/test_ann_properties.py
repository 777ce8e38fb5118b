"""Property-based tests on the ANN framework.

The headline property is the finite-difference gradient check: for random
small networks and random inputs, backpropagated gradients must match
numerical derivatives of the loss.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import Dense, MSELoss, Sequential, StandardScaler


def numerical_gradient(network, loss, x, y, parameter, index, epsilon=1e-6):
    original = parameter.value.flat[index]
    parameter.value.flat[index] = original + epsilon
    up, _ = loss.value_and_grad(network.forward(x), y)
    parameter.value.flat[index] = original - epsilon
    down, _ = loss.value_and_grad(network.forward(x), y)
    parameter.value.flat[index] = original
    return (up - down) / (2 * epsilon)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    batch=st.integers(min_value=1, max_value=4),
    hidden=st.integers(min_value=2, max_value=6),
    activation=st.sampled_from(["sigmoid", "identity"]),
)
@settings(max_examples=25, deadline=None)
def test_backprop_matches_finite_differences(seed, batch, hidden, activation):
    rng = np.random.default_rng(seed)
    network = Sequential([
        Dense(3, hidden, activation, rng),
        Dense(hidden, 2, "identity", rng),
    ])
    loss = MSELoss()
    x = rng.normal(size=(batch, 3))
    y = rng.normal(size=(batch, 2))
    predicted = network.forward(x, training=True)
    _, grad = loss.value_and_grad(predicted, y)
    network.backward(grad)
    for parameter in network.parameters():
        flat_size = parameter.value.size
        for index in rng.choice(flat_size, size=min(3, flat_size), replace=False):
            numeric = numerical_gradient(network, loss, x, y, parameter, index)
            analytic = parameter.grad.flat[index]
            assert abs(numeric - analytic) < 1e-4 * max(1.0, abs(numeric))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rows=st.integers(min_value=2, max_value=40),
    cols=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=30)
def test_standard_scaler_round_trip(seed, rows, cols):
    x = np.random.default_rng(seed).normal(3.0, 10.0, size=(rows, cols))
    scaler = StandardScaler().fit(x)
    assert np.allclose(scaler.inverse_transform(scaler.transform(x)), x, atol=1e-9)


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_training_never_produces_nan(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(32, 3))
    y = rng.uniform(0, 1, size=(32, 1))
    network = Sequential([
        Dense(3, 8, "relu", rng),
        Dense(8, 1, "sigmoid", rng),
    ])
    network.fit(x, y, epochs=10, batch_size=8, rng=rng)
    assert np.all(np.isfinite(network.predict(x)))
