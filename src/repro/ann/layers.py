"""Composable layers: fully-connected with a fused activation."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .activations import Activation, get_activation
from .tensor import INITIALIZERS, Parameter

__all__ = ["Layer", "Dense"]


class Layer:
    """Base layer: forward caches whatever backward needs."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for a batch (rows = samples)."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate: accumulate parameter grads, return input grad."""
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        """Trainable parameters of this layer."""
        return []

    def release_training_state(self) -> None:
        """Drop everything only backward reads: gradients and caches."""
        for parameter in self.parameters():
            parameter.grad = None


class Dense(Layer):
    """Fully-connected layer ``y = act(x @ W + b)``.

    Parameters
    ----------
    in_features / out_features:
        Layer width.
    activation:
        Name or instance; ``"identity"`` gives a linear layer.
    rng:
        Generator used for weight initialisation (reproducibility).
    init:
        Initialiser name from :data:`~repro.ann.tensor.INITIALIZERS`;
        defaults to He for ReLU and Glorot otherwise.
    weight / bias:
        Saved values of shape ``(in_features, out_features)`` and
        ``(1, out_features)``; given ``weight``, nothing is drawn.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: "str | Activation" = "relu",
        rng: Optional[np.random.Generator] = None,
        init: Optional[str] = None,
        weight: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("layer widths must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.activation = get_activation(activation)
        if init is None:
            init = "he_normal" if self.activation.name == "relu" else "glorot_uniform"
        self.init_name = init
        if weight is None:
            rng = rng if rng is not None else np.random.default_rng()
            weight = INITIALIZERS[init](in_features, out_features, rng)
        if bias is None:
            bias = np.zeros((1, out_features))
        for name, value, shape in (
            ("weight", weight, (in_features, out_features)),
            ("bias", bias, (1, out_features)),
        ):
            if np.shape(value) != shape:
                raise ValueError(f"{name} has shape {np.shape(value)}, expected {shape}")
        self.weight = Parameter(weight, "W")
        self.bias = Parameter(bias, "b")
        self._x: Optional[np.ndarray] = None
        self._pre: Optional[np.ndarray] = None
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (n, {self.in_features}), got {x.shape}"
            )
        pre = x @ self.weight.value + self.bias.value
        out = self.activation.apply(pre)
        if training:
            self._x, self._pre, self._out = x, pre, out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        grad_pre = grad_output * self.activation.derivative(self._pre, self._out)
        self.weight.accumulate(self._x.T @ grad_pre)
        self.bias.accumulate(grad_pre.sum(axis=0, keepdims=True))
        return grad_pre @ self.weight.value.T

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def release_training_state(self) -> None:
        super().release_training_state()
        self._x = self._pre = self._out = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dense({self.in_features}→{self.out_features}, "
            f"{self.activation.name})"
        )
