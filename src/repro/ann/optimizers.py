"""First-order optimisers.

The paper trains with plain stochastic gradient descent ("SGD fits our
case well and avoids over-fitting or corner cases such that the predicted
probabilities become negative"); Momentum and Adam are provided for the
ablation benchmark that revisits that claim.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .tensor import Parameter

__all__ = ["Optimizer", "SGD", "Momentum", "Adam", "get_optimizer"]


class Optimizer:
    """Updates parameters in place from their accumulated gradients.

    A parameter without a gradient buffer has accumulated nothing and is
    left as it is.
    """

    def step(self, parameters: List[Parameter]) -> None:
        """Apply one update and zero the gradients."""
        raise NotImplementedError

    @staticmethod
    def _finish(parameters: List[Parameter]) -> None:
        for parameter in parameters:
            parameter.zero_grad()


class SGD(Optimizer):
    """Plain stochastic gradient descent (the paper's optimiser, lr 0.5)."""

    def __init__(self, learning_rate: float = 0.5) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)

    def step(self, parameters: List[Parameter]) -> None:
        for parameter in parameters:
            grad = parameter.grad
            if grad is None:
                continue
            parameter.value -= self.learning_rate * grad
        self._finish(parameters)


class Momentum(Optimizer):
    """SGD with classical momentum."""

    def __init__(self, learning_rate: float = 0.1, momentum: float = 0.9) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self, parameters: List[Parameter]) -> None:
        for parameter in parameters:
            grad = parameter.grad
            if grad is None:
                continue
            velocity = self._velocity.get(id(parameter))
            if velocity is None:
                velocity = np.zeros_like(parameter.value)
                self._velocity[id(parameter)] = velocity
            velocity *= self.momentum
            velocity -= self.learning_rate * grad
            parameter.value += velocity
        self._finish(parameters)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015)."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self, parameters: List[Parameter]) -> None:
        self._t += 1
        for parameter in parameters:
            grad = parameter.grad
            if grad is None:
                continue
            key = id(parameter)
            if key not in self._m:
                self._m[key] = np.zeros_like(parameter.value)
                self._v[key] = np.zeros_like(parameter.value)
            m, v = self._m[key], self._v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / (1.0 - self.beta1**self._t)
            v_hat = v / (1.0 - self.beta2**self._t)
            parameter.value -= (
                self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
            )
        self._finish(parameters)


def get_optimizer(name: "str | Optimizer", **kwargs: float) -> Optimizer:
    """Resolve an optimiser by name or pass an instance through."""
    if isinstance(name, Optimizer):
        return name
    registry = {"sgd": SGD, "momentum": Momentum, "adam": Adam}
    try:
        return registry[name](**kwargs)
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; expected one of {sorted(registry)}"
        ) from None
