"""Activation functions and their derivatives."""

from __future__ import annotations

import numpy as np

__all__ = ["Activation", "Relu", "Sigmoid", "Identity", "ACTIVATIONS", "get_activation"]


class Activation:
    """An elementwise nonlinearity ``f`` with derivative ``f'``.

    ``derivative`` receives the *output* of ``apply`` where that is cheaper
    (sigmoid), so subclasses document which of input/output they use.
    """

    name = "base"

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Compute ``f(x)``."""
        raise NotImplementedError

    def derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Compute ``f'`` given input ``x`` and cached output ``y``."""
        raise NotImplementedError


class Relu(Activation):
    """Rectified linear unit."""

    name = "relu"

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x > 0.0).astype(x.dtype)


class Sigmoid(Activation):
    """Logistic sigmoid; keeps regression outputs inside (0, 1)."""

    name = "sigmoid"

    def apply(self, x: np.ndarray) -> np.ndarray:
        # The numerically stable form: 1 / (1 + e^-x) for x >= 0 and
        # e^x / (1 + e^x) below.  exp(-|x|) (copysign gives -|x|) is
        # exactly the exponential each branch needs, so one exp serves
        # both and only the numerator differs.
        exp_x = np.exp(np.copysign(x, -1.0))
        return np.where(x >= 0, 1.0, exp_x) / (1.0 + exp_x)

    def derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y * (1.0 - y)


class Identity(Activation):
    """Linear pass-through (regression output layers)."""

    name = "identity"

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x

    def derivative(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.ones_like(x)


#: Name → activation registry (used by serialisation).
ACTIVATIONS = {cls.name: cls for cls in (Relu, Sigmoid, Identity)}


def get_activation(name: "str | Activation") -> Activation:
    """Resolve an activation by name or pass an instance through."""
    if isinstance(name, Activation):
        return name
    try:
        return ACTIVATIONS[name]()
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; expected one of {sorted(ACTIVATIONS)}"
        ) from None
