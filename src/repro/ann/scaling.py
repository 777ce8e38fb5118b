"""Feature scalers.

The paper's features span wildly different ranges (bytes vs probabilities
vs seconds); training a sigmoid-output MLP with learning rate 0.5 only
converges with standardised inputs, so scalers are part of the framework.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["StandardScaler"]


class StandardScaler:
    """Zero-mean, unit-variance scaling per feature column."""

    def __init__(self) -> None:
        self.mean_: "np.ndarray | None" = None
        self.scale_: "np.ndarray | None" = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        """Learn column means and standard deviations."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("expected a 2-D array")
        self.mean_ = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0.0] = 1.0  # constant columns pass through centred
        self.scale_ = scale
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the learned scaling."""
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        # Divided in place: the difference is a new array either way.
        scaled = np.asarray(x, dtype=np.float64) - self.mean_
        scaled /= self.scale_
        return scaled

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Fit then transform in one call."""
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        """Undo the scaling."""
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        return np.asarray(x, dtype=np.float64) * self.scale_ + self.mean_

    def to_dict(self) -> Dict:
        """Serialisable state."""
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        return {"mean": self.mean_.tolist(), "scale": self.scale_.tolist()}

    @classmethod
    def from_dict(cls, state: Dict) -> "StandardScaler":
        """Rebuild from :meth:`to_dict` output."""
        scaler = cls()
        scaler.mean_ = np.asarray(state["mean"], dtype=np.float64)
        scaler.scale_ = np.asarray(state["scale"], dtype=np.float64)
        return scaler

