"""The training loss with its analytic gradient."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["MSELoss"]


class MSELoss:
    """Mean squared error — the training objective."""

    def value_and_grad(
        self, predicted: np.ndarray, target: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Return ``(loss, d loss / d predicted)`` averaged over samples."""
        predicted = np.asarray(predicted, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if predicted.shape != target.shape:
            raise ValueError(f"shape mismatch: {predicted.shape} vs {target.shape}")
        diff = predicted - target
        n = predicted.shape[0]
        return float(np.mean(diff**2)), (2.0 / (n * predicted.shape[1])) * diff
