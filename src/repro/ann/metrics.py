"""Regression evaluation metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["mae"]


def mae(predicted: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error — the paper reports MAE < 0.02."""
    predicted = np.asarray(predicted, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if predicted.shape != target.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {target.shape}")
    return float(np.mean(np.abs(predicted - target)))
