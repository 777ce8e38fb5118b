"""Parameters and weight initialisers for the numpy ANN framework.

Only numpy is available offline, so the paper's TensorFlow model is
re-implemented from scratch; a :class:`Parameter` couples a value array
with its gradient accumulator, and the initialisers cover the standard
fan-based schemes used for small fully-connected regression networks.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["Parameter", "aligned", "glorot_uniform", "he_normal", "zeros_init", "INITIALIZERS"]

#: Byte boundary every parameter array starts on: one cache line, and the
#: widest vector load of the BLAS kernels.
ALIGNMENT = 64


def aligned(values: np.ndarray) -> np.ndarray:
    """A C-contiguous float64 copy of ``values`` starting on an
    :data:`ALIGNMENT`-byte boundary.

    numpy only promises 16 bytes, and the per-row GEMVs of
    :meth:`~repro.ann.network.Sequential.predict_rowwise` run about a
    quarter faster on weights that start on a cache line, so where the
    allocator happens to put a weight matrix would otherwise move the
    decision latency.  The copy is a view into an over-allocated byte
    buffer, which it keeps alive.  The values are copied exactly.
    """
    source = np.asarray(values, dtype=np.float64)
    buffer = np.empty(source.nbytes + ALIGNMENT, dtype=np.uint8)
    start = -buffer.ctypes.data % ALIGNMENT
    out = buffer[start : start + source.nbytes].view(np.float64).reshape(source.shape)
    out[...] = source
    return out


class Parameter:
    """A trainable array with a gradient buffer that exists only while
    something accumulates into it.

    ``value`` is a 64-byte-aligned copy (:func:`aligned`); training and
    the optimisers write into it in place, so it stays aligned.

    ``grad`` is ``None`` until the first :meth:`accumulate`, and training
    resets it to ``None`` when it ends, so a trained or loaded network
    holds its weights and nothing else.
    """

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "") -> None:
        self.value = aligned(value)
        self.grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.value.shape

    def accumulate(self, gradient: np.ndarray) -> None:
        """Add ``gradient`` into the buffer, allocating it zeroed first.

        Zeros then ``+=`` (not a plain assignment) keeps the accumulated
        bits those of a buffer that always existed.
        """
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += gradient

    def zero_grad(self) -> None:
        """Reset the gradient accumulator (kept allocated for the next step)."""
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name or 'unnamed'}, shape={self.shape})"


def glorot_uniform(
    fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Glorot/Xavier uniform initialisation — the right default for
    tanh/sigmoid hidden layers."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def he_normal(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """He normal initialisation — the right default for ReLU layers."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))


def zeros_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """All-zero initialisation (biases)."""
    return np.zeros((fan_in, fan_out))


#: Name → initialiser registry (used by serialisation).
INITIALIZERS: dict = {
    "glorot_uniform": glorot_uniform,
    "he_normal": he_normal,
    "zeros": zeros_init,
}
