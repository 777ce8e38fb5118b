"""The sequential MLP and its training loop.

:func:`build_mlp` constructs the paper's topology — four hidden layers of
200, 200, 200 and 64 neurons — and :meth:`Sequential.fit` runs minibatch
training with optional validation-based early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .layers import Dense, Layer
from .losses import MSELoss
from .optimizers import Optimizer, get_optimizer
from .tensor import Parameter

__all__ = ["TrainingHistory", "Sequential", "build_mlp", "PAPER_HIDDEN_LAYERS"]

#: The paper's hidden-layer widths (Section III-G).
PAPER_HIDDEN_LAYERS: Tuple[int, ...] = (200, 200, 200, 64)


@dataclass
class TrainingHistory:
    """Per-epoch training record."""

    train_loss: List[float] = field(default_factory=list)
    validation_loss: List[float] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)


class Sequential:
    """A stack of layers trained with backpropagation."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers = list(layers)

    def parameters(self) -> List[Parameter]:
        """All trainable parameters, input to output."""
        out: List[Parameter] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the network on a batch (rows = samples)."""
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass."""
        return self.forward(x, training=False)

    def predict_rowwise(self, x: np.ndarray) -> np.ndarray:
        """Batched inference whose rows are bitwise-identical to
        ``predict(x[i:i+1])[0]`` for every row ``i``.

        A plain 2-D matmul is *not* guaranteed to reproduce the single-row
        result bit for bit (BLAS picks different accumulation orders for
        GEMM vs GEMV), which would break callers that memoise batched
        predictions and compare them against the scalar path.  The batch
        is therefore carried as a stack of ``(1, d)`` rows — shape
        ``(n, 1, d)`` through every layer — so each Dense layer's
        ``(n, 1, d) @ (d, h)`` matmul keeps per-row GEMV semantics while
        the Python-level layer overhead is paid once per batch; bias
        addition and the activations are elementwise and therefore
        row-independent anyway.  The input shape is checked once (a width
        mismatch fails in the first matmul) and the row axis squeezed once
        at the end.  Every layer must be :class:`Dense`, the only layer
        type.
        """
        out = np.asarray(x, dtype=np.float64)
        if out.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {out.shape}")
        out = out[:, None, :]
        for layer in self.layers:
            if not isinstance(layer, Dense):
                raise TypeError(f"predict_rowwise runs Dense layers only, got {layer!r}")
            pre = out @ layer.weight.value
            pre += layer.bias.value
            out = layer.activation.apply(pre)
        return out[:, 0, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate a loss gradient through every layer."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean squared error of the current network on ``(x, y)``."""
        value, _ = MSELoss().value_and_grad(self.predict(x), np.asarray(y, dtype=np.float64))
        return value

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1000,
        batch_size: int = 32,
        optimizer: "str | Optimizer" = "sgd",
        validation: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        patience: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> TrainingHistory:
        """Minibatch training on the mean squared error.

        Gradient buffers and the layers' cached activations are released
        when it returns, so a fitted network holds only its weights.

        Parameters
        ----------
        epochs:
            Maximum passes over the data (the paper uses 1000).
        batch_size:
            Minibatch size (at least 1).
        optimizer:
            Name or instance (paper: SGD, learning rate 0.5).
        validation:
            Optional ``(x_val, y_val)`` evaluated each epoch.
        patience:
            Early-stop after this many epochs without validation
            improvement (requires ``validation``).
        rng:
            Shuffling source; fixed seed → identical training run.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if patience is not None and validation is None:
            raise ValueError("patience requires a validation set")
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("x and y must be 2-D with matching row counts")
        optimizer = get_optimizer(optimizer)
        loss_fn = MSELoss()
        rng = rng if rng is not None else np.random.default_rng(0)
        history = TrainingHistory()
        best_val = np.inf
        best_weights: Optional[List[np.ndarray]] = None
        stale = 0
        parameters = self.parameters()
        # Per-epoch gather-once/slice-views beats per-batch fancy
        # indexing (identical batches, far less numpy overhead).
        count = x.shape[0]
        try:
            for _ in range(epochs):
                epoch_loss = 0.0
                batches = 0
                order = rng.permutation(count)
                x_epoch = x[order]
                y_epoch = y[order]
                for start in range(0, count, batch_size):
                    xb = x_epoch[start : start + batch_size]
                    yb = y_epoch[start : start + batch_size]
                    predicted = self.forward(xb, training=True)
                    value, grad = loss_fn.value_and_grad(predicted, yb)
                    self.backward(grad)
                    optimizer.step(parameters)
                    epoch_loss += value
                    batches += 1
                history.train_loss.append(epoch_loss / max(1, batches))
                if validation is not None:
                    val = self.evaluate(validation[0], validation[1])
                    history.validation_loss.append(val)
                    if val < best_val - 1e-9:
                        best_val = val
                        best_weights = [p.value.copy() for p in parameters]
                        stale = 0
                    else:
                        stale += 1
                        if patience is not None and stale > patience:
                            history.stopped_early = True
                            break
        finally:
            for layer in self.layers:
                layer.release_training_state()
        if best_weights is not None:
            # Copied into the arrays built before training, so the kept
            # weights do not pin mid-training heap blocks and the freed
            # training state can go back to the OS.
            for parameter, weights in zip(parameters, best_weights):
                parameter.value[...] = weights
        return history


def build_mlp(
    input_dim: int,
    output_dim: int,
    hidden: Sequence[int] = PAPER_HIDDEN_LAYERS,
    seed: int = 0,
) -> Sequential:
    """Build the paper's fully-connected architecture: ReLU hidden layers
    and a sigmoid output.

    The sigmoid output keeps predicted probabilities inside (0, 1) — the
    corner case the paper worries about ("P̂_l or P̂_d become negative").
    """
    if input_dim < 1 or output_dim < 1:
        raise ValueError("input_dim and output_dim must be positive")
    rng = np.random.default_rng(seed)
    widths = [input_dim, *hidden]
    layers: List[Layer] = [
        Dense(width_in, width_out, "relu", rng)
        for width_in, width_out in zip(widths[:-1], widths[1:])
    ]
    layers.append(Dense(widths[-1], output_dim, "sigmoid", rng))
    return Sequential(layers)
