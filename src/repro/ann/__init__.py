"""A from-scratch neural-network framework on numpy.

Re-implements what the paper built in a deep-learning framework: dense
layers, ReLU/sigmoid/identity activations, the MSE loss, SGD/Momentum/Adam,
a standard scaler, the MAE metric and model persistence.  ``build_mlp``
constructs the paper's 200/200/200/64 topology with ReLU hidden layers and
a sigmoid output.
"""

from .activations import ACTIVATIONS, Activation, Identity, Relu, Sigmoid, get_activation
from .layers import Dense, Layer
from .losses import MSELoss
from .metrics import mae
from .network import PAPER_HIDDEN_LAYERS, Sequential, TrainingHistory, build_mlp
from .optimizers import Adam, Momentum, Optimizer, SGD, get_optimizer
from .scaling import StandardScaler
from .serialize import load_model, save_model
from .tensor import INITIALIZERS, Parameter, glorot_uniform, he_normal, zeros_init

__all__ = [
    "Activation", "Relu", "Sigmoid", "Identity", "ACTIVATIONS", "get_activation",
    "Layer", "Dense",
    "MSELoss",
    "mae",
    "Sequential", "TrainingHistory", "build_mlp", "PAPER_HIDDEN_LAYERS",
    "Optimizer", "SGD", "Momentum", "Adam", "get_optimizer",
    "StandardScaler",
    "save_model", "load_model",
    "Parameter", "glorot_uniform", "he_normal", "zeros_init", "INITIALIZERS",
]
