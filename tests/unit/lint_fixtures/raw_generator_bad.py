"""REPRO107 violating fixture: random streams built outside the registry."""

import numpy as np
from numpy.random import PCG64, default_rng


class JitterModel:
    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)  # REPRO107: private stream

    def reseed(self, seed: int) -> None:
        # REPRO107 twice: the Generator and its bit generator.
        self._rng = np.random.Generator(np.random.PCG64(seed))


def imported_names(seed: int):
    return default_rng(PCG64(seed))  # REPRO107 twice, via from-imports
