"""REPRO107 clean fixture: components draw from registry streams."""

import numpy as np

from repro.simulation.random import Rng, RngRegistry


class JitterModel:
    def __init__(self, rng: Rng) -> None:
        self._rng = rng  # handed in by the owner of the registry

    def sample(self) -> float:
        return float(self._rng.normal(0.0, 1.0))


def build(seed: int) -> JitterModel:
    return JitterModel(RngRegistry(seed).stream("jitter"))


def describe(rng: np.random.Generator) -> str:  # an annotation, not a call
    return repr(rng.bit_generator)


def seeds(seed: int):
    return np.random.SeedSequence(seed).spawn(2)  # seeding is not a stream
