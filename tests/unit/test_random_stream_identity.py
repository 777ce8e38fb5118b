"""A registry stream must draw bit for bit what a plain ``Generator`` draws.

``RandomStream`` serves scalar ``random()`` calls from blocks drawn with
``Generator.random(n)`` and realigns the generator before any other draw.
That is only valid while PCG64 spends exactly one 64-bit output per double
and ``advance`` lands where the scalar draws would have, so the reference
here stays a plain :class:`numpy.random.Generator` built from the same
seed: a numpy change that breaks the identity fails these tests instead of
silently shifting every simulated result.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.simulation import RandomStream, RngRegistry
from repro.simulation.random import _BLOCK_AFTER, _BLOCK_MAX, _BLOCK_MIN

SEED = 20200629


def pair(seed=SEED):
    """A block stream and its plain reference, built from one seed."""
    reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    stream = RandomStream(np.random.PCG64(np.random.SeedSequence(seed)))
    return stream, reference


#: Every non-``random()`` draw the identity covers: name -> call.
OTHER_DRAWS = {
    "uniform": lambda rng: rng.uniform(-0.25, 3.5),
    "uniform_int_bounds": lambda rng: rng.uniform(1, 7),
    "normal": lambda rng: rng.normal(0.1, 0.02),
    "exponential": lambda rng: rng.exponential(0.5),
    "integers": lambda rng: rng.integers(0, 1000),
    # Small int32 ranges leave half of a 64-bit output buffered in the
    # bit generator, which ``advance`` would otherwise clear.
    "integers_int32": lambda rng: rng.integers(0, 5, dtype=np.int32),
    "choice": lambda rng: rng.choice(17),
    "random_array": lambda rng: tuple(rng.random(3)),
    "pareto": lambda rng: rng.pareto(2.5),
}


def draw(rng, op):
    return rng.random() if op == "random" else OTHER_DRAWS[op](rng)


def assert_same(stream, reference, ops):
    for position, op in enumerate(ops):
        expected = draw(reference, op)
        actual = draw(stream, op)
        assert type(actual) is type(expected), (position, op)
        assert actual == expected, f"draw {position} ({op}): {actual!r} != {expected!r}"
    assert stream.bit_generator.state == reference.bit_generator.state


def block_boundaries(count):
    """Number of ``random()`` calls after which each of the first ``count``
    blocks is used up exactly."""
    boundaries = []
    served = _BLOCK_AFTER - 1
    size = _BLOCK_MIN
    for _ in range(count):
        served += size
        boundaries.append(served)
        size = min(2 * size, _BLOCK_MAX)
    return boundaries


@pytest.mark.parametrize("other", sorted(OTHER_DRAWS))
def test_other_draw_exactly_at_each_block_boundary(other):
    stream, reference = pair()
    for boundary in block_boundaries(6):
        # A run of exactly ``boundary`` scalar draws ends a block ...
        assert_same(stream, reference, ["random"] * boundary + [other])
    # ... and a second run that ends one value into a fresh block.
    assert_same(stream, reference, ["random"] * (_BLOCK_AFTER + _BLOCK_MIN + 1) + [other])


@pytest.mark.parametrize("other", sorted(OTHER_DRAWS))
def test_other_draw_mid_block(other):
    stream, reference = pair()
    for run in (_BLOCK_AFTER - 1, _BLOCK_AFTER, _BLOCK_AFTER + 1, 100, 333, 2500):
        assert_same(stream, reference, ["random"] * run + [other, other, "random", other])


def test_buffered_half_output_survives_a_block():
    stream, reference = pair()
    ops = ["integers_int32"] + ["random"] * 500 + ["integers_int32", "integers_int32"]
    assert_same(stream, reference, ops * 20)


def test_interleaved_draws_match_plain_generator_over_1e5_draws():
    """10^5+ draws: runs of scalar ``random()`` calls of every length, from
    one call to several full blocks, broken by every other kind of draw."""
    stream, reference = pair()
    schedule = np.random.default_rng(7)
    others = sorted(OTHER_DRAWS)
    ops = []
    while len(ops) < 100_000:
        kind = schedule.integers(0, 3)
        if kind == 0:
            run = int(schedule.integers(1, _BLOCK_AFTER + 2))
        elif kind == 1:
            run = int(schedule.integers(_BLOCK_AFTER, 4 * _BLOCK_MAX))
        else:
            run = int(schedule.choice(block_boundaries(8)))
        ops.extend(["random"] * run)
        ops.append(others[int(schedule.integers(0, len(others)))])
    assert_same(stream, reference, ops)


def test_bit_generator_read_realigns():
    stream, reference = pair()
    for _ in range(300):
        assert stream.random() == reference.random()
    assert stream.bit_generator.state == reference.bit_generator.state
    for _ in range(300):
        assert stream.random() == reference.random()


def test_registry_stream_matches_generator_from_its_seed_sequence():
    name = "link"
    seed = 4
    stream = RngRegistry(seed).stream(name)
    reference = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, zlib.crc32(name.encode("utf-8"))]))
    )
    ops = (["random"] * 1500 + ["normal", "exponential", "uniform"]) * 4
    assert_same(stream, reference, ops)
