"""Seeded random-number streams for reproducible experiments.

Every stochastic component (loss model, latency model, workload, ...) draws
from its own named stream so that adding or removing one component never
perturbs the draws seen by another.  Streams are spawned deterministically
from a single master seed with :class:`numpy.random.SeedSequence`.

A stream is a :class:`RandomStream`: the per-packet and per-message hot
path calls ``random()`` millions of times, and a scalar
``Generator.random()`` call costs about ten times a Python list read, so a
stream that sees a run of plain ``random()`` calls serves them from a block
drawn in one ``Generator.random(n)`` call.  Every other draw sees exactly
the generator state it would have seen without the block, so the draws are
bitwise those of a plain :class:`numpy.random.Generator` with the same seed
(``tests/unit/test_random_stream_identity.py`` keeps the plain generator as
the reference).
"""

from __future__ import annotations

import operator
import zlib
from typing import Any, Dict, List, Union

import numpy as np

__all__ = ["RandomStream", "Rng", "RngRegistry"]

#: Consecutive scalar ``random()`` calls after which a stream switches to
#: blocks; a stream that interleaves other draws more often than this never
#: draws a block it would have to rewind.
_BLOCK_AFTER = 16
#: First block size; each used-up block doubles it, up to ``_BLOCK_MAX``.
_BLOCK_MIN = 64
_BLOCK_MAX = 1024
#: An exhausted iterator: the "no block" value of ``RandomStream._values``.
_NO_BLOCK = iter(())
_FLOAT64 = np.float64


class RandomStream:
    """A PCG64 :class:`numpy.random.Generator` whose scalar ``random()`` is block-drawn.

    ``random()`` with no arguments is served from a list of values drawn by
    one ``Generator.random(n)`` call.  PCG64 spends exactly one 64-bit output
    per double, so the values are the ones ``n`` scalar calls would return.
    Any other use of the generator — another distribution, ``random`` with
    arguments, ``bit_generator`` — first *realigns* it: it restores the
    bit-generator state saved at the start of the block, advances it past
    the values handed out so far, drops the rest of the block and delegates
    to the generator.

    Anything that reads ``bit_generator`` and keeps drawing from it must
    not interleave those draws with this stream's ``random()``: only the
    read itself realigns.
    """

    __slots__ = ("_generator", "_bits", "_values", "_saved", "_size", "_run")

    def __init__(self, bits: np.random.PCG64) -> None:
        self._generator = np.random.Generator(bits)
        self._bits = bits
        self._values: Any = _NO_BLOCK
        #: Bit-generator state at the start of the current block, or None
        #: while no block is held (the generator is then exactly aligned).
        self._saved: Any = None
        self._size = 0
        self._run = 0

    def random(self, size: Any = None, dtype: Any = _FLOAT64, out: Any = None) -> Any:
        """``Generator.random``; the scalar form is served from the block."""
        if size is None and out is None and dtype is _FLOAT64:
            value = next(self._values, None)
            if value is not None:
                return value
            return self._refill()
        return self._aligned().random(size, dtype, out)

    def __getattr__(self, name: str) -> Any:
        # Every other Generator attribute: realign, then delegate.  Private
        # names are this object's own slots (unset only mid-unpickling).
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._aligned(), name)

    def _refill(self) -> float:
        """The block is used up (or absent): draw one value, maybe a block."""
        if self._saved is None:
            self._run += 1
            if self._run < _BLOCK_AFTER:
                return self._generator.random()
            size = _BLOCK_MIN
        else:
            # The generator already stands at the end of the used-up block.
            size = min(2 * self._size, _BLOCK_MAX)
        self._size = size
        self._saved = self._bits.state
        values: List[float] = self._generator.random(size).tolist()
        self._values = iterator = iter(values)
        return next(iterator)

    def _aligned(self) -> np.random.Generator:
        """The generator, positioned right after the values handed out."""
        saved = self._saved
        if saved is not None:
            consumed = self._size - operator.length_hint(self._values)
            bits = self._bits
            bits.state = saved
            bits.advance(consumed)
            if saved["has_uint32"]:
                # ``advance`` clears the buffered half of a 64-bit output
                # (left by 32-bit integer draws); doubles never touch it.
                state = bits.state
                state["has_uint32"] = saved["has_uint32"]
                state["uinteger"] = saved["uinteger"]
                bits.state = state
            self._saved = None
            self._values = _NO_BLOCK
        self._run = 0
        return self._generator


#: What a stochastic component draws from: a registry stream, or a plain
#: generator (tests and stand-alone uses).
Rng = Union[np.random.Generator, RandomStream]


class RngRegistry:
    """A factory of named, independent random streams.

    Parameters
    ----------
    master_seed:
        Seed from which every named stream is derived.  Two registries built
        from the same seed hand out identical streams for identical names,
        regardless of the order the streams are requested in.

    Examples
    --------
    >>> a = RngRegistry(42).stream("loss")
    >>> b = RngRegistry(42).stream("loss")
    >>> float(a.random()) == float(b.random())
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        if master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        self._master_seed = int(master_seed)
        self._streams: Dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for ``name``, creating it on first use.

        The stream key is derived from a stable hash of the name so stream
        identity does not depend on request order.
        """
        if name not in self._streams:
            name_key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence([self._master_seed, name_key])
            self._streams[name] = RandomStream(np.random.PCG64(seq))
        return self._streams[name]
