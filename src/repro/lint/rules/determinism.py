"""Determinism rules: randomness, clocks, hash order, serialization.

These encode the invariants the runtime suites assert (byte-identical
campaign reports, reproducible per-(point, replication) seeding) as
patterns that must not appear in the source at all.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..finding import Finding
from .base import DETERMINISTIC_PACKAGES, LintContext, Rule

__all__ = [
    "BuiltinHashRule",
    "FsOrderRule",
    "RawGeneratorRule",
    "SetIterationRule",
    "UnseededRandomRule",
    "UnsortedJsonRule",
    "WallClockRule",
]


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute/name chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


#: ``numpy.random`` legacy global-state functions (module-level RNG):
#: calling these ties results to hidden global state even when a seed
#: appears somewhere else in the program.
_NUMPY_GLOBAL_RANDOM = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "exponential", "poisson", "binomial", "seed", "standard_normal",
}

#: ``random`` stdlib module functions backed by the hidden global RNG.
_STDLIB_RANDOM = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "gammavariate", "triangular", "seed", "getrandbits",
    "paretovariate", "lognormvariate", "vonmisesvariate", "weibullvariate",
}


class UnseededRandomRule(Rule):
    """REPRO101: global/unseeded RNGs inside the deterministic core.

    Everything under the simulated clock must draw from the run's
    seeded streams (:class:`repro.simulation.random.RngRegistry` or an
    explicitly threaded ``numpy.random.Generator``); module-level RNGs
    (``random.random()``, ``np.random.rand()``) and seedless
    ``default_rng()`` silently break per-scenario reproducibility.
    """

    id = "REPRO101"
    name = "unseeded-random"
    description = (
        "global or unseeded RNG call inside the deterministic core; "
        "draw from a seeded stream instead"
    )
    scope = DETERMINISTIC_PACKAGES
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: LintContext) -> Iterator[Finding]:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2 and parts[1] in _STDLIB_RANDOM:
            yield self.finding(
                node, ctx,
                f"call to global-state '{dotted}()'; use a seeded "
                f"numpy Generator from the run's RngRegistry",
            )
            return
        if len(parts) >= 2 and parts[-2] == "random":
            # np.random.<fn> / numpy.random.<fn>
            if parts[-1] in _NUMPY_GLOBAL_RANDOM:
                yield self.finding(
                    node, ctx,
                    f"call to numpy legacy global RNG '{dotted}()'; "
                    f"thread a seeded Generator instead",
                )
                return
            if parts[-1] == "default_rng" and not node.args and not node.keywords:
                yield self.finding(
                    node, ctx,
                    "default_rng() without a seed is entropy-seeded; "
                    "pass a seed or SeedSequence",
                )


class WallClockRule(Rule):
    """REPRO102: host wall-clock reads inside the deterministic core.

    Simulated components must read :attr:`Simulator.now`; a host clock
    leaking into event times, seeds or reports makes every run unique.
    """

    id = "REPRO102"
    name = "wall-clock"
    description = (
        "wall-clock read inside the deterministic core; use the "
        "simulator clock"
    )
    scope = DETERMINISTIC_PACKAGES
    node_types = (ast.Call,)

    _CLOCK_CALLS = {
        "time.time", "time.monotonic", "time.perf_counter",
        "time.process_time", "time.time_ns", "time.monotonic_ns",
        "time.perf_counter_ns",
    }
    _DATETIME_ATTRS = {"now", "utcnow", "today"}

    def check(self, node: ast.Call, ctx: LintContext) -> Iterator[Finding]:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        if dotted in self._CLOCK_CALLS:
            yield self.finding(
                node, ctx,
                f"'{dotted}()' reads the host clock; simulated components "
                f"must use the simulator's virtual time",
            )
            return
        parts = dotted.split(".")
        if (
            len(parts) >= 2
            and parts[-1] in self._DATETIME_ATTRS
            and parts[-2] in ("datetime", "date")
        ):
            yield self.finding(
                node, ctx,
                f"'{dotted}()' reads the host clock; timestamps in "
                f"deterministic code must come from the simulation",
            )


def _is_set_expr(node: ast.AST) -> Optional[str]:
    """Describe ``node`` when it is syntactically a set, else ``None``."""
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return f"{node.func.id}()"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra: |, &, -, ^ over at least one syntactic set.
        for side in (node.left, node.right):
            described = _is_set_expr(side)
            if described is not None:
                return f"set expression ({described} operand)"
    return None


class SetIterationRule(Rule):
    """REPRO103: iterating a hash-ordered container.

    Set iteration order depends on ``PYTHONHASHSEED`` (for str keys) and
    on insertion history; any set-ordered loop that feeds seeds, traces
    or serialized reports breaks byte-identity across processes.  Wrap
    the iterable in ``sorted(...)`` to fix the order, or suppress with
    ``# repro: allow[REPRO103]`` where order provably cannot escape.
    """

    id = "REPRO103"
    name = "set-iteration"
    description = (
        "iteration over a set/frozenset; order depends on PYTHONHASHSEED "
        "— wrap in sorted(...)"
    )
    node_types = (ast.For, ast.comprehension)

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        iterable = node.iter
        described = _is_set_expr(iterable)
        if described is None:
            return
        if ctx.inside_sorted_call(iterable):
            return
        anchor = node if isinstance(node, ast.For) else iterable
        yield self.finding(
            anchor, ctx,
            f"iteration over {described} is hash-ordered; wrap it in "
            f"sorted(...) so downstream seeds/reports stay byte-identical",
        )


class BuiltinHashRule(Rule):
    """REPRO104: ``hash()`` builtin on determinism-sensitive paths.

    ``hash(str)`` changes with ``PYTHONHASHSEED``, so anything derived
    from it (seeds, fingerprints, report fields) differs between
    processes.  Use ``hashlib.blake2b`` like the sweep seeding and the
    trace digests do.
    """

    id = "REPRO104"
    name = "builtin-hash"
    description = (
        "builtin hash() is PYTHONHASHSEED-dependent; derive keys with "
        "hashlib.blake2b"
    )
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: LintContext) -> Iterator[Finding]:
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            yield self.finding(
                node, ctx,
                "builtin hash() varies with PYTHONHASHSEED across "
                "processes; use hashlib.blake2b for stable keys",
            )


class UnsortedJsonRule(Rule):
    """REPRO105: JSON serialization without ``sort_keys=True``.

    Key order in a dump reflects dict insertion history, which refactors
    silently change; every artifact this repo writes (campaign reports,
    manifests, plans, caches) promises byte-identity, so dumps must pin
    the order.
    """

    id = "REPRO105"
    name = "unsorted-json"
    description = "json.dump/json.dumps without sort_keys=True"

    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: LintContext) -> Iterator[Finding]:
        dotted = _dotted(node.func)
        if dotted not in ("json.dump", "json.dumps"):
            return
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                value = keyword.value
                if isinstance(value, ast.Constant) and value.value is False:
                    break  # explicit False: flag it
                return
            if keyword.arg is None:
                return  # **kwargs may carry sort_keys; give the benefit
        yield self.finding(
            node, ctx,
            f"{dotted}(...) without sort_keys=True leaks dict insertion "
            f"order into the artifact; pass sort_keys=True",
        )


class FsOrderRule(Rule):
    """REPRO106: directory listings consumed in filesystem order.

    ``iterdir``/``glob``/``os.listdir`` yield entries in an order the
    filesystem chooses; any listing that feeds results, reports or cache
    scans must be wrapped in ``sorted(...)`` (or suppressed where order
    provably does not matter, e.g. bulk deletion).
    """

    id = "REPRO106"
    name = "fs-order"
    description = (
        "directory listing consumed in filesystem order; wrap in "
        "sorted(...)"
    )
    node_types = (ast.Call,)

    _PATH_METHODS = {"iterdir", "glob", "rglob"}
    _OS_CALLS = {"os.listdir", "os.scandir", "os.walk"}

    def check(self, node: ast.Call, ctx: LintContext) -> Iterator[Finding]:
        dotted = _dotted(node.func)
        described = None
        if dotted in self._OS_CALLS:
            described = f"{dotted}()"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self._PATH_METHODS
        ):
            described = f".{node.func.attr}()"
        if described is None:
            return
        if ctx.inside_sorted_call(node):
            return
        yield self.finding(
            node, ctx,
            f"{described} yields entries in filesystem order; wrap the "
            f"listing in sorted(...) before consuming it",
        )


#: numpy constructors of a random stream: ``Generator``, its bit
#: generators and the ``default_rng`` shortcut (``RandomState`` is REPRO101's
#: legacy API and equally bypasses the registry).
_RNG_CONSTRUCTORS = {
    "default_rng", "Generator", "RandomState",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}


def _imported_from_numpy_random(tree: ast.Module, name: str) -> bool:
    """Whether ``name`` is bound by ``from numpy.random import ...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            if any((alias.asname or alias.name) == name for alias in node.names):
                return True
    return False


class RawGeneratorRule(Rule):
    """REPRO107: a numpy random stream built outside ``simulation/random.py``.

    Simulated components draw from :meth:`RngRegistry.stream`, which seeds
    every named stream from the run's master seed and serves ``random()``
    from a block-drawn :class:`~repro.simulation.random.RandomStream`.  A
    component that builds its own ``Generator``/``default_rng``/bit
    generator bypasses both: its draws escape the registry's seeding and
    pay the scalar-call cost the block stream exists to avoid.  Only
    ``repro.simulation.random`` may construct one.  A seedless
    ``default_rng()`` is left to REPRO101, which already flags it.
    """

    id = "REPRO107"
    name = "raw-generator"
    description = (
        "numpy Generator/default_rng/bit generator built in the simulated "
        "layers; draw from an RngRegistry stream"
    )
    scope = (
        "repro.simulation",
        "repro.network",
        "repro.kafka",
        "repro.workloads",
    )
    node_types = (ast.Call,)

    #: The one module that builds the registry's streams.
    _OWNER = "repro.simulation.random"

    def check(self, node: ast.Call, ctx: LintContext) -> Iterator[Finding]:
        if ctx.module == self._OWNER:
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        name = parts[-1]
        if name not in _RNG_CONSTRUCTORS:
            return
        if len(parts) > 1:
            if parts[-2] != "random":
                return
        elif not _imported_from_numpy_random(ctx.tree, name):
            return
        if name == "default_rng" and not node.args and not node.keywords:
            return  # REPRO101's finding
        yield self.finding(
            node, ctx,
            f"'{dotted}(...)' builds a random stream outside "
            f"repro.simulation.random; take a stream from the run's "
            f"RngRegistry instead",
        )
