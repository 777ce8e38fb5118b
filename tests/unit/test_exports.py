"""Every name a ``repro`` module lists in ``__all__`` must exist.

A re-export left behind after its target is deleted only fails when some
caller imports it; this walks every package and module under ``repro``
and resolves each ``__all__`` entry with ``getattr``, so a stale entry
fails here first.
"""

import importlib
import pkgutil

import pytest

import repro


MODULES = sorted(
    [repro.__name__]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")]
)


def test_walk_finds_every_subpackage():
    packages = {name.split(".")[1] for name in MODULES if name.count(".") >= 1}
    assert {"ann", "analysis", "kafka", "network", "testbed", "workloads"} <= packages


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [symbol for symbol in exported if not hasattr(module, symbol)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"
